import dataclasses
import functools
import io
import json
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DAY0, NOT_A_VALUE, table_with_bad_row
from infodemic.exposure import ExposureMatrix
from infodemic.replica import reference_model
from infodemic.salesmodel import (
    FittedSalesModel,
    SalesModelError,
    SalesSeries,
    fit,
    group_impacts,
    impacts_from,
    load_model,
    model_from_json,
    model_to_json,
    predict,
    sales_index,
    save_model,
    sum_index,
)


def days(n):
    return tuple(DAY0 + timedelta(days=i) for i in range(n))


def planted_dataset(n_days=19, noise=0.0, seed=0):
    """Exposure counts plus a sales series generated from known impacts."""
    rng = np.random.default_rng(seed)
    # heavy-tailed column scales: a few classes dominate the count variance,
    # mirroring the shape of real exposure data
    scales = np.array([5000, 40, 600, 25, 900, 4, 30])
    counts = rng.integers(0, 2 * scales[None, :] + 1, size=(n_days, 7))
    impacts = np.array([5e-5, 6e-3, 4e-4, 3e-3, 8e-4, 3e-5, 4e-4])
    values = 0.99 + counts @ impacts
    if noise:
        values = values + rng.normal(0, noise, n_days)
    return ExposureMatrix(days(n_days), counts), SalesSeries(days(n_days), values), impacts


# -- index arithmetic --------------------------------------------------------


def test_sales_index():
    assert sales_index(150.0, 100.0) == pytest.approx(0.5)
    assert sales_index(80.0, 100.0) == pytest.approx(-0.2)
    with pytest.raises(SalesModelError):
        sales_index(1.0, 0.0)


def test_series_sum():
    assert sum_index(SalesSeries(days(2), np.array([0.1, -0.1]))) == pytest.approx(0.0)


def test_series_validation():
    with pytest.raises(SalesModelError):
        SalesSeries(days(3), np.zeros(2))
    bad_days = (DAY0, DAY0)
    with pytest.raises(SalesModelError):
        SalesSeries(bad_days, np.zeros(2))


def test_series_csv_roundtrip_index_form(tmp_path):
    s = SalesSeries(days(3), np.array([0.1, -0.05, 0.3]))
    p = tmp_path / "sales.csv"
    s.to_csv(p, header_comments=["hello"])
    back = SalesSeries.from_csv(io.StringIO(p.read_text()))
    assert back.days == s.days
    assert np.array_equal(back.values, s.values)


def test_series_csv_raw_form():
    text = "date,sales,sales_prev_year\n2020-02-21,120,100\n2020-02-22,90,100\n"
    s = SalesSeries.from_csv(io.StringIO(text))
    assert s.values == pytest.approx([0.2, -0.1])
    with pytest.raises(SalesModelError):
        SalesSeries.from_csv(io.StringIO("wrong,header\n"))


@pytest.mark.parametrize(
    "text, line, what",
    [
        ("", 1, "expected header"),
        ("# only a comment\n", 2, "expected header"),
        ("date,sales_index\n2020-02-21\n", 2, "malformed record"),  # short row
        ("date,sales_index\n2020-02-21,0.1,7\n", 2, "malformed record"),  # extra column
        ("date,sales_index\n2020-02-21,0.1\n2020-02-22,abc\n", 3, "could not convert"),
        # `float` takes these: digit-group `_`, Arabic-Indic and fullwidth digits
        ("date,sales_index\n2020-02-21,0.1\n2020-02-22,0_5\n", 3, "'0_5' is not ASCII"),
        ("date,sales_index\n2020-02-21,0.1\n2020-02-22,١٢\n", 3, "not ASCII decimal"),
        ("date,sales,sales_prev_year\n2020-02-21,５,100\n", 2, "not ASCII decimal"),
        ("date,sales_index\nFeb 21,0.1\n", 2, "isoformat"),
        ("date,sales,sales_prev_year\n2020-02-21,5,0\n", 2, "must be positive"),
        ("date,sales_index\n2020-02-21,0.1\n2020-02-22,nan\n", 3, "non-finite value in 'nan'"),
        ("date,sales_index\n2020-02-21,-inf\n", 2, "non-finite"),
        ("date,sales,sales_prev_year\n2020-02-21,inf,100\n", 2, "non-finite"),
        ("date,sales,sales_prev_year\n2020-02-21,5,nan\n", 2, "non-finite"),
        ("date,sales_index\n2020-02-22,0.1\n2020-02-21,0.2\n", 3,
         r"days must be strictly increasing \(2020-02-21 after 2020-02-22\)"),
        ("date,sales_index\n2020-02-21,0.1\n2020-02-21,0.2\n", 3, "strictly increasing"),
    ],
)
def test_series_csv_errors_are_line_numbered(text, line, what):
    with pytest.raises(SalesModelError, match=f"^line {line}: .*{what}"):
        SalesSeries.from_csv(io.StringIO(text))


@st.composite
def sales_series(draw):
    days = sorted(draw(st.lists(st.dates(), unique=True, max_size=12)))
    values = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(days),
                      max_size=len(days))
    return SalesSeries(tuple(days), np.array(draw(values), dtype=float))


@given(sales_series())
@settings(max_examples=100, deadline=None)
def test_series_csv_roundtrip_any_values(tmp_path_factory, s):
    p = tmp_path_factory.mktemp("sales") / "sales.csv"
    s.to_csv(p, header_comments=["generated"])
    with open(p, encoding="utf-8", newline="") as fh:
        back = SalesSeries.from_csv(fh)
    assert back.days == s.days
    assert np.array_equal(back.values, s.values, equal_nan=True)


GOOD_SALES = ["2020-02-20,0.25", "2020-02-22,-0.5"]
DAY = "2020-02-21"
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
BAD_SALES = {
    "date,sales_index": st.one_of(
        st.integers(1, 5).filter(lambda k: k != 2).map(lambda k: ",".join([DAY] + ["1"] * (k - 1))),
        NOT_A_VALUE.map(lambda t: f"{t},0.1"),
        NOT_A_VALUE.map(lambda t: f"{DAY},{t}"),
        NON_FINITE.map(lambda t: f"{DAY},{t}"),
    ),
    "date,sales,sales_prev_year": st.one_of(
        NOT_A_VALUE.map(lambda t: f"{DAY},{t},100"),
        NON_FINITE.map(lambda t: f"{DAY},{t},100"),
        st.floats(max_value=0).map(lambda p: f"{DAY},5,{p!r}"),
    ),
}


@given(st.sampled_from(sorted(BAD_SALES)).flatmap(
    lambda header: table_with_bad_row(
        header, GOOD_SALES if header == "date,sales_index" else ["2020-02-20,5,4"],
        BAD_SALES[header],
    )
))
def test_series_csv_bad_row_fails_at_its_line(case):
    text, line = case
    with pytest.raises(SalesModelError, match=f"^line {line}: "):
        SalesSeries.from_csv(io.StringIO(text))


# -- fitting -----------------------------------------------------------------


def test_fit_recovers_planted_impacts_noise_free():
    matrix, sales, impacts = planted_dataset()
    model = fit(matrix, sales, k=7)
    assert np.abs(model.per_viewer_impacts - impacts).max() < 1e-10
    assert model.diagnostics.r_squared == pytest.approx(1.0, abs=1e-10)
    pred = predict(model, matrix)
    assert np.abs(pred.values - sales.values).max() < 1e-10


def test_fit_low_rank_projection_close_with_noise():
    matrix, sales, impacts = planted_dataset(noise=1e-4, seed=3)
    model = fit(matrix, sales, k=4)
    pred = predict(model, matrix)
    # four components carry nearly all count variance, so the fit is tight
    assert np.corrcoef(pred.values, sales.values)[0, 1] > 0.99


def test_fit_day_mismatch():
    matrix, sales, _ = planted_dataset()
    other = SalesSeries(tuple(d + timedelta(days=1) for d in sales.days), sales.values)
    with pytest.raises(SalesModelError):
        fit(matrix, other)


def test_fit_rejects_non_finite_sales():
    matrix, sales, _ = planted_dataset()
    for bad in (np.nan, np.inf):
        values = sales.values.copy()
        values[3] = bad
        with pytest.raises(SalesModelError, match="finite"):
            fit(matrix, SalesSeries(sales.days, values))


def test_fit_needs_enough_days():
    matrix, sales, _ = planted_dataset(n_days=5)
    with pytest.raises(SalesModelError):
        fit(matrix, sales, k=4)


def test_fit_drop_nonsignificant_zeroes_coefficients():
    # one of the four retained components is far from significant (p near
    # 0.89), the other three far below 0.05
    matrix, sales, _ = planted_dataset(noise=0.05, seed=5)
    model = fit(matrix, sales, k=4, drop_nonsignificant=True)
    d = model.diagnostics
    dropped = d.p_values[:4] > 0.05
    kept = ~dropped
    assert dropped.any() and kept.any()
    assert np.all(model.coefficients[dropped] == 0.0)
    assert np.array_equal(model.coefficients[kept], d.coefficients[kept])


# -- impacts -----------------------------------------------------------------


def test_impacts_from_inner_product():
    e = np.array([[1.0, 0.0], [0.0, 2.0]])
    a = np.array([3.0, 5.0])
    assert impacts_from(e, a) == pytest.approx([3.0, 10.0])
    with pytest.raises(SalesModelError):
        impacts_from(e, np.array([1.0, 2.0, 3.0]))


def test_group_impacts_scaling():
    gi = group_impacts(np.array([0.1, -0.2]), np.array([10, 5]))
    assert gi == pytest.approx([1.0, -1.0])
    with pytest.raises(SalesModelError):
        group_impacts(np.array([0.1]), np.array([-1]))


def test_group_impacts_accepts_model():
    matrix, sales, impacts = planted_dataset()
    model = fit(matrix, sales, k=7)
    totals = matrix.counts.sum(axis=0)
    gi = group_impacts(model.per_viewer_impacts, totals)
    assert np.abs(gi - totals * impacts).max() < 1e-6


# -- persistence -------------------------------------------------------------


def test_model_json_roundtrip(tmp_path):
    matrix, sales, _ = planted_dataset(noise=1e-3, seed=4)
    model = fit(matrix, sales, k=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.k == model.k
    assert back.intercept == model.intercept
    assert np.array_equal(back.coefficients, model.coefficients)
    assert back.train_days == model.train_days
    # every field of the PCA and of the diagnostics, values and types
    for part in ("pca", "diagnostics"):
        for f in dataclasses.fields(getattr(model, part)):
            a, b = (getattr(getattr(m, part), f.name) for m in (back, model))
            assert type(a) is type(b), f.name
            assert np.array_equal(a, b), f.name
    assert np.array_equal(back.per_viewer_impacts, model.per_viewer_impacts)
    pred_a = predict(model, matrix)
    pred_b = predict(back, matrix)
    assert np.array_equal(pred_a.values, pred_b.values)


def no_constants(name):
    raise AssertionError(f"model.json holds {name}, which is not JSON")


def test_model_json_writes_a_non_finite_number_as_null():
    """The reference model's exact fit has an infinite F, and a diagnostic
    may be NaN: both are written as `null`, so the document parses as
    plain JSON, and read back as NaN; prediction does not change."""
    model = reference_model(1000)
    assert model.diagnostics.f_value == float("inf")
    stderrs = np.array([np.nan, 1.0, -np.inf, 0.5, 2.0, 0.0, np.inf, 3.0])
    model = dataclasses.replace(
        model, diagnostics=dataclasses.replace(model.diagnostics, stderrs=stderrs)
    )
    text = model_to_json(model)
    doc = json.loads(text, parse_constant=no_constants)
    assert doc["diagnostics"]["f_value"] is None
    assert doc["diagnostics"]["stderrs"] == [None, 1.0, None, 0.5, 2.0, 0.0, None, 3.0]
    back = model_from_json(text)
    assert np.isnan(back.diagnostics.f_value)
    want = np.where(np.isfinite(stderrs), stderrs, np.nan)
    np.testing.assert_array_equal(back.diagnostics.stderrs, want)
    counts = np.arange(len(model.train_days) * 7).reshape(-1, 7)
    matrix = ExposureMatrix(model.train_days, counts)
    assert np.array_equal(predict(back, matrix).values, predict(model, matrix).values)


@pytest.mark.parametrize("field", ["means", "intercept"])
def test_model_json_null_in_a_field_prediction_reads_is_not_finite(field):
    doc = json.loads(valid_model_json())
    if field == "intercept":
        doc[field] = None
    else:
        doc[field][0] = None
    with pytest.raises(SalesModelError, match=f"model field {field!r} must be finite"):
        model_from_json(json.dumps(doc))


def test_model_json_keys_in_order():
    """The document's top-level and diagnostics keys, as written."""
    matrix, sales, _ = planted_dataset()
    doc = json.loads(model_to_json(fit(matrix, sales, k=4)))
    assert list(doc) == [
        "format_version", "means", "eigenvalues", "eigenvectors", "contribution", "k",
        "coefficients", "intercept", "per_viewer_impacts", "train_days", "diagnostics",
    ]
    assert list(doc["diagnostics"]) == [
        "coefficients", "intercept", "stderrs", "t_values", "p_values", "r_squared", "f_value",
        "dof", "sst_zero",
    ]


def test_model_json_version_check():
    matrix, sales, _ = planted_dataset()
    model = fit(matrix, sales, k=4)
    doc = model_to_json(model).replace('"format_version": 1', '"format_version": 99')
    with pytest.raises(SalesModelError):
        model_from_json(doc)


# one value of every JSON type, numbers of either kind, and nested lists
JSON_VALUES = st.sampled_from(
    [None, True, 0, 3, 2.5, "x", "2020-02-21", [], ["x"], [1.0], [[1.0]], [True], {}, {"k": 4}]
)


@functools.cache
def valid_model_json() -> str:
    matrix, sales, _ = planted_dataset(noise=1e-3, seed=4)
    return model_to_json(fit(matrix, sales, k=4))


@st.composite
def edited_model_docs(draw):
    """A valid model document with one key dropped or retyped, or a
    document that is not an object at all."""
    doc = json.loads(valid_model_json())
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict))), None
    part = doc if draw(st.booleans()) else doc["diagnostics"]
    key = draw(st.sampled_from(sorted(part)))
    if draw(st.booleans()):
        del part[key]
        return doc, key
    part[key] = draw(JSON_VALUES)
    return doc, None


@given(edited_model_docs())
@settings(max_examples=200, deadline=None)
def test_model_json_shape_errors_are_sales_model_errors(edit):
    doc, dropped = edit
    try:
        model = model_from_json(json.dumps(doc))
    except SalesModelError:
        return
    # only the derived impacts may be missing, and what loads is usable
    assert dropped in (None, "per_viewer_impacts")
    matrix, _, _ = planted_dataset()
    assert np.isfinite(predict(model, matrix).values).all()
    assert model.per_viewer_impacts.shape == (7,)


@pytest.mark.parametrize(
    "text, what",
    [
        ("[]", "must be a JSON object"),
        ('{"format_version": 1}', "'diagnostics' missing"),
        ('{"format_version": true}', "unsupported model format True"),
    ],
)
def test_model_json_shape_error_messages(text, what):
    with pytest.raises(SalesModelError, match=what):
        model_from_json(text)
