"""Sales-index model: fit exposure counts to year-over-year sales change.

Pipeline: covariance PCA of the seven daily viewer counts, then OLS of
the retained principal-component scores against the sales index.  The
fitted model exposes per-viewer impacts (regression coefficients pulled
back through the eigenvectors) and per-group impacts (impacts scaled by
period viewer totals).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable, Sequence, TextIO

import numpy as np

from ._table import at_line, atomic_write, parse_day, parse_number, read_table, write_table
from .exposure import ExposureMatrix
from .numerics import NumericsError, OlsResult, PcaResult, ols, pca, project

MODEL_FORMAT_VERSION = 1
_SIGNIFICANCE = 0.05  # the p-value above which `fit` may drop a component

# sales.csv holds the index itself, or raw sales it is computed from
SALES_HEADERS = (["date", "sales_index"], ["date", "sales", "sales_prev_year"])


class SalesModelError(ValueError):
    pass


def sales_index(sales_t: float, sales_prev: float) -> float:
    """Year-over-year relative change: sales_t / sales_prev - 1."""
    if sales_prev <= 0:
        raise SalesModelError("previous-year sales must be positive")
    return sales_t / sales_prev - 1.0


@dataclass(frozen=True)
class SalesSeries:
    days: tuple[date, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.shape != (len(self.days),):
            raise SalesModelError("values length must match days")
        for a, b in zip(self.days, self.days[1:]):
            if b <= a:
                raise SalesModelError("days must be strictly increasing")

    def to_csv(self, path: str | os.PathLike, header_comments: Sequence[str] = ()) -> None:
        write_table(path, SALES_HEADERS[0], zip(self.days, self.values.tolist()), header_comments)

    @classmethod
    def from_csv(cls, stream: TextIO | Iterable[str]) -> "SalesSeries":
        """Accepts `date,sales_index` or `date,sales,sales_prev_year`; days
        must increase and values must be finite."""
        days: list[date] = []
        vals: list[float] = []
        for line_no, row in read_table(stream, SALES_HEADERS, at_line(SalesModelError)):
            try:
                days.append(parse_day(row[0]))
                nums = [parse_number(x, float) for x in row[1:]]
                if not np.isfinite(nums).all():
                    raise ValueError(f"non-finite value in {','.join(row[1:])!r}")
                vals.append(nums[0] if len(nums) == 1 else sales_index(*nums))
            except ValueError as e:
                raise SalesModelError(f"line {line_no}: {e}") from None
            if len(days) > 1 and days[-1] <= days[-2]:
                raise SalesModelError(
                    f"line {line_no}: days must be strictly increasing ({days[-1]} after {days[-2]})"
                )
        return cls(tuple(days), np.array(vals))


def sum_index(series: SalesSeries) -> float:
    """Period total of the (predicted or observed) sales index."""
    return float(series.values.sum())


@dataclass(frozen=True)
class FittedSalesModel:
    pca: PcaResult
    k: int
    coefficients: np.ndarray  # length k
    intercept: float
    diagnostics: OlsResult
    train_days: tuple[date, ...]

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def per_viewer_impacts(self) -> np.ndarray:
        """Impact of one extra class member on the daily index (7-vector)."""
        return impacts_from(self.pca.eigenvectors[: self.k], self.coefficients)


def fit(
    matrix: ExposureMatrix,
    sales: SalesSeries,
    k: int = 4,
    *,
    drop_nonsignificant: bool = False,
) -> FittedSalesModel:
    """PCA the seven viewer-count columns, regress k scores on the index.

    `drop_nonsignificant` zeroes coefficients whose p-value exceeds 0.05;
    because centered PC scores are exactly uncorrelated this equals
    refitting without those components (intercept included).
    """
    if matrix.days != sales.days:
        raise SalesModelError("exposure matrix and sales series cover different days")
    n = len(matrix.days)
    if n <= k + 1:
        raise SalesModelError(f"need more than {k + 1} days to retain {k} components")
    p = pca(matrix.counts)
    scores = project(p, matrix.counts, k)
    try:
        diag = ols(scores, sales.values)
    except NumericsError as e:
        raise SalesModelError(str(e)) from e
    coef = diag.coefficients.copy()
    if drop_nonsignificant:
        coef[diag.p_values[:k] > _SIGNIFICANCE] = 0.0
    return FittedSalesModel(
        pca=p,
        k=k,
        coefficients=coef,
        intercept=diag.intercept,
        diagnostics=diag,
        train_days=matrix.days,
    )


def impacts_from(eigenvectors: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """impact_j = sum_i a_i * e_ij over the retained components."""
    e = np.asarray(eigenvectors, dtype=np.float64)
    a = np.asarray(coefficients, dtype=np.float64)
    if e.shape[0] != len(a):
        raise SalesModelError("one eigenvector row per coefficient required")
    return e.T @ a


def group_impacts(impacts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Per-class contribution to the period index: totals * impacts."""
    t = np.asarray(totals, dtype=np.float64)
    if np.any(t < 0):
        raise SalesModelError("totals must be non-negative")
    return t * np.asarray(impacts, dtype=np.float64)


def predict(model: FittedSalesModel, matrix: ExposureMatrix) -> SalesSeries:
    """Predicted index per day, unclamped (negative means below last year)."""
    scores = project(model.pca, matrix.counts, model.k)
    vals = model.intercept + scores @ model.coefficients
    return SalesSeries(matrix.days, vals)


# -- persistence -----------------------------------------------------------

_NUMBER = (int, float)
# the PCA's fields, at the document's top level, and the OLS diagnostics',
# under "diagnostics", in the order written and read: each -> its value, a
# list of numbers of that many dimensions or else a value of that type
_PCA_FIELDS = {"means": 1, "eigenvalues": 1, "eigenvectors": 2, "contribution": 1}
_OLS_FIELDS = {
    "coefficients": 1, "intercept": _NUMBER, "stderrs": 1, "t_values": 1, "p_values": 1,
    "r_squared": _NUMBER, "f_value": _NUMBER, "dof": int, "sst_zero": bool,
}


def model_to_json(model: FittedSalesModel) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        **_to_fields(model.pca, _PCA_FIELDS),
        "k": model.k,
        "coefficients": model.coefficients.tolist(),
        "intercept": model.intercept,
        "per_viewer_impacts": model.per_viewer_impacts.tolist(),
        "train_days": [x.isoformat() for x in model.train_days],
        "diagnostics": _to_fields(model.diagnostics, _OLS_FIELDS),
    }
    return json.dumps(_plain(doc), indent=2, allow_nan=False)


def model_from_json(text: str) -> FittedSalesModel:
    """The model of a `model_to_json` document, a `null` number read as
    NaN.  A document of another shape, a missing key, a value of the
    wrong type or length, or a number that prediction reads and that is
    not finite as a float raises `SalesModelError`."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise SalesModelError("model document must be a JSON object")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != MODEL_FORMAT_VERSION:
        raise SalesModelError(f"unsupported model format {version!r}")
    diag = OlsResult(**_from_fields(_value(doc, "diagnostics", dict), _OLS_FIELDS))
    p = PcaResult(**_from_fields(doc, _PCA_FIELDS))
    components, features = p.eigenvectors.shape
    if len(p.eigenvalues) != components or len(p.contribution) != components:
        raise SalesModelError("eigenvalues and contribution need one entry per eigenvector")
    if len(p.means) != features:
        raise SalesModelError("means need one entry per eigenvector column")
    k = _value(doc, "k", int)
    coefficients = _numbers(doc, "coefficients")
    if not 1 <= k <= components or len(coefficients) != k:
        raise SalesModelError(f"k={k} needs at least k eigenvectors and exactly k coefficients")
    intercept = _value(doc, "intercept", _NUMBER)
    # the fields prediction reads; diagnostics may hold an infinity
    for key, v in (("means", p.means), ("eigenvectors", p.eigenvectors),
                   ("coefficients", coefficients), ("intercept", intercept)):
        if not _finite(v):
            raise SalesModelError(f"model field {key!r} must be finite")
    days = _value(doc, "train_days", list)
    try:
        train_days = tuple(parse_day(x) for x in days)
    except (TypeError, ValueError) as e:
        raise SalesModelError(f"model field 'train_days': {e}") from None
    return FittedSalesModel(
        pca=p,
        k=k,
        coefficients=coefficients,
        intercept=intercept,
        diagnostics=diag,
        train_days=train_days,
    )


def _plain(v):
    """The JSON value `v` with each float that is not finite as None, so
    that it is written as `null`, not as JavaScript's `NaN` or `Infinity`."""
    if isinstance(v, dict):
        return {key: _plain(x) for key, x in v.items()}
    if isinstance(v, list):
        return [_plain(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _to_fields(result, fields: dict) -> dict:
    """The JSON values of the `fields` of `result`."""
    values = {key: getattr(result, key) for key in fields}
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in values.items()}


def _from_fields(doc: dict, fields: dict) -> dict:
    """The values of `fields` in `doc`, each checked in turn."""
    return {
        key: _numbers(doc, key, kind) if isinstance(kind, int) else _value(doc, key, kind)
        for key, kind in fields.items()
    }


def _value(doc: dict, key: str, kind: type | tuple[type, ...]):
    """`doc[key]`, which must be a `kind` (a bool is only a bool); a
    number may be `null`, read as NaN."""
    if key not in doc:
        raise SalesModelError(f"model field {key!r} missing")
    v = doc[key]
    if v is None and kind is _NUMBER:
        return math.nan
    if not isinstance(v, kind) or isinstance(v, bool) and kind is not bool:
        raise SalesModelError(f"model field {key!r} has the wrong type")
    return v


def _numbers(doc: dict, key: str, ndim: int = 1) -> np.ndarray:
    """`doc[key]` as a float array: a list of numbers, or when `ndim` is 2
    a list of equally long lists of numbers."""
    v = _value(doc, key, list)
    rows = [v] if ndim == 1 else v
    a = None
    if all(isinstance(row, list) and all(map(_is_number, row)) for row in rows):
        try:
            a = np.array(v, dtype=np.float64)
        except ValueError:  # rows of unequal length
            pass
        except OverflowError:
            raise SalesModelError(
                f"model field {key!r} holds an integer past the float range"
            ) from None
    if a is None or a.ndim != ndim:
        raise SalesModelError(f"model field {key!r} must be a {ndim}-d list of numbers")
    return a


def _is_number(x) -> bool:
    """Whether `x` is a number, `null` (NaN) included."""
    return x is None or isinstance(x, _NUMBER) and not isinstance(x, bool)


def _finite(v) -> bool:
    """Whether every number of `v`, one or an array, is finite as a float."""
    try:
        return bool(np.isfinite(np.asarray(v, dtype=np.float64)).all())
    except OverflowError:  # an integer past the float range
        return False


def save_model(model: FittedSalesModel, path: str | os.PathLike) -> None:
    atomic_write(path, model_to_json(model) + "\n")


def load_model(path: str | os.PathLike) -> FittedSalesModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
