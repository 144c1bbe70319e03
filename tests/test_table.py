import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodemic._table import at_line, atomic_write, csv_field, read_table, write_table


class TableError(ValueError):
    pass


def read(text: str, headers=(["a", "b"],), newline=""):
    """Records of `text`, its lines split as a file opened with `newline` splits them."""
    return list(read_table(io.StringIO(text, newline=newline), headers, at_line(TableError)))


# field text with every character the format treats specially; fields are
# stripped on read, so they carry no surrounding whitespace
FIELD = st.text(st.sampled_from('ab ,"\n\r#x'), max_size=6).map(str.strip)
# a comment is one line of any text
COMMENT = st.text(st.sampled_from('ab ,"#\t'), max_size=8)


@st.composite
def tables(draw):
    """(width, rows) of a table 2 to 4 fields wide."""
    width = draw(st.integers(2, 4))
    return width, draw(st.lists(st.lists(FIELD, min_size=width, max_size=width), max_size=8))


@given(tables(), st.lists(COMMENT, max_size=3))
@settings(max_examples=200, deadline=None)
def test_write_read_roundtrip(tmp_path_factory, table, comments):
    width, rows = table
    header = [f"h{i}" for i in range(width)]
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, header, rows, comments)
    with open(path, encoding="utf-8", newline="") as fh:
        back = list(read_table(fh, [header], at_line(TableError)))
    assert [fields for _, fields in back] == rows
    # each record starts on the physical line its line number names
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    for line_no, fields in back:
        assert "".join(lines[line_no - 1 :]).startswith(",".join(map(csv_field, fields)) + "\n")


def test_prologue_blank_lines_and_stripping():
    text = "\n# made by hand\n  # a, \"b\n\n a , b \n 1 ,2\n\n3,\n"
    assert read(text) == [(6, ["1", "2"]), (8, ["3", ""])]


def test_comment_after_header_is_a_record():
    with pytest.raises(TableError, match="line 2: malformed record"):
        read("a,b\n# note\n")


def test_second_header_gives_its_width():
    headers = (["a", "b"], ["a", "b", "c"])
    assert read("a,b,c\n1,2,3\n", headers) == [(2, ["1", "2", "3"])]
    with pytest.raises(TableError, match=r"line 1: expected header 'a,b' or 'a,b,c'"):
        read("a\n", headers)


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),  # no header at all
        ("# only a comment\n\n", 3),
        ("x,y\n1,2\n", 1),  # unknown header
        ("a,b\n1,2\n3\n", 3),  # short record
        ("a,b\n1,2,3\n", 2),  # long record
        ('a,b\n"1\n2",3\n4\n', 4),  # line numbers count physical lines
        ('a,b\n"1\r2",3\n4\n', 4),  # a quoted bare carriage return is a line break
    ],
)
def test_errors_name_the_physical_line(text, line):
    with pytest.raises(TableError, match=f"^line {line}: "):
        read(text)


def test_csv_module_error_names_its_line():
    # split at newlines only, a bare carriage return is inside an unquoted field
    with pytest.raises(TableError, match="^line 3: new-line character"):
        read("a,b\n1,2\nx\ry,z\n", newline="\n")


def test_comment_with_line_break_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "b"], [], ["two\nlines"])
    assert not (tmp_path / "t.csv").exists()


def test_write_formats_and_quotes(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["id", "x", "n"], [("a,b", 0.1, 3), ('q"', 1e-05, -1), ("", "", "")], ["c=1"])
    assert path.read_text() == '# c=1\nid,x,n\n"a,b",0.1,3\n"q""",1e-05,-1\n,,\n'


def test_atomic_write_of_chunks(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"old")
    atomic_write(path, iter([b"ab", b"", b"cd"]))
    assert path.read_bytes() == b"abcd"

    def failing():
        yield b"half"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        atomic_write(tmp_path / "new.bin", failing())
    # the target is never created and the temp file is gone; the old file stays
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin"]
    assert path.read_bytes() == b"abcd"
