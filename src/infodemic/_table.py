"""The one CSV table format the package reads and writes.

A table is a prologue of blank lines and `#` comment lines, a header
record, then records of the header's width; blank lines among the records
are skipped.  Fields are stripped of surrounding whitespace on read, and
on write a field is quoted when it holds `,`, `"`, a newline or a carriage
return.  Errors name the physical line on which the offending record
starts, lines split as in a file opened with `newline=""` (at `\\n`,
`\\r\\n` and a bare `\\r`), so a quoted field can span several lines.
"""

from __future__ import annotations

import csv
import os
import re
from datetime import date
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

# builds the exception for malformed input: (physical line, message)
ErrorAtLine = Callable[[int, str], Exception]

# characters that make a field need csv quotes
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def at_line(cls: type[Exception]) -> ErrorAtLine:
    """An `ErrorAtLine` that raises `cls("line N: message")`."""
    return lambda line_no, message: cls(f"line {line_no}: {message}")


def read_table(
    stream: Iterable[str],
    headers: Sequence[Sequence[str]],
    error: ErrorAtLine,
    *,
    record: str = "record",
    headerless_empty: bool = False,
) -> Iterator[tuple[int, list[str]]]:
    """Yield (physical line, stripped fields) for each record of a table
    whose header is one of `headers`; every record has its header's width.

    An unknown header, a record of another width (`malformed {record}`)
    and text the csv module rejects raise `error(line, message)`; so does
    a missing header, unless `headerless_empty` makes it an empty table.
    """
    headers = [list(h) for h in headers]
    prologue = 0  # lines the csv module never parses
    rest = iter(stream)
    for line in rest:
        if line.strip() and not line.lstrip().startswith("#"):
            rest = chain([line], rest)
            break
        prologue += 1
    expected = "expected header " + " or ".join(repr(",".join(h)) for h in headers)
    reader = csv.reader(rest)
    try:
        first = next(reader, None)
        if first is None and headerless_empty:
            return
        header = None if first is None else [c.strip() for c in first]
        if header not in headers:
            raise error(prologue + 1, expected)
        width = len(header)
        line_no = prologue + reader.line_num + 1
        for row in reader:
            if len(row) == width:
                yield line_no, [c.strip() for c in row]
            elif len(row) > 1 or row and row[0].strip():  # not a blank line
                raise error(line_no, f"malformed {record} {row!r}")
            line_no = prologue + reader.line_num + 1
    except csv.Error as e:
        raise error(prologue + reader.line_num, str(e)) from None


def parse_day(text: str) -> date:
    """The day `text` names in exactly `YYYY-MM-DD`, ASCII digits only; a
    `ValueError` worded as `date.fromisoformat`'s otherwise, also for the
    other forms that it reads on Python 3.11+."""
    if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):  # `\d` takes any Unicode digit
        raise ValueError(f"Invalid isoformat string: {text!r}, not YYYY-MM-DD")
    return date.fromisoformat(text)


def parse_number(text: str, kind: Callable[[str], Any]) -> Any:
    """`kind(text)`, `int` or `float`, for ASCII text without `_`; else a
    `ValueError`, where `kind` takes digit-group `_`s and any Unicode digit."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"number {text!r} is not ASCII decimal without '_'")
    return kind(text)


def write_table(
    path: str | os.PathLike,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    comments: Sequence[str] = (),
) -> None:
    """Atomically write `# ` comment lines, the header and the rows; each
    field is formatted with `str` and quoted by `csv_field`."""
    for c in comments:
        if "\n" in c or "\r" in c:
            raise ValueError(f"comment holds a line break: {c!r}")
    body = (",".join(csv_field(str(f)) for f in row) + "\n" for row in chain([header], rows))
    atomic_write(path, "".join(f"# {c}\n" for c in comments) + "".join(body))


def csv_field(value: str) -> str:
    """`value` as csv.writer quotes a field of a multi-field row, except
    that a carriage return always forces quotes, so the field reloads intact."""
    if not _CSV_SPECIAL.search(value):
        return value
    return '"' + value.replace('"', '""') + '"'


def atomic_write(
    path: str | os.PathLike, data: str | bytes | Iterable[bytes | memoryview]
) -> None:
    """Write `data`, text as UTF-8 or bytes or an iterable of byte chunks,
    to a temp file beside `path`, then rename it over `path`; if writing or
    the iterable raises, the temp file is removed.  The file is created as
    `open` creates one, so its mode is 0666 less the umask."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
    d = os.path.dirname(os.fspath(path)) or "."
    tmp = os.path.join(d, f"tmp{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")  # exclusive, so the file removed below is this one
    try:
        with fh:
            for chunk in data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
