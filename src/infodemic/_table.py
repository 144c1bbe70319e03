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
import tempfile
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Sequence

# builds the exception for malformed input: (physical line, message)
ErrorAtLine = Callable[[int, str], Exception]

# characters that make a field need csv quotes
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


class TableReader:
    """A table's csv records, its prologue and header already consumed.

    `header` is the one of `headers` the table starts with, or None when
    the stream holds nothing but a prologue.
    """

    def __init__(self, stream: Iterable[str], headers: Sequence[Sequence[str]], error: ErrorAtLine):
        self.error = error
        self.headers = [list(h) for h in headers]
        self._prologue = 0  # lines the csv reader never sees
        rest = iter(stream)
        for line in rest:
            if line.strip() and not line.lstrip().startswith("#"):
                rest = chain([line], rest)
                break
            self._prologue += 1
        self.reader = csv.reader(rest)
        self.header: list[str] | None = None
        first = self.records(1)
        if first:
            self.header = [c.strip() for c in first[0]]
            if self.header not in self.headers:
                raise error(self._prologue + 1, self.expected())

    @property
    def line_num(self) -> int:
        """Physical line number of the last line read."""
        return self._prologue + self.reader.line_num

    def expected(self) -> str:
        return "expected header " + " or ".join(repr(",".join(h)) for h in self.headers)

    def records(self, n: int) -> list[list[str]]:
        """Up to `n` more records as the csv module parses them, blank ones
        included; text it rejects fails at the line where it stopped."""
        try:
            return list(islice(self.reader, n))
        except csv.Error as e:
            raise self.error(self.line_num, str(e)) from None


def is_blank(row: list[str]) -> bool:
    """Whether `row` was parsed from an empty or whitespace-only line."""
    return not row or len(row) == 1 and not row[0].strip()


def record_lines(row: list[str]) -> int:
    """Physical lines a parsed record spans: one plus the line breaks
    (`\\n`, `\\r\\n`, bare `\\r`) its quoted fields hold."""
    return 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)


def read_table(
    stream: Iterable[str], headers: Sequence[Sequence[str]], error: type[Exception]
) -> Iterator[tuple[int, list[str]]]:
    """Yield (physical line, stripped fields) for each record of a table
    whose header is one of `headers`; every record has its header's width.

    A missing or unknown header, a record of another width and text the
    csv module rejects raise `error("line N: ...")`.
    """
    table = TableReader(stream, headers, lambda n, msg: error(f"line {n}: {msg}"))
    if table.header is None:
        raise table.error(table.line_num + 1, table.expected())
    width = len(table.header)
    while True:
        line_no = table.line_num + 1
        rows = table.records(1)
        if not rows:
            return
        (row,) = rows
        if len(row) == width:
            yield line_no, [c.strip() for c in row]
        elif not is_blank(row):
            raise table.error(line_no, f"malformed record {row!r}")


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


def atomic_write(path: str | os.PathLike, data: str | bytes) -> None:
    """Write `data`, text as UTF-8, to a temp file beside `path`, then
    rename it over `path`."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    d = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
