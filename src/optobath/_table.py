"""The one output format of every table: CSV text and JSON documents.

A table is an ordered mapping of column name to column. CSV cells are
formatted by type: a float as %.12e (``nan`` and ``inf`` as Python prints
them), a bool as true/false, a str as it is, None as an empty cell. A float
column picks its format once, other columns (which may mix None with values)
per cell, and a list holds cells already formatted. JSON carries the same
values at full precision (Python's float repr), NaN as ``NaN``, None as null.
"""

from __future__ import annotations

import json

import numpy as np


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.12e}"


def _cells(column) -> list[str]:
    if isinstance(column, list):  # cells already formatted, e.g. a repeated sweep axis
        return column
    a = np.asarray(column)
    return list(map("{:.12e}".format if a.dtype.kind == "f" else _cell, a.tolist()))


def to_csv(columns) -> str:
    """CSV text of equal-length columns: the header line, then one line per row."""
    rows = zip(*map(_cells, columns.values()), strict=True)
    return "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"


def to_json(fields) -> str:
    """JSON object of named fields, each a str or an array as (nested) lists."""
    return json.dumps({name: np.asarray(value).tolist() for name, value in fields.items()},
                      indent=1)


class Table:
    """Base of a table written as its ``columns()`` mapping, in the one layout."""

    def to_csv(self) -> str:
        return to_csv(self.columns())

    def to_json(self) -> str:
        return to_json(self.columns())
