"""Plain-text table formatting for experiment and benchmark output.

Every experiment in :mod:`repro.experiments` produces a
:class:`Table`; benchmarks print it so that the reproduced results can
be compared side-by-side with the recorded copies in
``tests/goldens/``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.utils.serialization import jsonify

__all__ = ["Table", "one_line"]


def one_line(text: str, max_width: Optional[int] = None) -> str:
    """Render ``text`` on one physical line, optionally truncated.

    Backslashes, newlines and tabs are escaped (``\\\\``, ``\\n``,
    ``\\t``) so an embedded break can never smuggle extra lines into a
    table cell, parameter listing or CLI digest; when ``max_width`` is
    given, longer results are cut with a ``...`` suffix.  This is the
    single escaping rule shared by ``ExperimentResult.render``, the
    campaign CLI listings and the campaign report.
    """
    text = text.replace("\\", "\\\\").replace("\n", "\\n").replace("\t", "\\t")
    if max_width is not None and len(text) > max_width:
        text = text[: max_width - 3] + "..."
    return text


def _format_cell(value: Any, float_fmt: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


class Table:
    """A small column-oriented table with aligned plain-text rendering.

    Parameters
    ----------
    columns:
        Column headers, in display order.
    title:
        Optional title printed above the table.
    float_fmt:
        Format specification applied to float cells (default ``.4g``).

    Examples
    --------
    >>> t = Table(["n", "error"], title="demo")
    >>> t.add_row(10, 1.25e-3)
    >>> t.add_row(20, 3.1e-4)
    >>> print(t.render())  # doctest: +ELLIPSIS
    demo
    ...
    """

    def __init__(
        self,
        columns: Sequence[str],
        *,
        title: Optional[str] = None,
        float_fmt: str = ".4g",
    ) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns: List[str] = list(columns)
        self.title = title
        self.float_fmt = float_fmt
        self.rows: List[List[Any]] = []

    def add_row(self, *values: Any, **named: Any) -> None:
        """Append a row, given positionally or by column name."""
        if values and named:
            raise ValueError("pass either positional or named cells, not both")
        if named:
            unknown = set(named) - set(self.columns)
            if unknown:
                raise ValueError(f"unknown columns: {sorted(unknown)}")
            row = [named.get(col, "") for col in self.columns]
        else:
            if len(values) != len(self.columns):
                raise ValueError(
                    f"expected {len(self.columns)} cells, got {len(values)}"
                )
            row = list(values)
        self.rows.append(row)

    def column(self, name: str) -> List[Any]:
        """Return the raw values of one column."""
        try:
            idx = self.columns.index(name)
        except ValueError as exc:
            raise KeyError(name) from exc
        return [row[idx] for row in self.rows]

    def to_dict(self) -> dict:
        """Return a JSON-compatible description of the whole table.

        The inverse of :meth:`from_dict`; cell values are normalized
        with :func:`repro.utils.serialization.jsonify` so the result
        can be fed to ``json.dumps`` directly.
        """
        return {
            "columns": list(self.columns),
            "title": self.title,
            "float_fmt": self.float_fmt,
            "rows": [jsonify(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Table":
        """Rebuild a table from :meth:`to_dict` output."""
        table = cls(
            data["columns"],
            title=data.get("title"),
            float_fmt=data.get("float_fmt", ".4g"),
        )
        for row in data.get("rows", []):
            table.add_row(*row)
        return table

    def render(self) -> str:
        """Render the table as aligned plain text."""
        cells = [
            [_format_cell(v, self.float_fmt) for v in row] for row in self.rows
        ]
        widths = [
            max(len(self.columns[j]), *(len(r[j]) for r in cells)) if cells
            else len(self.columns[j])
            for j in range(len(self.columns))
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(
            col.ljust(widths[j]) for j, col in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(row[j].ljust(widths[j]) for j in range(len(row))))
        return "\n".join(lines)
