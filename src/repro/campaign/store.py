"""JSONL result store for completed scenarios.

One line per completed scenario::

    {"key": "5f1c...", "experiment": "E1", "tag": "smoke",
     "params": {...}, "elapsed": 0.42, "result": {<ExperimentResult>}}

Appending is atomic at line granularity, so a crashed campaign leaves a
valid store behind and a re-run resumes exactly where it stopped (the
runner skips every key already present).  Loading tolerates a trailing
partial line (a run killed mid-write) by discarding it and warns about
corrupt lines before it (:func:`read_jsonl`), and the first append
after such a line starts on a fresh line (:class:`LineAppender`), so
the resumed record is not glued onto it.  The failure ledger shares
both.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, TypeVar

from repro.experiments.common import ExperimentResult
from repro.utils.serialization import jsonify

__all__ = ["StoreRecord", "ResultStore", "LineAppender", "read_jsonl"]

T = TypeVar("T")


class LineAppender:
    """Appends newline-terminated records to one JSONL file.

    Shared by the result store and the failure ledger.  One
    open/write/flush/close per record, so a killed process loses at
    most the line in flight.  The first append creates the parent
    directory and looks at the file's last byte: if a previous run was
    killed mid-append the file ends in a partial line without a
    newline, and the first new record is started on a fresh line
    instead of being glued onto it (and lost with it at the next load).
    The partial line itself stays where it is -- the file is
    append-only.
    """

    def __init__(self, path: str):
        self.path = path
        # Prefix of the next record: None until the first append has
        # looked at the file, "" from then on.
        self._prefix: Optional[str] = None

    def _first_prefix(self) -> str:
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
            return ""
        with open(self.path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return "" if handle.read(1) == b"\n" else "\n"

    def append(self, line: str) -> None:
        """Write ``line`` plus a newline; closed (so flushed) before return."""
        if self._prefix is None:
            self._prefix = self._first_prefix()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(self._prefix + line + "\n")
        self._prefix = ""


def read_jsonl(path: str, parse: Callable[[str], T]) -> List[T]:
    """``parse`` of every non-blank line of a JSONL file, in file order.

    Shared by the result store and the failure ledger.  A corrupt final
    line is the benign signature of a run killed mid-append and is
    dropped silently; anything corrupt before it is silent data loss,
    dropped with a warning naming the lines.  A missing file has no
    records.
    """
    if not os.path.exists(path):
        return []
    records: List[T] = []
    corrupt: List[int] = []
    last_number = 0
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            last_number = number
            try:
                records.append(parse(line))
            except (KeyError, TypeError, ValueError):
                corrupt.append(number)
    if corrupt and corrupt[-1] == last_number:
        corrupt = corrupt[:-1]
    if corrupt:
        numbers = ", ".join(str(n) for n in corrupt)
        warnings.warn(
            f"{path}: dropped {len(corrupt)} corrupt mid-file "
            f"JSONL line(s) (line {numbers})",
            RuntimeWarning,
            stacklevel=3,
        )
    return records


@dataclass(frozen=True)
class StoreRecord:
    """A completed scenario as persisted in the store."""

    key: str
    experiment: str
    tag: str
    params: Mapping[str, Any]
    elapsed: float
    result: dict

    def to_json(self, result_text: Optional[str] = None) -> str:
        """The store line, keys sorted, compact.  ``result_text`` is
        ``result`` already so encoded (a worker's verified canonical
        text), spliced in as is; ``params`` is plain JSON already."""
        head = {"elapsed": self.elapsed, "experiment": self.experiment,
                "key": self.key, "params": self.params}
        if result_text is None:
            result_text = json.dumps(self.result, sort_keys=True, separators=(",", ":"))
        head_text = json.dumps(head, sort_keys=True, separators=(",", ":"))
        # "result" and "tag" sort after the head's keys.
        return f'{head_text[:-1]},"result":{result_text},"tag":{json.dumps(self.tag)}}}'

    @classmethod
    def from_json(cls, line: str) -> "StoreRecord":
        data = json.loads(line)
        return cls(
            key=data["key"],
            experiment=data["experiment"],
            tag=data.get("tag", ""),
            params=data.get("params", {}),
            elapsed=float(data.get("elapsed", 0.0)),
            result=data["result"],
        )


class ResultStore:
    """Append-only JSONL store of completed scenarios, indexed by key."""

    def __init__(self, path: str):
        self.path = str(path)
        self._records: Dict[str, StoreRecord] = {
            record.key: record for record in read_jsonl(self.path, StoreRecord.from_json)
        }
        self._appender = LineAppender(self.path)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> List[str]:
        return list(self._records)

    def get(self, key: str) -> Optional[StoreRecord]:
        return self._records.get(key)

    def records(self) -> Iterator[StoreRecord]:
        """All records, in insertion (file) order."""
        return iter(list(self._records.values()))

    # ------------------------------------------------------------------
    def append(
        self,
        key: str,
        *,
        experiment: str,
        tag: str,
        params: Mapping[str, Any],
        result: ExperimentResult,
        elapsed: float = 0.0,
        result_text: Optional[str] = None,
    ) -> None:
        """Persist one completed scenario and index it.

        Re-appending an existing key is a no-op -- the store is
        idempotent by construction.
        """
        if key in self._records:
            return
        record = StoreRecord(
            key=key,
            experiment=experiment,
            tag=tag,
            params=jsonify(params),
            elapsed=float(elapsed),
            result=result.to_dict() if isinstance(result, ExperimentResult) else result,
        )
        self._appender.append(record.to_json(result_text))
        self._records[key] = record
