"""Run reports: a JSON-serializable record of one command invocation.

A report holds the command's inputs (the user's choices; the qubit
engine's seed mesh is not one), every verdict with its witness and
meta, the named witness values, the wall time and the library version,
so a certificate can be audited later without rerunning anything.
Tables are written separately as CSV.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass, field

from . import __version__
from .errors import InputError


@dataclass(frozen=True)
class RunReport:
    """Outcome of one command: parameter echo, verdict summaries, named
    witness values, and wall-clock timing."""

    command: str
    inputs: dict
    verdicts: list
    witness_values: dict
    timing_ms: float
    version: str = field(default=__version__)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_json(self) -> str:
        """One line with sorted keys: without ``indent``, ``json`` encodes
        in C, several times faster than its indenting python encoder."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> RunReport:
        try:
            return cls(
                command=doc["command"],
                inputs=doc["inputs"],
                verdicts=doc["verdicts"],
                witness_values=doc["witness_values"],
                timing_ms=doc["timing_ms"],
                version=doc["version"],
                details=doc.get("details", {}),
            )
        except KeyError as exc:
            raise InputError(f"report is missing required field {exc.args[0]!r}") from None

    @classmethod
    def from_json(cls, text: str) -> RunReport:
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with _writing(path) as fh:
            fh.write(self.to_json() + "\n")


@contextlib.contextmanager
def _writing(path, newline=None):
    """The file at ``path`` open for writing; an OSError is an InputError."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def write_csv(path, header, rows) -> None:
    """Write rows to the file at ``path`` with a header line.

    Booleans are lowered to true/false so the files parse the same way
    everywhere; everything else is written via str().
    """
    import csv

    with _writing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in row] for row in rows)
