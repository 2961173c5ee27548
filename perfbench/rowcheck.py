"""Row extraction and the digest check.

A run's *rows* are every rendered line ``run_all`` prints to stdout
(table headers, table rows, Figure 4-5 sketches, population footers)
plus one ``job <label> references=<n>`` row per finished runtime job,
taken from the run log.  The references the benchmark divides by come
from those job rows, so they are checked like any other row.

``digests.json`` pins the rows per workload and seed as short SHA-256
digests, so a mismatch names the row that moved.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

_RULE = re.compile(r"^[=\-+| ]+$")
#: the population footer ends in a host-time figure, which is not a row
_WALL = re.compile(r";\s*[0-9.]+s wall\)$")
_REFS = re.compile(r"^job \S+ references=(\d+)$")


def rendered_rows(stdout: str) -> "list[str]":
    rows = []
    for line in stdout.splitlines():
        line = line.rstrip()
        if not line or _RULE.match(line):
            continue
        rows.append(_WALL.sub(")", line))
    return rows


def job_rows(runlog: "list[dict[str, object]]") -> "list[str]":
    return [
        f"job {event['label']} references={event.get('references') or 0}"
        for event in runlog
        if event.get("event") == "finished"
    ]


def references(rows: "list[str]") -> int:
    """Trace references simulated, summed over the job rows."""
    total = 0
    for row in rows:
        match = _REFS.match(row)
        if match:
            total += int(match.group(1))
    return total


def digest(row: str) -> str:
    return hashlib.sha256(row.encode("utf-8")).hexdigest()[:16]


def mismatches(rows: "list[str]", expected: "list[str]") -> int:
    """Rows whose digest differs from ``expected``, position by position;
    a missing or extra row counts once."""
    got = [digest(row) for row in rows]
    return sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))


def differing(rows: "list[str]", reference: "list[str]") -> int:
    """Rows that differ between two runs (run-to-run identity)."""
    return mismatches(rows, [digest(row) for row in reference])


def load_digests(path: Path = DIGESTS) -> "dict[str, dict[str, list[str]]]":
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def expected_digests(workload: str, seed: int, path: Path = DIGESTS) -> "list[str] | None":
    return load_digests(path).get(workload, {}).get(str(seed))


def record_digests(workload: str, seed: int, rows: "list[str]", path: Path = DIGESTS) -> None:
    table = load_digests(path)
    table.setdefault(workload, {})[str(seed)] = [digest(row) for row in rows]
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
