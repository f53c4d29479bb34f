"""Summaries, run conditions, answer digests and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Samples a tail percentile must leave beyond it (choosing-metrics rule).
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with >= 10 samples beyond.

    With fewer than 11 samples no percentile qualifies; the maximum is
    reported as percentile 100 (the report shows ``n`` beside it).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def enough_units(units: int, minimum: int, normalized_seconds: float, seconds: float) -> bool:
    """Whether ``units`` whole units of work are the count nearest ``seconds``.

    Runs measure whole units (request blocks, scenario pairs) so every
    run does the same work; the count is chosen on normalized time, so
    host drift does not change it.
    """
    if units < minimum:
        return False
    return normalized_seconds * (units + 0.5) / units >= seconds


class Metric:
    """One reported number: raw and drift-normalized value, unit, samples."""

    def __init__(self, raw: float, unit: str, n: int, normalized: float = None, **notes: Any) -> None:
        self.raw = raw
        self.value = raw if normalized is None else normalized
        self.unit = unit
        self.n = n
        self.notes = notes

    def row(self, name: str) -> str:
        notes = "".join(f" {key}={value}" for key, value in self.notes.items())
        return (
            f"  {name:<22} {self.value:>14.6g} {self.unit:<6} raw={self.raw:.6g} "
            f"n={self.n}{notes}"
        )


def answer_digest(rows: Iterable[Tuple[str, Sequence[str], str]]) -> str:
    """sha256 over (question, top answer, top s-expression) rows."""
    hasher = hashlib.sha256()
    for question, answer, sexpr in rows:
        hasher.update(json.dumps([question, list(answer), sexpr]).encode("utf-8"))
    return hasher.hexdigest()[:16]


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` (peak RSS) of live processes."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


def child_pids(parent: int) -> List[int]:
    """Direct children of ``parent`` (the server's pool workers)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            children.append(int(entry))
    return sorted(children)


def source_revision(root: Path) -> str:
    """The git commit when available, else a digest of the program sources."""
    if not (root / ".git").exists():
        return _source_digest(root)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        if commit:
            return commit
    except (OSError, subprocess.SubprocessError):
        pass
    return _source_digest(root)


def _source_digest(root: Path) -> str:
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(path.relative_to(root).as_posix().encode("utf-8"))
        hasher.update(path.read_bytes())
    return "src-sha256:" + hasher.hexdigest()[:16]


def run_conditions(root: Path, seed: int, sizes: Dict[str, Any], calibration: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": source_revision(root),
        "seed": seed,
        "sizes": sizes,
        "calibration": calibration,
    }
