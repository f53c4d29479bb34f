"""What every workload receives and returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from .report import Metric


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    """One workload run: metrics, checks and the facts needed to compare runs."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    check_failures: List[str] = field(default_factory=list)
    digest: str = ""
    sizes: Dict[str, Any] = field(default_factory=dict)
    calibration: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def fail_check(self, message: str) -> None:
        """Record a failed check (the report lists the first 20)."""
        self.check_failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.check_failures and self.failed == 0
