"""Pass/fail reporting for the identity verification harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Check", "IdentityReport"]


@dataclass(frozen=True)
class Check:
    """One verified statement: a failure always carries a witness."""

    description: str
    status: str
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be 'pass' or 'fail', got {self.status!r}")
        if (self.status == "fail") != (self.witness is not None):
            raise ValueError("a check fails exactly when it carries a witness")

    @classmethod
    def of(cls, description: str, witness: Optional[dict] = None) -> "Check":
        """The check ``description``: it fails exactly when given a witness."""
        return cls(description, "pass" if witness is None else "fail", witness)

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "status": self.status,
            "witness": self.witness,
        }


@dataclass
class IdentityReport:
    """Outcome of one verification suite."""

    suite: str
    parameters: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "checks": [c.to_json_dict() for c in self.checks],
            "elapsed": self.elapsed,
            "passed": self.passed,
        }

    def summary_line(self) -> str:
        n = len(self.checks)
        bad = self.failures()
        if not bad:
            return f"ok   {self.suite}: {n} checks pass ({self.elapsed:.2f}s)"
        return (
            f"FAIL {self.suite}: {len(bad)} of {n} checks fail ({self.elapsed:.2f}s); "
            f"first: {bad[0].description}"
        )
