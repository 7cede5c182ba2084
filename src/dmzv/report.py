"""Pass/fail reporting for the identity verification harness, and the
slotted record base that the package's result types share."""

from __future__ import annotations

from typing import Optional

__all__ = ["Check", "IdentityReport"]


class Record:
    """Equality and repr over the fields named in ``__slots__``, as a
    dataclass has them.  A record is unhashable unless it is frozen."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are set once, in its constructor (through
    ``object.__setattr__``), and hashed together."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor
        return type(self), self._fields()


class Check(FrozenRecord):
    """One verified statement: a failure always carries a witness."""

    __slots__ = ("description", "status", "witness")

    def __init__(self, description: str, status: str, witness: Optional[dict] = None):
        if status not in ("pass", "fail"):
            raise ValueError(f"status must be 'pass' or 'fail', got {status!r}")
        if (status == "fail") != (witness is not None):
            raise ValueError("a check fails exactly when it carries a witness")
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)

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


class IdentityReport(Record):
    """Outcome of one verification suite."""

    __slots__ = ("suite", "parameters", "checks", "elapsed")

    def __init__(
        self,
        suite: str,
        parameters: Optional[dict] = None,
        checks: Optional[list[Check]] = None,
        elapsed: float = 0.0,
    ):
        self.suite = suite
        self.parameters = {} if parameters is None else parameters
        self.checks = [] if checks is None else checks
        self.elapsed = elapsed

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
