"""The outcome of a verification sweep, shared by the sweeps in ``loops`` and ``verify``."""

from __future__ import annotations

__all__ = ["KEEP_FAILURES", "Report"]

# Counterexamples a Report keeps in full; later failures are only counted.
KEEP_FAILURES = 12


class Report:
    """Outcome of a verification sweep."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failed = 0
        self.failures: list[str] = []

    def __repr__(self) -> str:
        return (
            f"Report(name={self.name!r}, checks={self.checks!r}, "
            f"failed={self.failed!r}, failures={self.failures!r})"
        )

    def note(self, ok: bool, message) -> bool:
        """Record one check; ``message`` may be a thunk to defer formatting."""
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(message() if callable(message) else str(message))
        return ok

    def credit(self, count: int) -> None:
        """Record ``count`` checks known to pass without noting each one."""
        if count < 0:
            raise ValueError(f"cannot credit {count} checks")
        self.checks += count

    def absorb(self, other: Report) -> None:
        self.checks += other.checks
        self.failed += other.failed
        for f in other.failures:
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(f)

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        if self.passed:
            return f"PASS ({self.checks} checks)"
        return f"FAIL ({self.failed} of {self.checks} checks failed)"
