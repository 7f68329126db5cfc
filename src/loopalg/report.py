"""What the sweeps in ``loops`` and ``verify`` share: ``Report``, a sweep's
outcome, which formats a failure's message only when it keeps the failure,
and ``_intern``, which gives equal values one shared object and one index."""

from __future__ import annotations

__all__ = ["KEEP_FAILURES", "Report"]

# Counterexamples a Report keeps in full; later failures are only counted.
KEEP_FAILURES = 12


def _intern(seen: dict, value) -> tuple[int, object]:
    """The index of ``value`` among the distinct values in ``seen``, and their one object.

    Values are the same when their types and their terms, in order, are equal.
    """
    return seen.setdefault((type(value), tuple(value.terms.items())), (len(seen), value))


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

    def note(self, ok: bool, message: str, *args) -> bool:
        """Record one check; a kept failure's text is ``message.format(*args)``."""
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(message.format(*args))
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
