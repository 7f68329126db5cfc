"""What the sweeps in ``loops`` and ``verify`` share: ``Report``, a sweep's
outcome, which formats a failure's message only when it keeps the failure
and checks a law's rows over a key list in one comparison (``Report.rows``),
and ``Interner``, which gives equal values one shared object and one index."""

from __future__ import annotations

__all__ = ["KEEP_FAILURES", "Interner", "Report"]

# Counterexamples a Report keeps in full; later failures are only counted.
KEEP_FAILURES = 12


class Interner:
    """Equal values' one shared object and its index; ``values`` lists them in index order.

    Values are the same when their types and their terms, in order, are equal.
    """

    def __init__(self) -> None:
        self._seen: dict = {}
        self.values: list = []

    def index(self, value) -> int:
        """The index of ``value``'s shared object, which is ``value`` if it is new."""
        i = self._seen.setdefault((type(value), tuple(value.terms.items())), len(self.values))
        if i == len(self.values):
            self.values.append(value)
        return i

    def share(self, value):
        """The one object of the values equal to ``value``."""
        return self.values[self.index(value)]


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

    def rows(self, keys: list, message: str, *laws) -> None:
        """Check each law ``(args, left, right)``, two rows indexed like ``keys``.

        If every pair of rows is equal, one list comparison each, all their
        checks are credited; otherwise every cell is noted, key by key and
        then law by law, as ``message.format(*args, key)``.
        """
        if all(left == right for _, left, right in laws):
            self.checks += len(laws) * len(keys)
            return
        for pos, key in enumerate(keys):
            for args, left, right in laws:
                self.note(left[pos] == right[pos], message, *args, key)

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
