"""Report: messages formatted on failure, the verdict, the kept-failure cap,
credit and absorb, the row check, and the interning of equal values."""

import pytest

from loopalg.homology import dual
from loopalg.report import KEEP_FAILURES, Interner, Report
from loopalg.ring import Generator, Ring


class _Counted:
    """An argument that counts how often it is formatted."""

    def __init__(self):
        self.calls = 0

    def __format__(self, spec):
        self.calls += 1
        return "broken"


def test_message_is_formatted_only_on_failure():
    arg = _Counted()
    rep = Report("lazy")
    rep.note(True, "{} at {}", arg, (1, 0))
    assert arg.calls == 0
    rep.note(False, "{} at {}", arg, (1, 0))
    assert arg.calls == 1
    assert rep.failures == ["broken at (1, 0)"]


def test_note_returns_the_verdict():
    rep = Report("verdict")
    assert rep.note(True, "fine") is True
    assert rep.note(False, "broken") is False
    assert (rep.checks, rep.failed) == (2, 1)
    assert not rep.passed


def test_repr_shows_every_field():
    rep = Report("pinned")
    rep.note(True, "fine")
    rep.note(False, "broken at {}", (1, 0))
    assert repr(rep) == (
        "Report(name='pinned', checks=2, failed=1, failures=['broken at (1, 0)'])"
    )


def test_failures_beyond_the_cap_are_only_counted():
    assert KEEP_FAILURES == 12
    rep = Report("cap")
    for j in range(20):
        rep.note(False, "failure {}", j)
    assert rep.failed == 20
    assert rep.failures == [f"failure {j}" for j in range(KEEP_FAILURES)]
    assert rep.summary() == "FAIL (20 of 20 checks failed)"


def test_absorb_sums_counts_and_keeps_the_cap():
    first = Report("first")
    first.note(True, "fine")
    for j in range(8):
        first.note(False, f"first {j}")
    second = Report("second")
    for j in range(8):
        second.note(False, f"second {j}")
    second.note(True, "fine")
    first.absorb(second)
    assert (first.checks, first.failed) == (18, 16)
    assert first.failures == [f"first {j}" for j in range(8)] + [
        f"second {j}" for j in range(KEEP_FAILURES - 8)
    ]
    assert first.name == "first"


def test_credit_adds_only_passed_checks():
    rep = Report("credit")
    rep.note(False, "broken")
    rep.credit(5)
    rep.credit(0)
    assert (rep.checks, rep.failed) == (6, 1)
    assert rep.failures == ["broken"]
    clean = Report("clean")
    clean.credit(3)
    assert (clean.checks, clean.failed, clean.failures) == (3, 0, [])
    assert clean.passed


def test_credit_rejects_a_negative_count():
    rep = Report("negative")
    rep.note(True, "fine")
    with pytest.raises(ValueError):
        rep.credit(-1)
    assert rep.checks == 1


def test_summary_and_absorb_see_credited_checks():
    rep = Report("credited")
    rep.credit(7)
    assert rep.summary() == "PASS (7 checks)"
    rep.note(False, "broken")
    assert rep.summary() == "FAIL (1 of 8 checks failed)"
    total = Report("total")
    total.credit(2)
    total.absorb(rep)
    assert (total.checks, total.failed, total.failures) == (10, 1, ["broken"])


def test_equal_rows_are_credited_without_a_note():
    arg = _Counted()
    rep = Report("rows")
    keys = ["x", "y", "z"]
    rep.rows(keys, "{} fails at {}", ((arg,), [1, 2, 3], [1, 2, 3]), ((arg,), [], []))
    assert (rep.checks, rep.failed, rep.failures) == (6, 0, [])
    assert arg.calls == 0


def test_a_mismatch_notes_every_cell_key_then_law():
    rep = Report("rows")
    rep.rows(
        ["x", "y"],
        "{} fails at {},{}",
        (("first", 0), [1, 2], [1, 0]),
        (("second", 1), [5, 6], [0, 6]),
    )
    assert (rep.checks, rep.failed) == (4, 2)
    assert rep.failures == ["second fails at 1,x", "first fails at 0,y"]


def test_row_failures_beyond_the_cap_are_only_counted():
    rep = Report("rows")
    keys = list(range(20))
    rep.rows(keys, "{} at {}", (("left",), keys, [-1] * 20), (("right",), keys, keys))
    assert (rep.checks, rep.failed) == (40, 20)
    assert rep.failures == [f"left at {j}" for j in range(KEEP_FAILURES)]


def test_interner_shares_one_object_per_value_and_type():
    ring = Ring([Generator("a", 2, 3)])
    seen = Interner()
    first = ring.gen("a")
    assert seen.index(first) == 0
    again = ring.gen("a")
    assert seen.index(again) == 0 and seen.share(again) is first
    square = ring.gen("a") * ring.gen("a")
    assert seen.index(square) == 1 and seen.share(square) is square
    # A homology class with the same terms is another value.
    point = dual(ring, (1,))
    assert seen.index(point) == 2 and seen.share(point) is point
    assert seen.share(ring.gen("a")) is first
    assert seen.values == [first, square, point]
