"""Failure paths of the pipeline route: both PipelineMatchError messages.

A consistent sign convention never trips them, so every other test of the
route passes them by.  Here a class that is not a capped carrier, and a
wrong-way table with one entry corrupted or removed, show what the route
raises, the level, break and monomial the error carries, how
``verify_pipeline`` records it and what the CLI then reports.
"""

import pytest

from loopalg import LoopClass, coproduct_pipeline
from loopalg.cli import EXIT_FAIL, run
from loopalg.loops import PipelineMatchError, _match_wrongway, gamma_class, verify_pipeline
from loopalg.spaces import SpaceParams, catalog_for

CP2 = SpaceParams.from_token("cp", 2)

# The first counterexample of the corrupted table below.
FIRST = "A[2,0]: fiber-class component [xi] at level 2, break 1"


@pytest.mark.parametrize(
    ("token", "kind", "i", "shown"),
    [("cp", "A", 1, "a xi"), ("hp", "B", 1, "a b xi"), ("cp", "B", 0, "b xi")],
)
def test_match_of_an_uncapped_carrier_names_its_fiber_class(token, kind, i, shown):
    # The level-2 carrier still holds x2, the class the break-1 table sends
    # to the fiber class xi of SM x_M SM; only its cap with x2 is diagonal.
    cat = catalog_for(SpaceParams.from_token(token, 2))
    carrier = gamma_class(cat, kind, 2, i)
    with pytest.raises(PipelineMatchError) as err:
        _match_wrongway(cat, 2, 1, carrier)
    assert str(err.value) == f"fiber-class component [{shown}] at level 2, break 1"


@pytest.fixture
def xi_for_a20(monkeypatch):
    """Point the (2, 1) table entry of A[2,0]'s capped class at xi, not at 1."""
    cat = catalog_for(CP2)
    table = cat.pv_gysin_table(2, 1)
    capped = cat.gamma(2).ring.monomial({"x1": 1, "x3": 1})
    source, sign = table[capped]
    assert source == cat.sm_pair.ring.monomial()
    monkeypatch.setitem(table, capped, (cat.sm_pair.ring.monomial({"xi": 1}), sign))


def test_verify_pipeline_records_a_match_error_and_goes_on(xi_for_a20):
    rep = verify_pipeline(CP2, 3)
    # 3 levels * 2 kinds * 2 indices; only A[2,0] caps into the broken entry.
    assert (rep.checks, rep.failed) == (12, 1)
    assert rep.failures == [FIRST]


def test_cli_verify_pipeline_reports_a_match_error_as_a_counterexample(xi_for_a20, capsys):
    code = run(["--space", "cp", "--n", "2", "verify", "pipeline", "--max-k", "3"])
    out, err = capsys.readouterr()
    assert code == EXIT_FAIL == 1
    assert err == ""
    assert out == f"FAIL (1 of 12 checks failed)\nfirst counterexample: {FIRST}\n"


def test_match_errors_carry_their_level_break_and_monomial(xi_for_a20, monkeypatch):
    cat = catalog_for(CP2)
    x = LoopClass.generator(CP2, "A", 2, 0)
    # The corrupted entry names the source carrying xi, a monomial of SM x_M SM.
    with pytest.raises(PipelineMatchError) as err:
        coproduct_pipeline(x)
    assert str(err.value) == "fiber-class component [xi] at level 2, break 1"
    xi = cat.sm_pair.ring.monomial({"xi": 1})
    assert (err.value.k, err.value.m, err.value.monomial) == (2, 1, xi)
    # With the entry gone, the capped carrier itself, a level-2 monomial, is named.
    capped = cat.gamma(2).ring.monomial({"x1": 1, "x3": 1})
    monkeypatch.delitem(cat.pv_gysin_table(2, 1), capped)
    with pytest.raises(PipelineMatchError) as err:
        coproduct_pipeline(x)
    assert str(err.value) == "unmatched component [x1 x3] at level 2, break 1"
    assert (err.value.k, err.value.m, err.value.monomial) == (2, 1, capped)
