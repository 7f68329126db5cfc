"""Failure paths of the pipeline route: both PipelineMatchError messages.

A consistent sign convention never trips them, so every other test of the
route passes them by.  Here a class that is not a capped carrier, and a
wrong-way match with one entry corrupted or removed, show what the route
raises, the level, break and monomial the error carries, how
``verify_pipeline`` records it and what the CLI then reports.  A broken
wrong-way image is refused by the pipeline with the text of the table that
would hold it.
"""

import pytest

from loopalg import LoopClass, coproduct_pipeline, dual, spaces
from loopalg.cli import EXIT_FAIL, EXIT_INTERNAL, run
from loopalg.loops import PipelineMatchError, _match_wrongway, gamma_class, verify_pipeline
from loopalg.spaces import SpaceCatalog, SpaceParams, catalog_for

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
    """Point the (2, 1) match of A[2,0]'s capped class at xi, not at 1.

    The pipeline finds the source of a capped class by the L(w) that its
    image ``fm / L(w)`` leaves, in the level's half; with that source gone
    it looks the class up in the break's table, whose entry names xi.  The
    catalog keeps no table, so the shared catalog's ``pv_gysin_table(2, 1)``
    returns one planted table, the same object on every call.
    """
    cat = catalog_for(CP2)
    table = cat.pv_gysin_table(2, 1)
    capped = cat.gamma(2).ring.monomial({"x1": 1, "x3": 1})
    source, sign = table[capped]
    assert source == cat.sm_pair.ring.monomial()
    table[capped] = (cat.sm_pair.ring.monomial({"xi": 1}), sign)
    real = SpaceCatalog.pv_gysin_table

    def planted(self, k, m):
        return table if self is cat and (k, m) == (2, 1) else real(self, k, m)

    monkeypatch.setattr(SpaceCatalog, "pv_gysin_table", planted)
    _, lifted, ((xm, _),) = cat._half(2)
    lw = cat.gamma(2).ring.top_monomial - xm - capped  # fm - capped
    assert lifted[lw][0] == source
    monkeypatch.delitem(lifted, lw)


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


def _faulty(name, fault):
    """Patch ``spaces.<name>`` to ``fault(real, *args)`` for the test's length."""

    def patch(monkeypatch, plant_lift):
        real = getattr(spaces, name)
        monkeypatch.setattr(spaces, name, lambda *args: fault(real, *args))

    return patch


def _lifted(name):
    """Plant the level's generator ``name`` on the retraction pullback L(w) of the source [1]."""
    return lambda monkeypatch, plant_lift: plant_lift(lambda image: image * image.ring.gen(name))


def _b_as_unit(real, space, x):
    """The real inverse dual, with [b] sent where [1] goes, so both share an image."""
    ring = x.ring
    return real(space, dual(ring, ring.monomial()) if ring.monomial({"b": 1}) in x.terms else x)


def _unit(x):
    return x.ring.monomial() in x.terms


# One fault per table refusal: each breaks the wrong-way images of level 3,
# at break 1, or only at break 2, where the first break's table is sound.
# An L(w) that carries x_{2m} does not divide break m's fm = top - x_{2m},
# so the image fm / L(w) of [1] there has no term.
FAULTS = {
    "zero image": (
        _lifted("x2"),
        "wrong-way image of [1] at level 3, break 1 has 0 terms, not one",
    ),
    "zero image at break 2": (
        _lifted("x4"),
        "wrong-way image of [1] at level 3, break 2 has 0 terms, not one",
    ),
    "non-unit coefficient": (
        _faulty("pd_inverse", lambda real, space, x: real(space, x) * (-2 if _unit(x) else 1)),
        "wrong-way image of [1] at level 3, break 1 has coefficient 2, not +1 or -1",
    ),
    "shared with an xi image": (
        _faulty(
            "gysin",
            lambda real, pull, source, target, x: (
                dual(target.ring, target.ring.monomial({"x1": 1, "x3": 1, "x4": 1, "x5": 1}))
                if source.ring.monomial({"xi": 1}) in x.terms
                else real(pull, source, target, x)
            ),
        ),
        "wrong-way images of [1] and [xi] at level 3, break 1 are both [x1 x3 x4 x5]",
    ),
    "two xi-free sources sharing": (
        _faulty("pd_inverse", _b_as_unit),
        "wrong-way images of [1] and [b] at level 3, break 1 are both [x1 x3 x4 x5]",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_cold_pipeline_refuses_a_broken_image_as_its_table_does(
    fault, monkeypatch, plant_lift, capsys
):
    patch, refused = FAULTS[fault]
    patch(monkeypatch, plant_lift)
    for m in (1, 2):
        cat = SpaceCatalog(CP2)
        with pytest.raises(RuntimeError) as err:
            cat.pv_gysin_table(3, m)
        assert str(err.value) == refused
        assert cat._halves.keys() == {1} and list(cat._levels) == [3]
    cat = SpaceCatalog(CP2)
    for kind in "AB":  # a refused level is not kept, so it is refused again
        with pytest.raises(RuntimeError) as err:
            coproduct_pipeline(LoopClass.generator(CP2, kind, 3, 1), cat)
        assert str(err.value) == refused
        assert cat._halves.keys() == {1} and list(cat._levels) == [3]
    monkeypatch.setattr(spaces, "_CATALOGS", {})
    argv = ["--space", "cp", "--n", "2", "coproduct", "A[3,1]", "--route", "pipeline"]
    assert run(argv) == EXIT_INTERNAL == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"loopalg: internal error: RuntimeError: {refused}\n")


@pytest.mark.parametrize("params", [CP2, SpaceParams.from_token("hp", 3)], ids=["cp2", "hp3"])
def test_a_non_unit_lift_coefficient_is_refused_at_break_1_on_every_level(params, plant_lift):
    # A break's own factor, the coefficient of pd(x_{2m}), is a Koszul sign,
    # so an entry's coefficient is +1 or -1 at every break or at none: the
    # coefficient of its L(w) decides, and break 1 is refused first, on
    # every level and whichever break is asked for.
    signs = {k: SpaceCatalog(params).pv_gysin_table(k, 1) for k in range(2, 9)}
    plant_lift(lambda image: 3 * image)
    for k, table in signs.items():
        unit = next(sign for source, sign in table.values() if source == 0)
        refused = f"wrong-way image of [1] at level {k}, break 1 has coefficient {3 * unit}, "
        for m in range(1, k):
            cat = SpaceCatalog(params)
            with pytest.raises(RuntimeError) as err:
                cat.pv_gysin_table(k, m)
            assert str(err.value) == refused + "not +1 or -1"
            with pytest.raises(RuntimeError) as err:
                coproduct_pipeline(LoopClass.generator(params, "B", k, 0), cat)
            assert str(err.value) == refused + "not +1 or -1"
            assert cat._halves.keys() == {1} and list(cat._levels) == [k]
