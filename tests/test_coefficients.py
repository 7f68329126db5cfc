"""Every coefficient loopalg stores or returns is exact and canonical.

The canonical form is an ``int`` when the value is integral and otherwise a
``Fraction`` with denominator > 1; a float or a bool never enters.  With a
checking ``Combination.__init__`` in place, every verify suite and every CLI
command must store canonical coefficients only.  The pipeline multiplies by
the signs of the wrong-way tables where it means to divide by them, so a table
coefficient other than +1 or -1 is refused as an internal error, and so is an
entry read off a class of other than one term.
"""

import re
from fractions import Fraction

import pytest

from loopalg import (
    CohClass,
    LoopClass,
    SpaceParams,
    cli,
    coproduct_closed,
    dual,
    pairing,
    spaces,
)
from loopalg.homology import HomologyElement
from loopalg.loops import (
    TensorCohClass,
    TensorLoopClass,
    coh_cross,
    gh_dual_pairing,
    tensor_pairing,
)
from loopalg.ring import Combination, as_coeff

CP2 = SpaceParams.from_token("cp", 2)
HP2 = SpaceParams.from_token("hp", 2)


def _canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _assert_canonical(x) -> None:
    """``terms`` holds nonzero canonical coefficients: no stored 0 either."""
    bad = [c for c in x.terms.values() if not (c and _canonical(c))]
    assert not bad, f"zero or non-canonical coefficients {bad!r} in {type(x).__name__}"


@pytest.fixture
def checked(monkeypatch):
    """Every Combination built from here on asserts canonical coefficients.

    Both constructors are checked: ``__init__``, which cleans, and the
    trusted ``_built``, whose callers vouch for their coefficients.
    """
    original, original_built = Combination.__init__, Combination._built.__func__

    def init(self, owner, terms):
        original(self, owner, terms)
        _assert_canonical(self)

    def built(cls, owner, terms):
        out = original_built(cls, owner, terms)
        _assert_canonical(out)
        return out

    monkeypatch.setattr(Combination, "__init__", init)
    monkeypatch.setattr(Combination, "_built", classmethod(built))
    # Fresh catalogs, so that the wrong-way tables are built under the check.
    monkeypatch.setattr(spaces, "_CATALOGS", {})


def test_as_coeff_canonical_form():
    assert type(as_coeff(3)) is int
    assert type(as_coeff(Fraction(6, 2))) is int and as_coeff(Fraction(6, 2)) == 3
    assert as_coeff(Fraction(1, 3)) == Fraction(1, 3)
    for bad in (1.0, 1.5, True, False, "1", None):
        with pytest.raises(TypeError):
            as_coeff(bad)


@pytest.mark.parametrize("params", [CP2, HP2], ids=lambda p: p.token)
@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_verify_suites_store_canonical_coefficients(checked, suite, params):
    report = cli.SUITES[suite](params, 3)
    assert report.passed, report.failures


_COMMANDS = [
    ["--space", "cp", "--n", "2", "coproduct", "A[3,1]"],
    ["--space", "hp", "--n", "2", "coproduct", "B[3,1]", "--route", "pipeline"],
    ["--space", "cp", "--n", "3", "coproduct", "2*A[4,2]-1/3*B[3,1]", "--route", "pipeline"],
    ["--space", "cp", "--n", "2", "product", "s[1,0]", "m[1,1]"],
    ["--space", "cp", "--n", "3", "product", "3/2*s[1,0] x m[1,1] + 1/2*s[2,1] x s[1,0]"],
    ["--space", "cp", "--n", "2", "gysin", "a1", "--k", "2", "--map", "pL"],
    ["--space", "hp", "--n", "3", "gysin", "ab2", "--k", "3", "--map", "pV:1"],
    ["--space", "hp", "--n", "3", "cap", "ab2", "--k", "4", "--m", "3"],
    ["--space", "cp", "--n", "2", "table"],
    ["--space", "cp", "--n", "2", "verify", "pipeline", "--max-k", "3"],
]


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda a: " ".join(a[4:6]))
def test_cli_commands_store_canonical_coefficients(checked, capsys, argv, fmt):
    assert cli.run([*argv, "--format", fmt]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def _sm_ring():
    return spaces.catalog_for(CP2).sm.ring


# One class of each type with int and Fraction coefficients of both signs,
# built inside the test, under the check.
_MIXED = {
    "RingElement": lambda: _sm_ring().element({0: 3, _sm_ring().top_monomial: Fraction(-1, 3)}),
    "HomologyElement": lambda: HomologyElement(_sm_ring(), {0: Fraction(2, 3), 1: -5}),
    "LoopClass": lambda: LoopClass(CP2, {("A", 2, 1): Fraction(1, 2), ("B", 3, 0): -4}),
    "TensorLoopClass": lambda: TensorLoopClass(
        CP2, {(("A", 1, 0), ("B", 2, 1)): Fraction(5, 3), (("B", 1, 1), ("A", 1, 0)): 7}
    ),
    "CohClass": lambda: CohClass(CP2, {("s", 1, 0): 2, ("m", 2, 1): Fraction(-1, 7)}),
    "TensorCohClass": lambda: TensorCohClass(
        CP2, {(("s", 1, 0), ("m", 2, 1)): -1, (("m", 3, 0), ("s", 1, 1)): Fraction(3, 2)}
    ),
}


@pytest.mark.parametrize("make", _MIXED.values(), ids=_MIXED.keys())
def test_negation_keeps_keys_and_canonical_coefficients(checked, make):
    # Negation builds through the trusted ``_built``: the negative of a
    # canonical, nonzero coefficient is one too, on the same keys.
    x = make()
    neg = -x
    assert type(neg) is type(x) and neg.owner is x.owner
    assert list(neg.terms) == list(x.terms)
    assert neg == x * -1
    assert all(neg.terms[key] == -c for key, c in x.terms.items())
    _assert_canonical(neg)
    assert -neg == x


def test_pairings_return_exact_values():
    third = Fraction(1, 3)
    ring = spaces.catalog_for(CP2).sm.ring
    top = ring.top_monomial
    c = ring.element({top: 3})
    assert type(pairing(c, 2 * dual(ring, top))) is int
    assert pairing(c, third * dual(ring, top)) == 1
    assert type(pairing(c, third * dual(ring, top))) is int
    assert pairing(c, Fraction(1, 2) * dual(ring, top)) == Fraction(3, 2)

    s10 = CohClass.generator(CP2, "s", 1, 0)
    a10 = LoopClass.generator(CP2, "A", 1, 0)
    for scale, want in ((2, 2), (third, third), (Fraction(3, 2), Fraction(3, 2))):
        value = gh_dual_pairing(s10 * scale, a10)
        assert value == want and _canonical(value)

    split = coproduct_closed(LoopClass.generator(CP2, "A", 2, 1))
    pair = coh_cross(s10, CohClass.generator(CP2, "s", 1, 1))
    for scale, want in ((1, 1), (third, third), (Fraction(3), 3)):
        value = tensor_pairing(pair * scale, split)
        assert value == want and _canonical(value)


def test_non_unit_wrongway_coefficient_is_refused(monkeypatch, capsys):
    real = spaces.pd_inverse

    def doubled(space, x):
        """The real inverse dual, scaled by -2 for the dual of the unit monomial.

        The table build takes the break-invariant half of each xi-free
        source's image from here; the image of [1] is -1 times a dual class
        at every break, so it arrives with coefficient 2.
        """
        out = real(space, x)
        return -2 * out if x.ring.monomial() in x.terms else out

    monkeypatch.setattr(spaces, "pd_inverse", doubled)
    refused = r"wrong-way image of \[1\] at level 3, break 1 has coefficient 2, not"
    with pytest.raises(RuntimeError, match=refused):
        spaces.SpaceCatalog(CP2).pv_gysin_table(3, 1)

    monkeypatch.setattr(spaces, "_CATALOGS", {})
    argv = ["--space", "cp", "--n", "2", "coproduct", "B[3,1]", "--route", "pipeline"]
    assert cli.run(argv) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("loopalg: internal error: RuntimeError: wrong-way image of [1]")


def _two_term_inverse(monkeypatch, plant_lift):
    real = spaces.pd_inverse

    def inverse(space, x):
        """The real inverse dual, plus the unit class for the dual of the unit monomial."""
        out = real(space, x)
        return out + out.ring.one() if x.ring.monomial() in x.terms else out

    monkeypatch.setattr(spaces, "pd_inverse", inverse)


# A table entry is one term read off a class; a class of any other length is a
# broken wrong-way convention, an internal fault, never refused input.
@pytest.mark.parametrize(
    "fault, refused",
    [
        (
            _two_term_inverse,
            r"inverse dual of \[1\] at level 3, breaks 1 \.\. 2, has 2 terms, not one",
        ),
        (
            # L(w) of [1] carrying x2: it does not divide break 1's fm, the
            # top monomial less x2, so the packed cap there is zero.
            lambda monkeypatch, plant_lift: plant_lift(lambda image: image * image.ring.gen("x2")),
            r"wrong-way image of \[1\] at level 3, break 1 has 0 terms, not one",
        ),
        (
            lambda monkeypatch, plant_lift: plant_lift(lambda image: image.ring.zero()),
            r"retraction pullback of the inverse dual of \[1\] at level 3, breaks 1 \.\. 2, "
            r"has 0 terms, not one",
        ),
        (
            lambda monkeypatch, plant_lift: plant_lift(lambda image: image + image.ring.one()),
            r"retraction pullback of the inverse dual of \[1\] at level 3, breaks 1 \.\. 2, "
            r"has 2 terms, not one",
        ),
    ],
    ids=["two-term inverse dual", "zero image", "zero lift", "two-term lift"],
)
def test_wrongway_entry_of_other_than_one_term_is_refused(
    monkeypatch, plant_lift, capsys, fault, refused
):
    fault(monkeypatch, plant_lift)
    with pytest.raises(RuntimeError, match=refused):
        spaces.SpaceCatalog(CP2).pv_gysin_table(3, 1)

    monkeypatch.setattr(spaces, "_CATALOGS", {})
    argv = ["--space", "cp", "--n", "2", "coproduct", "A[3,1]", "--route", "pipeline"]
    assert cli.run(argv) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("loopalg: internal error: RuntimeError: ")
    assert re.search(refused, err)
