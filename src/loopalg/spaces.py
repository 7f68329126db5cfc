"""Space catalog for the two projective families.

For M = CP^n the index jump is lam = 1 and the real dimension N = 2n; for
M = HP^n, lam = 3 and N = 4n.  The catalog builds the cohomology rings of the
unit tangent bundle SM, of the fiber product SM x_M SM, and of the level-k
completing manifolds, all with rational coefficients:

    H*(SM)        = Q[a, b] / (a^n, b^2)        |a| = lam + 1, |b| = N + lam
    H*(SM x_M SM) = Q[a, b, xi] / (.., xi^2)    |xi| = N - 1
    H*(level k)   = Q[a, b, x1 .. x_{2k-1}]     |x_odd| = lam, |x_even| = N - 1

with every x squaring to zero.  For n = 1 the class a satisfies a = 0, which
is represented by simply omitting the generator; the quotient presentation is
the same ring.

A level's space, the pullback along its retraction onto SM, the fiber
classes of its breaks and its carrier word x_1 .. x_{2k-1}, packed as one
monomial, are one cache entry, built on first use of any; the fiber classes
and the word are read off the level ring's slot bits.  Catalogs are cached
per (family, n).  A break's pullback is a new map on each call: the
retraction pullback's images plus xi sent to the break's fiber class.  A
source of SM x_M SM that carries xi has a Poincare dual free of xi, so its
image does not depend on the break and is computed once per level.  A
source free of xi has the dual ``w xi``: its inverse dual and the
retraction pullback L(w) of ``w`` are computed once per level too.  Its
image at break m is ``pd(L(w) x_{2m}) = cap(L(w), pd(x_{2m}))`` by the cap
module law: the one monomial ``fm / L(w)``, where ``fm`` is the monomial of
``pd(x_{2m})``, with the product of the two coefficients and no sign of its
own.  x_{2m} is one bit of the level ring, so ``fm`` is the top monomial
less that bit, and the coefficient of ``pd(x_{2m})`` a Koszul sign; no
``pd`` is taken.  Those images, the L(w) and each break's bit and sign are
the level's break-invariant half, kept beside its entry; every break's
table is checked against them once, when the half is built, with the tests
that do not depend on the break made once per level.  The pipeline matches
a capped carrier with no table, by inverting its one image: its source is
the one whose L(w) is ``fm`` minus it, which is the top monomial less the
carrier at every break.  ``pv_gysin_table`` builds one break's table from
the half on each call, and keeps nothing.  xi is the last generator of
SM x_M SM, so its slot is the lowest bit of a packed monomial, and a
monomial free of xi is an SM monomial shifted up by one bit.  The catalog
also keeps the pipeline's diagonal pushforwards, one per SM monomial.
"""

from __future__ import annotations

from functools import cached_property, reduce

from .homology import HomologyElement, OrientedSpace, RingMap, dual, gysin, pd_inverse
from .ring import Generator, Monomial, Ring, RingElement, _Frozen, _require_int

__all__ = ["SpaceCatalog", "SpaceParams", "catalog_for", "generator_degree"]

_FAMILY_TOKENS = {"cp": "complex", "hp": "quaternionic"}


class SpaceParams(_Frozen):
    """Family and rank of the base projective space."""

    __slots__ = _fields = ("family", "n")

    def __init__(self, family: str, n: int) -> None:
        if family not in ("complex", "quaternionic"):
            raise ValueError(f"unknown family {family!r}")
        _require_int("n", n)  # a float or bool rank would share the int's catalog
        if n < 1:
            raise ValueError("n must be at least 1")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_token(cls, token: str, n: int) -> SpaceParams:
        family = _FAMILY_TOKENS.get(token)
        if family is None:
            raise ValueError(f"unknown space token {token!r}")
        return cls(family, n)

    @property
    def token(self) -> str:
        return "cp" if self.family == "complex" else "hp"

    @property
    def lam(self) -> int:
        """Index jump of the fibration: 1 for CP^n, 3 for HP^n."""
        return 1 if self.family == "complex" else 3

    @property
    def N(self) -> int:
        """Real dimension of the base."""
        return (2 if self.family == "complex" else 4) * self.n

    def lambda_k(self, k: int) -> int:
        """Index of the k-fold iterate, k*lam + (k-1)*(N-1)."""
        self.check_level(k)
        return k * self.lam + (k - 1) * (self.N - 1)

    def check_level(self, k: int) -> None:
        _require_int("level k", k)
        if k < 1:
            raise ValueError("level k must be >= 1")

    def check_index(self, i: int) -> None:
        _require_int("index i", i)
        if not 0 <= i <= self.n - 1:
            raise ValueError(f"index out of range for n={self.n}")


def generator_degree(params: SpaceParams, kind: str, k: int, i: int) -> int:
    """Homology degree of A/B (equal to the degree of s/m) at (k, i).

    A[k,i] sits in degree lambda_k + i(lam+1), and B[k,i] in
    lambda_k + (i+1)(lam+1) + N - 1.
    """
    params.check_index(i)
    base = params.lambda_k(k)
    if kind in ("A", "s"):
        return base + i * (params.lam + 1)
    if kind in ("B", "m"):
        return base + (i + 1) * (params.lam + 1) + params.N - 1
    raise ValueError(f"unknown generator kind {kind!r}")


class SpaceCatalog:
    """Lazily built rings, spaces and pullbacks for one (family, n)."""

    def __init__(self, params: SpaceParams):
        self.params = params
        # Per level k: its space, its retraction pullback, the fiber classes
        # x_2, x_4, .. x_{2k-2} of its breaks and the carrier word
        # x_1 .. x_{2k-1}, one packed monomial.
        self._levels: dict[int, tuple[OrientedSpace, RingMap, tuple[RingElement, ...], Monomial]] = {}
        # Per level k, the break-invariant half of its wrong-way images
        # (``_half``), empty at level 1, which has no break.
        self._halves: dict[int, tuple[dict, dict, list]] = {1: ({}, {}, [])}
        # The pipeline's diagonal spreads (``loops._diagonal_spread``), one
        # per SM monomial, so at most 2n.
        self._spreads: dict[Monomial, list[tuple]] = {}

    def _space(self, extra=()) -> OrientedSpace:
        """Space of a (none for n = 1), b, and each (name, degree) of ``extra`` squaring to 0."""
        p = self.params
        gens = [Generator("a", p.lam + 1, p.n)] if p.n >= 2 else []
        gens.append(Generator("b", p.N + p.lam, 2))
        gens.extend(Generator(name, degree, 2) for name, degree in extra)
        return OrientedSpace(Ring(gens))

    @cached_property
    def sm(self) -> OrientedSpace:
        """Unit tangent bundle, dimension 2N - 1."""
        return self._space()

    @cached_property
    def sm_pair(self) -> OrientedSpace:
        """Fiber product SM x_M SM, dimension 3N - 2."""
        return self._space([("xi", self.params.N - 1)])

    def _level(self, k: int) -> tuple[OrientedSpace, RingMap, tuple[RingElement, ...], Monomial]:
        """The level-k space, retraction pullback, fiber classes and carrier word, built together."""
        self.params.check_level(k)
        entry = self._levels.get(k)
        if entry is None:
            p = self.params
            space = self._space((f"x{j}", p.lam if j % 2 else p.N - 1) for j in range(1, 2 * k))
            ring = space.ring
            images = {g.name: ring.gen(g.name) for g in self.sm.ring.generators}
            xs = ring._slots[ring.index["x1"] :]  # x_1 .. x_{2k-1}, one bit each
            fibers = tuple(RingElement._built(ring, {1 << shift: 1}) for shift, _ in xs[1::2])
            word = sum(1 << shift for shift, _ in xs)
            entry = self._levels[k] = (space, RingMap(self.sm.ring, ring, images), fibers, word)
        return entry

    def gamma(self, k: int) -> OrientedSpace:
        """Level-k completing manifold, dimension lambda_k + 2N - 1."""
        return self._level(k)[0]

    def _check_break(self, k: int, m: int) -> None:
        if type(k) is int and type(m) is int and 0 < m < k:
            return
        # Otherwise refuse, naming the first fault: the level, the break's type, its range.
        self.params.check_level(k)
        _require_int("break index m", m)
        if not 1 <= m <= k - 1:
            raise ValueError(f"break index m={m} outside 1 .. {k - 1}")

    def fiber_class(self, k: int, m: int) -> RingElement:
        """Thom fiber class x_{2m} of the m-th break at level k; 1 <= m <= k - 1.

        Built with the level, so every call returns the same object.
        """
        self._check_break(k, m)
        return self._level(k)[2][m - 1]

    def pullback_pL(self, k: int) -> RingMap:
        """Pullback along the retraction of the level-k manifold onto SM; fixes SM's generators."""
        return self._level(k)[1]

    def pullback_pV(self, k: int, m: int) -> RingMap:
        """Pullback along the m-th figure-eight retraction onto SM x_M SM.

        The images of ``pullback_pL(k)`` plus the fiber class xi sent to
        ``fiber_class(k, m)``, built from scratch on each call.
        """
        lift = self.pullback_pL(k)
        images = lift.images | {"xi": self.fiber_class(k, m)}
        return RingMap(self.sm_pair.ring, lift.target, images)

    # -- distinguished classes ----------------------------------------

    def _named_dual(self, ring: Ring, i: int, with_b: bool, word: Monomial = 0) -> HomologyElement:
        """Dual class of a^i (times b) times the packed monomial ``word``, over ``ring``.

        ``word`` shares no generator with a^i b, so or-ing it in multiplies.
        """
        self.params.check_index(i)
        exps = {}
        if i:
            exps["a"] = i
        if with_b:
            exps["b"] = 1
        return dual(ring, ring.monomial(exps) | word)

    def sm_dual(self, i: int, with_b: bool = False) -> HomologyElement:
        """Dual class of a^i (times b) over SM."""
        return self._named_dual(self.sm.ring, i, with_b)

    def sm_pair_dual(self, i: int, with_b: bool = False) -> HomologyElement:
        """Dual class of a^i (times b) over SM x_M SM."""
        return self._named_dual(self.sm_pair.ring, i, with_b)

    def gamma_dual(self, k: int, i: int, with_b: bool = False) -> HomologyElement:
        """Dual class of the carrier a^i (times b) x_1 .. x_{2k-1} at level k, unsigned.

        The word x_1 .. x_{2k-1} is packed once, with the level.
        """
        space, _, _, word = self._level(k)
        return self._named_dual(space.ring, i, with_b, word)

    def pv_gysin_table(self, k: int, m: int) -> dict[Monomial, tuple[Monomial, int]]:
        """Wrong-way images of the full dual basis of SM x_M SM at (k, m).

        Maps each image monomial of the level-k ring to the source basis
        monomial and the sign it arrived with.  Covering the full basis lets
        callers detect any unexpected component instead of silently dropping
        it.  Every image must be one term of coefficient +1 or -1, so that
        dividing by it is multiplying by it, every inverse dual one term, and
        no two sources may share an image; each fault raises ``RuntimeError``.

        Built from the level's break-invariant half (``_half``), which
        checks every break m = 1 .. k - 1 when it is built, so a fault
        raises the refusal of the first break that has one, whichever break
        is asked for.  The table is the images of the sources carrying xi,
        copied, and per source free of xi its image ``fm / L(w)``, one
        ``Ring.div_monomials``, with the sign ``lc * fc``.  Each call builds
        a new table and keeps nothing; the pipeline never asks for one.
        """
        self._check_break(k, m)
        fixed, lifted, breaks = self._half(k)
        return self._table(k, m, fixed, lifted.items(), *breaks[m - 1])

    def _half(self, k: int) -> tuple[dict, dict, list[tuple[Monomial, int]]]:
        """The checked break-invariant half of level k's wrong-way images, built on first use.

        ``(fixed, lifted, breaks)``: the table entries of the 2n sources
        carrying xi, ``{image: (source, sign)}``, one ``gysin`` call each,
        through break 1's map; the 2n sources free of xi, ``{L(w): (source,
        lc)}``, one ``pd_inverse`` and one pullback each; and per break m
        the monomial ``xm`` of x_{2m} and the coefficient ``fc`` of the one
        term ``fc [fm]`` of ``pd(x_{2m})``.  That term is read off the fiber
        bit, with the two ``Ring`` methods ``cap`` calls: ``fm`` is the top
        monomial less ``xm``, and ``fc`` the Koszul sign of ``fm * xm``.  A
        source free of xi has the dual ``w xi``, with no sign, as xi is the
        last generator, and its image at break m is ``fm / L(w)`` with the
        coefficient ``lc * fc``: normal-ordering ``fm / L(w)`` and L(w)
        moves b, the one odd generator L(w) can hold, past the image's
        2k - 2 odd x's, an even count.  So break m's table is sound exactly
        when the L(w) are distinct with coeffs +1 or -1, which holds for
        every break or none, and no L(w) holds the bit ``xm`` and no ``fm``
        is an xi image times an L(w): O(1) per break, in break order.  A
        break that fails has its table built, which raises its refusal, and
        nothing is kept.  A pullback L(w) of other than one term is refused
        here, naming the source, the level and its breaks.
        """
        half = self._halves.get(k)
        if half is not None:
            return half
        pair = self.sm_pair
        ring = pair.ring
        gam, lift, fibers, _ = self._level(k)
        p_v = self.pullback_pV(k, 1)
        fixed: dict[Monomial, tuple[Monomial, int]] = {}
        lifted = []  # (L(w), (source, coeff)) of the sources free of xi, in basis order
        for u in ring.monomials():
            du = dual(ring, u)
            if u & 1:  # xi is the last generator, so its slot is the lowest bit
                image = gysin(p_v, pair, gam, du).terms
                if len(image) != 1:
                    raise self._refused(k, 1, fixed, u, count=len(image))
                ((mono, coeff),) = image.items()
                entry = (u, coeff)
                if coeff not in (1, -1) or fixed.setdefault(mono, entry) is not entry:
                    raise self._refused(k, 1, fixed, u, mono, coeff)
            else:
                # The inverse dual is w xi, xi last: w is it shifted down, with no sign.
                wxi, c = self._one_term(k, u, "inverse dual", pd_inverse(pair, du))
                # L fixes a and b, so L(w) is the one term c w.
                w = RingElement(self.sm.ring, {wxi >> 1: c})
                lm, lc = self._one_term(k, u, "retraction pullback of the inverse dual", lift(w))
                lifted.append((lm, (u, lc)))
        lms, level = dict(lifted), gam.ring
        held = reduce(int.__or__, lms, 0)  # x_{2m} is one bit, held by an L(w) iff set here
        sound = len(lms) == len(lifted) and all(lc in (1, -1) for _, lc in lms.values())
        shared = {f + lm for f in fixed for lm in lms}  # each fm putting an L(w) on an xi image
        top, breaks = level.top_monomial, []
        for m, fiber in enumerate(fibers, 1):
            (xm,) = fiber.terms  # one bit, which the top monomial holds
            fm = top - xm  # pd(x_{2m}) = cap(x_{2m}, [top]) = fc [fm]
            fc = level.merge_sign(fm, xm)
            if not sound or xm & held or fm in shared:
                self._table(k, m, fixed, lifted, xm, fc)  # raises the refusal of break m
            breaks.append((xm, fc))
        return self._halves.setdefault(k, (fixed, lms, breaks))

    def _one_term(self, k, u, what, x) -> tuple[Monomial, int]:
        """The one term of ``x``, the ``what`` of source ``u`` at level k, else its refusal."""
        if len(x.terms) != 1:
            raise RuntimeError(
                f"{what} of [{self.sm_pair.ring.monomial_str(u)}] at level {k}, breaks "
                f"1 .. {k - 1}, has {len(x.terms)} terms, not one"
            )
        return next(iter(x.terms.items()))

    def _table(self, k, m, fixed, lifted, xm, fc) -> dict[Monomial, tuple[Monomial, int]]:
        """Break m's table: ``fixed``, and each source of ``lifted`` at its image ``fm / L(w)``."""
        ring = self.gamma(k).ring
        fm, table = ring.top_monomial - xm, fixed.copy()
        for lm, (u, lc) in lifted:
            mono = ring.div_monomials(fm, lm)
            if mono is None:
                raise self._refused(k, m, table, u, count=0)
            coeff = lc * fc
            entry = (u, coeff)
            if coeff not in (1, -1) or table.setdefault(mono, entry) is not entry:
                raise self._refused(k, m, table, u, mono, coeff)
        return table

    def _refused(self, k, m, table, u, mono=None, coeff=1, count=1) -> RuntimeError:
        """The fault of source ``u``'s entry in the table of (k, m), bound for image ``mono``.

        Its term count, else its coefficient, else the image it shares with
        another source; the two are named in basis order, which is the
        order of their packed monomials.
        """
        ring = self.sm_pair.ring
        where = f"at level {k}, break {m}"
        if count != 1:
            fault = f"{count} terms, not one"
        elif coeff not in (1, -1):
            fault = f"coefficient {coeff}, not +1 or -1"
        else:
            first, second = map(ring.monomial_str, sorted((table[mono][0], u)))
            shared = self.gamma(k).ring.monomial_str(mono)
            return RuntimeError(
                f"wrong-way images of [{first}] and [{second}] {where} are both [{shared}]"
            )
        return RuntimeError(f"wrong-way image of [{ring.monomial_str(u)}] {where} has {fault}")


_CATALOGS: dict[SpaceParams, SpaceCatalog] = {}


def catalog_for(params: SpaceParams) -> SpaceCatalog:
    """Shared catalog per (family, n); rings are cached inside it."""
    cat = _CATALOGS.get(params)
    if cat is None:
        cat = _CATALOGS.setdefault(params, SpaceCatalog(params))
    return cat
