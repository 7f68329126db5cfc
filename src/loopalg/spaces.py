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

Rings, oriented spaces and wrong-way tables are cached per catalog, and
catalogs are cached per (family, n); the pullbacks are rebuilt on each call.
"""

from __future__ import annotations

from functools import cached_property

from .homology import HomologyElement, OrientedSpace, RingMap, dual, gysin
from .ring import Generator, Monomial, Ring, RingElement, TensorRing, _Frozen

__all__ = ["SpaceCatalog", "SpaceParams", "catalog_for", "generator_degree"]

_FAMILY_TOKENS = {"cp": "complex", "hp": "quaternionic"}


class SpaceParams(_Frozen):
    """Family and rank of the base projective space."""

    __slots__ = _fields = ("family", "n")

    def __init__(self, family: str, n: int) -> None:
        if family not in ("complex", "quaternionic"):
            raise ValueError(f"unknown family {family!r}")
        if type(n) is not int:  # a float or bool rank would share the int's catalog
            raise TypeError(f"n must be an int, not {type(n).__name__}")
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
        if k < 1:
            raise ValueError("level k must be >= 1")

    def check_index(self, i: int) -> None:
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
        self._gammas: dict[int, OrientedSpace] = {}
        self._pv_tables: dict[tuple[int, int], dict[Monomial, tuple[Monomial, int]]] = {}

    def _base_generators(self) -> list[Generator]:
        p = self.params
        gens = []
        if p.n >= 2:
            gens.append(Generator("a", p.lam + 1, p.n))
        gens.append(Generator("b", p.N + p.lam, 2))
        return gens

    @cached_property
    def sm(self) -> OrientedSpace:
        """Unit tangent bundle, dimension 2N - 1."""
        return OrientedSpace(Ring(self._base_generators()))

    @cached_property
    def sm_pair(self) -> OrientedSpace:
        """Fiber product SM x_M SM, dimension 3N - 2."""
        gens = self._base_generators()
        gens.append(Generator("xi", self.params.N - 1, 2))
        return OrientedSpace(Ring(gens))

    @cached_property
    def sm_tensor(self) -> TensorRing:
        """Tensor square of the SM ring, for diagonal pushforwards."""
        return TensorRing(self.sm.ring, self.sm.ring)

    def gamma(self, k: int) -> OrientedSpace:
        """Level-k completing manifold, dimension lambda_k + 2N - 1."""
        self.params.check_level(k)
        if k not in self._gammas:
            p = self.params
            gens = self._base_generators()
            for j in range(1, 2 * k):
                deg = p.lam if j % 2 == 1 else p.N - 1
                gens.append(Generator(f"x{j}", deg, 2))
            self._gammas[k] = OrientedSpace(Ring(gens))
        return self._gammas[k]

    def fiber_class(self, k: int, m: int) -> RingElement:
        """Thom fiber class x_{2m} of the m-th break at level k; 1 <= m <= k - 1."""
        self.params.check_level(k)
        if not 1 <= m <= k - 1:
            raise ValueError(f"break index m={m} outside 1 .. {k - 1}")
        return self.gamma(k).ring.gen(f"x{2 * m}")

    def pullback_pL(self, k: int) -> RingMap:
        """Pullback along the retraction of the level-k manifold onto SM."""
        gam = self.gamma(k).ring
        images = {g.name: gam.gen(g.name) for g in self.sm.ring.generators}
        return RingMap(self.sm.ring, gam, images)

    def pullback_pV(self, k: int, m: int) -> RingMap:
        """Pullback along the m-th figure-eight retraction onto SM x_M SM.

        Fixes the SM generators and sends the fiber class xi to
        ``fiber_class(k, m)``.
        """
        xi = self.fiber_class(k, m)
        gam = xi.ring
        images = {g.name: gam.gen(g.name) for g in self.sm.ring.generators}
        images["xi"] = xi
        return RingMap(self.sm_pair.ring, gam, images)

    # -- distinguished classes ----------------------------------------

    def _sm_exponents(self, i: int, with_b: bool) -> dict[str, int]:
        """Exponents of a^i (times b), the part shared by SM and the rings over it."""
        self.params.check_index(i)
        exps: dict[str, int] = {}
        if i:
            exps["a"] = i
        if with_b:
            exps["b"] = 1
        return exps

    def sm_dual(self, i: int, with_b: bool = False) -> HomologyElement:
        """Dual class of a^i (times b) over SM."""
        ring = self.sm.ring
        return dual(ring, ring.monomial(self._sm_exponents(i, with_b)))

    def sm_pair_dual(self, i: int, with_b: bool = False) -> HomologyElement:
        """Dual class of a^i (times b) over SM x_M SM."""
        ring = self.sm_pair.ring
        return dual(ring, ring.monomial(self._sm_exponents(i, with_b)))

    def gamma_dual(
        self, k: int, i: int, with_b: bool = False, coeff: int = 1
    ) -> HomologyElement:
        """Dual class of the carrier a^i (times b) x_1 .. x_{2k-1} at level k."""
        ring = self.gamma(k).ring
        exps = self._sm_exponents(i, with_b)
        exps.update({f"x{j}": 1 for j in range(1, 2 * k)})
        return dual(ring, ring.monomial(exps), coeff)

    def pv_gysin_table(self, k: int, m: int) -> dict[Monomial, tuple[Monomial, int]]:
        """Wrong-way images of the full dual basis of SM x_M SM at (k, m).

        Maps each image monomial of the level-k ring to the source basis
        monomial and the sign it arrived with.  Covering the full basis lets
        callers detect any unexpected component instead of silently dropping
        it.  Every image coefficient must be +1 or -1, so that dividing by it
        is multiplying by it; any other value breaks the sign conventions and
        raises ``RuntimeError``.
        """
        key = (k, m)
        if key not in self._pv_tables:
            pmap = self.pullback_pV(k, m)
            pair = self.sm_pair
            gam = self.gamma(k)
            table: dict[Monomial, tuple[Monomial, int]] = {}
            for u in pair.ring.monomials():
                image = gysin(pmap, pair, gam, dual(pair.ring, u))
                ((mono, coeff),) = image.terms.items()
                if coeff not in (1, -1):
                    raise RuntimeError(
                        f"wrong-way image of [{pair.ring.monomial_str(u)}] at level {k}, "
                        f"break {m} has coefficient {coeff}, not +1 or -1"
                    )
                table[mono] = (u, coeff)
            self._pv_tables[key] = table
        return self._pv_tables[key]


_CATALOGS: dict[SpaceParams, SpaceCatalog] = {}


def catalog_for(params: SpaceParams) -> SpaceCatalog:
    """Shared catalog per (family, n); rings are cached inside it."""
    cat = _CATALOGS.get(params)
    if cat is None:
        cat = _CATALOGS.setdefault(params, SpaceCatalog(params))
    return cat
