"""Loop-space homology classes and the operations between them.

The relative homology of the free loop space modulo constant loops has one
generator per (family, level, index): an odd-degree family A and an even
family B, with dual cohomology generators written s (sigma) and m (mu).  This
module computes the level-splitting coproduct twice, once from the closed
formula and once through the completing-manifold pipeline, the dual product
on cohomology, the presentation-ring normal form, and Betti counts, together
with the verification sweeps tying them together.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .homology import HomologyElement, _require_homogeneous, cap, diagonal_pushforward, dual
from .report import Report, _intern
from .ring import Combination, Monomial, RingMismatchError, _Frozen, _require_int, as_coeff
from .spaces import SpaceCatalog, SpaceParams, catalog_for, generator_degree

__all__ = [
    "CohClass",
    "LoopClass",
    "PipelineMatchError",
    "PresMonomial",
    "TensorCohClass",
    "TensorLoopClass",
    "betti_table",
    "cap_with_thom",
    "coproduct_closed",
    "coproduct_pipeline",
    "gamma_class",
    "gh_product",
    "gh_product_pairs",
    "presentation_normalize",
    "verify_coassociativity",
    "verify_duality",
    "verify_pipeline",
    "verify_presentation",
]

_KIND_RANK = {"A": 0, "B": 1, "s": 0, "m": 1}
_LATEX_LETTER = {"A": "A", "B": "B", "s": "\\sigma", "m": "\\mu"}
_COH_TO_LOOP = {"s": "A", "m": "B"}


class PipelineMatchError(RuntimeError):
    """A capped class missed the precomputed wrong-way images.

    This never happens when the sign conventions are consistent, so it
    indicates a broken convention rather than bad input.
    """


class _FormalSum(Combination):
    """Key validation, degrees and printed bodies shared by the four class types."""

    kinds: frozenset[str] = frozenset()
    pair = False

    __slots__ = ()

    params = Combination.owner

    def __init__(self, params: SpaceParams, terms: dict | None = None):
        super().__init__(params, terms or {})
        top = params.n - 1
        for key in self.terms:
            for kind, k, i in self._parts(key):
                if kind not in self.kinds:
                    raise ValueError(f"unexpected generator kind {kind!r}")
                if type(k) is not int or type(i) is not int or k < 1 or not 0 <= i <= top:
                    _refuse_part(params, k, i)

    def _parts(self, key) -> tuple:
        """The one reader of the key layout: a key is one ``(kind, k, i)``, or two for a pair."""
        try:
            if self.pair:
                (_, _, _), (_, _, _) = key
                return key
            _, _, _ = key
            return (key,)
        except (TypeError, ValueError):
            raise ValueError(f"malformed {type(self).__name__} key {key!r}") from None

    @classmethod
    def zero(cls, params: SpaceParams):
        """The empty sum, built without ``__init__``: it has no key to check."""
        empty = object.__new__(cls)
        empty.owner = params
        empty.terms = {}
        return empty

    @classmethod
    def generator(cls, params: SpaceParams, kind: str, k: int, i: int):
        return cls(params, {(kind, k, i): 1})

    def _key_degree(self, key) -> int:
        return sum(generator_degree(self.params, *part) for part in self._parts(key))

    def _sort_key(self, key):
        return tuple((_KIND_RANK[kind], k, i) for kind, k, i in self._parts(key))

    def _body(self, key) -> str:
        return " x ".join(map(_gen_text, self._parts(key)))

    def _latex_body(self, key) -> str:
        return " \\times ".join(
            f"{_LATEX_LETTER[kind]}_{{{k}}}^{{{i}}}" for kind, k, i in self._parts(key)
        )

    def _json_body(self, key) -> dict:
        return {"gen": [{"kind": kind, "k": k, "i": i} for kind, k, i in self._parts(key)]}


def _refuse_part(params: SpaceParams, k, i) -> None:
    """Raise the error of a bad level or index: a non-int first, then its range."""
    _require_int("level k", k)
    _require_int("index i", i)
    params.check_level(k)
    params.check_index(i)


class LoopClass(_FormalSum):
    """Rational combination of loop-homology generators A[k,i], B[k,i]."""

    kinds = frozenset("AB")


class TensorLoopClass(_FormalSum):
    """Combination of tensor pairs of loop-homology generators."""

    kinds = frozenset("AB")
    pair = True


class CohClass(_FormalSum):
    """Rational combination of the dual cohomology generators s[k,i], m[k,i]."""

    kinds = frozenset("sm")


class TensorCohClass(_FormalSum):
    """Combination of tensor pairs of cohomology generators."""

    kinds = frozenset("sm")
    pair = True


def _gen_text(part: tuple) -> str:
    """One generator ``(kind, k, i)`` in the expression syntax, ``A[2,0]``."""
    kind, k, i = part
    return f"{kind}[{k},{i}]"


def _class_and_key(parts: tuple) -> tuple[type[_FormalSum], tuple]:
    """The class type and key of a term with one or two ``(kind, k, i)`` parts.

    The one writer of the key layout that ``_FormalSum._parts`` reads: one
    part is the key itself, two are a pair.  The class is the one whose
    ``kinds`` hold every part's kind; ``ValueError`` if none does.
    """
    if len(parts) not in (1, 2):
        raise ValueError(f"a term has one or two generators, not {len(parts)}")
    kinds = {kind for kind, _, _ in parts}
    for cls in (LoopClass, TensorLoopClass, CohClass, TensorCohClass):
        if cls.pair == (len(parts) == 2) and kinds <= cls.kinds:
            return cls, parts if cls.pair else parts[0]
    raise ValueError("cannot mix homology and cohomology generators")


# -- the coproduct, closed form --------------------------------------


def coproduct_closed(x: LoopClass) -> TensorLoopClass:
    """Level-splitting coproduct from the closed formula.

    A[k,i] splits into sum_{m,j} A[m,j] x A[k-m,i-j]; B[k,i] into the two
    mixed A/B families over the same ranges.  Level-1 classes map to zero.
    """
    if type(x) is not LoopClass:
        raise TypeError(f"coproduct_closed of {type(x).__name__}")
    out: dict = {}
    for (kind, k, i), c in x.terms.items():
        for m in range(1, k):
            for j in range(i + 1):
                if kind == "A":
                    _bump(out, (("A", m, j), ("A", k - m, i - j)), c)
                else:
                    _bump(out, (("A", m, j), ("B", k - m, i - j)), c)
                    _bump(out, (("B", m, j), ("A", k - m, i - j)), c)
    return TensorLoopClass(x.params, out)


def _bump(d: dict, key, c) -> None:
    d[key] = d.get(key, 0) + c


# -- the coproduct, completing-manifold pipeline ----------------------


def gamma_class(catalog: SpaceCatalog, kind: str, k: int, i: int) -> HomologyElement:
    """The level-k carrier of A[k,i] or B[k,i], with its intrinsic sign.

    A classes are carried by -[a^i x_1 .. x_{2k-1}] and B classes by
    +[a^i b x_1 .. x_{2k-1}]; the sign is applied here to ``gamma_dual``.
    """
    if kind not in ("A", "B"):
        raise ValueError(f"unknown generator kind {kind!r}")
    return catalog.gamma_dual(k, i, kind == "B") * (1 if kind == "B" else -1)


def cap_with_thom(
    catalog: SpaceCatalog, k: int, x: HomologyElement
) -> list[tuple[int, HomologyElement]]:
    """Cap each Thom fiber class x_{2m} into x, with the cross-product sign.

    One ``(m, capped class)`` per interior break index m = 1 .. k - 1; the
    index doubles as the marker of the interval factor it pairs with, so the
    list is empty at level 1.  Capping x_{2m} x [interval] into x x [interval]
    leaves the interval factor alone at the cost of (-1)^{deg x}, which is the
    sign applied here.
    """
    _require_homogeneous(x, "cap_with_thom input")
    catalog.params.check_level(k)
    sign = -1 if (x.degree() or 0) % 2 else 1
    return [(m, cap(catalog.fiber_class(k, m), x) * sign) for m in range(1, k)]


def _match_wrongway(catalog, k, m, z: HomologyElement) -> dict[Monomial, int | Fraction]:
    """Express a capped class as a wrong-way image from SM x_M SM.

    Matches against the precomputed images of the full dual basis and then
    insists the matched class is spanned by the diagonal duals (a^j and
    a^j b); anything else trips PipelineMatchError.  The match is returned
    over SM, as ``{SM monomial: coeff}``: each source monomial with its xi
    slot dropped, since SM x_M SM has SM's generators, in order, and xi.
    """
    table = catalog.pv_gysin_table(k, m)
    ring = catalog.sm_pair.ring
    xi = ring.index["xi"]
    out: dict[Monomial, int | Fraction] = {}
    for mono, c in z.terms.items():
        hit = table.get(mono)
        if hit is None:
            raise PipelineMatchError(
                f"unmatched component [{z.ring.monomial_str(mono)}] at level {k}, break {m}"
            )
        u, sign = hit
        if u[xi]:
            raise PipelineMatchError(
                f"fiber-class component [{ring.monomial_str(u)}] at level {k}, break {m}"
            )
        # Distinct table entries have distinct sources, so no key repeats;
        # c * sign equals c / sign, since pv_gysin_table admits only +-1.
        out[u[:xi] + u[xi + 1 :]] = c * sign
    return out


def _loop_part(ring, mono) -> tuple[str, int]:
    """The loop family and index of an SM monomial: B if it carries b, index its power of a."""
    exps = ring.exponents_by_name(mono)
    return ("B" if exps.get("b") else "A", exps.get("a", 0))


def _diagonal_spread(cat: SpaceCatalog, mono: Monomial) -> list[tuple]:
    """The diagonal pushforward of the dual of an SM monomial, without levels.

    One ``((kind, i), (kind, i), coeff)`` per term, a ``_loop_part`` per factor.
    """
    ring = cat.sm.ring
    spread = diagonal_pushforward(dual(ring, mono), cat.sm_tensor)
    out = []
    for tmono, dc in spread.terms.items():
        ml, mr = cat.sm_tensor.split(tmono)
        out.append((_loop_part(ring, ml), _loop_part(ring, mr), dc))
    return out


def coproduct_pipeline(x: LoopClass, catalog: SpaceCatalog | None = None) -> TensorLoopClass:
    """Recompute the coproduct through the completing manifolds.

    Per generator at level k: cap the carrier class with each Thom fiber
    class, recognize the result as a wrong-way image from SM x_M SM, replace
    the matched diagonal classes by diagonal pushforwards over SM, and read
    the tensor factors off at levels (m, k - m).  No sign enters in the last
    step; the factor conventions already absorb it.  A pushforward does not
    depend on the level or the break, so one call builds each matched class's
    pushforward once and reuses it at every break m.
    """
    if type(x) is not LoopClass:
        raise TypeError(f"coproduct_pipeline of {type(x).__name__}")
    cat = catalog or catalog_for(x.params)
    spreads: dict[Monomial, list[tuple]] = {}
    out: dict = {}
    for (kind, k, i), c in x.terms.items():
        carrier = gamma_class(cat, kind, k, i)
        for m, z in cap_with_thom(cat, k, carrier):
            for mono, cu in _match_wrongway(cat, k, m, z).items():
                spread = spreads.get(mono)
                if spread is None:
                    spread = spreads[mono] = _diagonal_spread(cat, mono)
                for (kind_l, il), (kind_r, ir), dc in spread:
                    _bump(out, ((kind_l, m, il), (kind_r, k - m, ir)), c * cu * dc)
    return TensorLoopClass(x.params, out)


# -- the dual product --------------------------------------------------


def _gh_key(params, ka, kb):
    kind_a, la, ia = ka
    kind_b, lb, ib = kb
    if kind_a == "m" and kind_b == "m":
        return None
    i = ia + ib
    if i > params.n - 1:
        return None
    kind = "s" if (kind_a, kind_b) == ("s", "s") else "m"
    return (kind, la + lb, i)


def gh_product(a: CohClass, b: CohClass) -> CohClass:
    """Product on the dual generators: s*s -> s, s*m -> m, m*m = 0.

    Levels add, indices add and truncate above n - 1; the degree grows by
    deg a + deg b + N - 1.
    """
    if type(a) is not CohClass or type(b) is not CohClass:
        raise TypeError(f"gh_product of {type(a).__name__} and {type(b).__name__}")
    if a.params is not b.params and a.params != b.params:
        raise RingMismatchError("operands are classes over different spaces")
    out: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = _gh_key(a.params, ka, kb)
            if key is not None:
                _bump(out, key, ca * cb)
    return CohClass(a.params, out)


def gh_product_pairs(t: TensorCohClass) -> CohClass:
    """Multiply out a sum of tensor pairs, bilinearly."""
    if type(t) is not TensorCohClass:
        raise TypeError(f"gh_product_pairs of {type(t).__name__}")
    out: dict = {}
    for (ka, kb), c in t.terms.items():
        key = _gh_key(t.params, ka, kb)
        if key is not None:
            _bump(out, key, c)
    return CohClass(t.params, out)


def _dual_key(key):
    """The loop generator dual to a cohomology generator key."""
    kind, k, i = key
    return (_COH_TO_LOOP[kind], k, i)


def gh_dual_pairing(a: CohClass, x: LoopClass) -> int | Fraction:
    """Kronecker pairing, s[k,i] against A[k,i] and m[k,i] against B[k,i]."""
    if a.params != x.params:
        raise RingMismatchError("operands are classes over different spaces")
    total = 0
    for key, c in a.terms.items():
        cx = x.terms.get(_dual_key(key))
        if cx is not None:
            total += c * cx
    return as_coeff(total)


def coh_cross(a: CohClass, b: CohClass) -> TensorCohClass:
    if a.params != b.params:
        raise RingMismatchError("operands are classes over different spaces")
    out: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            _bump(out, (ka, kb), ca * cb)
    return TensorCohClass(a.params, out)


def tensor_pairing(t: TensorCohClass, x: TensorLoopClass) -> int | Fraction:
    """Componentwise Kronecker pairing of tensor classes; no extra sign."""
    if t.params != x.params:
        raise RingMismatchError("operands are classes over different spaces")
    total = 0
    for (ka, kb), c in t.terms.items():
        cx = x.terms.get((_dual_key(ka), _dual_key(kb)))
        if cx is not None:
            total += c * cx
    return as_coeff(total)


# -- presentation ring -------------------------------------------------


class PresMonomial(_Frozen):
    """Monomial w^e of the level generator times alpha_i and beta_i powers.

    ``alphas[j]`` is the exponent of alpha_{j+1} (indices 1 .. n-1) and
    ``betas[j]`` the exponent of beta_j (indices 0 .. n-1).  The constant
    monomial is excluded; the presentation ring has no unit adjoined.

    The exponents are the one stored field, a flat tuple
    ``(omega, *alphas, *betas)``.  The factor count, the sub-index (each
    alpha_i and beta_i counted i times) and the beta count are read from it
    when asked for, so ``repr``, ``==`` and ``hash`` see only the exponents.
    """

    __slots__ = ("_exps",)
    _fields = ("omega", "alphas", "betas")

    def __init__(self, omega: int, alphas: tuple[int, ...], betas: tuple[int, ...]) -> None:
        for what, part in (("alphas", alphas), ("betas", betas)):
            if type(part) is not tuple:
                raise TypeError(f"{what} must be a tuple, not {part!r}")
        exps = (omega, *alphas, *betas)
        for e in exps:
            # A bool or float would count as an exponent, and a product of
            # floats would normalize to a level no generator has.
            _require_int("exponent", e)
        n = len(betas)
        if len(alphas) != n - 1:
            raise ValueError(f"alphas of length {len(alphas)} and betas of length {n} fit no n")
        if min(exps) < 0:
            raise ValueError("exponents must be non-negative")
        if not any(exps):
            raise ValueError("the constant monomial is not in the presentation ring")
        object.__setattr__(self, "_exps", exps)

    @property
    def omega(self) -> int:
        return self._exps[0]

    @property
    def alphas(self) -> tuple[int, ...]:
        return self._exps[1 : len(self._exps) // 2]

    @property
    def betas(self) -> tuple[int, ...]:
        return self._exps[len(self._exps) // 2 :]

    @property
    def factor_count(self) -> int:
        return sum(self._exps)

    @property
    def sub_index(self) -> int:
        n = len(self._exps) // 2
        return sum(map(operator.mul, self._exps, (0, *range(1, n), *range(n))))

    @property
    def beta_count(self) -> int:
        return sum(self.betas)

    @classmethod
    def build(
        cls,
        params: SpaceParams,
        omega: int = 0,
        alphas: dict[int, int] | None = None,
        betas: dict[int, int] | None = None,
    ) -> PresMonomial:
        n = params.n
        a = [0] * (n - 1)
        for idx, e in (alphas or {}).items():
            _require_int("alpha index", idx)
            if not 1 <= idx <= n - 1:
                raise ValueError(f"alpha index {idx} outside 1 .. {n - 1}")
            a[idx - 1] = e
        b = [0] * n
        for idx, e in (betas or {}).items():
            _require_int("beta index", idx)
            if not 0 <= idx <= n - 1:
                raise ValueError(f"beta index {idx} outside 0 .. {n - 1}")
            b[idx] = e
        return cls(omega, tuple(a), tuple(b))

    def mul(self, other: PresMonomial) -> PresMonomial:
        """The product: the exponents added, with no count computed.

        A sum of valid exponents is valid, so only the shapes are compared.
        """
        if len(self._exps) != len(other._exps):
            raise ValueError("presentation monomials over different n")
        product = object.__new__(PresMonomial)
        object.__setattr__(product, "_exps", tuple(map(operator.add, self._exps, other._exps)))
        return product


def presentation_normalize(p: PresMonomial, params: SpaceParams) -> CohClass:
    """Normal form of a presentation monomial among the dual generators.

    With k factors, total sub-index s and c beta factors the monomial maps
    to s[k,s] when c = 0, to m[k,s] when c = 1, and to zero otherwise or when
    s exceeds n - 1.  c is read first, then s, and k only for a nonzero result.
    """
    if len(p._exps) != 2 * params.n:
        raise ValueError("presentation monomial does not match n")
    c = p.beta_count
    if c > 1:
        return CohClass.zero(params)
    s = p.sub_index
    if s > params.n - 1:
        return CohClass.zero(params)
    return CohClass.generator(params, "s" if c == 0 else "m", p.factor_count, s)


# -- Betti numbers -----------------------------------------------------


def betti_table(params: SpaceParams, max_degree: int) -> list[tuple[int, int]]:
    """Pairs (d, dim) for d = 0 .. max_degree.

    Degrees grow with the index i, and B[k,i] sits above A[k,i], so each
    level's index walk stops at the first A[k,i] above the bound.
    """
    _require_int("degree", max_degree)
    if max_degree < 0:
        raise ValueError("degree must be non-negative")
    counts = [0] * (max_degree + 1)
    k = 1
    while params.lambda_k(k) <= max_degree:
        for i in range(params.n):
            d = generator_degree(params, "A", k, i)
            if d > max_degree:
                break
            counts[d] += 1
            d = generator_degree(params, "B", k, i)
            if d <= max_degree:
                counts[d] += 1
        k += 1
    return list(enumerate(counts))


# -- verification sweeps ----------------------------------------------


def _keys(params: SpaceParams, max_k: int, kinds: str):
    """Generator keys ``(kind, k, i)`` of level at most max_k, level-major."""
    for k in range(1, max_k + 1):
        for kind in kinds:
            for i in range(params.n):
                yield (kind, k, i)


def verify_duality(params: SpaceParams, max_k: int) -> Report:
    """<a * b, X> == <a x b, coproduct X> over all basis triples.

    One check is one triple (a, b, X): a pair of dual generators of total
    level at most max_k and a basis generator X of level at most max_k.  Its
    left side is the X-coefficient of gh_product(a, b), its right side the
    (a, b)-coefficient of coproduct_closed(X).  Each product is built once per
    pair and each coproduct once per X, as sparse tables.  A triple absent
    from both tables is 0 = 0, so it is credited as passed without a call;
    the others are compared one by one, pair-major and then in X order.
    """
    rep = Report(f"duality ({params.token}, n={params.n}, level<={max_k})")
    coh = list(_keys(params, max_k - 1, "sm"))
    position = {key: pos for pos, key in enumerate(_keys(params, max_k, "AB"))}
    split: dict = {}
    for key in position:
        for pair, c in coproduct_closed(LoopClass.generator(params, *key)).terms.items():
            split.setdefault(pair, {})[key] = c
    pairs = checked = 0
    for ka in coh:
        ca = CohClass.generator(params, *ka)
        for kb in coh:
            if ka[1] + kb[1] > max_k:
                continue
            pairs += 1
            prod = gh_product(ca, CohClass.generator(params, *kb))
            left = {_dual_key(k): c for k, c in prod.terms.items()}
            right = split.get((_dual_key(ka), _dual_key(kb)), {})
            keys = (left.keys() | right.keys()) & position.keys()
            checked += len(keys)
            for key in sorted(keys, key=position.__getitem__):
                lhs, rhs = left.get(key, 0), right.get(key, 0)
                rep.note(
                    lhs == rhs,
                    "<{}[{},{}]*{}[{},{}], {}[{},{}]>: {} != {}",
                    *ka,
                    *kb,
                    *key,
                    lhs,
                    rhs,
                )
    rep.credit(pairs * len(position) - checked)
    return rep


def _triple_closed(params: SpaceParams, kind: str, k: int, i: int) -> dict:
    """Direct three-way splitting, the common value of both coassociations."""
    out: dict = {}
    for m1 in range(1, k - 1):
        for m2 in range(1, k - m1):
            m3 = k - m1 - m2
            for j1 in range(i + 1):
                for j2 in range(i - j1 + 1):
                    j3 = i - j1 - j2
                    if kind == "A":
                        _bump(out, (("A", m1, j1), ("A", m2, j2), ("A", m3, j3)), 1)
                    else:
                        _bump(out, (("B", m1, j1), ("A", m2, j2), ("A", m3, j3)), 1)
                        _bump(out, (("A", m1, j1), ("B", m2, j2), ("A", m3, j3)), 1)
                        _bump(out, (("A", m1, j1), ("A", m2, j2), ("B", m3, j3)), 1)
    return out


def verify_coassociativity(params: SpaceParams, max_k: int) -> Report:
    """Both iterated coproducts agree, and match the direct triple split.

    Each generator's coproduct is built once, as a table of terms; every
    tensor factor of a level-k generator has a level below k, so both
    iterated coproducts read their inner factors from that table.
    """
    rep = Report(f"coassociativity ({params.token}, n={params.n}, k<={max_k})")
    split = {
        key: coproduct_closed(LoopClass.generator(params, *key)).terms
        for key in _keys(params, max_k, "AB")
    }
    for key, vee in split.items():
        left: dict = {}
        right: dict = {}
        for (u, v), c in vee.items():
            for (p, q), d in split[u].items():
                _bump(left, (p, q, v), c * d)
            for (p, q), d in split[v].items():
                _bump(right, (u, p, q), c * d)
        left = {t: c for t, c in left.items() if c}
        right = {t: c for t, c in right.items() if c}
        direct = _triple_closed(params, *key)
        rep.note(left == right, "coassociativity fails at {}[{},{}]", *key)
        rep.note(left == direct, "triple split mismatch at {}[{},{}]", *key)
    return rep


def verify_pipeline(params: SpaceParams, max_k: int) -> Report:
    """The completing-manifold pipeline equals the closed formula."""
    rep = Report(f"pipeline ({params.token}, n={params.n}, k<={max_k})")
    for key in _keys(params, max_k, "AB"):
        x = LoopClass.generator(params, *key)
        try:
            piped = coproduct_pipeline(x)
        except PipelineMatchError as err:
            rep.note(False, "{}[{},{}]: {}", *key, err)
            continue
        rep.note(piped == coproduct_closed(x), "{}[{},{}]: pipeline gives {}", *key, piped)
    return rep


def _pres_monomials(params: SpaceParams, factors: int):
    """All presentation monomials with the given factor count."""
    slots = 1 + (params.n - 1) + params.n
    for combo in itertools.combinations_with_replacement(range(slots), factors):
        exps = [0] * slots
        for slot in combo:
            exps[slot] += 1
        yield PresMonomial(
            exps[0],
            tuple(exps[1 : params.n]),
            tuple(exps[params.n :]),
        )


def verify_presentation(params: SpaceParams, max_level: int) -> Report:
    """The normal form is a well-defined, surjective ring map.

    Checks the generating relations, multiplicativity over monomial pairs up
    to the level bound, surjectivity witnesses for every s[k,i] and m[k,i],
    and that powers w^k of the level generator stay nonzero up to twice the
    level bound.  Each monomial is normalized once and kept next to its
    normal form, grouped by factor count; equal normal forms share one
    object.  Each pair then costs one ``mul`` (an exponent sum) and one
    normalization of the product, mostly stopped by its beta count, and
    ``gh_product`` runs once per distinct pair of normal forms.
    """
    rep = Report(f"presentation ({params.token}, n={params.n}, level<={max_level})")
    n = params.n

    alpha = {i: PresMonomial.build(params, alphas={i: 1}) for i in range(1, n)}
    beta = {i: PresMonomial.build(params, betas={i: 1}) for i in range(n)}

    def expect(p: PresMonomial, kind: str | None, k: int, i: int, what: str, *args) -> None:
        """Check that p, named ``what.format(*args)``, normalizes to kind[k,i];
        to zero if kind is None or i > n - 1."""
        value = presentation_normalize(p, params)
        if kind is None or i > n - 1:
            rep.note(value.is_zero(), what + " does not vanish", *args)
        else:
            generator = CohClass.generator(params, kind, k, i)
            rep.note(value == generator, what + " misses {}[{},{}]", *args, kind, k, i)

    for i, j in itertools.product(range(1, n), repeat=2):
        expect(alpha[i].mul(alpha[j]), "s", 2, i + j, "alpha_{} alpha_{}", i, j)
    for i, j in itertools.product(range(1, n), range(n)):
        expect(alpha[i].mul(beta[j]), "m", 2, i + j, "alpha_{} beta_{}", i, j)
    for i, j in itertools.product(range(n), repeat=2):
        expect(beta[i].mul(beta[j]), None, 2, 0, "beta_{} beta_{}", i, j)

    normals: dict = {}
    by_count = {
        f: [
            (p, *_intern(normals, presentation_normalize(p, params)))
            for p in _pres_monomials(params, f)
        ]
        for f in range(1, max_level)
    }
    products: dict = {}
    for f1, normals1 in by_count.items():
        for f2, normals2 in by_count.items():
            if f1 + f2 > max_level:
                continue
            for p, i, np_ in normals1:
                for q, j, nq in normals2:
                    expected = products.get((i, j))
                    if expected is None:
                        expected = products[i, j] = gh_product(np_, nq)
                    got = presentation_normalize(p.mul(q), params)
                    rep.note(got == expected, "multiplicativity fails at {} * {}", p, q)

    for k in range(1, max_level + 1):
        expect(PresMonomial.build(params, omega=k), "s", k, 0, "w^{}", k)
        for i in range(1, n):
            p = PresMonomial.build(params, omega=k - 1, alphas={i: 1})
            expect(p, "s", k, i, "w^{} alpha_{}", k - 1, i)
        for i in range(n):
            p = PresMonomial.build(params, omega=k - 1, betas={i: 1})
            expect(p, "m", k, i, "w^{} beta_{}", k - 1, i)

    for k in range(1, 2 * max_level + 1):
        expect(PresMonomial.build(params, omega=k), "s", k, 0, "w^{}", k)
    return rep
