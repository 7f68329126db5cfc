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
from functools import cache

from .homology import HomologyElement, _require_homogeneous, cap, diagonal_pushforward, dual
from .report import Interner, Report
from .ring import Combination, Monomial, _Frozen, _require_int, _require_same, as_coeff
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
_DUAL_KIND = {"s": "A", "m": "B", "A": "s", "B": "m"}


class PipelineMatchError(RuntimeError):
    """A capped class missed the precomputed wrong-way images.

    This never happens when the sign conventions are consistent, so it
    indicates a broken convention rather than bad input.  The pipeline
    fills in the level ``k``, the break ``m`` and the packed ``monomial``
    its message names: a level-k monomial that no table entry matched, or
    the SM x_M SM source carrying xi that one did.
    """

    def __init__(self, message: str, k: int | None = None, m: int | None = None, monomial=None):
        super().__init__(message)
        self.k, self.m, self.monomial = k, m, monomial


class _FormalSum(Combination):
    """Key validation, degrees and printed bodies shared by the four class types.

    The public constructors, ``cls(params, terms)``, ``generator`` and the
    parser, check each key's kind, level and index.  ``_built`` and
    ``_cleaned`` check none of them.  They may build only a result whose
    keys an operation made from keys already checked, by a rule that keeps
    them valid: levels that add or split into positive parts, indices kept
    in 0 .. n - 1.  ``_built`` is ``Combination``'s, with its one rule: the
    caller vouches for canonical, nonzero coefficients too.  A sum that can
    cancel, or leave an integral ``Fraction``, goes through ``_cleaned``.
    """

    kinds: frozenset[str] = frozenset()
    pair = False

    __slots__ = ()

    params = Combination.owner

    def __init__(self, params: SpaceParams, terms: dict | None = None):
        super().__init__(params, terms or {})
        top = params.n - 1
        for key in terms or ():  # every key passed, a 0 coefficient's too
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
    def _cleaned(cls, params: SpaceParams, terms: dict):
        """A sum of keys known to be valid: the coefficients cleaned, no key checked."""
        out = object.__new__(cls)
        Combination.__init__(out, params, terms)
        return out

    @classmethod
    def zero(cls, params: SpaceParams):
        return cls._built(params, {})

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
    No key repeats (it fixes its generator's kind, level and index; A terms
    give (A, A) keys, B terms (A, B) and (B, A)), so each term is stored once
    with the input's canonical, nonzero coefficient, built with ``_built``.
    """
    if type(x) is not LoopClass:
        raise TypeError(f"coproduct_closed of {type(x).__name__}")
    out: dict = {}
    for (kind, k, i), c in x.terms.items():
        for m in range(1, k):
            for j in range(i + 1):
                if kind == "A":
                    out[("A", m, j), ("A", k - m, i - j)] = c
                else:
                    out[("A", m, j), ("B", k - m, i - j)] = c
                    out[("B", m, j), ("A", k - m, i - j)] = c
    return TensorLoopClass._built(x.params, out)


# -- the coproduct, completing-manifold pipeline ----------------------


def gamma_class(catalog: SpaceCatalog, kind: str, k: int, i: int) -> HomologyElement:
    """The level-k carrier of A[k,i] or B[k,i], with its intrinsic sign.

    A classes are carried by -[a^i x_1 .. x_{2k-1}] and B classes by
    +[a^i b x_1 .. x_{2k-1}]; the sign is applied here to ``gamma_dual``, by
    negating an A carrier.
    """
    if kind not in ("A", "B"):
        raise ValueError(f"unknown generator kind {kind!r}")
    carrier = catalog.gamma_dual(k, i, kind == "B")
    return carrier if kind == "B" else -carrier


def cap_with_thom(
    catalog: SpaceCatalog, k: int, x: HomologyElement
) -> list[tuple[int, HomologyElement]]:
    """Cap each Thom fiber class x_{2m} into x, with the cross-product sign.

    One ``(m, capped class)`` per interior break index m = 1 .. k - 1; the
    index doubles as the marker of the interval factor it pairs with, so the
    list is empty at level 1.  Capping x_{2m} x [interval] into x x [interval]
    leaves the interval factor alone at the cost of (-1)^{deg x}, which is the
    sign applied here, once, to x before the caps.  The level's fiber classes
    are read once, from its catalog entry, and each break costs one ``cap``.
    This is the pipeline's first step on classes, for any homogeneous x;
    ``coproduct_pipeline`` takes the same step on a carrier's packed
    monomial, with no class built per break.
    """
    _require_homogeneous(x, "cap_with_thom input")
    fibers = catalog._level(k)[2]
    if (x.degree() or 0) % 2:
        x = -x
    return [(m, cap(fiber, x)) for m, fiber in enumerate(fibers, 1)]


def _matched(catalog, k, m, ring, mono) -> tuple[Monomial, int]:
    """The SM monomial and sign whose wrong-way image at (k, m) is the level-k monomial ``mono``.

    A source of SM x_M SM free of xi drops to SM by a shift, as SM x_M SM
    has SM's generators, in order, and then xi, whose slot is the lowest
    bit.  No entry, or one whose source carries xi, is a PipelineMatchError.
    """
    hit = catalog.pv_gysin_table(k, m).get(mono)
    if hit is None:
        text = f"unmatched component [{ring.monomial_str(mono)}] at level {k}, break {m}"
        raise PipelineMatchError(text, k, m, mono)
    u, sign = hit
    if u & 1:
        shown = catalog.sm_pair.ring.monomial_str(u)
        text = f"fiber-class component [{shown}] at level {k}, break {m}"
        raise PipelineMatchError(text, k, m, u)
    return u >> 1, sign


def _match_wrongway(catalog, k, m, z: HomologyElement) -> dict[Monomial, int | Fraction]:
    """Express a capped class as a wrong-way image from SM x_M SM.

    Matches against the precomputed images of the full dual basis and then
    insists the matched class is spanned by the diagonal duals (a^j and
    a^j b); anything else trips PipelineMatchError.  The match is returned
    over SM, as ``{SM monomial: coeff}``, one ``_matched`` per term.
    """
    out: dict[Monomial, int | Fraction] = {}
    for mono, c in z.terms.items():
        # Distinct table entries have distinct sources, so no key repeats;
        # c * sign equals c / sign, since pv_gysin_table admits only +-1.
        u, sign = _matched(catalog, k, m, z.ring, mono)
        out[u] = c * sign
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
    spread = diagonal_pushforward(dual(ring, mono))
    out = []
    for tmono, dc in spread.terms.items():
        ml, mr = ring.square.split(tmono)
        out.append((_loop_part(ring, ml), _loop_part(ring, mr), dc))
    return out


def _breaks(cat: SpaceCatalog, x: LoopClass):
    """The pipeline's steps on packed monomials, one per generator term of ``x`` and break m.

    Yields ``(m, capped, sign, matched, terms)``: the monomial and the sign
    of the capped carrier, the SM monomial its wrong-way match drops to,
    and the tensor terms ``(key, coeff)`` that match adds, the term's
    coefficient included.  A carrier is one monomial of the level ring, so
    a break takes the step of ``cap_with_thom`` and ``_match_wrongway`` on
    one-term operands, with no class and no table built: the cap is one
    ``Ring.div_monomials`` and one ``Ring.merge_sign``.  The match inverts
    the one wrong-way image the capped monomial can be.  A source free of
    xi has the image ``fm / L(w)`` with the sign ``lc * fc``, ``fc [fm]``
    the break's ``pd(x_{2m})`` and ``lc`` the coefficient of L(w), so the
    source is the one whose L(w) is ``fm - capped``.  ``fm`` is the top
    monomial less x_{2m} and ``capped`` the carrier less it, so that L(w)
    is the top monomial less the carrier at every break: one lookup in the
    level's half (``SpaceCatalog._half``) and one diagonal spread per
    carrier.  A miss goes to ``_matched`` at break 1, whose table lookup
    names the fault.
    """
    spreads = cat._spreads
    for (kind, k, i), c in x.terms.items():
        carrier = gamma_class(cat, kind, k, i)
        ring = carrier.ring
        ((mono, sign),) = carrier.terms.items()
        if carrier.degree() % 2:  # the cross-product sign of cap_with_thom
            sign = -sign
        _, lifted, breaks = cat._half(k)
        if not breaks:
            continue
        hit = lifted.get(ring.top_monomial - mono)  # the source whose image fm / L(w) is capped
        if hit is None:  # no source: break 1's table lookup raises, naming the fault
            _matched(cat, k, 1, ring, ring.div_monomials(mono, breaks[0][0]))
        matched, c_lc = hit[0] >> 1, c * hit[1]
        spread = spreads.get(matched)
        if spread is None:
            spread = spreads[matched] = _diagonal_spread(cat, matched)
        for m, (xm, fc) in enumerate(breaks, 1):
            capped = ring.div_monomials(mono, xm)  # x_{2m}, coefficient 1, divides every carrier
            s = sign if ring.merge_sign(capped, xm) > 0 else -sign
            cu = c_lc * s * fc
            terms = [(((kl, m, il), (kr, k - m, ir)), cu * dc) for (kl, il), (kr, ir), dc in spread]
            yield m, capped, s, matched, terms


def coproduct_pipeline(x: LoopClass, catalog: SpaceCatalog | None = None) -> TensorLoopClass:
    """Recompute the coproduct through the completing manifolds.

    Per generator at level k: cap the carrier class with each Thom fiber
    class, recognize the result as a wrong-way image from SM x_M SM, replace
    the matched diagonal classes by diagonal pushforwards over SM, and read
    the tensor factors off at levels (m, k - m).  No sign enters in the last
    step; the factor conventions already absorb it.  Those steps run on
    packed monomials, one break at a time, in ``_breaks``, and their
    tensor terms are summed here, each key starting at its first piece, and
    cleaned once.  A pushforward does not depend on the level or the break,
    so the catalog keeps each matched class's pushforward, built on its
    first match, for every break and every later call.  A ``catalog``
    built for another space is refused.
    """
    if type(x) is not LoopClass:
        raise TypeError(f"coproduct_pipeline of {type(x).__name__}")
    cat = catalog or catalog_for(x.params)
    wrong = "coproduct_pipeline of a {0.token}{0.n} class with a {1.token}{1.n} catalog"
    _require_same(cat.params, x.params, wrong, x.params, cat.params)
    out: dict = {}
    for *_, terms in _breaks(cat, x):
        for key, v in terms:
            if key in out:
                out[key] += v
            else:
                out[key] = v
    return TensorLoopClass._cleaned(x.params, out)


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
    deg a + deg b + N - 1.  Pieces are stored, and the result built, as in
    ``cup``, with ``_cleaned`` after a repeat.
    """
    if type(a) is not CohClass or type(b) is not CohClass:
        raise TypeError(f"gh_product of {type(a).__name__} and {type(b).__name__}")
    params = a.params
    if b.params is not params:
        _require_same(params, b.params, "operands are classes over different spaces")
    out: dict = {}
    repeat = False
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = _gh_key(params, ka, kb)
            if key is None:
                continue
            piece = ca * cb
            if key in out:
                out[key] += piece
                repeat = True
            else:
                out[key] = piece if type(piece) is int else as_coeff(piece)
    return CohClass._cleaned(params, out) if repeat else CohClass._built(params, out)


def gh_product_pairs(t: TensorCohClass) -> CohClass:
    """Multiply out a sum of tensor pairs, bilinearly."""
    if type(t) is not TensorCohClass:
        raise TypeError(f"gh_product_pairs of {type(t).__name__}")
    out: dict = {}
    for (ka, kb), c in t.terms.items():
        key = _gh_key(t.params, ka, kb)
        if key is not None:
            if key in out:
                out[key] += c
            else:
                out[key] = c
    return CohClass._cleaned(t.params, out)


def _dual_key(key):
    """The dual of a generator key: a loop generator's cohomology one, and back."""
    kind, k, i = key
    return (_DUAL_KIND[kind], k, i)


def gh_dual_pairing(a: CohClass, x: LoopClass) -> int | Fraction:
    """Kronecker pairing, s[k,i] against A[k,i] and m[k,i] against B[k,i]."""
    _require_same(a.params, x.params, "operands are classes over different spaces")
    total = 0
    for key, c in a.terms.items():
        cx = x.terms.get(_dual_key(key))
        if cx is not None:
            total += c * cx
    return as_coeff(total)


def coh_cross(a: CohClass, b: CohClass) -> TensorCohClass:
    _require_same(a.params, b.params, "operands are classes over different spaces")
    # Distinct key pairs are distinct keys, so no term is summed.
    out = {(ka, kb): ca * cb for ka, ca in a.terms.items() for kb, cb in b.terms.items()}
    return TensorCohClass(a.params, out)


def tensor_pairing(t: TensorCohClass, x: TensorLoopClass) -> int | Fraction:
    """Componentwise Kronecker pairing of tensor classes; no extra sign."""
    _require_same(t.params, x.params, "operands are classes over different spaces")
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
        _set_exps(self, exps)

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
        return sum(map(operator.mul, self._exps, _sub_weights(len(self._exps) // 2)))

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
        _set_exps(product, tuple(map(operator.add, self._exps, other._exps)))
        return product


_set_exps = PresMonomial._exps.__set__  # the one slot's own descriptor


@cache
def _sub_weights(n: int) -> tuple[int, ...]:
    """Sub-index weight of each exponent over n: 0 for omega, i for alpha_i and beta_i."""
    return (0, *range(1, n), *range(n))


def presentation_normalize(p: PresMonomial, params: SpaceParams) -> CohClass:
    """Normal form of a presentation monomial among the dual generators.

    With k factors, total sub-index s and c beta factors the monomial maps
    to s[k,s] when c = 0, to m[k,s] when c = 1, and to zero otherwise or when
    s exceeds n - 1.  c is read first, then s, and k only for a nonzero result,
    which is one term of coefficient 1, built with the trusted ``_built``.
    """
    if len(p._exps) != 2 * params.n:
        raise ValueError("presentation monomial does not match n")
    c = p.beta_count
    if c > 1:
        return CohClass._built(params, {})
    s = p.sub_index
    if s > params.n - 1:
        return CohClass._built(params, {})
    return CohClass._built(params, {("s" if c == 0 else "m", p.factor_count, s): 1})


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
    (a, b)-coefficient of coproduct_closed(X).  Each dual generator and its
    dual key are built once, each product once per pair and each coproduct
    once per X, as sparse tables.  The coproduct table is keyed by the dual
    generators of X, so a pair's product terms and its row compare in one
    dict comparison, and an equal pair's triples are all credited as passed.
    Any other pair credits its triples absent from both tables, which are
    0 = 0, and compares the rest one by one, in X order.  The dual
    generators are level-major, so each a's walk over b stops at the first b
    past the bound.  A bound below 2 is refused: no pair of dual generators
    has a total level below 2.
    """
    _require_int("level k", max_k)
    if max_k < 2:
        raise ValueError("level k must be >= 2")
    rep = Report(f"duality ({params.token}, n={params.n}, level<={max_k})")
    xs = list(_keys(params, max_k, "AB"))
    position = {_dual_key(key): pos for pos, key in enumerate(xs)}
    split: dict = {}
    for key, dx in zip(xs, position):
        for pair, c in coproduct_closed(LoopClass.generator(params, *key)).terms.items():
            split.setdefault(pair, {})[dx] = c
    gens = [
        (key, _dual_key(key), CohClass.generator(params, *key))
        for key in _keys(params, max_k - 1, "sm")
    ]
    message = "<{}[{},{}]*{}[{},{}], {}[{},{}]>: {} != {}"
    for ka, da, ca in gens:
        top = max_k - ka[1]
        for kb, db, cb in gens:
            if kb[1] > top:
                break
            prod = gh_product(ca, cb).terms
            right = split.get((da, db), {})
            if prod == right:
                rep.credit(len(xs))
                continue
            keys = (prod.keys() | right.keys()) & position.keys()
            rep.credit(len(xs) - len(keys))
            for key in sorted(keys, key=position.__getitem__):
                lhs, rhs = prod.get(key, 0), right.get(key, 0)
                rep.note(lhs == rhs, message, *ka, *kb, *xs[position[key]], lhs, rhs)
    return rep


def _triple_closed(index_bits: int, width: int, kind: str, k: int, i: int):
    """Direct three-way splitting, the common value of both coassociations.

    Yields each term's packed triple ``p << 2w | q << w | v`` of generator
    codes of ``width`` bits, laid out as in ``verify_coassociativity``.  Every
    coefficient is 1, and each (m1, m2, j1, j2, B slot) names a distinct
    triple, since m3 and j3 follow and the fields have fixed widths, so
    ``dict.fromkeys(..., 1)`` of these is the split, term for term.
    """
    b = 1 << width - 1
    for m1 in range(1, k - 1):
        for m2 in range(1, k - m1):
            m3 = k - m1 - m2
            for j1 in range(i + 1):
                head = (m1 << index_bits | j1) << 2 * width
                for j2 in range(i - j1 + 1):
                    t = head | (m2 << index_bits | j2) << width | m3 << index_bits | i - j1 - j2
                    if kind == "A":
                        yield t
                    else:
                        yield t | b << 2 * width
                        yield t | b << width
                        yield t | b


def verify_coassociativity(params: SpaceParams, max_k: int) -> Report:
    """Both iterated coproducts agree, and match the direct triple split.

    Each generator (kind, k, i) gets one int code of w bits, local to the
    sweep: a kind bit (set for B) over a level field of ``max_k.bit_length()``
    bits over an index field of ``max(n - 1, 1).bit_length()`` bits.  Each
    generator's coproduct is built once, as a table ``{u << w | v: coeff}``
    of pair codes; a term outside the sweep's generators is refused with
    ``RuntimeError``, as its fields could alias another code.  Every tensor
    factor of a level-k generator has a level below k, so both iterated
    coproducts read their inner factors from those tables, summed inline over
    packed triples ``p << 2w | q << w | v``.
    """
    params.check_level(max_k)
    rep = Report(f"coassociativity ({params.token}, n={params.n}, k<={max_k})")
    index_bits = max(params.n - 1, 1).bit_length()
    width = 1 + max_k.bit_length() + index_bits
    mask = (1 << width) - 1
    code = {
        key: (key[0] == "B") << width - 1 | key[1] << index_bits | key[2]
        for key in _keys(params, max_k, "AB")
    }
    split = {}
    for key, x in code.items():
        vee = split[x] = {}
        for pair, c in coproduct_closed(LoopClass.generator(params, *key)).terms.items():
            u, v = code.get(pair[0]), code.get(pair[1])
            if u is None or v is None:
                raise RuntimeError(
                    f"coproduct of {_gen_text(key)} has the term "
                    f"{' x '.join(map(_gen_text, pair))} outside the sweep's generators"
                )
            vee[u << width | v] = c
    for key, x in code.items():
        left: dict = {}
        right: dict = {}
        left_get, right_get = left.get, right.get
        for uv, c in split[x].items():
            v = uv & mask
            for pq, d in split[uv >> width].items():
                t = pq << width | v
                left[t] = left_get(t, 0) + c * d
            u = uv >> width << 2 * width
            for pq, d in split[v].items():
                t = u | pq
                right[t] = right_get(t, 0) + c * d
        if 0 in left.values():
            left = {t: c for t, c in left.items() if c}
        if 0 in right.values():
            right = {t: c for t, c in right.items() if c}
        direct = dict.fromkeys(_triple_closed(index_bits, width, *key), 1)
        rep.note(left == right, "coassociativity fails at {}[{},{}]", *key)
        rep.note(left == direct, "triple split mismatch at {}[{},{}]", *key)
    return rep


def verify_pipeline(params: SpaceParams, max_k: int) -> Report:
    """The completing-manifold pipeline equals the closed formula."""
    params.check_level(max_k)
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
    level bound.  Each monomial is normalized once, grouped by factor count,
    and one ``Interner`` gives each normal form and dual product one index
    and one shared object.  Each pair costs one ``mul`` (an exponent sum) and
    one lookup of the product's exponents: a product is normalized only the
    first time it occurs, and ``gh_product`` runs once per distinct pair of
    normal forms.  For each monomial p and factor count, ``Report.rows``
    compares the row of shared products over all q with the expected row,
    built once per normal form of p, in one list comparison; only a row with
    a mismatch is noted cell by cell.
    """
    params.check_level(max_level)
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

    forms = Interner()  # the distinct normal forms and dual products
    values = forms.values
    products: dict = {}  # (i, j) -> the shared dual product of values i and j

    def product(i: int, j: int) -> CohClass:
        ij = products.get((i, j))
        if ij is None:
            ij = products[i, j] = forms.share(gh_product(values[i], values[j]))
        return ij

    monos = {f: list(_pres_monomials(params, f)) for f in range(1, max_level)}
    normal = {
        f: [forms.index(presentation_normalize(p, params)) for p in ps] for f, ps in monos.items()
    }
    rows: dict = {}  # (i, f2) -> the expected row of a p with normal form i
    seen: dict = {}  # a product's exponents -> its shared normal form
    for f1, ps in monos.items():
        for f2 in range(1, max_level - f1 + 1):
            qs, js = monos[f2], normal[f2]
            for p, i in zip(ps, normal[f1]):
                expected = rows.get((i, f2))
                if expected is None:
                    expected = rows[i, f2] = [product(i, j) for j in js]
                got = []
                for q in qs:
                    r = p.mul(q)
                    g = seen.get(r._exps)
                    if g is None:
                        g = seen[r._exps] = forms.share(presentation_normalize(r, params))
                    got.append(g)
                rep.rows(qs, "multiplicativity fails at {} * {}", ((p,), got, expected))

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
