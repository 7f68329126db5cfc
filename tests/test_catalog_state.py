"""One catalog across interleaved calls answers as a fresh catalog does.

A ``SpaceCatalog`` keeps every level it builds, the wrong-way tables of each
level, and the pipeline's diagonal spreads, for as long as it lives; the
shared catalogs of ``catalog_for`` live for the process.  This state machine
drives one catalog per (family, n) through random interleavings of pipeline
coproducts, wrong-way tables, fiber classes, pullbacks and wrong-way maps at
levels up to 12, and compares every answer with a catalog built for that one
call, and every coproduct with the closed formula's.  A cache keyed by the
wrong value hands a later call an earlier call's answer, which no single
call can show.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from loopalg import LoopClass, SpaceCatalog, SpaceParams, coproduct_closed, coproduct_pipeline
from loopalg.homology import gysin

MAX_K = 12
SPACES = [(token, n) for token in ("cp", "hp") for n in (1, 2, 3)]

spaces = st.sampled_from(SPACES)
levels = st.integers(min_value=2, max_value=MAX_K)


class CatalogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.shared: dict[SpaceParams, SpaceCatalog] = {}

    def _catalogs(self, space) -> tuple[SpaceCatalog, SpaceCatalog]:
        """The shared catalog of ``space`` and a fresh one, each over its own params object."""
        params = SpaceParams.from_token(*space)
        shared = self.shared.get(params)
        if shared is None:
            shared = self.shared[params] = SpaceCatalog(params)
        return shared, SpaceCatalog(SpaceParams.from_token(*space))

    @rule(space=spaces, data=st.data())
    def coproduct(self, space, data):
        shared, fresh = self._catalogs(space)
        params = shared.params
        terms = data.draw(
            st.dictionaries(
                st.tuples(
                    st.sampled_from("AB"),
                    st.integers(min_value=1, max_value=MAX_K),
                    st.integers(min_value=0, max_value=params.n - 1),
                ),
                st.integers(min_value=-3, max_value=3).filter(bool),
                min_size=1,
                max_size=3,
            )
        )
        x = LoopClass(params, terms)
        got = coproduct_pipeline(x, shared)
        assert got == coproduct_pipeline(x, fresh)
        assert got == coproduct_closed(x)

    @rule(space=spaces, k=levels, data=st.data())
    def break_tables(self, space, k, data):
        shared, fresh = self._catalogs(space)
        m = data.draw(st.integers(min_value=1, max_value=k - 1), label="m")
        assert shared.pv_gysin_table(k, m) == fresh.pv_gysin_table(k, m)
        assert shared.fiber_class(k, m) == fresh.fiber_class(k, m)
        got, want = shared.pullback_pV(k, m), fresh.pullback_pV(k, m)
        assert (got.source, got.target, got.images) == (want.source, want.target, want.images)

    @rule(space=spaces, k=levels, with_b=st.booleans(), data=st.data())
    def wrongway(self, space, k, with_b, data):
        shared, fresh = self._catalogs(space)
        i = data.draw(st.integers(min_value=0, max_value=shared.params.n - 1), label="i")
        m = data.draw(st.integers(min_value=1, max_value=k - 1), label="m")
        got = [
            gysin(cat.pullback_pL(k), cat.sm, cat.gamma(k), cat.sm_dual(i, with_b))
            for cat in (shared, fresh)
        ]
        assert got[0] == got[1]
        got = [
            gysin(cat.pullback_pV(k, m), cat.sm_pair, cat.gamma(k), cat.sm_pair_dual(i, with_b))
            for cat in (shared, fresh)
        ]
        assert got[0] == got[1]


TestCatalogMachine = CatalogMachine.TestCase
TestCatalogMachine.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=10_000, database=None
)
