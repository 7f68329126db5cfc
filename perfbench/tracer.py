"""Spans around calls into loopalg, recorded from outside the package.

The tracer replaces chosen functions and methods with timing wrappers and puts
the originals back afterwards.  A function is replaced at every import site:
each loaded ``loopalg`` module that binds the original object under some name
gets the wrapper under that name, because modules such as ``loops`` and
``verify`` import ``cap``, ``gysin`` and friends by name.  Methods are replaced
on their class.

Spans are aggregated in memory per (name, parent name) as call count, total
time and self time, where self time is the span's duration minus the time its
child spans cover.  Per-call span lists would not fit: ``Ring.__eq__`` runs
about 1.5 million times in one traced pass of ``kernel_laws``.
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute): a function, or "Class.method" for a method.
TARGETS = [
    ("ring.merge_sign", "loopalg.ring", "Ring.merge_sign"),
    ("ring.mul_monomials", "loopalg.ring", "Ring.mul_monomials"),
    ("ring.Ring.__eq__", "loopalg.ring", "Ring.__eq__"),
    ("ring.cup", "loopalg.ring", "cup"),
    ("ring.cross", "loopalg.ring", "cross"),
    ("homology.cap", "loopalg.homology", "cap"),
    ("homology.pairing", "loopalg.homology", "pairing"),
    ("homology.pd", "loopalg.homology", "pd"),
    ("homology.pd_inverse", "loopalg.homology", "pd_inverse"),
    ("homology.RingMap.__call__", "loopalg.homology", "RingMap.__call__"),
    ("homology.gysin", "loopalg.homology", "gysin"),
    ("homology.diagonal_pushforward", "loopalg.homology", "diagonal_pushforward"),
    ("spaces.pv_gysin_table", "loopalg.spaces", "SpaceCatalog.pv_gysin_table"),
    ("spaces.gamma", "loopalg.spaces", "SpaceCatalog.gamma"),
    ("loops.coproduct_pipeline", "loopalg.loops", "coproduct_pipeline"),
    ("loops.coproduct_closed", "loopalg.loops", "coproduct_closed"),
    ("loops.cap_with_thom", "loopalg.loops", "cap_with_thom"),
    ("loops.gh_product", "loopalg.loops", "gh_product"),
    ("loops.gh_dual_pairing", "loopalg.loops", "gh_dual_pairing"),
    ("loops.tensor_pairing", "loopalg.loops", "tensor_pairing"),
    ("loops.coh_cross", "loopalg.loops", "coh_cross"),
    ("loops.presentation_normalize", "loopalg.loops", "presentation_normalize"),
    ("verify.duality", "loopalg.loops", "verify_duality"),
    ("verify.coassoc", "loopalg.loops", "verify_coassociativity"),
    ("verify.presentation", "loopalg.loops", "verify_presentation"),
    ("verify.pipeline", "loopalg.loops", "verify_pipeline"),
    ("verify.gysin", "loopalg.verify", "verify_gysin_values"),
    # The CLI's "rings" suite is the ring axioms plus the structure checks.
    ("verify.rings", "loopalg.verify", "verify_ring_axioms"),
    ("verify.rings", "loopalg.verify", "verify_structure"),
    ("expr.parse", "loopalg.expr", "parse"),
    ("expr.evaluate", "loopalg.expr", "evaluate"),
    ("expr.format_text", "loopalg.expr", "format_text"),
    ("expr.format_latex", "loopalg.expr", "format_latex"),
]

VERIFY_SUITES = ("duality", "coassoc", "presentation", "pipeline", "gysin", "rings")


class Tracer:
    """Install with ``install()``; ``uninstall()`` restores every original."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # frames: [name, child_s, child names]
        self._restore: list[tuple[object, str, object]] = []
        self._last_gh_pairing = None
        self._finish = self._finishers()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        finish = self._finish.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, set()]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                    parent[2].add(name)
                key = (name, parent[0] if parent is not None else "")
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
            if finish is not None:
                finish(result, frame, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _finishers(self):
        def mul_monomials(result, frame, duration):
            if result is not None:
                self._count("ring.mul_monomials.kept")

        def pv_gysin_table(result, frame, duration):
            if "homology.gysin" in frame[2]:
                self._count("spaces.pv_gysin_table.builds")
                self._count("spaces.pv_gysin_table.build_s", duration)

        def gh_dual_pairing(result, frame, duration):
            self._last_gh_pairing = result

        def tensor_pairing(result, frame, duration):
            # verify_duality evaluates each law as the pair
            # gh_dual_pairing(...) == tensor_pairing(...), in that order.
            if self._stack and self._stack[-1][0] == "verify.duality":
                self._count("loops.duality.pairs")
                if result or self._last_gh_pairing:
                    self._count("loops.duality.nonzero")

        def report(suite):
            def finish(result, frame, duration):
                self._count(f"verify.{suite}.checks", result.checks)

            return finish

        out = {
            "ring.mul_monomials": mul_monomials,
            "spaces.pv_gysin_table": pv_gysin_table,
            "loops.gh_dual_pairing": gh_dual_pairing,
            "loops.tensor_pairing": tensor_pairing,
        }
        out.update({f"verify.{s}": report(s) for s in VERIFY_SUITES})
        return out

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "loopalg" or name.startswith("loopalg."))
        ]
        for span, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, bound, original))
                        setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        calls = total = self_s = 0
        for (span, _parent), (c, t, s) in self.spans.items():
            if span == name:
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(self.spans.items())
        ]
