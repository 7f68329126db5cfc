"""Acceptance gate: the seven headline guarantees, with runtime budgets.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
capture) so a plain pytest run shows the per-criterion verdicts.
"""

import time

import pytest

from loopalg import (
    SpaceParams,
    verify_coassociativity,
    verify_duality,
    verify_gysin_values,
    verify_pipeline,
    verify_presentation,
    verify_ring_axioms,
    verify_structure,
)

ALL_FAMILIES = ("cp", "hp")


def _params(n_values):
    return [SpaceParams.from_token(f, n) for f in ALL_FAMILIES for n in n_values]


def _announce(capsys, idx, name, reports, elapsed, budget=None):
    ok = all(r.passed for r in reports)
    checks = sum(r.checks for r in reports)
    in_budget = budget is None or elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    line = f"ACCEPTANCE {idx}: {verdict} - {name}: {checks} checks in {elapsed:.1f}s"
    if budget is not None:
        line += f" (budget {budget:.0f}s)"
    with capsys.disabled():
        print(line, flush=True)
    for r in reports:
        assert r.passed, f"{r.name}: {r.failures[:3]}"
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s: {elapsed:.1f}s"


def test_acceptance_1_sign_convention_gate(capsys):
    t0 = time.perf_counter()
    reports = [verify_gysin_values(p, 4) for p in _params((2, 3))]
    _announce(
        capsys, 1, "signed cap and wrong-way values", reports,
        time.perf_counter() - t0, budget=10,
    )


def test_acceptance_2_route_equivalence(capsys):
    t0 = time.perf_counter()
    reports = [verify_pipeline(p, 6) for p in _params((1, 2, 3))]
    _announce(
        capsys, 2, "pipeline equals closed coproduct", reports,
        time.perf_counter() - t0, budget=120,
    )


def test_acceptance_3_product_coproduct_duality(capsys):
    t0 = time.perf_counter()
    reports = [verify_duality(p, 6) for p in _params((1, 2, 3))]
    _announce(
        capsys, 3, "product/coproduct duality", reports,
        time.perf_counter() - t0, budget=120,
    )


def test_acceptance_4_coassociativity(capsys):
    t0 = time.perf_counter()
    reports = [verify_coassociativity(p, 6) for p in _params((1, 2, 3))]
    _announce(
        capsys, 4, "coassociativity", reports, time.perf_counter() - t0,
    )


def test_acceptance_5_presentation_ring(capsys):
    t0 = time.perf_counter()
    reports = [verify_presentation(p, 6) for p in _params((1, 2, 3))]
    _announce(
        capsys, 5, "presentation normal form", reports, time.perf_counter() - t0,
    )


def test_acceptance_6_structural_checks(capsys):
    t0 = time.perf_counter()
    reports = [verify_structure(p, max_k=12) for p in _params((1, 2, 3))]
    _announce(
        capsys, 6, "dimensions, top degrees, parities", reports,
        time.perf_counter() - t0,
    )


def test_acceptance_7_kernel_property_suite(capsys):
    t0 = time.perf_counter()
    reports = [verify_ring_axioms(p, seed=7) for p in _params((2,))]
    _announce(
        capsys, 7, "kernel axioms, exhaustive plus randomized", reports,
        time.perf_counter() - t0, budget=30,
    )


@pytest.fixture(scope="module", autouse=True)
def _header(request):
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    with capmanager.global_and_fixture_disabled():
        print("\n-- acceptance gate --", flush=True)
    yield
