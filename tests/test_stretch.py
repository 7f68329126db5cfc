"""Stretch tier: the theorem beyond n = 3.

The paper's formulas hold for every n, but the acceptance tests stop at
n = 3, where no class has an index i >= 3.  This tier runs the pipeline,
duality and coassociativity sweeps at k <= 12 and the sign gate at k <= 6
on both families with n = 4, 6 and 8, and pins each check count.  The
counts are the same on cp and hp.  ``verify rings`` and ``verify
presentation`` stay out, as their cost grows fastest in n.
"""

import pytest

from loopalg import (
    SpaceParams,
    verify_coassociativity,
    verify_duality,
    verify_gysin_values,
    verify_pipeline,
)

# n -> check counts of (pipeline, duality, coassoc) at k <= 12 and gysin at k <= 6.
# Pipeline is 2nK and coassoc 4nK for K = 12.
STRETCH_COUNTS = {
    4: (96, 405504, 192, 288),
    6: (144, 1368576, 288, 432),
    8: (192, 3244032, 384, 576),
}


@pytest.mark.parametrize("n", sorted(STRETCH_COUNTS))
@pytest.mark.parametrize("token", ["cp", "hp"])
def test_sweeps_pass_beyond_n_3(token, n):
    params = SpaceParams.from_token(token, n)
    reports = [
        verify_pipeline(params, 12),
        verify_duality(params, 12),
        verify_coassociativity(params, 12),
        verify_gysin_values(params, 6),
    ]
    for rep in reports:
        assert rep.passed, f"{rep.name}: {rep.failures[:3]}"
    assert tuple(rep.checks for rep in reports) == STRETCH_COUNTS[n]
