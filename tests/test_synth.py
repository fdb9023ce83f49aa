"""Seeded bump-field generator."""

import numpy as np
import pytest

from plapbench.field import Grid
from plapbench.synth import BumpParams, bump_field, draw_bump_params


def test_bump_params_validation():
    with pytest.raises(ValueError):
        BumpParams((0.0, 0.0), 0.0, 1.0)


def test_draw_ranges_and_determinism():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = draw_bump_params(rng, 2, max_bumps=3, center_halfwidth=0.5)
        assert 1 <= len(params) <= 3
        for bp in params:
            assert all(abs(c) <= 0.5 for c in bp.center)
            assert 0.05 <= bp.width <= 0.3
            assert 0.2 <= bp.amplitude <= 3.0
    a = draw_bump_params(np.random.default_rng(11), 3)
    b = draw_bump_params(np.random.default_rng(11), 3)
    assert a == b
    with pytest.raises(ValueError):
        draw_bump_params(rng, 0)
    with pytest.raises(ValueError):
        draw_bump_params(rng, 2, max_bumps=0)


def test_bump_field_values_and_resolution_consistency():
    params = [BumpParams((0.25, -0.25), 0.2, 2.0)]
    coarse = bump_field(Grid(2, 2.0, 16), params)
    fine = bump_field(Grid(2, 2.0, 64), params)
    # same analytic field: the sampled peak climbs toward the true peak 2.0
    # as the cell centers land closer to the bump center
    assert coarse.values.max() < fine.values.max() <= 2.0
    assert abs(fine.values.max() - 2.0) < 0.05
    # hand value at one fine cell center
    g = fine.grid
    idx = g.nearest_index((0.25, -0.25))
    c = np.meshgrid(*[g.axis_centers()] * g.N, indexing="ij")
    d2 = (c[0][idx] - 0.25) ** 2 + (c[1][idx] + 0.25) ** 2
    assert np.isclose(fine.values[idx], 2.0 * np.exp(-d2 / 0.08))


def test_bump_field_dimension_check():
    with pytest.raises(ValueError):
        bump_field(Grid(2, 2.0, 8), [BumpParams((0.0, 0.0, 0.0), 0.1, 1.0)])
