"""Nonlinear potential: closed forms, FFT profile vs direct quadrature,
homogeneity, and the constant-free Hölder bound."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from plapbench import potential
from plapbench.field import Grid, ScalarField, ball_mask, full_region
from plapbench.potential import (
    PotentialQuadrature,
    ball_l2_mass,
    holder_rho_integral,
    potential_P,
    potential_holder_bound,
    potential_profile,
    potential_sup,
    unit_ball_volume,
)
from plapbench.synth import bump_field, draw_bump_params


def test_unit_ball_volume():
    assert math.isclose(unit_ball_volume(2), math.pi, rel_tol=1e-14)
    assert math.isclose(unit_ball_volume(3), 4.0 * math.pi / 3.0, rel_tol=1e-14)


def test_quadrature_validation():
    with pytest.raises(ValueError):
        PotentialQuadrature(num_nodes=4)
    g = Grid(2, 1.0, 16)
    assert PotentialQuadrature().rho_min(g) == g.spacing
    assert PotentialQuadrature(rho_min_policy=0.25).rho_min(g) == 0.25


def test_ball_l2_mass_constant_field():
    g = Grid(2, 1.0, 64)
    f = ScalarField(g, np.full(g.shape, 3.0))
    # fully interior ball: mass = value^2 * measured cell volume of the mask
    rho = 0.5
    ball = ball_mask(g, (0.0, 0.0), rho)
    assert math.isclose(ball_l2_mass(f, (0.0, 0.0), rho), 9.0 * ball.volume, rel_tol=1e-12)
    # sub-grid radius switches to the analytic patch 9 * omega_N * rho^N
    tiny = 0.4 * g.spacing
    assert math.isclose(ball_l2_mass(f, (0.0, 0.0), tiny), 9.0 * math.pi * tiny**2, rel_tol=1e-12)
    with pytest.raises(ValueError):
        ball_l2_mass(f, (0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        ball_l2_mass(f, (5.0, 0.0), 0.5)


def test_potential_constant_field_closed_form():
    # f = 1 on N = 2: mass(rho) = pi rho^2, so P(0, R) = sqrt(pi) R
    g = Grid(2, 2.0, 64)
    f = ScalarField(g, np.ones(g.shape))
    quad64 = PotentialQuadrature(num_nodes=64)
    val = potential_P(f, (0.0, 0.0), 1.0, quad64)
    assert abs(val - math.sqrt(math.pi)) / math.sqrt(math.pi) < 1e-2
    with pytest.raises(ValueError):
        potential_P(f, (0.0, 0.0), 0.0, quad64)


def test_potential_homogeneity():
    g = Grid(2, 1.0, 48)
    rng = np.random.default_rng(5)
    f = bump_field(g, draw_bump_params(rng, 2))
    quad16 = PotentialQuadrature(num_nodes=16)
    base = potential_P(f, (0.1, -0.2), 0.6, quad16)
    for c in (-3.0, 0.5, 7.25):
        scaled = potential_P(c * f, (0.1, -0.2), 0.6, quad16)
        assert math.isclose(scaled, abs(c) * base, rel_tol=1e-12)


def test_potential_monotone_in_radius():
    g = Grid(2, 1.0, 48)
    rng = np.random.default_rng(6)
    f = bump_field(g, draw_bump_params(rng, 2))
    q = PotentialQuadrature(num_nodes=32)
    vals = [potential_P(f, (0.0, 0.0), R, q) for R in (0.2, 0.4, 0.8)]
    assert vals[0] <= vals[1] <= vals[2]


def test_profile_matches_pointwise_potential():
    # the FFT convolution path must agree with the direct masked sums; the
    # last two cases take the ball kernel to its extremes: R beyond the box
    # diagonal (the kernel reaches n - 1 cells) and R < 2h (at most 1 cell)
    cases = ((2, 48, 0.7), (3, 24, 0.7), (2, 48, 3.0), (2, 48, 1.5 * 2.0 / 48))
    for N, n, R in cases:
        g = Grid(N, 1.0, n)
        rng = np.random.default_rng(40 + N)
        f = bump_field(g, draw_bump_params(rng, N))
        q = PotentialQuadrature(num_nodes=16)
        prof = potential_profile(f, R, q)
        idxs = [tuple(rng.integers(0, g.cells_per_axis, N)) for _ in range(12)]
        centers = g.centers()
        for idx in idxs:
            x = tuple(float(centers[k][idx]) for k in range(N))
            direct = potential_P(f, x, R, q)
            # mixed tolerance: a single boundary cell can flip sides between
            # the kernel's off*h distances and rounded center differences
            assert abs(prof.values[idx] - direct) <= 1e-6 * (1.0 + direct), (N, R, idx)


def test_profile_bit_identical_across_repeated_calls(monkeypatch):
    # the kernel spectra are rebuilt on the first call of a grid and radii,
    # kept on the second and reused after that; every path must give the
    # same bytes, and kept spectra must never serve another grid or radii
    # (the 3-D grid has the 2-D grid's radii and lattice size)
    monkeypatch.setattr(potential, "_kept", None)
    monkeypatch.setattr(potential, "_last_key", None)
    g, g3 = Grid(2, 1.0, 24), Grid(3, 1.0, 24)
    rng = np.random.default_rng(8)
    f = bump_field(g, draw_bump_params(rng, 2))
    f3 = bump_field(g3, draw_bump_params(rng, 3))
    q, q24 = PotentialQuadrature(num_nodes=20), PotentialQuadrature(num_nodes=24)
    other_nodes = potential_profile(f, 0.9, q24).values.tobytes()
    other_grid = potential_profile(f3, 0.9, q).values.tobytes()

    def kept_grid():
        return potential._kept[0][0] if potential._kept is not None else None

    first = potential_profile(f, 0.9, q).values.tobytes()
    assert kept_grid() != g  # a single call keeps nothing
    assert potential_profile(f, 0.9, q).values.tobytes() == first
    assert kept_grid() == g
    assert potential_profile(f, 0.9, q).values.tobytes() == first
    assert potential_profile(f3, 0.9, q).values.tobytes() == other_grid
    assert potential_profile(f, 0.9, q).values.tobytes() == first
    assert potential_profile(f, 0.9, q24).values.tobytes() == other_nodes
    assert potential_profile(f, 0.9, q).values.tobytes() == first


def test_potential_P_is_sum_of_ball_masses():
    # potential_P must equal, bit for bit, the midpoint sum over ball_l2_mass
    rng = np.random.default_rng(21)
    for N, n in ((2, 32), (3, 12)):
        g = Grid(N, 1.0, n)
        f = bump_field(g, draw_bump_params(rng, N))
        q = PotentialQuadrature(num_nodes=16, rho_min_policy=0.5 * g.spacing)
        for x, R in (((0.0,) * N, 0.8), ((0.31,) * N, 1.7), ((-0.9,) * N, 0.1)):
            rho0 = min(q.rho_min(g), R)
            total = abs(float(f.values[g.nearest_index(x)])) * math.sqrt(unit_ball_volume(N)) * rho0
            width = (R - rho0) / q.num_nodes
            rho = rho0 + (np.arange(q.num_nodes) + 0.5) * width
            terms = [math.sqrt(ball_l2_mass(f, x, float(r))) * float(r) ** (-0.5 * N) for r in rho]
            total += float(np.sum(np.array(terms))) * width
            assert potential_P(f, x, R, q) == total, (N, x, R)


def test_potential_sup_consistency():
    g = Grid(2, 1.0, 48)
    rng = np.random.default_rng(9)
    f = bump_field(g, draw_bump_params(rng, 2))
    q = PotentialQuadrature(num_nodes=16)
    region = ball_mask(g, (0.0, 0.0), 0.5)
    sup = potential_sup(f, region, 0.4, q)
    prof = potential_profile(f, 0.4, q)
    assert math.isclose(sup, float(np.max(prof.values[region.mask])), rel_tol=1e-13)
    assert sup <= float(np.max(prof.values)) + 1e-15
    other = ball_mask(Grid(2, 1.0, 32), (0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        potential_sup(f, other, 0.4, q)


def test_holder_rho_integral_closed_form():
    # integral of rho^(-N/r) over (0, 2) equals 2^(1-N/r)/(1-N/r)
    assert math.isclose(holder_rho_integral(2, 4.0), 2.0 * math.sqrt(2.0), rel_tol=1e-14)
    assert math.isclose(holder_rho_integral(3, 6.0), 2.0 * math.sqrt(2.0), rel_tol=1e-14)
    assert holder_rho_integral(2, math.inf) == 2.0
    for N, r in ((2, 3.0), (2, 6.0), (3, 4.5), (3, 9.0)):
        numeric, err = quad(lambda rho: rho ** (-N / r), 0.0, 2.0)
        assert err < 1e-8
        assert math.isclose(holder_rho_integral(N, r), numeric, rel_tol=1e-6), (N, r)
    with pytest.raises(ValueError):
        holder_rho_integral(2, 2.0)  # diverges at r = N
    with pytest.raises(ValueError):
        holder_rho_integral(3, 2.5)


def test_holder_bound_dominates_sup():
    g = Grid(2, 2.0, 48)
    interior = ball_mask(g, (0.0, 0.0), 1.0)
    q = PotentialQuadrature(num_nodes=24)
    rng = np.random.default_rng(77)
    for _ in range(10):
        f = bump_field(g, draw_bump_params(rng, 2))
        sup = potential_sup(f, interior, 2.0, q)
        for r in (3.0, 6.0):
            bound = potential_holder_bound(f, r, 2)
            assert sup <= bound, (sup, bound, r)
    with pytest.raises(ValueError):
        potential_holder_bound(f, 3.0, 3)  # dimension mismatch with the grid
