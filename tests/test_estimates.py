"""Monotonicity inequalities, the gradient sup bound ratio, the compactness
chain, and the difference-quotient decay table."""

import functools
import json
import math

import numpy as np
import pytest

from plapbench.estimates import (
    DecayRow,
    DecayTable,
    EstimateReport,
    comptest_chain,
    empirical_monotonicity_constant,
    gradient_estimate_ratio,
    monotonicity_gap,
    rfk_decay,
)
from plapbench.field import Grid, ScalarField, ball_mask
from plapbench.jsonio import canonical_json
from plapbench.plap_solver import DirichletProblem, solve


@functools.lru_cache(maxsize=None)
def radial_solution(p, n_c, amp):
    grid = Grid(2, 2.0, n_c)
    ball = ball_mask(grid, (0.0, 0.0), 1.0)
    f = ScalarField(grid, np.where(ball.mask, amp, 0.0))
    prob = DirichletProblem(grid, p, f, tol=1e-12, domain=ball)
    u, rep = solve(prob)
    assert rep.converged
    return u, f


def test_gap_p2_is_exactly_the_reference():
    rng = np.random.default_rng(0)
    a = rng.uniform(-5.0, 5.0, size=(200, 2))
    b = rng.uniform(-5.0, 5.0, size=(200, 2))
    gap, ref = monotonicity_gap(a, b, 2.0)
    assert np.array_equal(gap, ref)


def test_gap_antipodal_constant():
    # a = -b attains the sharp constant 2^(2-p) for p >= 2
    for p in (3.0, 4.0, 4.5):
        gap, ref = monotonicity_gap(np.array([2.0, 1.0]), np.array([-2.0, -1.0]), p)
        assert math.isclose(gap / ref, 2.0 ** (2.0 - p), rel_tol=1e-12), p


def test_gap_nonnegative_batches():
    rng = np.random.default_rng(1)
    for p in (1.2, 1.5, 3.0):
        a = rng.uniform(-10.0, 10.0, size=(5000, 2))
        b = rng.uniform(-10.0, 10.0, size=(5000, 2))
        gap, _ = monotonicity_gap(a, b, p)
        assert np.all(gap >= 0.0), p


def test_gap_singular_reference_form():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    p = 1.5
    gap, ref = monotonicity_gap(a, b, p)
    assert isinstance(gap, float) and isinstance(ref, float)
    # reference = (1 + |a|^2 + |b|^2)^((p-2)/2) |a-b|^2 = 3^(-1/4) * 2
    assert math.isclose(ref, 3.0 ** (-0.25) * 2.0, rel_tol=1e-13)
    # gap = (a - b) . (a - b) = 2 since |a| = |b| = 1 makes the stress the identity
    assert math.isclose(gap, 2.0, rel_tol=1e-13)


def test_gap_validation():
    with pytest.raises(ValueError):
        monotonicity_gap(np.ones(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        monotonicity_gap(np.ones(2), np.zeros(3), 2.0)


def test_empirical_constant_pinned_values():
    assert empirical_monotonicity_constant(2.0, 10**4, seed=0) == 1.0
    # the antipodal battery attains 2^(2-p) exactly for p > 2
    c3 = empirical_monotonicity_constant(3.0, 10**4, seed=0)
    assert abs(c3 - 0.5) < 1e-12
    with pytest.raises(ValueError):
        empirical_monotonicity_constant(2.0, 100, seed=0)


def test_empirical_constant_seed_stable():
    # reproducible to two significant digits across seeds
    for p in (1.5, 3.0):
        c1 = empirical_monotonicity_constant(p, 10**5, seed=1)
        c2 = empirical_monotonicity_constant(p, 10**5, seed=2)
        assert c1 > 0.0 and c2 > 0.0
        def round2(x):
            exp = math.floor(math.log10(abs(x)))
            return round(x, 1 - exp)
        assert round2(c1) == round2(c2), (p, c1, c2)


def test_estimate_report_consistency():
    with pytest.raises(ValueError):
        EstimateReport(lhs=2.0, rhs=1.0, constant_estimate=2.0, verdict=True, context={})
    rep = EstimateReport(lhs=1.0, rhs=2.0, constant_estimate=0.5, verdict=True, context={"p": 2.0})
    d = json.loads(canonical_json(rep))
    assert d["verdict"] is True and d["context"]["p"] == 2.0


def test_gradient_estimate_ratio_radial():
    u, f = radial_solution(2.0, 48, 1.0)
    rep = gradient_estimate_ratio(u, f, 2.0, 4.0, 0.5)
    assert rep.verdict
    assert 0.0 < rep.constant_estimate < 1.0


def test_gradient_estimate_scale_coherence():
    # both sides scale like lam^(p-1) under (u, f) -> (lam u, lam^(p-1) f)
    p = 2.5
    u, f = radial_solution(p, 32, 1.0)
    base = gradient_estimate_ratio(u, f, p, 4.0, 0.5)
    lam = 3.7
    scaled = gradient_estimate_ratio(lam * u, lam ** (p - 1.0) * f, p, 4.0, 0.5)
    assert math.isclose(scaled.constant_estimate, base.constant_estimate, rel_tol=1e-10)


def test_gradient_estimate_zero_case():
    g = Grid(2, 2.0, 16)
    zero = ScalarField(g, np.zeros(g.shape))
    rep = gradient_estimate_ratio(zero, zero, 2.0, 4.0, 0.5)
    assert rep.constant_estimate == 0.0
    assert rep.verdict


def test_gradient_estimate_validation():
    u, f = radial_solution(2.0, 32, 1.0)
    with pytest.raises(ValueError):
        gradient_estimate_ratio(u, f, 2.0, 1.5, 0.5)  # needs r > N
    with pytest.raises(ValueError):
        gradient_estimate_ratio(u, f, 2.0, 4.0, 1.5)  # B_2R leaves the box


def test_comptest_chain_radial():
    p = 2.5
    u, f = radial_solution(p, 48, 1.0)
    rep, rep2 = comptest_chain(u, f, p, 3.0, [(2, 0), (2, 2)], 0.4, 0.6, 1.25)  # a diagonal shift too
    assert rep.verdict, (rep.lhs, rep.rhs)
    assert rep.lhs >= 0.0
    ctx = rep.context
    for key in ("eq_weighted", "eq_cross", "eq_reaction", "eps_geom", "h_mag"):
        assert np.isfinite(ctx[key])
    assert ctx["h_cells"] == [2, 0]
    assert rep2.verdict
    assert rep2.context["h_cells"] == [2, 2]
    # a shift's report does not depend on the other shifts of the list
    assert comptest_chain(u, f, p, 3.0, [(2, 2)], 0.4, 0.6, 1.25) == [rep2]


def test_comptest_chain_validation():
    u, f = radial_solution(2.0, 32, 1.0)
    with pytest.raises(ValueError):
        comptest_chain(u, f, 2.0, 3.0, [(1, 0)], 0.6, 0.4, 1.25)  # t >= s
    with pytest.raises(ValueError):
        comptest_chain(u, f, 2.0, 3.0, [(1, 0), (12, 0)], 0.4, 0.6, 1.25)  # |h| >= R - s for one shift
    with pytest.raises(ValueError):
        comptest_chain(u, f, 2.0, math.inf, [(1, 0)], 0.4, 0.6, 1.25)
    with pytest.raises(ValueError):
        comptest_chain(u, f, 2.0, 3.0, [(1, 0)], 0.4, 0.6, 2.5)  # B_R leaves the box


def test_rfk_decay_table():
    p = 2.5
    seq = [radial_solution(p, 48, amp)[0] for amp in (1.0, 1.5)]
    table = rfk_decay(seq, p, 0.4, [(4, 0), (2, 0), (1, 0)])
    assert table.p == p and table.t == 0.4
    mags = [row.h_mag for row in table.rows]
    assert mags == sorted(mags, reverse=True)
    sups = [row.sup_over_n for row in table.rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))  # decay in |h|
    for row in table.rows:
        assert row.sup_over_n == max(row.per_n)
        assert len(row.per_n) == 2
        assert row.weighted_per_n is None  # only recorded for p < 2


def test_rfk_decay_singular_weighted_columns():
    p = 1.5
    seq = [radial_solution(p, 48, amp)[0] for amp in (1.0, 1.5)]
    table = rfk_decay(seq, p, 0.4, [(2, 0), (1, 0)])
    for row in table.rows:
        assert row.weighted_per_n is not None
        assert row.holder_bound_per_n is not None
        for raw, holder in zip(row.per_n, row.holder_bound_per_n):
            # discrete Hölder comparison bounds the plain p-norm
            assert raw**p <= holder * (1.0 + 1e-12), (raw**p, holder)


def test_rfk_decay_validation():
    u, _ = radial_solution(2.0, 32, 1.0)
    with pytest.raises(ValueError):
        rfk_decay([], 2.0, 0.4, [(1, 0)])
    with pytest.raises(ValueError):
        rfk_decay([u], 2.0, 0.4, [])
    with pytest.raises(ValueError):
        rfk_decay([u], 2.0, 1.9, [(8, 0)])  # shift reach leaves the box
    with pytest.raises(ValueError):
        rfk_decay([u], 1.0, 0.4, [(1, 0)])


def test_decay_table_validation():
    row1 = DecayRow((2, 0), 0.2, (1.0,), 1.0)
    row2 = DecayRow((1, 0), 0.1, (0.5,), 0.5)
    DecayTable(2.0, 0.4, (row1, row2))
    with pytest.raises(ValueError):
        DecayTable(2.0, 0.4, (row2, row1))  # |h| must decrease
    with pytest.raises(ValueError):
        DecayRow((1, 0), 0.1, (0.5, 0.7), 0.5)
        DecayTable(2.0, 0.4, (DecayRow((1, 0), 0.1, (0.5, 0.7), 0.5),))

