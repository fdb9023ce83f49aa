"""Coupled-system Picard scheme: reaction evaluation oracles, fixed-point
stability under iteration parameters, and the per-level report."""

import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np
import pytest

from plapbench.discretization import _Discretization
from plapbench.estimates import comptest_chain
from plapbench.field import Grid, ScalarField, ball_mask, gradient, linf_norm, w1p_norm
from plapbench.hypotheses import config_from_dict, derive
from plapbench.jsonio import canonical_json
from plapbench import plap_solver, scheme
from plapbench.plap_solver import AnalyticFailure, DirichletProblem, _SolveContext, solve
from plapbench.scheme import (
    ReactionSpec,
    SystemState,
    eval_f,
    eval_g,
    frozen_reactions,
    make_weight,
    picard_solve_level,
    run_scheme,
)

BENCH = {
    "N": 2, "p": 2.5, "q": 2.0,
    "alpha1": -0.5, "beta1": 0.3, "gamma1": 0.4, "delta1": 0.3,
    "m1": 1.0, "mhat1": 1.0,
    "alpha2": 0.3, "beta2": -0.5, "gamma2": 0.3, "delta2": 0.4,
    "m2": 1.0, "mhat2": 1.0,
    "zeta1": "inf", "zeta2": "inf",
}


def bench_spec(grid, **overrides):
    a = make_weight("gaussian", 1.0, grid)
    cfg = config_from_dict({**BENCH, **overrides})
    return ReactionSpec(exponents=cfg, weight_a1=a, weight_a2=a)


def test_make_weight_gaussian():
    g = Grid(2, 1.0, 16)
    a = make_weight("gaussian", 2.5, g)
    assert np.all(a.values > 0.0)
    idx = g.nearest_index((0.0, 0.0))
    d2 = g.squared_distance((0.0, 0.0))
    assert math.isclose(a.values[idx], 2.5 * math.exp(-d2[idx]), rel_tol=1e-14)
    with pytest.raises(ValueError):
        make_weight("uniform", 1.0, g)
    with pytest.raises(ValueError):
        make_weight("gaussian", 0.0, g)


def test_reaction_spec_validation():
    g = Grid(2, 1.0, 8)
    a = make_weight("gaussian", 1.0, g)
    with pytest.raises(ValueError):
        ReactionSpec(config_from_dict(BENCH), a, ScalarField(g, np.zeros(g.shape)))
    other = make_weight("gaussian", 1.0, Grid(2, 1.0, 16))
    with pytest.raises(ValueError):
        ReactionSpec(config_from_dict(BENCH), a, other)
    with pytest.raises(ValueError):
        ReactionSpec(config_from_dict(BENCH), a, a, coeff_grad1_own=-1.0)
    with pytest.raises(ValueError):
        ReactionSpec(config_from_dict(dict(BENCH, alpha1=0.5)), a, a)
    with pytest.raises(ValueError):
        ReactionSpec(config_from_dict(dict(BENCH, beta1=-0.2)), a, a)


def test_eval_f_constant_reaction_case():
    # all exponents zero: every power is 1 (0^0 = 1), so f = mhat1 a1 * 3
    g = Grid(2, 1.0, 8)
    spec = bench_spec(g, alpha1=0.0, beta1=0.0, gamma1=0.0, delta1=0.0, mhat1=2.0)
    zero = ScalarField(g, np.zeros(g.shape))
    gz = gradient(zero)
    eps = 0.5
    u_sh = ScalarField(g, zero.values + eps)
    f = eval_f(spec, u_sh, zero, gz, gz, eps)
    assert np.allclose(f.values, 2.0 * spec.weight_a1.values * 3.0, rtol=1e-14)


def test_eval_f_hand_computed():
    g = Grid(2, 1.0, 8)
    spec = bench_spec(g)
    rng = np.random.default_rng(2)
    u = ScalarField(g, rng.uniform(0.1, 1.0, g.shape))
    v = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
    eps = 0.25
    gu, gv = gradient(u), gradient(v)
    u_sh = ScalarField(g, u.values + eps)
    f = eval_f(spec, u_sh, v, gu, gv, eps)
    # each gradient term is the mean over the forward and the backward side of |grad w|^a
    mag = lambda w, a: 0.5 * np.sum(np.sqrt(np.einsum("...ik,...ik->...i", w.values, w.values)) ** a, axis=-1)
    expect = spec.weight_a1.values * (
        (u.values + eps) ** -0.5 * v.values**0.3 + mag(gu, 0.4) + mag(gv, 0.3)
    )
    assert np.allclose(f.values, expect, rtol=1e-13)
    # mirrored reaction
    v_sh = ScalarField(g, v.values + eps)
    gfun = eval_g(spec, u, v_sh, gu, gv, eps)
    expect_g = spec.weight_a2.values * (
        u.values**0.3 * (v.values + eps) ** -0.5 + mag(gu, 0.3) + mag(gv, 0.4)
    )
    assert np.allclose(gfun.values, expect_g, rtol=1e-13)


def test_eval_f_guards_positivity():
    g = Grid(2, 1.0, 8)
    spec = bench_spec(g)
    zero = ScalarField(g, np.zeros(g.shape))
    gz = gradient(zero)
    # a broken invariant is an analytic failure, a nonpositive eps a usage error
    with pytest.raises(AnalyticFailure):
        eval_f(spec, zero, zero, gz, gz, 0.5)  # unshifted iterate rejected
    with pytest.raises(AnalyticFailure):
        eval_g(spec, zero, zero, gz, gz, 0.5)
    with pytest.raises(ValueError):
        eval_f(spec, ScalarField(g, np.ones(g.shape)), zero, gz, gz, 0.0)


def test_eval_f_monotone_in_eps():
    # the singular factor (u + eps)^alpha1 with alpha1 < 0 shrinks as the
    # regularization grows; the convective part does not see eps
    g = Grid(2, 1.0, 8)
    spec = bench_spec(g)
    rng = np.random.default_rng(3)
    u = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
    v = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
    gu, gv = gradient(u), gradient(v)
    vals = []
    for eps in (1.0, 0.5, 0.25):
        u_sh = ScalarField(g, u.values + eps)
        vals.append(eval_f(spec, u_sh, v, gu, gv, eps).values)
    assert np.all(vals[0] <= vals[1] + 1e-15)
    assert np.all(vals[1] <= vals[2] + 1e-15)


def test_system_state_validation():
    g = Grid(2, 1.0, 8)
    pos = ScalarField(g, np.ones(g.shape))
    neg = ScalarField(g, -np.ones(g.shape))
    with pytest.raises(ValueError):
        SystemState(2, 0.4, pos, pos, 1, 0.0, 0.0, True, True)  # eps != 1/n
    with pytest.raises(ValueError):
        SystemState(2, 0.5, pos, neg, 1, 0.0, 0.0, True, True)
    st = SystemState(2, 0.5, pos, pos, 3, 1e-6, 2e-6, True, True)
    summ = st.summary()
    assert summ["n"] == 2 and summ["sup_u"] == 1.0 and summ["converged"] is True


def test_picard_constant_reaction_single_productive_step():
    # state-independent reactions: the first step, solved loose, lands on the
    # answer to within its tolerance; the second, as loose, has nothing left
    # to do and so a zero increment, which tightens the policy; the third,
    # at solver_tol, corrects the pair, and the fourth confirms it.  If the
    # zero loose increment stayed the damping reference, the third step
    # would halve tau and the level would crawl to max_picard unconverged
    g = Grid(2, 2.0, 32)
    spec = bench_spec(g, alpha1=0.0, beta1=0.0, gamma1=0.0, delta1=0.0,
                      alpha2=0.0, beta2=0.0, gamma2=0.0, delta2=0.0)
    state = picard_solve_level(spec, 1, tol=1e-8)
    assert state.converged
    assert state.picard_iters == 4
    # oracle: direct solve of the decoupled constant problem
    rhs = ScalarField(g, 3.0 * spec.weight_a1.values)
    prob = DirichletProblem(g, 2.5, rhs, tol=1e-9)
    u_direct, rep = solve(prob)
    assert rep.converged
    assert linf_norm(state.u - u_direct) < 1e-8


def test_picard_damping_halves_tau_on_the_solved_pair(monkeypatch):
    # a step whose combined increment exceeds the last one halves tau, down to
    # 1/64, and forms each damped update from the pair that step solved, with
    # no new solve; the next step doubles tau back.  Step 2's increments are
    # inflated here; the spy reads the step, tau and the solve count of
    # picard_solve_level each time it measures an increment
    seen = []

    def inflated_w1p_norm(d, p):
        frame = sys._getframe(1)
        k, tau, ctx = (frame.f_locals[name] for name in ("k", "tau", "ctx"))
        seen.append((k, tau, ctx.work.solves))
        return 1e300 if k == 2 else w1p_norm(d, p)

    monkeypatch.setattr(scheme, "w1p_norm", inflated_w1p_norm)
    picard_solve_level(bench_spec(Grid(2, 2.0, 16)), 1, max_picard=3)
    step = {k: [(tau, solves) for j, tau, solves in seen if j == k] for k in (1, 2, 3)}
    assert [tau for tau, _ in step[1]] == [1.0, 1.0]
    assert [tau for tau, _ in step[2]] == [2.0**-i for i in range(7) for _ in "uv"]
    assert {solves for _, solves in step[2]} == {step[1][0][1] + 2}
    assert step[3][0][0] == 2.0**-5


def test_picard_fixed_point_parameter_independent():
    # the converged pair is a property of the level, not of the stopping
    # tolerance used to reach it
    g = Grid(2, 2.0, 32)
    spec = bench_spec(g)
    a = picard_solve_level(spec, 2, tol=1e-5)
    b = picard_solve_level(spec, 2, tol=1e-6)
    assert a.converged and b.converged
    assert w1p_norm(a.u - b.u, 2.5) < 1e-4
    assert w1p_norm(a.v - b.v, 2.0) < 1e-4


def test_run_scheme_default_picard_steps():
    # four levels with default keywords: every level converges, in at most 40
    # Picard steps in all (damping 0.5 took 73)
    g = Grid(2, 2.0, 32)
    states, report = run_scheme(bench_spec(g), [1, 2, 4, 8], rho=0.5)
    assert all(report.converged_n)
    assert sum(s.picard_iters for s in states) <= 40, [s.picard_iters for s in states]


def test_scheme_report_converges_under_refinement():
    # the report's gradient norms and Cauchy increments converge at second
    # order in h: the gap between successive grids falls by a factor of
    # about 4 (at least 3.8 measured) from 32^2-64^2 to 64^2-128^2.
    # sigma_rho is left out: an infimum over the cell centres of a
    # stair-stepped ball, its gaps (4.4e-3, then 5.0e-3) do not fall
    reports = [run_scheme(bench_spec(Grid(2, 2.0, cells)), [1, 2, 4, 8], rho=0.5)[1]
               for cells in (32, 64, 128)]
    for name in ("gradient_p_norms", "gradient_q_norms", "cauchy_p", "cauchy_q"):
        coarse, mid, fine = (np.array(getattr(r, name)) for r in reports)
        ratios = np.abs(mid - coarse) / np.abs(fine - mid)
        assert np.all(ratios >= 3.0), (name, ratios)


def test_scheme_work_counts_match_the_solves(monkeypatch):
    # each level's work record counts the events of its solver calls, the
    # positivity seed's included, seen here where they happen: the solves,
    # their outer steps (one energy each after the start), the CG iterations
    # _pcg returns, the V-cycles built and the lagged weights computed.  The
    # bounds hold only while the early Picard steps solve loose: solving every
    # step at solver_tol takes 106 outer steps, 460 CG iterations and 59
    # V-cycle builds on this config.  Warm p != 2 solves take up the last
    # one's linearization and V-cycle, so at most half the outer steps build a cycle
    events = dict.fromkeys(("solves", "outer_steps", "cg_iterations", "cycle_builds", "linearizations"), 0)
    minimize, pcg, linearize = _SolveContext.minimize, plap_solver._pcg, _Discretization.linearize

    def counted_minimize(self, prob, initial=None):
        res = minimize(self, prob, initial)
        events["solves"] += 1
        events["outer_steps"] += len(res.energy_history) - 1
        return res

    def counted_pcg(*args):
        x, its = pcg(*args)
        events["cg_iterations"] += its
        return x, its

    class CountingVCycle(plap_solver._VCycle):
        def __init__(self, disc, T):
            events["cycle_builds"] += 1
            super().__init__(disc, T)

    def counted_linearize(self, u, p, eps):
        events["linearizations"] += 1
        return linearize(self, u, p, eps)

    monkeypatch.setattr(_SolveContext, "minimize", counted_minimize)
    monkeypatch.setattr(plap_solver, "_pcg", counted_pcg)
    monkeypatch.setattr(plap_solver, "_VCycle", CountingVCycle)
    monkeypatch.setattr(_Discretization, "linearize", counted_linearize)
    states, report = run_scheme(bench_spec(Grid(2, 2.0, 64)), [1, 2, 4, 8], rho=0.5)
    assert all(report.converged_n)
    assert {name: sum(getattr(s.work, name) for s in states) for name in events} == events
    assert events["outer_steps"] <= 150 and events["cg_iterations"] <= 450
    assert events["cycle_builds"] <= events["outer_steps"] // 2
    summ = states[0].summary()
    assert {name: summ[name] for name in events} == asdict(states[0].work)


def test_picard_flags_h2_violation():
    g = Grid(2, 2.0, 16)
    spec = bench_spec(g, beta1=0.9, alpha2=1.4)  # eta1*eta2 = 1.26 > 0.66
    state = picard_solve_level(spec, 1, max_picard=3)
    assert state.hypotheses_ok is False


def test_frozen_reactions_match_eval():
    g = Grid(2, 2.0, 16)
    spec = bench_spec(g)
    rng = np.random.default_rng(4)
    u = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
    v = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
    st = SystemState(2, 0.5, u, v, 1, 0.1, 0.1, True, True)
    rf, rg = frozen_reactions(spec, st)
    # the frozen reactions take each side's |grad|^2 without forming the gradients, in the same bits
    gu, gv = gradient(u), gradient(v)
    direct = eval_f(spec, ScalarField(g, u.values + 0.5), v, gu, gv, 0.5)
    assert np.array_equal(rf.values, direct.values)
    assert np.array_equal(rg.values, eval_g(spec, u, ScalarField(g, v.values + 0.5), gu, gv, 0.5).values)
    assert np.all(rg.values > 0.0)


def test_run_scheme_small():
    g = Grid(2, 2.0, 24)
    spec = bench_spec(g)
    states, report = run_scheme(spec, [1, 2], rho=0.5, tol=1e-4)
    assert [s.n for s in states] == [1, 2]
    assert report.n_list == (1, 2)
    assert all(report.converged_n)
    assert report.hypotheses_ok
    assert report.M_observed >= report.sigma_rho > 0.0
    assert len(report.cauchy_p) == 1 and len(report.cauchy_q) == 1
    assert all(s > 0.0 for s in report.sigma_rho_levels)
    d = json.loads(canonical_json(report))
    assert d["n_list"] == [1, 2] and d["rho"] == 0.5

    with pytest.raises(ValueError):
        run_scheme(spec, [], rho=0.5)
    with pytest.raises(ValueError):
        run_scheme(spec, [2, 1], rho=0.5)
    with pytest.raises(ValueError):
        run_scheme(spec, [1, 2], rho=-1.0)


def test_positivity_of_converged_levels():
    # interior positivity: the converged pair stays above a positive floor
    # on the ball, the discrete shadow of the sigma_rho bound
    g = Grid(2, 2.0, 32)
    spec = bench_spec(g)
    state = picard_solve_level(spec, 1, tol=1e-4)
    assert state.converged
    ball = ball_mask(g, (0.0, 0.0), 1.0)
    assert float(np.min(state.u.values[ball.mask])) > 0.0
    assert float(np.min(state.v.values[ball.mask])) > 0.0


@functools.lru_cache(maxsize=None)
def _scheme_64():
    spec = bench_spec(Grid(2, 2.0, 64))
    states, _ = run_scheme(spec, [1, 2, 4, 8], rho=0.5)
    return spec, states


def test_scheme_levels_are_point_symmetric():
    # the Gaussian weight is symmetric under x -> -x, and so are the energy
    # and the reactions, whose gradient terms average the forward and the
    # backward side, which the reflection swaps: every level keeps the
    # symmetry to rounding (64 -> 32 -> 16 -> 8 cells: every V-cycle level is
    # even, so the preconditioner is symmetric too)
    _, states = _scheme_64()
    for state in states:
        for w in (state.u.values, state.v.values):
            assert np.max(np.abs(w - w[::-1, ::-1])) <= 1e-12 * np.max(np.abs(w)), state.n


def test_chain_audit_balances_on_scheme_levels():
    # the chain's audit is the discrete weak form tested with
    # delta_{-h}(eta^2 delta_h u), split by each side's exact product rule:
    # on a solved level it balances to the Picard and solver tolerances
    # (8.2e-7 of |eq_reaction| at most, measured)
    spec, states = _scheme_64()
    c = spec.exponents
    for state in states:
        rhs_f, _ = frozen_reactions(spec, state)
        shifts = [(k, 0) for k in (1, 2, 4, 8)]
        for rep in comptest_chain(state.u, rhs_f, c.p, derive(c).r_window.midpoint(), shifts, 0.4, 0.6, 1.25):
            ctx = rep.context
            gap = ctx["eq_weighted"] + ctx["eq_cross"] - ctx["eq_reaction"]
            assert abs(gap) <= 1e-5 * abs(ctx["eq_reaction"]), (state.n, ctx["h_cells"], gap)
