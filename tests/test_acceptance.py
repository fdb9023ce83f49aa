"""Acceptance battery: nine end-to-end checks at fixed tolerances.

Each criterion builds a JSON-serializable report through a run-indexed cache
and prints one verdict line; the ninth repeats the first eight from scratch
and compares the canonical report bytes.
"""

import functools
import json
import math
import time

import numpy as np
import scipy.integrate

from _oracles import exact_admissible, exact_h1a_ok, exact_h2_ok, exact_ranges_ok, lattice_configs
from plapbench.cli import canonical_json
from plapbench.estimates import (
    comptest_chain,
    empirical_monotonicity_constant,
    gradient_estimate_ratio,
    monotonicity_gap,
    rfk_decay,
)
from plapbench.field import Grid, ScalarField, ball_mask
from plapbench.hypotheses import admissibility_report, config_from_dict, derive
from plapbench.plap_solver import DirichletProblem, exact_radial, solve
from plapbench.potential import (
    PotentialQuadrature,
    holder_rho_integral,
    potential_P,
    potential_holder_bound,
    potential_sup,
)
from plapbench.scheme import ReactionSpec, frozen_reactions, make_weight, run_scheme
from plapbench.synth import bump_field, draw_bump_params

BENCH_EXPONENTS = {
    "N": 2, "p": 2.5, "q": 2.0,
    "alpha1": -0.5, "beta1": 0.3, "gamma1": 0.4, "delta1": 0.3,
    "m1": 1.0, "mhat1": 1.0,
    "alpha2": 0.3, "beta2": -0.5, "gamma2": 0.3, "delta2": 0.4,
    "m2": 1.0, "mhat2": 1.0,
    "zeta1": "inf", "zeta2": "inf",
}


def verdict_line(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def round_2sig(x):
    exp = math.floor(math.log10(abs(x)))
    return round(x, 1 - exp)


# ---------------------------------------------------------------- criterion 1


@functools.lru_cache(maxsize=None)
def _criterion_1(run):
    t0 = time.perf_counter()
    checked = agreed = admissible = component_agreed = 0
    for cfg in lattice_configs():
        checked += 1
        pkg = dict(cfg)
        pkg["zeta1"] = "inf" if cfg["zeta1"] is None else cfg["zeta1"]
        pkg["zeta2"] = "inf" if cfg["zeta2"] is None else cfg["zeta2"]
        rep = admissibility_report(config_from_dict(pkg))
        oracle = exact_admissible(cfg)
        agreed += rep.admissible == oracle
        admissible += rep.admissible
        component_agreed += (
            (not rep.range_violations) == exact_ranges_ok(cfg)
            and rep.h1a.passed == exact_h1a_ok(cfg)
            and rep.h2.passed == exact_h2_ok(cfg)
        )
    report = {
        "configs_checked": checked,
        "verdict_agreements": agreed,
        "component_agreements": component_agreed,
        "admissible_count": admissible,
    }
    return report, {"elapsed": time.perf_counter() - t0}


def test_criterion_1_hypothesis_lattice_vs_oracle():
    report, timing = _criterion_1(0)
    ok = (
        report["configs_checked"] >= 10**4
        and report["verdict_agreements"] == report["configs_checked"]
        and report["component_agreements"] == report["configs_checked"]
        and timing["elapsed"] < 10.0
    )
    verdict_line(1, "hypothesis checker vs exact-arithmetic oracle", ok)


# ---------------------------------------------------------------- criterion 2


@functools.lru_cache(maxsize=None)
def _radial_error(p, N, n_c, run):
    t0 = time.perf_counter()
    grid = Grid(N, 2.0, n_c)
    ball = ball_mask(grid, (0.0,) * N, 1.0)
    f = ScalarField(grid, np.where(ball.mask, 1.0, 0.0))
    prob = DirichletProblem(grid, p, f, tol=1e-10, domain=ball)
    u, rep = solve(prob)
    rr = np.sqrt(grid.squared_distance((0.0,) * N))
    exact = exact_radial(p, N, 1.0, np.minimum(rr, 1.0))
    inner = ball_mask(grid, (0.0,) * N, 0.8)
    err = float(np.max(np.abs(u.values - exact)[inner.mask])) / float(np.max(exact[inner.mask]))
    return {"converged": rep.converged, "error": err}, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def _criterion_2(run):
    cases = {}
    timings = {}
    for p, N in ((2.0, 2), (3.0, 2), (1.5, 2), (2.0, 3)):
        coarse, t_c = _radial_error(p, N, 64, run)
        fine, t_f = _radial_error(p, N, 128, run)
        cases[f"p={p}_N={N}"] = {
            "converged": coarse["converged"] and fine["converged"],
            "error_64": coarse["error"],
            "error_128": fine["error"],
        }
        timings[f"p={p}_N={N}"] = max(t_c, t_f)
    return {"cases": cases}, timings


def test_criterion_2_radial_solver_oracle():
    report, timings = _criterion_2(0)
    ok = all(
        case["converged"] and case["error_128"] < 0.02 and case["error_128"] < case["error_64"]
        for case in report["cases"].values()
    ) and all(t < 120.0 for t in timings.values())
    verdict_line(2, "radial solver vs closed-form solution", ok)


# ---------------------------------------------------------------- criterion 3


@functools.lru_cache(maxsize=None)
def _criterion_3(run):
    quad = PotentialQuadrature(num_nodes=64)
    grid = Grid(2, 2.0, 256)
    one = ScalarField(grid, np.ones(grid.shape))
    value = potential_P(one, (0.0, 0.0), 1.0, quad)
    rel_err = abs(value - math.sqrt(math.pi)) / math.sqrt(math.pi)

    grid_h = Grid(2, 2.0, 128)
    rng = np.random.default_rng(31)
    f = bump_field(grid_h, draw_bump_params(rng, 2))
    base = potential_P(f, (0.1, -0.2), 1.0, quad)
    homogeneity = max(
        abs(potential_P(c * f, (0.1, -0.2), 1.0, quad) - abs(c) * base) / (abs(c) * base)
        for c in (-3.0, 0.5, 7.25)
    )
    return {"value": value, "rel_err_vs_sqrt_pi": rel_err, "homogeneity_rel_err": homogeneity}, {}


def test_criterion_3_potential_closed_form():
    report, _ = _criterion_3(0)
    ok = report["rel_err_vs_sqrt_pi"] < 0.01 and report["homogeneity_rel_err"] < 1e-10
    verdict_line(3, "constant-field potential closed form and homogeneity", ok)


# ---------------------------------------------------------------- criterion 4


@functools.lru_cache(maxsize=None)
def _criterion_4(run):
    N = 2
    quad = PotentialQuadrature(num_nodes=64)
    grid = Grid(N, 2.0, 64)
    interior = ball_mask(grid, (0.0, 0.0), 1.0)
    rng = np.random.default_rng(77)
    violations = 0
    margins = []
    for _ in range(100):
        f = bump_field(grid, draw_bump_params(rng, N))
        sup = potential_sup(f, interior, 2.0, quad)
        for r in (1.5 * N, 3.0 * N):
            bound = potential_holder_bound(f, r, N)
            if sup > bound:
                violations += 1
            margins.append(bound / sup)
    quad_errs = []
    for r in (1.5 * N, 3.0 * N):
        closed = holder_rho_integral(N, r)
        numeric, _ = scipy.integrate.quad(lambda rho: rho ** (-N / r), 0.0, 2.0)
        quad_errs.append(abs(closed - numeric) / numeric)
    return {
        "fields": 100,
        "violations": violations,
        "min_bound_over_sup": min(margins),
        "rho_integral_rel_errs": quad_errs,
    }, {}


def test_criterion_4_holder_step_bound():
    report, _ = _criterion_4(0)
    ok = (
        report["violations"] == 0
        and report["min_bound_over_sup"] >= 1.0
        and all(e < 1e-6 for e in report["rho_integral_rel_errs"])
    )
    verdict_line(4, "potential sup dominated by the Hölder-step bound", ok)


# ---------------------------------------------------------------- criterion 5


@functools.lru_cache(maxsize=None)
def _criterion_5(run):
    t0 = time.perf_counter()
    per_p = {}
    for p in (1.2, 1.5, 2.0, 3.0, 4.5):
        rng = np.random.default_rng(303)
        a = rng.uniform(-10.0, 10.0, size=(10**6, 2))
        b = rng.uniform(-10.0, 10.0, size=(10**6, 2))
        gap, _ = monotonicity_gap(a, b, p)
        c1 = empirical_monotonicity_constant(p, 10**6, seed=101)
        c2 = empirical_monotonicity_constant(p, 10**6, seed=202)
        per_p[str(p)] = {"min_gap": float(gap.min()), "constant_seed_a": c1, "constant_seed_b": c2}
    return {"per_p": per_p}, {"elapsed": time.perf_counter() - t0}


def test_criterion_5_monotonicity_inequalities():
    report, timing = _criterion_5(0)
    per_p = report["per_p"]
    ok = (
        all(v["min_gap"] >= 0.0 for v in per_p.values())
        and per_p["2.0"]["constant_seed_a"] == 1.0
        and per_p["2.0"]["constant_seed_b"] == 1.0
        and all(v["constant_seed_a"] > 0.0 and v["constant_seed_b"] > 0.0 for v in per_p.values())
        and all(
            round_2sig(v["constant_seed_a"]) == round_2sig(v["constant_seed_b"])
            for v in per_p.values()
        )
        and timing["elapsed"] < 60.0
    )
    verdict_line(5, "vector monotonicity constants across seeds", ok)


# ------------------------------------------------------- shared benchmark run


@functools.lru_cache(maxsize=None)
def _benchmark_scheme(run):
    grid = Grid(2, 2.0, 64)
    a = make_weight("gaussian", 1.0, grid)
    spec = ReactionSpec(exponents=config_from_dict(BENCH_EXPONENTS), weight_a1=a, weight_a2=a)
    states, report = run_scheme(spec, [1, 2, 4, 8], 0.5)
    return spec, states, report


# ---------------------------------------------------------------- criterion 6


@functools.lru_cache(maxsize=None)
def _criterion_6(run):
    spec, states, _ = _benchmark_scheme(run)
    c = spec.exponents
    r = derive(c).r_window.midpoint()
    chain = []
    for state in states:
        rhs_f, _ = frozen_reactions(spec, state)
        reps = comptest_chain(state.u, rhs_f, c.p, r, [(k, 0) for k in (1, 2, 4, 8)], 0.4, 0.6, 1.25)
        for k, rep in zip((1, 2, 4, 8), reps):
            chain.append({"n": state.n, "h_cells": k, "lhs": rep.lhs, "rhs": rep.rhs,
                          "verdict": rep.verdict})
    table = rfk_decay([st.u for st in states], c.p, 0.4, [(8, 0), (4, 0), (2, 0), (1, 0)])
    sups = [row.sup_over_n for row in table.rows]
    return {
        "r": r,
        "chain": chain,
        "decay_sups": sups,
        "decay_ratios": [a / b for a, b in zip(sups, sups[1:])],
    }, {}


def test_criterion_6_compactness_chain_on_scheme_outputs():
    report, _ = _criterion_6(0)
    ok = (
        len(report["chain"]) == 16
        and all(entry["verdict"] for entry in report["chain"])
        and all(ratio >= 1.3 for ratio in report["decay_ratios"])
    )
    verdict_line(6, "difference-quotient chain and decay table", ok)


# ---------------------------------------------------------------- criterion 7


@functools.lru_cache(maxsize=None)
def _criterion_7(run):
    p = 2.5
    rng = np.random.default_rng(4242)
    families = [draw_bump_params(rng, 2) for _ in range(10)]
    ratios = {}
    for n_c in (64, 128):
        grid = Grid(2, 2.0, n_c)
        vals = []
        for params in families:
            f = bump_field(grid, params)
            u, rep = solve(DirichletProblem(grid, p, f, tol=1e-10))
            assert rep.converged
            vals.append(gradient_estimate_ratio(u, f, p, 4.0, 0.5).constant_estimate)
        ratios[n_c] = vals
    variation = max(abs(a - b) / a for a, b in zip(ratios[64], ratios[128]))

    coherence = []
    lam = 3.7
    for p_r in (1.5, 2.0, 2.5, 3.0):
        grid = Grid(2, 2.0, 64)
        ball = ball_mask(grid, (0.0, 0.0), 1.0)
        f = ScalarField(grid, np.where(ball.mask, 1.0, 0.0))
        u, _ = solve(DirichletProblem(grid, p_r, f, tol=1e-10, domain=ball))
        base = gradient_estimate_ratio(u, f, p_r, 4.0, 0.5).constant_estimate
        scaled = gradient_estimate_ratio(
            lam * u, lam ** (p_r - 1.0) * f, p_r, 4.0, 0.5
        ).constant_estimate
        coherence.append(abs(scaled - base) / base)
    return {
        "ratios_64": ratios[64],
        "ratios_128": ratios[128],
        "max_rel_variation": variation,
        "scale_coherence_rel_errs": coherence,
    }, {}


def test_criterion_7_gradient_bound_stability():
    report, _ = _criterion_7(0)
    ok = report["max_rel_variation"] < 0.2 and all(
        e <= 1e-8 for e in report["scale_coherence_rel_errs"]
    )
    verdict_line(7, "gradient-bound ratio stable across resolutions", ok)


# ---------------------------------------------------------------- criterion 8


@functools.lru_cache(maxsize=None)
def _criterion_8(run):
    _, _, report = _benchmark_scheme(run)
    return json.loads(canonical_json(report)), {}


def test_criterion_8_scheme_uniform_bounds():
    report, _ = _criterion_8(0)
    grad_ratio_p = max(report["gradient_p_norms"]) / min(report["gradient_p_norms"])
    grad_ratio_q = max(report["gradient_q_norms"]) / min(report["gradient_q_norms"])
    cauchy_ratios = [a / b for a, b in zip(report["cauchy_p"], report["cauchy_p"][1:])]
    cauchy_ratios += [a / b for a, b in zip(report["cauchy_q"], report["cauchy_q"][1:])]
    ok = (
        all(report["converged_n"])
        and math.isfinite(report["M_observed"])
        and grad_ratio_p < 2.0
        and grad_ratio_q < 2.0
        and report["rho"] == 0.5
        and all(s > 0.0 for s in report["sigma_rho_levels"])
        and all(ratio >= 1.5 for ratio in cauchy_ratios)
    )
    verdict_line(8, "scheme levels: uniform bounds, positivity, Cauchy decay", ok)


# ---------------------------------------------------------------- criterion 9


def _all_reports(run):
    return canonical_json(
        {
            "c1": _criterion_1(run)[0],
            "c2": _criterion_2(run)[0],
            "c3": _criterion_3(run)[0],
            "c4": _criterion_4(run)[0],
            "c5": _criterion_5(run)[0],
            "c6": _criterion_6(run)[0],
            "c7": _criterion_7(run)[0],
            "c8": _criterion_8(run)[0],
        }
    ).encode()


def test_criterion_9_determinism():
    first = _all_reports(0)
    second = _all_reports(1)
    verdict_line(9, "byte-identical reports on repeated runs", first == second)
