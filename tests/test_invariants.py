"""Invariants of the continuous problem that the discrete solver keeps, checked on generated inputs.

The minimum principle: for f >= 0 the minimizer is >= 0 (the reason is in
``plapbench.discretization``'s module docstring).

Symmetry: data invariant under an element of the group the discretization
respects (axis permutations, the point reflection x -> -x and their
products) gives a solution, and a scheme level, with the same symmetry.  A
single-axis flip is not in the group for p != 2 (``discretization``).

Positivity: the scheme's converged levels stay positive on B_{2 rho}, the
discrete shadow of the interior lower bound.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plapbench.field import Grid, ScalarField, ball_mask
from plapbench.hypotheses import check_H1a, check_H2, config_from_dict
from plapbench.plap_solver import DirichletProblem, solve
from plapbench.scheme import ReactionSpec, picard_solve_level, run_scheme
from test_scheme import BENCH, bench_spec


@st.composite
def nonnegative_problems(draw):
    """A solve with f >= 0: white noise, one point source or a few sparse ones, on the box or the unit ball."""
    N = draw(st.sampled_from((2, 3)))
    grid = Grid(N, 1.0, draw(st.integers(16, 24) if N == 2 else st.integers(8, 12)))
    domain = draw(st.sampled_from((None, ball_mask(grid, (0.0,) * N, 1.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = np.zeros(grid.shape)
    free = np.flatnonzero(domain.mask) if domain is not None else np.arange(f.size)
    kind = draw(st.sampled_from(("noise", "point", "sparse")))
    if kind == "noise":
        f.flat[free] = rng.random(free.size)
    else:
        cells = rng.choice(free, 1 if kind == "point" else free.size // 20, replace=False)
        f.flat[cells] = rng.uniform(0.5, 2.0, cells.size)
    p = draw(st.floats(1.2, 6.0))
    return DirichletProblem(grid, p, ScalarField(grid, f), tol=1e-10, domain=domain)


@settings(max_examples=60, deadline=None)
@given(prob=nonnegative_problems())
def test_nonnegative_data_gives_a_nonnegative_solution(prob):
    u, rep = solve(prob)
    assert rep.converged
    assert u.values.min() >= 0.0


@st.composite
def symmetries(draw, N):
    """A group element other than the identity: an axis permutation, then the point reflection or not."""
    perm = tuple(draw(st.permutations(range(N))))
    reflect = draw(st.booleans())
    assume(reflect or perm != tuple(range(N)))
    return perm, reflect


def _apply(w, element):
    perm, reflect = element
    w = np.transpose(w, perm)
    return w[(slice(None, None, -1),) * w.ndim] if reflect else w


def _symmetrized(w, element):
    """w made invariant under the element: its maximum over each orbit of the cyclic group the element generates,
    which no order of evaluation can break."""
    cells = np.arange(w.size).reshape(w.shape)
    out, moved = w, _apply(cells, element)
    while not np.array_equal(moved, cells):
        out = np.maximum(out, w.flat[moved])
        moved = _apply(moved, element)
    return out


def _asymmetry(w, element):
    return float(np.max(np.abs(w - _apply(w, element)))) / float(np.max(np.abs(w)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_symmetric_data_gives_a_symmetric_solution(data):
    # a positive random f made invariant under a drawn element, on the box or
    # the centred ball, both invariant under the whole group.  The discrete
    # minimizer is exactly symmetric; the computed one is symmetric to the
    # solve's error, which is rounding where the V-cycle's levels are all even
    # and about 1e-11 of max |u| where it pads an odd axis on one side (17^2,
    # 9^3, 18^2 -> 9^2).  One-cell sources at p > 4 are left out: there the
    # degenerate Hessian lets a certified solve on a padded grid miss the
    # minimizer by up to 4.5e-6 of max |u|, at tol 1e-12 too
    N = data.draw(st.sampled_from((2, 3)))
    grid = Grid(N, 1.0, data.draw(st.integers(16, 24) if N == 2 else st.integers(8, 12)))
    element = data.draw(symmetries(N))
    domain = data.draw(st.sampled_from((None, ball_mask(grid, (0.0,) * N, 1.0))))
    f = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.5, 1.5, grid.shape)
    prob = DirichletProblem(grid, data.draw(st.floats(1.2, 6.0)), ScalarField(grid, _symmetrized(f, element)),
                            tol=1e-10, domain=domain)
    u, rep = solve(prob)
    assert rep.converged
    assert _asymmetry(u.values, element) <= 1e-7


@settings(max_examples=20, deadline=None)
@given(n=st.integers(16, 24), element=symmetries(2), seed=st.integers(0, 2**32 - 1))
def test_symmetric_weight_gives_symmetric_scheme_levels(n, element, seed):
    # the reactions average the forward and the backward side of each
    # gradient, which the group permutes among themselves, so a level keeps
    # the weight's symmetry.  Where the V-cycle pads an odd axis, the loose
    # early Picard steps are symmetric only to their tolerance and the level
    # to its Picard tolerance: 8e-7 of max |u| at the default 1e-5 on 18^2,
    # 1.3e-8 at the 1e-7 used here.  A level that does not converge in its 60
    # Picard steps (2 % of these weights, all but one on 18^2) is no fixed
    # point to compare
    grid = Grid(2, 2.0, n)
    weight = ScalarField(grid, _symmetrized(np.random.default_rng(seed).uniform(0.5, 1.5, grid.shape), element))
    state = picard_solve_level(ReactionSpec(config_from_dict(BENCH), weight, weight), 1, tol=1e-7)
    assume(state.converged)
    for w in (state.u.values, state.v.values):
        assert _asymmetry(w, element) <= 1e-7


@st.composite
def scheme_specs(draw):
    """Exponents in their boxes with H1a and H2 holding, and a rough weight on 16^2, 24^2 or 32^2 cells of [-2, 2]^2."""
    p, q = draw(st.floats(1.3, 3.0)), draw(st.floats(1.3, 3.0))
    singular = st.floats(-0.9, 0.0, exclude_min=True)
    own_p, own_q = st.floats(0.0, 0.8 * (p - 1.0)), st.floats(0.0, 0.8 * (q - 1.0))
    cfg = config_from_dict({
        **BENCH, "p": p, "q": q, "alpha1": draw(singular), "beta2": draw(singular),
        "beta1": draw(own_q), "delta1": draw(own_q), "delta2": draw(own_q),
        "gamma1": draw(own_p), "alpha2": draw(own_p), "gamma2": draw(own_p),
    })
    assume(check_H1a(cfg).passed and check_H2(cfg).passed)
    grid = Grid(2, 2.0, draw(st.sampled_from((16, 24, 32))))
    weight = ScalarField(grid, np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.5, 1.5, grid.shape))
    return ReactionSpec(cfg, weight, weight)


@settings(max_examples=12, deadline=None)
@given(spec=scheme_specs())
@example(spec=bench_spec(Grid(2, 2.0, 32)))
def test_converged_scheme_levels_stay_positive(spec):
    # sigma_rho_levels holds min(u, v) on B_{2 rho} per level; a level that
    # did not converge is no solution to bound
    _, report = run_scheme(spec, [1, 2], 0.5)
    for sigma, converged in zip(report.sigma_rho_levels, report.converged_n):
        assert sigma > 0.0 or not converged
