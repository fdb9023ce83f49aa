"""Invariants of the continuous problem that the discrete solver keeps, checked on generated inputs.

The minimum principle: for f >= 0 the minimizer is >= 0 (the reason is in
``plapbench.discretization``'s module docstring).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plapbench.field import Grid, ScalarField, ball_mask
from plapbench.plap_solver import DirichletProblem, solve


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
