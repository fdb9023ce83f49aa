"""Dirichlet p-Laplacian solver: radial oracle, direct linear-algebra
cross-check at p = 2, the frozen operator's symmetry and its tie to the
energy's differences, the Hessian's tie to the residual and its symmetry,
the multigrid preconditioner's symmetry, definiteness, Galerkin coarse
operator and size-independent work, the Newton steps' outer-step counts and
their fallback, the single CG run of a p = 2 solve (one iteration on a full
box, whose preconditioner is the operator's exact sine-transform inverse) and
the solver context it keeps, what a warm solve takes up from the last one, energy descent,
local minimality for p != 2, and the kernels' byte identity with their
strided reference."""

import dataclasses
import json
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings, strategies as st

from _oracles import StridedDiscretization, StridedVCycle, full_grid_weak_residual, strided_pcg, strided_prolong
from plapbench import plap_solver
from plapbench.discretization import _Discretization
from plapbench.field import Grid, Region, ScalarField, ball_mask
from plapbench.jsonio import canonical_json
from plapbench.plap_solver import (
    DirichletProblem,
    SolverDivergenceError,
    _dot,
    _pcg,
    _prolong,
    _SolveContext,
    _test_functions,
    _VCycle,
    exact_radial,
    solve,
    weak_residual,
)
from plapbench.synth import BumpParams, bump_field, draw_bump_params


def radial_problem(p, N, n_c, tol=1e-12, extent=2.0):
    grid = Grid(N, extent, n_c)
    ball = ball_mask(grid, (0.0,) * N, 1.0)
    f = ScalarField(grid, np.where(ball.mask, 1.0, 0.0))
    return DirichletProblem(grid, p, f, tol=tol, domain=ball), ball


def _fine_op(disc, x, T, S=None):
    """The solver's fine operator on a cell-shaped x, cell-shaped (+0 off the free cells)."""
    return disc.cells(disc.free_rows(disc.apply(disc.bordered_copy(x), T, S)))


def radial_error(u, p, ball, inner_radius=0.8):
    grid = u.grid
    rr = np.sqrt(grid.squared_distance((0.0,) * grid.N))
    exact = exact_radial(p, grid.N, 1.0, np.minimum(rr, 1.0))
    inner = ball_mask(grid, (0.0,) * grid.N, inner_radius)
    num = float(np.max(np.abs(u.values - exact)[inner.mask]))
    den = float(np.max(np.abs(exact[inner.mask])))
    return num / den


def test_exact_radial_closed_form():
    # u(r) = ((p-1)/p) N^(-1/(p-1)) (R^(p') - r^(p')) with p' = p/(p-1)
    for p, N in ((2.0, 2), (3.0, 2), (1.5, 3)):
        pp = p / (p - 1.0)
        at0 = exact_radial(p, N, 1.0, 0.0)
        assert math.isclose(at0, (p - 1.0) / p * N ** (-1.0 / (p - 1.0)), rel_tol=1e-14)
        assert exact_radial(p, N, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        r = np.linspace(0.0, 1.0, 50)
        u = exact_radial(p, N, 1.0, r)
        assert np.all(np.diff(u) < 0.0)  # strictly decreasing profile
        # flux identity r^(N-1) |u'|^(p-1) = r^N / N, the first integral of
        # the radial equation, checked with centered differences away from
        # the origin where u' has a fractional-power kink
        r = np.linspace(0.2, 1.0, 400)
        u = exact_radial(p, N, 1.0, r)
        rm = 0.5 * (r[1:] + r[:-1])
        du = np.diff(u) / np.diff(r)
        flux = rm ** (N - 1) * np.abs(du) ** (p - 1.0)
        assert np.allclose(flux, rm**N / N, rtol=1e-4)


def test_radial_oracle_p2():
    prob, ball = radial_problem(2.0, 2, 64)
    u, rep = solve(prob)
    assert rep.converged
    assert radial_error(u, 2.0, ball) < 0.01
    # solution vanishes outside the Dirichlet mask
    assert np.all(u.values[~ball.mask] == 0.0)
    assert np.all(u.values[ball.mask] >= 0.0)


def test_radial_oracle_degenerate_and_singular():
    for p in (3.0, 1.5):
        prob, ball = radial_problem(p, 2, 64)
        u, rep = solve(prob)
        assert rep.converged, p
        assert radial_error(u, p, ball) < 0.02, p


def test_energy_history_monotone():
    prob, _ = radial_problem(3.0, 2, 32)
    _, rep = solve(prob)
    hist = rep.energy_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))
    assert rep.final_energy == hist[-1]


def test_sparse_direct_crosscheck_p2():
    # p = 2 freezes the weights at 1, so the solver's fixed point must solve
    # the assembled linear system; compare against a direct factorization
    prob, ball = radial_problem(2.0, 2, 32)
    u, rep = solve(prob)
    assert rep.converged

    free = ball.mask
    n_free = int(free.sum())
    idx = -np.ones(prob.grid.shape, dtype=int)
    idx[free] = np.arange(n_free)

    # assemble A by applying the frozen-weight operator to unit vectors;
    # the factorization below is the independent half of the check
    from plapbench.plap_solver import _free_mask

    disc = _Discretization(_free_mask(prob), prob.grid.spacing)
    w = disc.linearize(np.zeros(disc.size), prob.p, prob.resolved_eps)[0]
    cols = []
    for j in range(n_free):
        e = np.zeros(prob.grid.shape)
        e[tuple(a[j] for a in np.nonzero(free))] = 1.0
        cols.append(_fine_op(disc, e, disc.faces(w))[free])
    A = sp.csc_matrix(np.column_stack(cols))
    b = prob.f.values[free]
    direct = spla.spsolve(A, b)
    assert float(np.max(np.abs(u.values[free] - direct))) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    n=st.integers(3, 8),
    center=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    radius=st.floats(0.4, 1.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_flux_operator_symmetric_and_tied_to_energy(N, n, center, radius, seed):
    # the flux form -sum_k diff(T_k G_k), probed on unit vectors, is a
    # symmetric matrix whose diagonal is diagonal(T), and its quadratic form
    # is the frozen energy (1/2) sum (w_f m2f + w_b m2b) of the reference's one_sided_sq
    grid = Grid(N, 1.0, n)
    free = ball_mask(grid, center[:N], radius).mask
    assume(free.any())
    disc = _Discretization(free, grid.spacing)
    rng = np.random.default_rng(seed)
    wf = rng.uniform(0.1, 10.0, free.shape)
    wb = rng.uniform(0.1, 10.0, free.shape)
    T = disc.faces([disc.bordered_copy(wf), disc.bordered_copy(wb)])
    cells = np.argwhere(free)
    A = np.empty((len(cells), len(cells)))
    for j, cell in enumerate(cells):
        e = np.zeros(free.shape)
        e[tuple(cell)] = 1.0
        A[:, j] = _fine_op(disc, e, T)[free]
    assert np.max(np.abs(A - A.T)) <= 1e-14 * np.max(np.abs(A))
    assert np.allclose(np.diag(A), disc.cells(disc.diagonal(T))[free], rtol=1e-14, atol=0.0)
    u = rng.standard_normal(free.shape) * free
    m2f, m2b = StridedDiscretization(free, grid.spacing).one_sided_sq(u)
    frozen = 0.5 * float(np.sum(wf * m2f + wb * m2b))
    assert float(np.sum(u * _fine_op(disc, u, T))) == pytest.approx(frozen, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    n=st.integers(6, 12),
    center=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
    p=st.floats(1.2, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(N=3, n=8, center=(0.0, 0.0, 0.125), p=1.5, seed=8)
def test_hessian_is_the_residuals_derivative_and_symmetric(N, n, center, p, seed):
    # on an off-centre ball, H v at u is the derivative of lagged's residual
    # A(u) u - f = grad E / h^N along v (a fourth-order central difference:
    # the second-order one's truncation error alone reached 1.1e-6 |H v| at
    # N = 3, n = 8, center (0, 0, 0.125), p = 1.5, seed 8), and
    # <H v, w> = <v, H w>; away from p = 2 the Kacanov operator is not it
    grid = Grid(N, 1.0, n)
    free = ball_mask(grid, center[:N], 0.8).mask
    assume(free.any() and p != 2.0)  # at p = 2 lagged forms no curvature: H is the linear operator
    ctx = _SolveContext(grid, free)
    bordered, cells = ctx.disc.bordered_copy, ctx.disc.cells
    eps = 1e-3 if p < 2.0 else 1e-6
    rng = np.random.default_rng(seed)
    u, v, w = (rng.standard_normal(ctx.free.shape) * ctx.free for _ in range(3))
    fv = np.zeros(ctx.disc.size)
    T, Q = ctx.lagged(bordered(u), fv, p, eps)[:2]
    Hv = cells(ctx.disc.hessian(bordered(v), T, Q))
    delta = 1e-6

    def residual(x):
        return cells(ctx.lagged(bordered(x), fv, p, eps)[-1])

    def jump(step):
        return residual(u + step * v) - residual(u - step * v)

    fd = (8.0 * jump(delta) - jump(2.0 * delta)) / (12.0 * delta)
    bound = 1e-6 * np.linalg.norm(Hv)
    assert np.linalg.norm(fd - Hv) <= bound
    if abs(p - 2.0) > 0.1:
        assert np.linalg.norm(fd - _fine_op(ctx.disc, v, T)) > 1e3 * bound
    Hw = cells(ctx.disc.hessian(bordered(w), T, Q))
    assert abs(float(np.sum(Hv * w)) - float(np.sum(v * Hw))) <= 1e-12 * np.linalg.norm(Hv) * np.linalg.norm(w)


def _same_bytes(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    data=st.data(),
    ball=st.booleans(),
    sink=st.booleans(),
    p=st.floats(1.2, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_the_strided_oracle_byte_for_byte(N, data, ball, sink, p, seed):
    # the bordered-layout kernels against the strided ones of tests/_oracles.py,
    # on odd and even boxes with ball or random masks, with and without a sink:
    # equal bytes, so signed zeros count too
    shape = tuple(data.draw(st.integers(2, 13 if N == 2 else 7)) for _ in range(N))
    rng = np.random.default_rng(seed)
    if ball:
        axes = np.meshgrid(*[(np.arange(n) + 0.5) / n * 2.0 - 1.0 - rng.uniform(-0.3, 0.3) for n in shape],
                           indexing="ij")
        free = sum(x * x for x in axes) < rng.uniform(0.3, 1.5) ** 2
    else:
        free = rng.random(shape) < rng.uniform(0.3, 1.0)
    assume(free.any())
    h = rng.uniform(0.05, 0.5)
    eps = 1e-3 if p < 2.0 else 1e-6
    disc, ref = _Discretization(free, h), StridedDiscretization(free, h)
    # the solver's vectors are bordered: the reference's go in and out through bordered_copy
    bordered = disc.bordered_copy
    # some gradients exactly zero, and a probe vector that is not zero off the free cells
    u = rng.standard_normal(shape) * (rng.random(shape) < 0.7) * free
    v = rng.standard_normal(shape)

    w, Q, density = disc.linearize(bordered(u), p, eps)
    rwf, rwb, rQ = ref.weights(u, p, eps)
    assert len(w) == len(Q.q) == 2  # forward, then backward
    assert _same_bytes(w[0], bordered(rwf)) and _same_bytes(w[1], bordered(rwb))
    assert _same_bytes(density, ref.energy_density(u, p, eps))
    assert Q.sign == rQ[0]
    for q, rq, side in zip(Q.q, rQ[1:], disc.sides):
        for k, faces_k in enumerate(side):
            cell_aligned = np.zeros(disc.size)
            cell_aligned[faces_k] = q[k]
            assert _same_bytes(disc.cells(cell_aligned), rq[k])
    T, rT = disc.faces(w), ref.faces(rwf, rwb)
    assert all(_same_bytes(disc.face_view(t, k), rt) for k, (t, rt) in enumerate(zip(T, rT)))

    S = rng.uniform(0.0, 2.0, shape) * free if sink else None
    Sb = bordered(S) if sink else None
    assert _same_bytes(disc.free_rows(disc.apply(bordered(v), T, Sb)), bordered(ref.apply(v, rT, S)))
    assert _same_bytes(disc.cells(disc.diagonal(T, Sb)), ref.diagonal(rT, S))
    assert _same_bytes(disc.hessian(bordered(v), T, Q), bordered(ref.hessian(v, rT, rQ)))

    coarse = rng.standard_normal([(n + 1) // 2 for n in shape])
    assert _same_bytes(_prolong(coarse, free.shape), strided_prolong(coarse, free.shape))
    # the cycle runs in float32 on both sides; the solver's returns +0 off the free cells
    cycle = _VCycle(disc, T)
    ref_cycle = StridedVCycle(ref, rT, plap_solver._CHEB_SCALE, plap_solver._CHEB_K, plap_solver._ALPHA,
                              plap_solver._DENSE_CELLS, np.float32)
    r = rng.standard_normal(shape) * free
    assert _same_bytes(cycle(bordered(r)), bordered(np.where(free, ref_cycle(r), 0.0)))
    x, its = _pcg(lambda w: disc.free_rows(disc.apply(w, T)), bordered(r), np.zeros(disc.size), cycle, 1e-6, 50)
    rx, rits = strided_pcg(lambda w: ref.apply(w, rT), r, np.zeros(shape), ref_cycle, 1e-6, 50)
    assert its == rits and _same_bytes(x, bordered(rx))


def _probe(op, form):
    """Matrix of a linear map on the bordered vectors of ``form``, restricted to the free cells."""
    free = form.free
    cells = np.argwhere(free)
    M = np.empty((len(cells), len(cells)))
    for j, cell in enumerate(cells):
        e = np.zeros(free.shape)
        e[tuple(cell)] = 1.0
        M[:, j] = form.cells(op(form.bordered_copy(e)))[free]
    return M


def _vcycle_in(dtype, disc, T):
    """The solver's V-cycle with every level in ``dtype``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plap_solver, "_CYCLE_DTYPE", dtype)
        return _VCycle(disc, T)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(2, 13), st.integers(2, 13)),
        st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    ),
    density=st.floats(0.3, 1.0),
    p=st.sampled_from((1.5, 2.0, 3.0, 5.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_vcycle_symmetric_positive_and_galerkin(shape, density, p, seed):
    # random masks (odd sizes, isolated cells) and lagged weights on a field
    # that vanishes on part of the box, so some gradients are exactly zero.
    # Symmetry and the Galerkin levels are checked on the float64 build of the
    # cycle; the float32 cycle the solver runs stays within a few float32
    # roundings of it (1.25 eps_32 of max |B| at worst in 800 random cases)
    rng = np.random.default_rng(seed)
    free = rng.random(shape) < density
    assume(free.any())
    disc = _Discretization(free, 0.1)
    u = rng.standard_normal(shape) * (rng.random(shape) < 0.5) * free
    T = disc.faces(disc.linearize(disc.bordered_copy(u), p, 1e-3 if p < 2.0 else 1e-6)[0])
    A = _probe(lambda x: disc.apply(x, T), disc)
    vcycle = _vcycle_in(np.float64, disc, T)
    B = _probe(vcycle, disc)
    assert np.max(np.abs(B - B.T)) <= 1e-13 * np.max(np.abs(B))
    assert np.min(np.linalg.eigvals(B @ A).real) > 0.0
    cycle32 = _VCycle(disc, T)
    B32 = _probe(cycle32, disc)
    eps32 = np.finfo(np.float32).eps
    assert np.max(np.abs(B32 - B)) <= 16 * eps32 * np.max(np.abs(B))
    assert np.min(np.linalg.eigvals(B32 @ A).real) > 0.0
    # the last level is solved by its stored float32 inverse: times the
    # level's Galerkin matrix (stored times 2^-exponent) it is I to float32
    # rounding, row by row, wherever that matrix with its rows scaled to unit
    # diagonal is well conditioned (every random case so far)
    G = np.ldexp(_galerkin(A, free, len(cycle32.levels)), -cycle32.exponent)
    X = cycle32.inverse.astype(np.float64)
    if np.linalg.cond(G / np.diagonal(G)[:, None], np.inf) <= 2.0**16:
        err = np.max(np.abs(X @ G - np.eye(len(G))), axis=1)
        assert np.all(err <= 8 * eps32 * np.max(np.abs(X) @ np.abs(G), axis=1))
    # the dense matrix of a form is its operator on the free cells
    assert np.max(np.abs(disc.matrix(T) - A)) <= 1e-13 * np.max(np.abs(A))
    if vcycle.levels:
        # level 1 is P^T A P for P = 1 on the free cells of each 2^N box,
        # stored times 2^-exponent like every level
        form, T0, S0, _ = vcycle.levels[0]
        Tc, Sc = plap_solver._coarsen(form, T0, S0)
        coarse = form.coarse
        fine_agg = [tuple(c) for c in np.argwhere(free) // 2]
        coarse_cells = [tuple(c) for c in np.argwhere(coarse.free)]
        assert set(coarse_cells) == set(fine_agg)
        P = np.array([[float(a == c) for c in coarse_cells] for a in fine_agg])
        Ac = _probe(lambda x: coarse.apply(x, Tc, Sc), coarse)
        assert np.max(np.abs(np.ldexp(Ac, vcycle.exponent) - P.T @ A @ P)) <= 1e-13 * np.max(np.abs(A))
        assert np.max(np.abs(coarse.matrix(Tc, Sc) - Ac)) <= 1e-13 * np.max(np.abs(Ac))


def _galerkin(A, free, depth):
    """P^T A P for P = 1 on the free cells of each 2^depth box, A on the free cells; coarse cells in C order."""
    aggregates = [tuple(c) for c in np.argwhere(free) // 2**depth]
    P = np.array([[float(a == c) for c in sorted(set(aggregates))] for a in aggregates])
    return P.T @ A @ P


def test_vcycle_finite_where_the_weights_vanish():
    # at eps = 0 and p > 2 the weights vanish where u is flat, and so do the
    # rows of A and the diagonal there: the cycle clamps its diagonal at
    # float32's smallest normal number, so a residual in the range of A (zero
    # on those rows) meets a finite smoothing weight, not 0 * inf
    free = np.ones((16, 16), dtype=bool)
    disc = _Discretization(free, 0.1)
    u = np.zeros(free.shape)
    u[:, 10:] = np.random.default_rng(2).standard_normal((16, 6))
    # and an interior island: u nonzero only inside a box, so the weights
    # vanish all around it and the island's block of the last level, the
    # dense one, has no sink: that level's matrix is singular
    island = np.zeros(free.shape)
    island[5:10, 4:9] = np.random.default_rng(4).standard_normal((5, 5))
    for u in (u, island):
        T = disc.faces(disc.linearize(disc.bordered_copy(u), 3.0, 0.0)[0])
        assert (disc.diagonal(T) == np.finfo(np.float64).tiny).any()
        cycle = _VCycle(disc, T)
        if u is island:
            G = _galerkin(_probe(lambda x: disc.apply(x, T), disc), free, len(cycle.levels))
            assert np.linalg.matrix_rank(G) < len(G)
        r = disc.free_rows(disc.apply(disc.bordered_copy(np.random.default_rng(3).standard_normal(free.shape)), T))
        z = cycle(r)
        assert np.all(np.isfinite(z)) and _dot(r, z) > 0.0


def test_small_free_region_takes_one_cg_iteration():
    # a free region of at most _DENSE_CELLS cells is the V-cycle's dense level
    # itself: at p = 2 the preconditioner is the operator's inverse up to
    # float32 rounding, and one CG iteration meets the certificate
    grid = Grid(2, 1.0, 10)
    ball = ball_mask(grid, (0.0, 0.0), 0.8)
    assert ball.count <= plap_solver._DENSE_CELLS
    f = bump_field(grid, draw_bump_params(np.random.default_rng(8), 2))
    _, rep = solve(DirichletProblem(grid, 2.0, f, tol=1e-6, domain=ball))
    assert rep.converged and (rep.iterations, rep.cg_iterations) == (1, 1)


@settings(max_examples=60, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    n=st.integers(2, 40),
    scale=st.sampled_from((1.0, 1e100, 1e-100)),
    seed=st.integers(0, 2**32 - 1),
)
@example(N=2, n=2, scale=1.0, seed=0).via("the smallest box")
@example(N=3, n=40, scale=1e100, seed=1).via("the largest box, large data")
@example(N=3, n=39, scale=1e-100, seed=2).via("an odd box, small data")
def test_sine_inverse_inverts_the_full_box_operator(N, n, scale, seed):
    # on a box whose cells are all free the unit-weight operator is
    # diagonalised by the type-II sine transform, so the p = 2 preconditioner
    # is its inverse up to float64 rounding, odd n and data far from 1 included
    grid = Grid(N, 2.0, n)
    ctx = _SolveContext(grid, np.ones(grid.shape, dtype=bool))
    disc = ctx.disc
    assert isinstance(ctx.unit_precond, plap_solver._SineInverse)
    f = disc.bordered_copy(np.random.default_rng(seed).standard_normal(grid.shape) * scale)
    x = ctx.unit_precond(f)
    assert not np.signbit(x[disc.outside]).any() and not x[disc.outside].any()
    back = disc.free_rows(disc.apply(x, ctx.unit_faces))
    assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


def _counting_vcycles(monkeypatch) -> list:
    built = []

    class CountingVCycle(plap_solver._VCycle):
        def __init__(self, disc, T):
            built.append(len(T))
            super().__init__(disc, T)

    monkeypatch.setattr(plap_solver, "_VCycle", CountingVCycle)
    return built


@pytest.mark.parametrize("N, n", [(2, 64), (3, 24)])
def test_full_box_p2_solve_takes_one_cg_iteration(monkeypatch, N, n):
    # the exact inverse makes the first CG iterate the solution, which the
    # certificate accepts, and no V-cycle is built (11 and 13 CG iterations with one)
    built = _counting_vcycles(monkeypatch)
    grid = Grid(N, 2.0, n)
    rng = np.random.default_rng(20 + N)
    prob = DirichletProblem(grid, 2.0, bump_field(grid, draw_bump_params(rng, N)), tol=1e-10)
    ctx = _SolveContext(grid, np.ones(grid.shape, dtype=bool))
    for initial in (None, bump_field(grid, draw_bump_params(rng, N))):
        u, rep = solve(prob, initial=initial)
        assert rep.converged and (rep.iterations, rep.cg_iterations) == (1, 1), (initial is None, rep)
        assert ctx.minimize(prob, initial).converged
    assert built == [] and ctx.work.cycle_builds == 0 and ctx.work.cg_iterations == 2


def test_ball_p2_solve_still_builds_one_vcycle(monkeypatch):
    # a domain mask that leaves out a cell keeps the V-cycle, built once per context
    built = _counting_vcycles(monkeypatch)
    grid = Grid(2, 2.0, 32)
    ball = ball_mask(grid, (0.0, 0.0), 0.9)
    f = bump_field(grid, draw_bump_params(np.random.default_rng(4), 2))
    _, rep = solve(DirichletProblem(grid, 2.0, f, tol=1e-10, domain=ball))
    assert rep.converged and rep.iterations == 1 and rep.cg_iterations > 1
    assert built == [2]


def test_cg_work_flat_in_n():
    # the multigrid-preconditioned CG needs a bounded number of iterations
    # per outer step however fine the grid (Jacobi-PCG grows like n)
    bumps = [BumpParams((0.3, -0.2), 0.2, 2.0), BumpParams((-0.4, 0.1), 0.1, 1.0)]
    for n in (32, 64, 128):
        grid = Grid(2, 2.0, n)
        _, rep = solve(DirichletProblem(grid, 2.5, bump_field(grid, bumps), tol=1e-10))
        assert rep.converged, n
        assert rep.cg_iterations / rep.iterations <= 20.0, (n, rep.cg_iterations, rep.iterations)


def test_newton_halves_the_outer_steps():
    # the 64^2 unit ball at f = 1 and tol 1e-9: the lagged-diffusivity loop
    # took 90/31/18/43 outer steps and 359/123/39/102 CG iterations at
    # p = 1.2/1.5/3/6; Newton steps take at most half the steps (at p = 1.2
    # at most 20, where they take 8), and no more CG iterations.  The energy
    # never rises, and the report's final energy is the history's last
    grid = Grid(2, 1.0, 64)
    ball = ball_mask(grid, (0.0, 0.0), 1.0)
    f = ScalarField(grid, np.ones(grid.shape))
    for p, outer, cg in ((1.2, 20, 359), (1.5, 15, 123), (3.0, 9, 39), (6.0, 21, 102)):
        _, rep = solve(DirichletProblem(grid, p, f, tol=1e-9, domain=ball))
        assert rep.converged, p
        assert rep.iterations <= outer, (p, rep.iterations)
        assert rep.cg_iterations <= cg, (p, rep.cg_iterations)
        hist = rep.energy_history
        assert all(b <= a for a, b in zip(hist, hist[1:])), p
        assert rep.final_energy == hist[-1], p


def test_large_p_line_step_backs_off_a_non_finite_trial():
    # at p = 20 a Newton step can be so long that (|g|^2 + eps^2)^9 leaves
    # float64's range at its full length; the line step backs off to s/8 until
    # the slope and the energy density there are finite, and the solve
    # converges to the radial solution (sup 0.92; error 0.0225 measured)
    prob, ball = radial_problem(20.0, 2, 64, tol=1e-9)
    u, rep = solve(prob)
    assert rep.converged
    assert radial_error(u, 20.0, ball) < 0.03
    hist = rep.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("p, value, outer, cg", [(2.0, 1e39, 1, 11), (2.0, 1e100, 1, 11), (3.0, 1e80, 7, 23)])
def test_large_data_solves_keep_their_work(p, value, outer, cg):
    # data far outside float32's range: the V-cycle scales its weights and
    # residuals by powers of two, so it sees numbers near 1 and the solve takes
    # the float64 cycle's outer steps and CG iterations (64^2 unit ball, tol 1e-9)
    grid = Grid(2, 1.0, 64)
    f = ScalarField(grid, np.full(grid.shape, value))
    _, rep = solve(DirichletProblem(grid, p, f, tol=1e-9, domain=ball_mask(grid, (0.0, 0.0), 1.0)))
    assert rep.converged
    assert (rep.iterations, rep.cg_iterations) == (outer, cg)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_hessian_breakdown_falls_back_to_kacanov(monkeypatch, p):
    # a Newton step whose CG breaks down takes the lagged-diffusivity step
    # instead; forced on every step, the solve still converges to the answer
    prob, _ = radial_problem(p, 2, 32, tol=1e-9)
    u_newton, _ = solve(prob)
    calls = {"hessian": 0, "kacanov": 0}
    pcg = plap_solver._pcg

    def breaking_pcg(apply_A, *args):
        # the Newton step's operator is partial(disc.hessian, T=..., Q=...)
        if getattr(getattr(apply_A, "func", None), "__func__", None) is plap_solver._Discretization.hessian:
            calls["hessian"] += 1
            raise SolverDivergenceError("forced breakdown")
        calls["kacanov"] += 1
        return pcg(apply_A, *args)

    monkeypatch.setattr(plap_solver, "_pcg", breaking_pcg)
    u, rep = solve(prob)
    assert rep.converged
    # every step tried Newton first, but the unit-weight seed step at p > 2
    assert calls["kacanov"] == rep.iterations
    assert calls["hessian"] == rep.iterations - (p > 2.0)
    assert float(np.max(np.abs(u.values - u_newton.values))) < 1e-6


@settings(max_examples=15, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    center=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
    p=st.floats(1.2, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_newton_energy_never_rises(N, center, p, seed):
    # the line step keeps each Newton step downhill: it keeps the full step
    # when the slope there is not positive, or small with an Armijo decrease,
    # and takes the secant otherwise.  On an off-centre ball with bump data
    # the energy falls strictly at every step but the last, whose drop may
    # sink below the rounding of the energy sum, and the converged solve
    # meets the residual certificate
    grid = Grid(N, 1.0, 20 if N == 2 else 10)
    ball = ball_mask(grid, center[:N], 0.8)
    f = bump_field(grid, draw_bump_params(np.random.default_rng(seed), N))
    prob = DirichletProblem(grid, p, f, tol=1e-9, domain=ball)
    u, rep = solve(prob)
    assert rep.converged and _certified(u, prob, ball.mask)
    hist = rep.energy_history
    assert all(b < a for a, b in zip(hist[:-1], hist[1:-1]))
    assert hist[-1] <= hist[-2] + 1e-14 * abs(hist[-2])


def test_cold_ball_p3_still_takes_the_secant():
    # on the 64^2 unit ball at p = 3 one line step falls short of its full
    # step's slope test and re-linearizes at the secant zero: the solve forms
    # one linearization at its start, one per outer step and one more
    prob, ball = radial_problem(3.0, 2, 64, tol=1e-10)
    ctx = _SolveContext(prob.grid, ball.mask.copy())
    res = ctx.minimize(prob)
    assert res.converged
    outer = len(res.energy_history) - 1
    assert ctx.work.linearizations == outer + 2
    assert ctx.work.cycle_builds == outer


def _certified(u, prob, free):
    # the residual certificate recomputed on the full grid with the free mask
    disc = _Discretization(free, prob.grid.spacing)
    ub = disc.bordered_copy(u.values)
    T = disc.faces(disc.linearize(ub, prob.p, prob.resolved_eps)[0])
    r = (disc.cells(disc.apply(ub, T)) - prob.f.values) * free
    f = prob.f.values * free
    hvol = prob.grid.cell_volume
    return math.sqrt(np.sum(r * r) * hvol) <= prob.tol * (1.0 + math.sqrt(np.sum(f * f) * hvol))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(12, 24),
    p=st.sampled_from((1.5, 2.0, 2.5, 3.0, 4.0)),
    tol=st.sampled_from((1e-6, 1e-9)),
    seed=st.integers(0, 2**32 - 1),
)
def test_converged_meets_residual_certificate(n, p, tol, seed):
    # a converged report is a residual certificate, recomputed here on the
    # full grid: ||A(u) u - f||_{L2} <= tol (1 + ||f||_{L2})
    grid = Grid(2, 2.0, n)
    f = bump_field(grid, draw_bump_params(np.random.default_rng(seed), 2))
    prob = DirichletProblem(grid, p, f, tol=tol)
    u, rep = solve(prob)
    if rep.converged:
        assert _certified(u, prob, np.ones(grid.shape, dtype=bool))
    # the energy never increases; near the minimizer its changes fall below
    # the rounding of the energy sum, which a few ulps of |E| cover
    hist = rep.energy_history
    assert all(b <= a + 1e-14 * abs(a) for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("N, n, ball", [(2, 32, False), (3, 24, True)])
def test_p2_solve_is_one_outer_step(N, n, ball):
    # at p = 2 the weights are 1 whatever u is: one CG run meets the
    # certificate, from a zero start and from a warm start alike
    grid = Grid(N, 2.0, n)
    domain = ball_mask(grid, (0.0,) * N, 1.0) if ball else None
    free = domain.mask if ball else np.ones(grid.shape, dtype=bool)
    rng = np.random.default_rng(7 + N)
    warm = bump_field(grid, draw_bump_params(rng, N))
    for tol in (1e-6, 1e-10):
        f = bump_field(grid, draw_bump_params(rng, N))
        prob = DirichletProblem(grid, 2.0, f, tol=tol, domain=domain)
        for initial in (None, warm):
            u, rep = solve(prob, initial=initial)
            assert rep.converged and rep.iterations == 1, (tol, initial is None, rep.iterations)
            assert _certified(u, prob, free)
        warm = u


def test_kept_context_solves_bit_identical():
    # solves through one kept context equal solves that each build their own,
    # bit for bit, whatever ran on the context before.  Every p != 2 solve here
    # is the first warm one at its p, so none takes up a kept V-cycle (that
    # changes the preconditioner of the next warm solve's first outer step:
    # test_warm_start_reuses_the_linearization_exactly)
    grid = Grid(2, 2.0, 24)
    domain = ball_mask(grid, (0.1, -0.2), 0.9)
    ctx = _SolveContext(grid, domain.mask.copy())
    rng = np.random.default_rng(3)
    warm = None
    for p in (2.0, 2.5, 2.0, 1.5, 2.0):
        f = bump_field(grid, draw_bump_params(rng, 2))
        prob = DirichletProblem(grid, p, f, tol=1e-9, domain=domain)
        for initial in (None, warm):
            cg_before = ctx.work.cg_iterations
            kept = ctx.minimize(prob, initial)
            own = _SolveContext(grid, domain.mask.copy()).minimize(prob, initial)
            u, rep = solve(prob, initial)
            assert np.array_equal(ctx.values(kept), ctx.values(own)) and np.array_equal(ctx.values(kept), u.values)
            assert kept.energy_history == own.energy_history == rep.energy_history
            assert (len(kept.energy_history) - 1, ctx.work.cg_iterations - cg_before, kept.converged) == (
                rep.iterations, rep.cg_iterations, rep.converged)
        warm = ScalarField(grid, ctx.values(kept))


def test_warm_start_reuses_the_linearization_exactly(monkeypatch):
    # a warm p != 2 solve keeps the iterate it returned and what lagged formed
    # there.  At that point, bytes-equal, lagged takes them up: T, Q, the
    # density and the residual equal a fresh context's byte for byte, and no
    # weights are computed.  One ulp in u, another p or another eps recompute.
    # The next warm solve also takes up the kept V-cycle for its first step
    grid = Grid(2, 2.0, 24)
    domain = ball_mask(grid, (0.1, -0.2), 0.9)
    rng = np.random.default_rng(13)
    fields = [bump_field(grid, draw_bump_params(rng, 2)) for _ in range(3)]
    p, eps = 2.5, 1e-6
    problems = [DirichletProblem(grid, p, f, tol=1e-9, domain=domain) for f in fields]
    ctx = _SolveContext(grid, domain.mask.copy())
    cold = ctx.minimize(problems[0])
    assert not ctx.kept  # cold solves keep nothing
    warm = ctx.minimize(problems[1], ScalarField(grid, ctx.values(cold)))
    assert warm.converged and list(ctx.kept) == [(p, eps)]
    u = ctx.vector(ScalarField(grid, ctx.values(warm)))
    assert _same_bytes(u, ctx.kept[p, eps].u)

    fv = ctx.vector(fields[2])
    fresh = _SolveContext(grid, domain.mask.copy()).lagged(u, fv, p, eps)
    calls = []  # the point, p and eps of every weight evaluation
    linearize = _Discretization.linearize

    def counted(self, vals, p, eps):
        calls.append((vals.copy(), p, eps))
        return linearize(self, vals, p, eps)

    monkeypatch.setattr(_Discretization, "linearize", counted)
    at = ctx.lagged(u, fv, p, eps)
    assert calls == []
    assert all(_same_bytes(a, b) for a, b in zip(at.T, fresh.T))
    assert at.Q.sign == fresh.Q.sign
    assert all(_same_bytes(a, b) for q, fq in zip(at.Q.q, fresh.Q.q) for a, b in zip(q, fq))
    assert _same_bytes(at.density, fresh.density) and _same_bytes(at.r, fresh.r)
    moved = u.copy()
    j = int(np.flatnonzero(u)[0])
    moved[j] = np.nextafter(moved[j], np.inf)
    for args in ((moved, fv, p, eps), (u, fv, 3.0, eps), (u, fv, p, 2.0 * eps)):
        ctx.lagged(*args)
    assert [call[1:] for call in calls] == [(p, eps), (3.0, eps), (p, 2.0 * eps)]

    # the next warm solve from the kept point: the same first energy as a
    # fresh context's, no weights computed at its start and no V-cycle built
    # for its first outer step
    initial = ScalarField(grid, ctx.values(warm))
    own_ctx = _SolveContext(grid, domain.mask.copy())
    own = own_ctx.minimize(problems[2], initial)
    calls.clear()
    before = dataclasses.replace(ctx.work)
    again = ctx.minimize(problems[2], initial)
    assert again.converged and own.converged
    assert again.energy_history[0] == own.energy_history[0]
    assert len(calls) == ctx.work.linearizations - before.linearizations
    assert not any(_same_bytes(vals, u) for vals, _, _ in calls)
    assert (ctx.work.cycle_builds - before.cycle_builds, own_ctx.work.cycle_builds) == (
        len(again.energy_history) - 2, len(own.energy_history) - 1)


def _energy(ctx, u, fv, prob):
    """E(u) for bordered u and f values on a solver context, from the density that ``lagged`` forms at u."""
    return plap_solver._energy(u, fv, ctx.grid.cell_volume, ctx.lagged(u, fv, prob.p, prob.resolved_eps).density)


def test_energy_history_is_each_iterates_energy():
    # for p != 2 each energy in the history is formed from the squared magnitudes
    # that the weights at the accepted iterate take; it equals the energy
    # recomputed from that iterate on a fresh context, byte for byte.  A solve
    # cut at k steps stops at the full solve's k-th iterate
    grid = Grid(2, 2.0, 24)
    ball = ball_mask(grid, (0.1, -0.2), 0.9)
    f = bump_field(grid, draw_bump_params(np.random.default_rng(11), 2))
    prob = DirichletProblem(grid, 3.0, f, tol=1e-10, domain=ball)
    ctx = _SolveContext(grid, ball.mask.copy())
    bordered = ctx.disc.bordered_copy
    fv = bordered(np.where(ctx.free, f.values[ctx.crop], 0.0))
    fresh = _SolveContext(grid, ball.mask.copy())
    whole = ctx.minimize(prob)
    outer = len(whole.energy_history) - 1
    assert whole.converged and outer >= 3
    assert _same_bytes(whole.energy_history[0], _energy(fresh, np.zeros(fresh.disc.size), fv, prob))
    for k in range(1, outer + 1):
        cut = ctx.minimize(dataclasses.replace(prob, max_iter=k))
        assert cut.energy_history == whole.energy_history[: k + 1]
        assert _same_bytes(cut.energy_history[-1], _energy(fresh, bordered(ctx.values(cut)[ctx.crop]), fv, prob))


@settings(max_examples=30, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    data=st.data(),
    ball=st.booleans(),
    warm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_p2_energy_history_is_the_reference_energy(N, data, ball, warm, seed):
    # at p = 2 lagged reads the density off its apply, (1/2) <u, A u>; every
    # energy in the history equals the reference's h^N (energy_density(u) -
    # <f, u>) at its iterate, relative to the larger of the two terms, on ball
    # and random masks, from a zero and from a warm start
    n = data.draw(st.integers(4, 16 if N == 2 else 8))
    grid = Grid(N, 1.0, n)
    rng = np.random.default_rng(seed)
    if ball:
        domain = ball_mask(grid, tuple(rng.uniform(-0.3, 0.3, N)), rng.uniform(0.3, 1.2))
    else:
        mask = rng.random(grid.shape) < rng.uniform(0.3, 1.0)
        domain = Region(grid, mask)
    assume(domain.count > 0)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    initial = ScalarField(grid, rng.standard_normal(grid.shape)) if warm else None
    prob = DirichletProblem(grid, 2.0, f, tol=1e-10, domain=domain)
    ctx = _SolveContext(grid, domain.mask.copy())
    iterates = [ctx.vector(initial) if warm else np.zeros(ctx.disc.size)]
    line_step = plap_solver._line_step

    def recorded(*args):
        v, at = line_step(*args)
        iterates.append(v.copy())
        return v, at

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plap_solver, "_line_step", recorded)
        res = ctx.minimize(prob, initial)
    assert res.converged and len(res.energy_history) == len(iterates)
    ref = StridedDiscretization(ctx.free, grid.spacing)
    fc = np.where(ctx.free, f.values[ctx.crop], 0.0)
    for energy, ub in zip(res.energy_history, iterates):
        u = ctx.disc.cells(ub)
        density, work = ref.energy_density(u, 2.0, prob.resolved_eps), float(np.sum(fc * u))
        expected = grid.cell_volume * (density - work)
        assert abs(energy - expected) <= 1e-12 * grid.cell_volume * (abs(density) + abs(work))


def test_unit_weight_operators_kept_for_p2_solves_only(monkeypatch):
    # a kept context builds the unit-weight V-cycle once for all its p = 2
    # solves; the seed step of a cold p > 2 solve builds its own and keeps none
    built = _counting_vcycles(monkeypatch)
    grid = Grid(2, 2.0, 24)
    ball = ball_mask(grid, (0.0, 0.0), 0.9)
    rng = np.random.default_rng(5)
    ctx = _SolveContext(grid, ball.mask.copy())
    for _ in range(3):
        f = bump_field(grid, draw_bump_params(rng, 2))
        assert ctx.minimize(DirichletProblem(grid, 2.0, f, tol=1e-9, domain=ball)).converged
    assert len(built) == 1
    cold = _SolveContext(grid, ball.mask.copy())
    res = cold.minimize(DirichletProblem(grid, 3.0, f, tol=1e-9, domain=ball))
    outer = len(res.energy_history) - 1
    assert res.converged and len(built) == 1 + outer
    assert "unit_faces" not in vars(cold) and "unit_precond" not in vars(cold)


def test_context_refuses_another_grid_or_mask():
    grid = Grid(2, 2.0, 16)
    ball = ball_mask(grid, (0.0, 0.0), 0.8)
    ctx = _SolveContext(grid, ball.mask.copy())
    f = ScalarField(grid, np.ones(grid.shape))
    others = [
        DirichletProblem(grid, 2.0, f),
        DirichletProblem(grid, 2.0, f, domain=ball_mask(grid, (0.0, 0.0), 0.7)),
        DirichletProblem(Grid(2, 2.0, 17), 2.0, ScalarField(Grid(2, 2.0, 17), np.ones((17, 17)))),
    ]
    for prob in others:
        with pytest.raises(ValueError):
            ctx.minimize(prob)
    assert ctx.minimize(DirichletProblem(grid, 2.0, f, domain=ball)).converged
    # a full-box context: a problem without a domain, or with a domain whose mask is all True, fits it
    box = _SolveContext(grid, np.ones(grid.shape, dtype=bool))
    with pytest.raises(ValueError):
        box.minimize(DirichletProblem(grid, 2.0, f, domain=ball))
    assert box.minimize(DirichletProblem(grid, 2.0, f)).converged
    everywhere = Region(grid, np.ones(grid.shape, dtype=bool))
    assert box.minimize(DirichletProblem(grid, 2.0, f, domain=everywhere)).converged
    with pytest.raises(ValueError):
        ctx.minimize(DirichletProblem(grid, 2.0, f, domain=everywhere))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_solve_frees_an_unheld_problems_f_before_its_first_cg_run(monkeypatch, p):
    # solve's memory contract: a problem built in the call has its full-grid f
    # freed once f is on the solver's crop, before the first operator exists
    grid = Grid(2, 2.0, 24)
    ball = ball_mask(grid, (0.0, 0.0), 0.9)
    refs, alive = [], []
    pcg = plap_solver._pcg

    def problem():
        f = ScalarField(grid, np.where(ball.mask, 1.0, 0.0))
        refs.append(weakref.ref(f.values))
        return DirichletProblem(grid, p, f, tol=1e-9, domain=ball)

    def spy(*args, **kwargs):
        alive.append(refs[0]() is not None)
        return pcg(*args, **kwargs)

    monkeypatch.setattr(plap_solver, "_pcg", spy)
    _, rep = solve(problem())
    assert rep.converged
    assert alive[0] is False


def test_local_minimality_nonlinear():
    # for p != 2 the converged iterate should not be improvable by small
    # moves along the standard test family
    prob, _ = radial_problem(3.0, 2, 32)
    u, rep = solve(prob)
    assert rep.converged
    ctx = _SolveContext(prob.grid, prob.domain.mask.copy())

    def energy(u, prob):
        return _energy(ctx, ctx.vector(u), ctx.vector(prob.f), prob)

    E0 = energy(u, prob)
    for win, phi in _test_functions(prob.grid, prob.domain.mask):
        for eps in (1e-3, -1e-3):
            trial = u.values.copy()
            trial[win] += eps * phi
            trial = ScalarField(prob.grid, trial)
            assert energy(trial, prob) >= E0 - 1e-12


def test_weak_residual_small_when_converged():
    prob, _ = radial_problem(2.0, 2, 32)
    u, rep = solve(prob)
    assert rep.weak_residual == weak_residual(u, prob)
    assert rep.weak_residual < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    n=st.integers(4, 24),
    center=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    radius=st.one_of(st.none(), st.floats(0.3, 2.5)),
    p=st.floats(1.2, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
# a ball filling a coarse box: the larger cutoff reaches past the box's edge
@example(N=3, n=5, center=(0.0, 0.0, 1.0), radius=2.0, p=2.0, seed=0)
def test_weak_residual_on_windows_equals_the_whole_grid(N, n, center, radius, p, seed):
    # each test function is evaluated on a window around its support; the
    # weak residual equals the one with every function on the whole grid, up
    # to the summation order (balls cut by the box edge, and the whole box)
    grid = Grid(N, 2.0, n)
    mask = np.ones(grid.shape, dtype=bool) if radius is None else ball_mask(grid, center[:N], radius).mask
    assume(mask.any())
    box = plap_solver._bbox_slices(mask)
    r = np.random.default_rng(seed).standard_normal(grid.shape) * mask
    got = plap_solver._weak_residual(grid, mask, r[box], p)
    assert got == pytest.approx(full_grid_weak_residual(grid, mask, r, p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("N, n_c", [(2, 32), (3, 14)])
def test_solve_weak_residual_is_the_public_one(N, n_c, p):
    # solve pairs the residual of its last outer step with the test functions,
    # weak_residual forms that residual afresh from u; the bits must agree, also
    # where f is nonzero on constrained cells, which both must ignore
    grid = Grid(N, 2.0, n_c)
    ball = ball_mask(grid, (0.2,) + (-0.1,) * (N - 1), 1.1)
    rng = np.random.default_rng(11)
    f = ScalarField(grid, np.where(ball.mask, 1.0, 0.0) + rng.uniform(-1.0, 1.0, grid.shape))
    prob = DirichletProblem(grid, p, f, tol=1e-10, domain=ball)
    u, rep = solve(prob)
    assert rep.converged
    assert rep.weak_residual == weak_residual(u, prob)
    assert 0.0 < rep.weak_residual < 1e-8


def test_stationarity_driven_solve():
    prob, _ = radial_problem(3.0, 2, 32, tol=1e-9)
    u, rep = solve(prob)
    assert rep.converged
    # restarting from the answer terminates immediately
    u2, rep2 = solve(prob, initial=u)
    assert rep2.converged and rep2.iterations <= 2
    assert float(np.max(np.abs(u2.values - u.values))) < 1e-9


def test_warm_start_converges_fast():
    prob, _ = radial_problem(3.0, 2, 32)
    u, rep = solve(prob)
    _, rep2 = solve(prob, initial=u)
    assert rep2.converged
    assert rep2.iterations <= 2
    assert rep2.iterations < rep.iterations


def test_problem_validation():
    g = Grid(2, 1.0, 16)
    f = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        DirichletProblem(g, 1.0, f)
    with pytest.raises(ValueError):
        DirichletProblem(g, 2.0, f, tol=0.0)
    with pytest.raises(ValueError):
        DirichletProblem(g, 1.5, f, eps_reg=0.0)  # singular case needs eps > 0
    assert DirichletProblem(g, 2.0, f, eps_reg=0.0).resolved_eps == 0.0
    assert DirichletProblem(g, 1.5, f).resolved_eps == 1e-3
    assert DirichletProblem(g, 2.5, f).resolved_eps == 1e-6
    empty = ball_mask(g, (0.9, 0.9), 0.01)
    if empty.count == 0:
        with pytest.raises(ValueError):
            DirichletProblem(g, 2.0, f, domain=empty)


def test_solution_symmetry_group():
    # the symmetrized one-sided energy is exactly invariant under axis
    # transposition and point reflection; a single-axis flip is only an
    # asymptotic symmetry for p != 2 (see the solver module docstring)
    prob, _ = radial_problem(2.5, 2, 32)
    u, _ = solve(prob)
    v = u.values
    assert float(np.max(np.abs(v - v.T))) < 1e-12  # x <-> y swap
    assert float(np.max(np.abs(v - v[::-1, ::-1]))) < 1e-12  # x -> -x, y -> -y
    flip_coarse = float(np.max(np.abs(v - v[::-1, :])))
    assert 0.0 < flip_coarse < 5e-3

    prob_fine, _ = radial_problem(2.5, 2, 64)
    u_fine, _ = solve(prob_fine)
    vf = u_fine.values
    flip_fine = float(np.max(np.abs(vf - vf[::-1, :])))
    assert flip_fine < flip_coarse  # discretization artifact, shrinks with h

    # at p = 2 the density is linear in the squared differences and the
    # single-axis flip becomes an exact symmetry
    prob2, _ = radial_problem(2.0, 2, 32)
    u2, _ = solve(prob2)
    v2 = u2.values
    assert float(np.max(np.abs(v2 - v2[::-1, :]))) < 1e-13


def test_report_json_dict():
    prob, _ = radial_problem(2.0, 2, 16)
    _, rep = solve(prob)
    d = json.loads(canonical_json(rep))
    assert set(d) == {
        "iterations",
        "final_energy",
        "energy_history",
        "weak_residual",
        "converged",
        "cg_iterations",
    }
    assert d["converged"] is True
