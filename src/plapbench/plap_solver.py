"""Regularized p-Laplacian Dirichlet solver on the truncated box: the iteration on ``discretization``'s stencil.

``solve`` minimizes the regularized energy of ``discretization`` for
-div(|grad u|^{p-2} grad u) = f with zero Dirichlet data off the free cells
of a ``DirichletProblem`` (the whole box, or a cell mask such as a ball),
and reports what it did (``SolveReport``).  Its one stopping rule is the
residual certificate ||A(u) u - f||_{L2} <= tol (1 + ||f||_{L2}).
``weak_residual`` pairs a solution's residual with a family of test
functions.  Where each part lives:

- ``_SolveContext``: what every solve on one grid and free-cell mask
  shares; its ``load`` puts f and the warm start on the crop to the free
  bounding box, and its ``iterate`` runs the outer iteration, Newton steps
  for p != 2 and one CG run at p = 2, each moved along by ``_line_step``.
  ``SolverWork`` counts its work.
- ``_pcg``: the preconditioned conjugate gradients of every outer step.
- ``_VCycle`` (with ``_coarsen``, ``_coarse_residual``, ``_smooth``,
  ``_prolong`` and ``_dense_inverse``): the aggregation multigrid
  preconditioner of the lagged-diffusivity operator, run in float32.
- ``_SineInverse``: the exact inverse that preconditions a p = 2 solve on a
  full box.
- ``exact_radial``: the radial solution of -Delta_p u = 1 on a ball, an exact reference.

Every solver vector lives in the bordered layout of
``discretization._FluxForm`` and is +0 off the free cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .discretization import _Curvature, _Discretization, _FluxForm, _axslice, _pair_sums, _side_squares
from .field import Grid, Region, ScalarField, _bbox_slices, _cutoff_values, _mean_power, _require_same_grid


class SolverDivergenceError(RuntimeError):
    """Raised when the iteration produces non-finite values."""


class AnalyticFailure(RuntimeError):
    """Raised when inputs or iterates fail an analytic precondition or invariant (CLI exit 1)."""


@dataclass(frozen=True)
class DirichletProblem:
    grid: Grid
    p: float
    f: ScalarField
    eps_reg: float | None = None  # None -> policy: 1e-6 for p >= 2, 1e-3 for p < 2
    tol: float = 1e-8
    max_iter: int = 100
    domain: Region | None = None  # None -> whole box; else zero data outside the mask

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        _require_same_grid(self, self.f)
        if self.domain is not None:
            _require_same_grid(self, self.domain)
            if self.domain.count == 0:
                raise ValueError("domain mask has no free cells")
        eps = self.resolved_eps
        if eps < 0.0:
            raise ValueError("eps_reg must be >= 0")
        if self.p < 2.0 and not eps > 0.0:
            raise ValueError("eps_reg must be positive for p < 2")

    @property
    def resolved_eps(self) -> float:
        if self.eps_reg is not None:
            return self.eps_reg
        return 1e-6 if self.p >= 2.0 else 1e-3


@dataclass
class SolverWork:
    """What a solver context's solves did, counted where it happens."""

    solves: int = 0
    outer_steps: int = 0
    cg_iterations: int = 0
    cycle_builds: int = 0  # V-cycles built, a unit-weight one included; the exact full-box inverse is not one
    linearizations: int = 0  # lagged weights computed (p != 2), not those taken up from the last warm solve


@dataclass
class SolveReport:
    iterations: int
    final_energy: float
    energy_history: list[float]
    weak_residual: float
    converged: bool
    cg_iterations: int = 0


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # pairwise summation; avoids BLAS so the reduction order is fixed
    return float(np.sum(a * b))


def _energy(u: np.ndarray, fvals: np.ndarray, h_vol: float, density: float) -> float:
    """E(u) for bordered u and f values, from the energy density sum at u that ``_SolveContext.lagged`` forms."""
    val = h_vol * (density - _dot(fvals, u))
    if not np.isfinite(val):
        raise SolverDivergenceError("non-finite energy")
    return val


# V(2,2) cycle: each level smooths before and after its coarse correction
# with the degree-2 Chebyshev polynomial in D^-1 A on [_CHEB_LOW, 2]
# (Adams, Brezina, Hu & Tuminaro, J. Comput. Phys. 188, 2003).  Gershgorin
# puts the spectrum of D^-1 A of a weighted flux form with a sink in (0, 2],
# so no eigenvalue estimate is needed; of the lower ends 0.05-0.3 times the
# top, 0.3 took the fewest CG iterations.  The polynomial is
# p(l) = _CHEB_SCALE (2 - l / theta), theta the interval's centre, so a
# smoothing step from the residual r0 is 2 t - _CHEB_K w A t with
# t = w r0 and w = _CHEB_SCALE D^-1 (``_smooth``).  The coarse step is scaled
# by _ALPHA because the piecewise-constant Galerkin operator is about twice too
# stiff for a Laplacian (an over-corrected coarse step: Notay, ETNA 37, 2010;
# Braess, Computing 55, 1995).  Coarsening stops at the first level with at most
# _DENSE_CELLS free cells, which is solved exactly by its stored inverse: at
# that size LAPACK's inverse has the same bits whatever OPENBLAS_NUM_THREADS
# is, and one product costs less than one smoothing step
_CHEB_LOW = 0.3 * 2.0
_CHEB_THETA = 1.0 + 0.5 * _CHEB_LOW
_CHEB_SCALE = 2.0 * _CHEB_THETA / (2.0 * _CHEB_THETA**2 - (1.0 - 0.5 * _CHEB_LOW) ** 2)
_CHEB_K = 1.0 / (_CHEB_SCALE * _CHEB_THETA)
_ALPHA = 1.8
_DENSE_CELLS = 64
# the V-cycle's arithmetic: a preconditioner need only be SPD and close to the
# inverse, and the cycle's kernels stream memory, so half the bytes pay
# (Kronbichler & Ljungkvist, ACM TOPC 6, 2019).  The CG, the operator and
# Hessian applies, the residuals, the certificate and every artifact stay float64
_CYCLE_DTYPE = np.float32
# forcing term: each outer step's CG solve stops once its residual is a
# fraction eta of the nonlinear residual at u, so the linear solves are only
# as tight as the outer residual needs.  At p = 2 eta is _ETA, or what half the
# certificate needs; for p != 2 it is Eisenstat and Walker's choice 2,
# 0.9 (||r_k||/||r_{k-1}||)^2 capped at _ETA, no tighter than half the
# certificate needs and no tighter than _ETA_MIN (SIAM J. Sci. Comput. 17,
# 1996): loose while the Newton steps converge slowly, tight once they
# converge quadratically
_ETA = 0.1
_ETA_MIN = 1e-3
# the line step keeps the full step s = 1 when the slope there is at most
# _FLAT |slope at 0| and the energy fell by Armijo's _ARMIJO h^N |slope at 0|
_FLAT = 0.1
_ARMIJO = 1e-4


def _coarsen(form: _FluxForm, T: list[np.ndarray], S: np.ndarray | None) -> tuple[list[np.ndarray], np.ndarray]:
    """Galerkin P^T A P for piecewise-constant P from 2^N box aggregates onto the free cells.

    A face between free cells of neighbouring aggregates adds its weight to
    the coarse face between them; a face from a free cell to a constrained
    cell or the box edge adds it to the sink of the free cell's aggregate;
    a face inside an aggregate between two free cells drops out.  An odd axis
    is padded with one constrained layer.  Returns the face weights and sink
    of ``form.coarse`` in its bordered layout, in T's dtype.
    """
    nd = form.ndim
    inside = form.inside
    coarse = form.coarse
    sink = np.zeros(form.size, T[0].dtype) if S is None else S.copy()
    Tc = []
    for k, (s, t, ends) in enumerate(zip(form.strides, T, form.ends)):
        ts = t[:-s] * ends
        sink[s:-s] += inside[s:-s] * (ts[:-s] + ts[s:])  # each cell's lower and upper face
        tb = np.zeros(form.size, t.dtype)
        np.multiply(t[:-s], inside[:-s] & inside[s:], out=tb[:-s])
        # the even inner faces 2, 4, ... separate aggregates
        between = _pair_sums(form.face_view(tb, k)[_axslice(nd, k, slice(2, -1, 2))], set(range(nd)) - {k})
        tc = np.zeros(coarse.size, t.dtype)
        coarse.face_view(tc, k)[_axslice(nd, k, slice(1, -1))] = between
        Tc.append(tc)
    return Tc, coarse.bordered_copy(_pair_sums(form.cells(sink), range(nd)))


def _prolong(v: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Copy each aggregate's value onto the cells of the finer level of the given shape, free or not."""
    # repeat along the last axis, then one broadcast for the others, in which
    # axis k of v becomes the pair (m_k, 2) of fine axes
    rows = np.repeat(v, 2, axis=-1)
    lead = v.shape[:-1]
    fine = np.empty([2 * m for m in v.shape], v.dtype)
    fine.reshape([d for m in lead for d in (m, 2)] + [rows.shape[-1]])[...] = rows.reshape(
        [d for m in lead for d in (m, 1)] + [rows.shape[-1]]
    )
    return fine[tuple(slice(0, n) for n in shape)]


def _binary_exponent(x: float) -> int:
    """e with |x| 2^-e in [1/2, 1); 0 for x = 0 and for a non-finite x."""
    return int(np.frexp(x)[1])


def _dense_inverse(M: np.ndarray) -> np.ndarray:
    """The inverse of a symmetric positive semidefinite M, exactly symmetric, in float64.

    LAPACK inverts M with each row scaled by a power of two to a diagonal in
    [1/2, 1), so a cell whose weights nearly vanish costs no accuracy.  When
    the scaled matrix is singular or its condition number exceeds 2^20 (a
    group of cells whose weights to the rest vanish), 2^-20 is added to its
    diagonal first, which keeps the inverse positive definite, in float32
    too.  Both factors are powers of two, so the result scales exactly with M.
    """
    limit = 2.0**20  # times float32's rounding, 2^-24, still far below 1
    scale = np.ldexp(1.0, -np.frexp(np.diagonal(M))[1])  # 1 on a zero row
    M = M * scale[:, None]
    try:
        X = np.linalg.inv(M)
        # the condition number in the infinity norm; NaN counts as singular
        singular = not np.abs(M).sum(axis=1).max() * np.abs(X).sum(axis=1).max() <= limit
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        M[np.diag_indices_from(M)] += 1.0 / limit
        X = np.linalg.inv(M)
    X *= scale  # the columns: M^-1 = (diag(scale) M)^-1 diag(scale)
    # LAPACK's column k is accurate relative to its largest entry, about
    # scale_k; each pair of entries takes the one from the column of the smaller
    # scale, a tie the one below the diagonal
    row, col = scale[:, None], scale[None, :]
    return np.where((col < row) | ((col == row) & np.tri(len(M), k=-1, dtype=bool)), X, X.T)


class _VCycle:
    """Symmetric aggregation V-cycle for the flux form with face weights T, run in _CYCLE_DTYPE.

    Each coarser level is the Galerkin operator of ``_coarsen`` on the
    form's ``coarse`` form, itself a ``_FluxForm`` with a sink, so no matrix
    is stored until the last level, the first with at most _DENSE_CELLS free
    cells: that one is solved by its dense inverse (``_dense_inverse``),
    applied by a BLAS-free product.  Each level above it smooths before and
    after its coarse correction with the same degree-2 Chebyshev polynomial
    in D^-1 A (``_smooth``), 4 operator applies a level in all; the one
    before starts from z = 0, whose residual is r, so it needs no apply to
    form it.  The cycle is a fixed linear map, symmetric positive definite
    whenever the operator is, and serves as the conjugate-gradient
    preconditioner, so the CG iterations per outer step do not grow with the
    grid size.  What the hierarchy takes from the free mask alone (the coarse
    forms, their face masks and the dense level's indices) is cached on the
    forms, so a solver context's discretization builds it once for all its
    cycles.

    Every smoothed level keeps its weights, sink and Chebyshev weights
    w = _CHEB_SCALE D^-1 in the bordered layout, w zero off the free cells,
    and the cycle's vectors, its input and output too, live there.  The
    weights are stored times 2^-e, e the binary exponent of the largest, and
    each residual enters times 2^-e_r likewise, so the cycle sees numbers near
    1 whatever the data's scale; its result is multiplied by 2^(e_r - e), which
    undoes both scalings exactly.
    """

    def __init__(self, disc: _FluxForm, T: list[np.ndarray]):
        self.exponent = _binary_exponent(max(float(np.max(t)) for t in T))
        scale = 2.0**-self.exponent
        T = [np.multiply(t, scale, out=np.empty(disc.size, _CYCLE_DTYPE), casting="same_kind") for t in T]
        self.fine = form = disc
        S = None
        self.levels = []
        while np.count_nonzero(form.free) > _DENSE_CELLS:
            w = np.zeros(form.size, _CYCLE_DTYPE)
            np.divide(_CHEB_SCALE, form.diagonal(T, S), out=w, where=form.inside)
            self.levels.append((form, T, S, w))
            T, S = _coarsen(form, T, S)
            form = form.coarse
        self.dense_cells = form.free_cells
        self.inverse = _dense_inverse(form.matrix(T, S)).astype(_CYCLE_DTYPE)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The cycle applied to a bordered float64 r; float64, +0 off the free cells."""
        exponent = _binary_exponent(max(float(np.max(r)), -float(np.min(r))))
        # scaled in float64, then rounded into float32: casting r first overflows on large data.
        # Passed unnamed, so the cycle holds its only reference
        z = self._cycle(0, np.multiply(r, 2.0**-exponent, out=np.empty(self.fine.size, _CYCLE_DTYPE),
                                       casting="same_kind")).astype(np.float64)
        return self.fine.free_rows(np.ldexp(z, exponent - self.exponent, out=z))

    def _cycle(self, i: int, r: np.ndarray) -> np.ndarray:
        """The cycle from level i on, for a residual r that nothing else holds, which it frees once read."""
        if i == len(self.levels):
            z = np.zeros_like(r)
            z[self.dense_cells] = np.einsum("ij,j->i", self.inverse, r[self.dense_cells])
            return z
        level = form, T, S, w = self.levels[i]
        z = _smooth(level, w * r)  # from z = 0, whose residual is r
        zc = self._cycle(i + 1, _coarse_residual(level, r, z))
        zc *= _ALPHA
        cells = form.cells(z)
        np.add(cells, _prolong(form.coarse.cells(zc), form.free.shape), out=cells, where=form.free)
        t = form.apply(z, T, S)
        np.subtract(r, t, out=t)
        del r  # gone before the post-smoothing's apply (peak memory)
        t *= w
        z += _smooth(level, t)
        return z


def _coarse_residual(level: tuple, r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The aggregates' sums of the residual r - A z on a V-cycle level, bordered on the coarse level."""
    form, T, S, _ = level
    rc = form.apply(z, T, S)
    np.subtract(r, rc, out=rc)
    return form.coarse.bordered_copy(_pair_sums(form.cells(form.free_rows(rc)), range(form.ndim)))


def _smooth(level: tuple, t: np.ndarray) -> np.ndarray:
    """The Chebyshev correction p(D^-1 A) D^-1 r0 = 2 t - _CHEB_K w A t on a V-cycle level, from t = w r0.

    Zero where w is, so z stays zero off the free cells up to the sign.
    """
    form, T, S, w = level
    y = form.apply(t, T, S)
    y *= w
    y *= -_CHEB_K
    y += t
    y += t
    return y


class _SineInverse:
    """The exact inverse of the unit-weight operator on a box whose cells are all free, in float64.

    There ``faces`` gives every inner face the weight 1/h^2 and every face of
    the box 2/h^2 (the Dirichlet value sits h/2 away), so along each axis the
    operator is the cell-centred Dirichlet Laplacian, whose eigenvectors are
    the sines sin(pi m (j + 1/2)/n), m = 1..n, with the eigenvalues
    4 sin^2(pi m/(2n))/h^2 (Strang, SIAM Review 41, 1999).  A^-1 is the
    type-II sine transform along every axis, a division by the eigenvalue
    sums, and the inverse transform back: the fast Poisson solver of Buzbee,
    Golub & Nielson (SIAM J. Numer. Anal. 7, 1970), for any n, odd or even.
    Each transform is numpy's real FFT of length 2n along one axis at a time
    (no BLAS, so no thread count changes a bit), and its phase is applied
    in place.  A CG preconditioned by it takes one iteration: its first
    iterate is the solution.
    """

    def __init__(self, disc: _Discretization):
        self.disc = disc
        nd = disc.ndim
        # per axis, sin and cos of theta_m = pi m/(2n), m = 1..n, shaped to run along that axis
        self.phases = []
        eigs = 0.0
        for k, n in enumerate(disc.free.shape):
            theta = ((0.5 * math.pi / n) * np.arange(1, n + 1)).reshape([n if i == k else 1 for i in range(nd)])
            sin = np.sin(theta)
            self.phases.append((sin, np.cos(theta)))
            eigs = eigs + 4.0 * sin * sin
        # each inverse transform below returns half the values, 2^-N in all
        self.scale = (2.0**nd * disc.h * disc.h) / eigs

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r for a bordered float64 r, bordered, +0 on the border."""
        disc = self.disc
        nd = disc.ndim
        x = disc.cells(r).copy()
        for k in range(nd):
            self._forward(x, k)
        x *= self.scale
        for k in range(nd):
            n = x.shape[k]
            Y = self._spectrum(x, k)
            del x  # each of x, Y and y is gone before the next is formed (peak memory)
            y = np.fft.irfft(Y, 2 * n, axis=k)
            del Y
            x = y[_axslice(nd, k, slice(None, n))].copy()
            del y
        return disc.bordered_copy(x)

    def _forward(self, x: np.ndarray, k: int) -> None:
        """The type-II sine transform of x along axis k, X_m = sum_j x_j sin(theta_m (2j + 1)), in place.

        With Z the FFT of x padded to 2n, X_m = Re Z_m sin(theta_m) - Im Z_m cos(theta_m).
        """
        sin, cos = self.phases[k]
        Z = np.fft.rfft(x, 2 * x.shape[k], axis=k)[_axslice(x.ndim, k, slice(1, None))]
        np.multiply(Z.real, sin, out=x)
        im = Z.imag
        im *= cos
        x -= im

    def _spectrum(self, x: np.ndarray, k: int) -> np.ndarray:
        """The half spectrum Y of an odd extension, of length 2n along axis k, whose inverse FFT
        begins with half the inverse of ``_forward``: Y_0 = 0, Y_m = X_m (sin(theta_m) - i cos(theta_m))."""
        sin, cos = self.phases[k]
        Y = np.zeros(x.shape[:k] + (x.shape[k] + 1,) + x.shape[k + 1:], complex)
        Ym = Y[_axslice(x.ndim, k, slice(1, None))]
        np.multiply(x, sin, out=Ym.real)
        np.multiply(x, -cos, out=Ym.imag)
        return Y


def _pcg(
    apply_A: Callable[[np.ndarray], np.ndarray],
    r0: np.ndarray,
    x0: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray],
    reduction: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """Preconditioned CG from x0, whose residual b - A x0 is r0, until the residual falls by the factor ``reduction``.

    r0 becomes the running residual, so the caller's array is overwritten.
    """
    x = x0.copy()
    r = r0
    stop = reduction * np.sqrt(_dot(r, r))
    pvec = precond(r)
    rz = _dot(r, pvec)
    for it in range(1, max_iter + 1):
        if not 0.0 < rz < np.inf:
            raise SolverDivergenceError("preconditioner breakdown (not positive definite?)")
        Ap = apply_A(pvec)
        denom = _dot(pvec, Ap)
        if denom <= 0.0 or not np.isfinite(denom):
            raise SolverDivergenceError("conjugate-gradient breakdown (operator not SPD?)")
        alpha = rz / denom
        Ap *= alpha
        r -= Ap
        x += np.multiply(pvec, alpha, out=Ap)
        del Ap  # not needed while the preconditioner runs (peak memory)
        if np.sqrt(_dot(r, r)) <= stop:
            return x, it
        z = precond(r)
        rz_new = _dot(r, z)
        pvec *= rz_new / rz
        pvec += z
        del z  # not alive while the next preconditioner call forms its own (peak memory)
        rz = rz_new
    return x, max_iter


def _free_mask(prob: DirichletProblem) -> np.ndarray:
    """The free cells: the domain's mask itself (a ``Region``'s mask is read-only, and no other array
    writes its data), or all True."""
    if prob.domain is None:
        return np.ones(prob.grid.shape, dtype=bool)
    return prob.domain.mask


class _Lagged(NamedTuple):
    """What ``_SolveContext.lagged`` forms at a point, bordered on the crop."""

    T: list[np.ndarray]  # the face weights frozen there
    Q: _Curvature | None  # the rank-one part of the energy's Hessian there (None at p = 2)
    density: float  # the energy density sum there: from the weights' magnitudes, or (1/2) <u, A u> at p = 2
    r: np.ndarray  # the residual A(u) u - f = grad E / h^N


def _line_step(
    u: np.ndarray,
    sol: np.ndarray,
    r: np.ndarray,
    e0: float,
    lagged: Callable[[np.ndarray], _Lagged],
    energy: Callable[..., float],
    h_vol: float,
) -> tuple[np.ndarray, _Lagged]:
    """The next iterate along d = sol - u, with what ``lagged`` forms there.

    The step s comes from the slopes <grad E(u + s d), d> = h^N <r(u + s d), d>,
    negative at s = 0 (r is the residual at u, e0 the energy there, and d a CG
    iterate from u).  E is convex along d, so take the full step unless the
    slope has turned positive at s = 1.  Keep it too when that slope is at most
    _FLAT |slope at 0| and E fell by Armijo's _ARMIJO h^N |slope at 0|: the
    full step is then within a hair of the minimum along d, and the secant
    would only re-linearize a point just short of it.  The density that
    ``lagged`` forms gives that energy for free; at p = 2 (no curvature) E is
    quadratic along d, so E(1) - E(0) = h^N (slope at 0 + slope at 1)/2 and
    the slope test is enough: rounding in the two energies could otherwise
    reject the full step of a nearly converged solve.  Otherwise the secant
    zero of the slope on [0, s], unless the chord puts it below s/8, which
    happens when the slope grows like s^{p-1} (p > 2) and the chord falls far
    short of the zero: then s/8, and look again.  A trial point whose slope or
    energy density leaves float64's range (a Newton step far too long at large
    p) is backed off to s/8 until both are finite, before any of this.
    """
    d = sol - u
    slope0 = _dot(r, d)
    s, v = 1.0, sol
    with np.errstate(over="ignore", invalid="ignore"):
        at = lagged(v)
        # a finite d reaches v = u, which is finite, before s underflows to 0, which ends the loop for any d
        while not (math.isfinite(slope := _dot(at.r, d)) and math.isfinite(at.density)) and s > 0.0:
            s /= 8.0
            v = u + s * d
            at = None  # freed before the next point's operators are formed (peak memory)
            at = lagged(v)
    if s == 1.0 and 0.0 < slope <= -_FLAT * slope0 and (
        at.Q is None or energy(v, density=at.density) <= e0 + _ARMIJO * h_vol * slope0
    ):
        return v, at
    while slope > 0.0:
        zero = s * slope0 / (slope0 - slope)
        s = max(zero, s / 8.0)
        v = u + s * d
        at = None  # free the rejected point's operators before the next are formed (peak memory)
        at = lagged(v)
        if s == zero:
            break
        slope = _dot(at.r, d)
    return v, at


class _Minimum(NamedTuple):
    """What ``_SolveContext.minimize`` returns, all of it on the crop; ``_SolveContext.values`` (or
    ``_on_grid``, once the context is gone) puts the iterate on the full grid."""

    u: np.ndarray  # the returned iterate, bordered on the crop
    residual: np.ndarray  # A(u) u - f at the returned iterate, on the free bounding box (a view of the bordered one)
    converged: bool
    energy_history: list[float]  # the energy at the start and after each outer step


class _Start(NamedTuple):
    """A problem and its warm start as ``_SolveContext.load`` reads them: crop vectors and scalars."""

    fv: np.ndarray  # f, bordered on the crop
    u: np.ndarray | None  # the warm start, bordered on the crop; None for the zero start
    p: float
    eps: float  # the resolved regularization
    tol: float
    max_iter: int


class _Kept(NamedTuple):
    """What a warm-started p != 2 solve ended with, bordered on the crop, for the next one at its p and eps."""

    u: np.ndarray  # the iterate it returned
    # the face weights, curvature and density that ``lagged`` formed there
    T: list[np.ndarray]
    Q: _Curvature
    density: float
    cycle: _VCycle | None  # the V-cycle its last outer step used


class _SolveContext:
    """What every solve on one grid and free-cell mask shares.

    The crop to the free bounding box, the free cells and the discretization;
    at p = 2 the weights (m^2 + eps^2)^0 are 1 on every free cell, so the
    unit-weight face weights and their preconditioner are built on first use
    and kept: the operator's exact inverse (``_SineInverse``) when the mask is
    the whole grid, which ``work`` does not count as a V-cycle build, else
    its V-cycle.  The seed step of a cold p > 2 solve builds its own face
    weights and V-cycle, which go with it.

    A warm-started p != 2 solve keeps what it ended with (``_Kept``), one per
    p and eps, as the Picard scheme's steps alternate two exponents.  The next
    warm solve at that p and eps starts where it ended: ``lagged`` at a
    bytes-equal iterate takes up its face weights, curvature and density, which
    changes no bit, and the first outer step preconditions with its V-cycle
    instead of building one.  Cold solves keep nothing.  ``work`` counts the
    work of every solve on the context.  The Picard scheme keeps one context
    per level, whose count is the level's, and reads each solution off it
    (``values``).
    """

    def __init__(self, grid: Grid, mask: np.ndarray):
        self.grid = grid
        self.mask = mask
        self.crop = _bbox_slices(mask)
        self.free = np.ascontiguousarray(mask[self.crop])
        self.disc = _Discretization(self.free, grid.spacing)
        self.kept: dict[tuple[float, float], _Kept] = {}
        self.work = SolverWork()

    def vector(self, field: ScalarField) -> np.ndarray:
        """The field as a solver vector: its values on the free cells of the crop, bordered, +0 elsewhere."""
        out = np.zeros(self.disc.size)
        np.copyto(self.disc.cells(out), field.values[self.crop], where=self.free)
        return out

    def _unit_weight_faces(self) -> list[np.ndarray]:
        return self.disc.faces([self.disc.inside for _ in self.disc.sides])  # weight 1 on the free cells

    def _vcycle(self, T: list[np.ndarray]) -> _VCycle:
        self.work.cycle_builds += 1
        return _VCycle(self.disc, T)

    @cached_property
    def unit_faces(self) -> list[np.ndarray]:
        """Face weights of the unit-weight (p = 2) operator."""
        return self._unit_weight_faces()

    @cached_property
    def full(self) -> bool:
        """Whether every cell of the grid is free."""
        return bool(self.mask.all())

    @cached_property
    def unit_precond(self) -> _SineInverse | _VCycle:
        """The unit-weight operator's exact inverse when the mask is the whole grid, else its V-cycle."""
        if self.full:
            return _SineInverse(self.disc)
        return self._vcycle(self.unit_faces)

    def lagged(self, vals: np.ndarray, fv: np.ndarray, p: float, eps: float) -> _Lagged:
        """Face weights frozen at vals, the Hessian's curvature (None at p = 2), the energy density
        and the residual A(vals) vals - f = grad E / h^N there, all bordered on the crop."""
        kept = self.kept.get((p, eps))
        if p == 2.0:
            T, Q = self.unit_faces, None
        elif kept is not None and np.array_equal(kept.u.view(np.uint64), vals.view(np.uint64)):
            T, Q, density = kept.T, kept.Q, kept.density  # the same bytes, so the same weights
        else:
            self.work.linearizations += 1
            w, Q, density = self.disc.linearize(vals, p, eps)
            T = self.disc.faces(w)  # formed once the squared magnitudes are gone (peak memory)
        r = self.disc.free_rows(self.disc.apply(vals, T))
        if Q is None:
            density = 0.5 * _dot(vals, r)  # phi_eps(s) = s/2: the frozen quadratic at unit weights
        return _Lagged(T, Q, density, np.subtract(r, fv, out=r))

    def minimize(self, prob: DirichletProblem, initial: ScalarField | None = None) -> _Minimum:
        """``load`` then ``iterate``: the outer iteration of ``solve`` for a problem on this grid and mask."""
        return self.iterate(self.load(prob, initial))

    def load(self, prob: DirichletProblem, initial: ScalarField | None = None) -> _Start:
        """The problem and warm start read onto the crop, for ``iterate``.

        Raises ValueError if the problem lives on another grid or free-cell mask;
        a problem without a domain is compared through ``full``, so no grid-sized
        temporary is formed for it."""
        if prob.grid != self.grid or not (
            self.full if prob.domain is None else np.array_equal(prob.domain.mask, self.mask)
        ):
            raise ValueError("problem lives on another grid or mask than the solver context")
        fv = self.vector(prob.f)
        u = None
        if initial is not None:
            _require_same_grid(initial, prob)
            u = self.vector(initial)
        return _Start(fv, u, prob.p, prob.resolved_eps, prob.tol, prob.max_iter)

    def iterate(self, start: _Start) -> _Minimum:
        """The outer iteration from a loaded start.  It reads crop vectors and scalars only, and its
        iterate stays on the crop, so no full-grid array is formed while this context's operators are
        alive.

        Each outer step freezes the weights at u into the face weights T (``lagged``), whose flux form
        A_T is the lagged-diffusivity (Kacanov) operator.  For p != 2 it is a Newton step: H d = -r with
        the energy's exact Hessian H at u (``_Discretization.hessian``, matrix free), by CG to the
        forcing factor of ``_ETA``, preconditioned by a V-cycle of A_T (built for the step, or taken up
        by a warm solve's first step), which is spectrally equivalent to H within
        [min(1, p-1), max(1, p-1)] (Huang, Li & Liu, J. Sci. Comput. 32, 2007).  A Newton CG that breaks
        down is replaced by the Kacanov step A_T d = -r; from a zero start at p > 2 the first step is a
        Kacanov step on unit weights.  At p = 2 the weights are 1, H = A_T and the system is linear, so
        the CG runs once, to half the certificate, on the context's ``unit_precond``.  ``_line_step``
        then moves the iterate along d.
        """
        fv, u, p, eps, tol, max_iter = start
        del start  # from ``minimize``, u is then the warm start's only reference, gone after the first step
        disc = self.disc
        hvol = self.grid.cell_volume
        self.work.solves += 1

        warm = u is not None and p != 2.0
        if u is None:
            u = np.zeros(disc.size)

        cg_cap = max(2000, 40 * max(self.free.shape))

        lagged = partial(self.lagged, fv=fv, p=p, eps=eps)
        energy = partial(_energy, fvals=fv, h_vol=hvol)
        T, Q, density, r = lagged(u)
        # from a zero start at p > 2 the degenerate weights eps^{p-2} blow up
        # the first linear solution; seed with the unit-weight operator (the
        # residual at u = 0 is -f whatever the weights)
        seed = p > 2.0 and not u.any()
        # the first outer step of a warm solve takes up the V-cycle the last one ended with
        kept = self.kept.get((p, eps)) if warm and not seed else None
        cycle = None if kept is None else kept.cycle
        history = [energy(u, density=density)]  # and one more per outer step
        with np.errstate(over="ignore"):  # an overflow fails the check below
            # the certificate in Euclidean norm: ||r||_{L2} = sqrt(hvol) ||r||_2
            target = tol * (1.0 + math.sqrt(_dot(fv, fv) * hvol)) / math.sqrt(hvol)
            rnorm = prev_rnorm = math.sqrt(_dot(r, r))
        if not (math.isfinite(target) and math.isfinite(rnorm)):
            # ||f||^2 or ||r||^2 overflows: inf > inf is false, so the loop would certify u
            raise SolverDivergenceError("the residual certificate leaves float64's range")
        while rnorm > target and len(history) <= max_iter:
            self.work.outer_steps += 1
            if seed:  # its unit-weight operators are not kept
                T, Q = self._unit_weight_faces(), None
            if p == 2.0:
                precond = self.unit_precond
            elif len(history) == 1 and cycle is not None:
                precond = cycle
            else:
                precond = self._vcycle(T)
            if p == 2.0:
                # the system is linear, so one CG run to half the target meets the certificate
                reduction = min(_ETA, 0.5 * target / rnorm)
            else:
                reduction = max(min(_ETA, 0.9 * (rnorm / prev_rnorm) ** 2), 0.5 * target / rnorm, _ETA_MIN)
            sol = None
            if Q is not None:
                try:
                    sol, cg_its = _pcg(partial(disc.hessian, T=T, Q=Q), -r, u, precond, reduction, cg_cap)
                except SolverDivergenceError:
                    pass  # the Kacanov step below
            if sol is None:
                sol, cg_its = _pcg(lambda x: disc.free_rows(disc.apply(x, T)), -r, u, precond, reduction, cg_cap)
            # this step's operators are not needed past its CG run, but for a
            # warm solve's V-cycle, which it keeps
            cycle = precond if warm else None
            del precond, T, Q
            self.work.cg_iterations += cg_its
            prev_rnorm = rnorm
            u, (T, Q, density, r) = _line_step(u, sol, r, history[-1], lagged, energy, hvol)
            seed = False
            history.append(energy(u, density=density))
            rnorm = math.sqrt(_dot(r, r))
        if not np.all(np.isfinite(u)):
            raise SolverDivergenceError("non-finite iterate")
        if warm:
            self.kept[p, eps] = _Kept(u, T, Q, density, cycle)
        return _Minimum(u, disc.cells(r), rnorm <= target, history)

    def values(self, res: _Minimum) -> np.ndarray:
        """A minimum's iterate on the full grid, +0 off the free cells."""
        return _on_grid(self.grid, self.crop, self.free, self.disc.cells(res.u))


def _on_grid(grid: Grid, crop: tuple[slice, ...], free: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Values on the cells of ``crop`` on the full grid, +0 off the free cells ``free`` of the crop."""
    full = np.zeros(grid.shape)
    np.multiply(cells, free, out=full[crop])
    return full


def solve(prob: DirichletProblem, initial: ScalarField | None = None) -> tuple[ScalarField, SolveReport]:
    """Minimize the regularized p-energy by the outer iteration above; returns the field and a report.

    prob.tol is the relative stationarity tolerance: ``converged`` means
    ||A(u) u - f||_{L2} <= prob.tol (1 + ||f||_{L2}); otherwise the loop stops
    after prob.max_iter steps.  ``iterations`` counts the steps taken and
    ``energy_history`` holds the energy before the first and after each.

    Memory contract: once f and the warm start are on the solver's crop,
    ``solve`` holds no reference to ``prob`` or ``initial``; of the problem it
    keeps the grid, p and the free-cell mask.  A caller that holds no
    reference to the problem either, as in ``solve(DirichletProblem(...))``,
    has its full-grid f freed before the first face weights or preconditioner
    exist.  The solver context is dropped before the weak residual and the
    returned field's full-grid array are formed.
    Raises SolverDivergenceError on non-finite values and on a certificate
    whose ||f||^2 or ||r||^2 leaves float64's range; never clips.
    """
    grid, p, mask = prob.grid, prob.p, _free_mask(prob)
    ctx = _SolveContext(grid, mask)
    start = ctx.load(prob, initial)
    del prob, initial  # the last references this call holds to the full-grid f (peak memory)
    res = ctx.iterate(start)
    work, crop, free, cells = ctx.work, ctx.crop, ctx.free, ctx.disc.cells(res.u)
    del ctx, start  # the operators, V-cycles and f on the crop go before the weak residual and the full-grid field
    report = SolveReport(work.outer_steps, res.energy_history[-1], res.energy_history,
                         _weak_residual(grid, mask, res.residual, p), res.converged, work.cg_iterations)
    return ScalarField(grid, _on_grid(grid, crop, free, cells)), report


def _test_functions(grid: Grid, free: np.ndarray) -> Iterator[tuple[tuple[slice, ...], np.ndarray]]:
    """The test functions of ``weak_residual``, one at a time, each with the box of cells it is given on.

    Tensor hat bumps plus radial cutoffs, zero off ``free``, with supports
    scaled to the free region so the family is valid for ball domains as
    well as for the whole box.  Each is given on its window: the cells of the
    free bounding box within its reach of its centre along every axis (its
    support and any cell within rounding of it), plus one cell below and two
    above, where the one-sided differences of ``field.gradient`` see the same
    values as on the whole grid.  A function without a free cell in reach is skipped.
    """
    centers = grid.open_centers()
    cnt = float(np.count_nonzero(free))
    centroid = [float(np.sum(np.broadcast_to(c, free.shape)[free])) / cnt for c in centers]
    box = _bbox_slices(free)
    half = min((b.stop - b.start) * grid.spacing / 2.0 for b in box)
    ax = grid.axis_centers()
    # (centre, reach, inner radius): a hat of half-width reach, or a cutoff 1 on the inner ball, 0 beyond reach
    family = [(centroid, 0.3 * half, None)]
    for k in range(grid.N):
        for sgn in (+1.0, -1.0):
            c = list(centroid)
            c[k] += sgn * 0.35 * half
            family.append((c, 0.25 * half, None))
    family += [(centroid, s_frac * half, t_frac * half) for t_frac, s_frac in ((0.45, 0.8), (0.25, 0.5))]
    for center, reach, inner in family:
        near = [np.flatnonzero(np.abs(ax[b] - ck) < reach * (1.0 + 1e-9)) + b.start for b, ck in zip(box, center)]
        if any(idx.size == 0 for idx in near):
            continue
        win = tuple(slice(max(int(i[0]) - 1, 0), min(int(i[-1]) + 3, grid.cells_per_axis)) for i in near)
        coords = [c[_axslice(grid.N, k, win[k])] for k, c in enumerate(centers)]
        if inner is None:
            vals = 1.0
            for x, ck in zip(coords, center):
                vals = vals * np.maximum(0.0, 1.0 - np.abs(x - ck) / reach)
        else:
            vals = _cutoff_values(coords, inner, reach, center)
        yield win, vals * free[win]


def weak_residual(u: ScalarField, prob: DirichletProblem) -> float:
    """max over the test functions (``_test_functions``) of
    |<stress(u), D phi> - <f, phi>| / (1 + ||D phi||_{p'}).

    The pairing <stress(u), D phi> is <A_{w(u)} u, phi> with the solver's own
    operator, so A(u) - f is formed once, as the solver forms it, and a
    converged solve's residual measures algebraic (not discretization) error.
    """
    _require_same_grid(u, prob)
    ctx = _SolveContext(prob.grid, _free_mask(prob))
    r = ctx.lagged(ctx.vector(u), ctx.vector(prob.f), prob.p, prob.resolved_eps).r
    return _weak_residual(prob.grid, ctx.mask, ctx.disc.cells(r), prob.p)


def _weak_residual(grid: Grid, mask: np.ndarray, r: np.ndarray, p: float) -> float:
    """``weak_residual`` from the residual r = A(u) u - f on the free bounding box of ``mask``."""
    box = _bbox_slices(mask)
    pprime = p / (p - 1.0)
    hvol = grid.cell_volume
    worst = 0.0

    def within(cells: list[slice], origin: tuple[slice, ...]) -> tuple[slice, ...]:
        return tuple(slice(c.start - o.start, c.stop - o.start) for c, o in zip(cells, origin))

    for win, phi in _test_functions(grid, mask):  # each zero off the free cells
        # the pairing runs over the window's cells on the box, where r lives
        both = [slice(max(w.start, b.start), min(w.stop, b.stop)) for w, b in zip(win, box)]
        num = hvol * _dot(r[within(both, box)], phi[within(both, win)])
        # ||D phi||_{p'}^{p'} / h^N, as ``field.lp_norm`` forms it for a gradient
        dphi = _mean_power([np.sqrt(m) for m in _side_squares(phi, grid.spacing)], pprime)
        worst = max(worst, abs(num) / (1.0 + (dphi * hvol) ** (1.0 / pprime)))
    return worst


def exact_radial(p: float, N: int, R: float, r: float | np.ndarray) -> float | np.ndarray:
    """Radial profile of -Delta_p u = 1 on B_R with zero boundary data.

    u(r) = ((p-1)/p) N^{-1/(p-1)} (R^{p'} - r^{p'}),  p' = p/(p-1).
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if not R > 0.0:
        raise ValueError("R must be positive")
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < 0.0) or np.any(r_arr > R):
        raise ValueError("radius outside [0, R]")
    pprime = p / (p - 1.0)
    vals = ((p - 1.0) / p) * N ** (-1.0 / (p - 1.0)) * (R**pprime - r_arr**pprime)
    if np.isscalar(r) or (isinstance(r, np.ndarray) and r.ndim == 0):
        return float(vals)
    return vals
