"""Regularized p-Laplacian Dirichlet solver on the truncated box.

Solves  -div(|grad u|^{p-2} grad u) = f  with zero Dirichlet data on the
boundary of the free region (the whole box, or an optional cell mask such
as a ball) by minimizing the regularized energy

    E(u) = sum_cells [ phi_eps(|Du|^2) - f u ] h^N,
    phi_eps(s) = ((s + eps^2)^{p/2} - eps^p)/p.

The discrete gradient entering the energy is the average of the two
one-sided (forward/backward) differences per axis; a difference that
crosses into a constrained cell is taken to the Dirichlet value over the
half spacing h/2, i.e. to the cell face where the boundary actually sits.
Both differences are read off G_k, the jumps of u across the cell faces.
For p = 2 this is exactly the standard finite-volume 5/7-point scheme with
face-centered Dirichlet data; the plain forward-difference energy would be
reflection-asymmetric (Neumann on one side of every axis) and visibly skews
radial solutions, so the symmetric form is used throughout.

Symmetry caveat: grouping all forward differences into one gradient
magnitude and all backward ones into another makes the energy exactly
invariant under axis transpositions and under the full point reflection
x -> -x, but only asymptotically invariant under a single-axis reflection
when p != 2 (the flip maps the forward magnitude to a mixed forward/backward
mix, and phi_eps is nonlinear).  On radial problems the resulting axis-flip
asymmetry of the minimizer is a discretization effect that shrinks under
refinement and vanishes identically at p = 2.

Outer iteration: Newton steps on the lagged-diffusivity (Kacanov) V-cycle.
Freeze the weights (|Du|^2+eps^2)^{(p-2)/2} at u into one weight T_k per face:
the flux form A_T = -sum_k diff(T_k G_k) is the Kacanov operator.  For
p != 2 each outer step solves H d = -r with the energy's exact Hessian at u,
H = A_T plus a rank-one term per cell and side (``_Discretization.hessian``,
matrix free), by conjugate gradients preconditioned by the V-cycle of A_T,
which is spectrally equivalent to H within [min(1, p-1), max(1, p-1)]
(Huang, Li & Liu, J. Sci. Comput. 32, 2007).  The CG stops once its
residual falls by the forcing factor eta (Eisenstat-Walker, see _ETA).  A
Newton CG that breaks down is replaced by the Kacanov step, A_T d = -r; from a
zero start at p > 2 the first step is a Kacanov step on unit weights.  The
iterate moves along d by the slopes <grad E(u + s d), d>, exact since
grad E(v) = h^N (A(v) v - f).  The one stopping rule is the residual
certificate ||A(u) u - f||_{L2} <= tol (1 + ||f||_{L2}).  At p = 2 the weights
are 1, H = A_T and the system is linear, so the CG runs once, to half the
certificate.  The V-cycle is a symmetric aggregation cycle built once per
outer step from the face weights (at p = 2 once per solver context):
2^N box aggregates, Galerkin coarse operators that are again flux forms (plus
a sink per cell, no stored matrix), damped Jacobi smoothing and an
over-corrected coarse step (Notay, ETNA 37, 2010; Braess, Computing 55,
1995), so the iterations per outer step do not grow with the grid size.

``_SolveContext`` keeps what depends only on the grid and the free-cell mask
(crop, free cells, discretization, unit-weight V-cycle).  ``solve`` builds one
per call, freed before its weak residual, which pairs the last outer step's
residual with the test functions; the Picard scheme keeps one per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .field import (
    Grid,
    Region,
    ScalarField,
    _axslice,
    _bbox_slices,
    _cutoff_values,
    _gradient_values,
    _require_same_grid,
)


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


class _FluxForm:
    """The flux-form operator -sum_k diff(T_k G_k) + S u on the free cells of a box.

    G_k = diff(u, axis=k, prepend=0, append=0) are the jumps of u across the
    n + 1 faces per axis, T_k holds one weight per face and S (None: no sink)
    one weight per cell.  Rows of constrained cells are zero and their diagonal
    entries 1, so every level of the multigrid hierarchy is one of these.
    """

    def __init__(self, free: np.ndarray):
        self.free = free
        self.fixed = ~free
        nd = self.ndim = free.ndim
        self.lo = [_axslice(nd, k, slice(None, -1)) for k in range(nd)]
        self.hi = [_axslice(nd, k, slice(1, None)) for k in range(nd)]
        # u goes into the interior of a zero border, and G_k is a difference of
        # two shifted views of it (the border supplies the prepended/appended 0)
        self._padded = np.zeros(tuple(n + 2 for n in free.shape))
        self._interior = (slice(1, -1),) * nd
        self._before = [tuple(slice(None, -1) if i == k else slice(1, -1) for i in range(nd)) for k in range(nd)]
        self._after = [tuple(slice(1, None) if i == k else slice(1, -1) for i in range(nd)) for k in range(nd)]

    def _face_diffs(self, u: np.ndarray) -> Iterator[np.ndarray]:
        """G_k for k = 0, ..., N - 1, one at a time; a second call before the first is used up clobbers it."""
        padded = self._padded
        padded[self._interior] = u
        for before, after in zip(self._before, self._after):
            yield padded[after] - padded[before]

    def apply(self, u: np.ndarray, T: list[np.ndarray], S: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the frozen quadratic, -sum_k diff(T_k G_k) + S u (no h^N)."""
        out = np.zeros(u.shape) if S is None else S * u
        for k, (t, TG) in enumerate(zip(T, self._face_diffs(u))):
            TG *= t
            out -= TG[self.hi[k]]
            out += TG[self.lo[k]]
        out[self.fixed] = 0.0
        return out

    def diagonal(self, T: list[np.ndarray], S: np.ndarray | None = None) -> np.ndarray:
        diag = np.zeros(self.free.shape) if S is None else S.copy()
        for k, t in enumerate(T):
            diag += t[self.lo[k]] + t[self.hi[k]]
        diag[self.fixed] = 1.0
        return np.maximum(diag, 1e-300)


class _Curvature(NamedTuple):
    """The rank-one part of the energy's Hessian: the sign of p - 2 and the vectors q of each side."""

    sign: float
    qf: list[np.ndarray]  # per axis, on the cells
    qb: list[np.ndarray]


class _Discretization(_FluxForm):
    """Face differences G_k = diff(u, axis=k, prepend=0, append=0), n + 1 per axis.

    A cell's forward difference is c_f G_k[1:] and its backward one c_b G_k[:-1],
    with c = 1/h, or 2/h across a face that ends the free region (the Dirichlet
    value sits on that face, h/2 away), and c = 0 on constrained cells.  Frozen
    weights give one weight per face, T_k = w_f c_f^2/2 from the cell before it
    plus w_b c_b^2/2 from the cell after it; the frozen quadratic is
    (1/2) sum_k sum_faces T_k G_k^2 and its gradient -sum_k diff(T_k G_k).
    Only the face-end booleans are kept; c_f and c_b are formed when read.
    """

    def __init__(self, free: np.ndarray, h: float):
        super().__init__(free)
        self.h = h
        # boolean diff is xor: True on the faces where the free region ends
        self.ends = [np.diff(free, axis=k, prepend=False, append=False) for k in range(self.ndim)]

    def cf(self, k: int) -> np.ndarray:
        return self.free * (1.0 + self.ends[k][self.hi[k]]) / self.h

    def cb(self, k: int) -> np.ndarray:
        return self.free * (1.0 + self.ends[k][self.lo[k]]) / self.h

    def one_sided_sq(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared magnitudes of the forward and backward difference gradients."""
        m2f = np.zeros_like(u)
        m2b = np.zeros_like(u)
        for k, G in enumerate(self._face_diffs(u)):
            df = self.cf(k) * G[self.hi[k]]
            db = self.cb(k) * G[self.lo[k]]
            m2f += df * df
            m2b += db * db
        return m2f, m2b

    def energy(self, u: np.ndarray, fvals: np.ndarray, p: float, eps: float, h_vol: float) -> float:
        m2f, m2b = self.one_sided_sq(u)
        e2 = eps * eps
        ep = eps**p
        dens = 0.5 * (((m2f + e2) ** (0.5 * p) - ep) + ((m2b + e2) ** (0.5 * p) - ep)) / p
        dens[~self.free] = 0.0
        val = h_vol * (float(np.sum(dens)) - float(np.sum(fvals * u)))
        if not np.isfinite(val):
            raise SolverDivergenceError("non-finite energy")
        return val

    def weights(self, u: np.ndarray, p: float, eps: float) -> tuple[np.ndarray, np.ndarray, _Curvature]:
        """The lagged weights w = (|g|^2+eps^2)^{(p-2)/2} of each side's gradient g at u (0 off
        the free cells) and the rank-one part of the energy's Hessian there.

        Per side the density phi_eps(|g|^2)/2 has the Hessian (w/2) (I + (p-2) g g^T/(|g|^2+eps^2))
        in g, so the energy's Hessian is A_T plus, per side, the form
        sign (sum_k q_k G_k(v))^2 with q_k = sqrt(|p-2|/2) (|g|^2+eps^2)^{(p-4)/4} c_k g_k
        (``hessian``).  The products c_k g_k are kept and scaled into q in place.
        """
        m2f = np.zeros_like(u)
        m2b = np.zeros_like(u)
        qf, qb = [], []
        for k, G in enumerate(self._face_diffs(u)):
            for m2, q, c, side in ((m2f, qf, self.cf(k), self.hi[k]), (m2b, qb, self.cb(k), self.lo[k])):
                g = c * G[side]
                m2 += g * g
                g *= c
                q.append(g)
        e2 = eps * eps
        ex = 0.5 * (p - 2.0)
        wf = (m2f + e2) ** ex
        wb = (m2b + e2) ** ex
        wf[~self.free] = 0.0
        wb[~self.free] = 0.0
        for scale, q in ((m2f, qf), (m2b, qb)):
            scale += e2
            # in place; at eps = 0 a cell without gradient keeps q = 0, not 0 * inf
            np.power(scale, 0.25 * (p - 4.0), out=scale, where=scale > 0.0)
            scale *= math.sqrt(0.5 * abs(p - 2.0))
            for qk in q:
                qk *= scale
        return wf, wb, _Curvature(math.copysign(1.0, p - 2.0), qf, qb)

    def faces(self, wf: np.ndarray, wb: np.ndarray) -> list[np.ndarray]:
        """Per-face weights T_k of the frozen quadratic, one array of n + 1 faces per axis."""
        T = []
        for k in range(self.ndim):
            t = np.zeros(tuple(n + (i == k) for i, n in enumerate(wf.shape)))
            t[self.hi[k]] += 0.5 * wf * self.cf(k) ** 2
            t[self.lo[k]] += 0.5 * wb * self.cb(k) ** 2
            T.append(t)
        return T

    def hessian(self, v: np.ndarray, T: list[np.ndarray], Q: _Curvature) -> np.ndarray:
        """The energy's Hessian (no h^N) at the point of T and Q, applied to v.

        ``apply(v, T)`` plus the face fluxes of the rank-one part: with
        s = sign sum_k q_k G_k(v) per side, the forward side puts s q_k on a
        cell's upper face and the backward side on its lower one.
        """
        out = np.zeros(v.shape)
        sf = np.zeros(v.shape)
        sb = np.zeros(v.shape)
        for k, (t, TG) in enumerate(zip(T, self._face_diffs(v))):
            hi, lo = self.hi[k], self.lo[k]
            sf += Q.qf[k] * TG[hi]
            sb += Q.qb[k] * TG[lo]
            TG *= t
            out -= TG[hi]
            out += TG[lo]
        sf *= Q.sign
        sb *= Q.sign
        for k, t in enumerate(T):
            hi, lo = self.hi[k], self.lo[k]
            flux = np.zeros(t.shape)
            np.multiply(sf, Q.qf[k], out=flux[hi])
            flux[lo] += sb * Q.qb[k]
            out -= flux[hi]
            out += flux[lo]
        out[self.fixed] = 0.0
        return out


# V(2,2) cycle: damped Jacobi weight and sweeps per side; the coarse step is
# scaled by _ALPHA because the piecewise-constant Galerkin operator is about
# twice too stiff for a Laplacian; the coarsest level (at most _COARSEST_CELLS
# free cells) gets _COARSEST_SWEEPS Jacobi sweeps instead of a direct solve
_OMEGA = 0.7
_SWEEPS = 2
_ALPHA = 1.8
_COARSEST_CELLS = 16
_COARSEST_SWEEPS = 8
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


def _pair_sums(x: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """Sums of neighbouring pairs along ``axes``; an odd axis keeps its last layer alone."""
    for k in axes:
        odd = x[_axslice(x.ndim, k, slice(1, None, 2))]
        x = x[_axslice(x.ndim, k, slice(None, None, 2))].copy()
        x[_axslice(x.ndim, k, slice(None, odd.shape[k]))] += odd
    return x


def _coarsen(
    free: np.ndarray, T: list[np.ndarray], S: np.ndarray | None
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Galerkin P^T A P for piecewise-constant P from 2^N box aggregates onto the free cells.

    A face between free cells of neighbouring aggregates adds its weight to
    the coarse face between them; a face from a free cell to a constrained
    cell or the box edge adds it to the sink of the free cell's aggregate;
    a face inside an aggregate between two free cells drops out.  An odd axis
    is padded with one constrained layer.
    """
    nd = free.ndim
    coarse = [(n + 1) // 2 for n in free.shape]
    sink = np.zeros(free.shape) if S is None else S.copy()
    Tc = []
    for k, t in enumerate(T):
        lo, hi = _axslice(nd, k, slice(None, -1)), _axslice(nd, k, slice(1, None))
        # boolean diff is xor: True on the faces with exactly one free side
        ts = t * np.diff(free, axis=k, prepend=False, append=False)
        sink += free * (ts[lo] + ts[hi])
        # tb[j] is fine face j + 1 if both its sides are free; the even fine
        # faces 2, 4, ... (tb[1::2]) separate aggregates
        tb = t[_axslice(nd, k, slice(1, -1))] * (free[lo] & free[hi])
        between = _pair_sums(tb[_axslice(nd, k, slice(1, None, 2))], set(range(nd)) - {k})
        tc = np.zeros([m + (i == k) for i, m in enumerate(coarse)])
        tc[_axslice(nd, k, slice(1, -1))] = between
        Tc.append(tc)
    every = range(nd)
    return _pair_sums(free, every), Tc, _pair_sums(sink, every)


def _prolong(v: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Copy each aggregate's value onto its free cells of the finer level."""
    for k in range(v.ndim):
        v = np.repeat(v, 2, axis=k)
    return v[tuple(slice(0, n) for n in free.shape)] * free


class _VCycle:
    """Symmetric aggregation V-cycle for the flux form with face weights T.

    Each coarser level is the Galerkin operator of ``_coarsen``, itself a
    ``_FluxForm`` with a sink, so no matrix is stored.  The cycle is a fixed
    linear map, symmetric positive definite whenever the operator is, and
    serves as the conjugate-gradient preconditioner.
    """

    def __init__(self, disc: _FluxForm, T: list[np.ndarray]):
        form, S = disc, None
        self.levels = []
        while True:
            self.levels.append((form, T, S, _OMEGA / form.diagonal(T, S)))
            if np.count_nonzero(form.free) <= _COARSEST_CELLS:
                break
            free, T, S = _coarsen(form.free, T, S)
            form = _FluxForm(free)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, i: int, r: np.ndarray) -> np.ndarray:
        form, T, S, wd = self.levels[i]
        coarsest = i + 1 == len(self.levels)
        z = wd * r
        for _ in range((_COARSEST_SWEEPS if coarsest else _SWEEPS) - 1):
            z += wd * (r - form.apply(z, T, S))
        if coarsest:
            return z
        rc = _pair_sums(r - form.apply(z, T, S), range(r.ndim))
        z += _ALPHA * _prolong(self._cycle(i + 1, rc), form.free)
        for _ in range(_SWEEPS):
            z += wd * (r - form.apply(z, T, S))
        return z


def _pcg(
    apply_A: Callable[[np.ndarray], np.ndarray],
    r0: np.ndarray,
    x0: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray],
    reduction: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """Preconditioned CG from x0, whose residual b - A x0 is r0, until the residual falls by the factor ``reduction``."""
    x = x0.copy()
    r = r0.copy()
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
        x += alpha * pvec
        r -= alpha * Ap
        if np.sqrt(_dot(r, r)) <= stop:
            return x, it
        z = precond(r)
        rz_new = _dot(r, z)
        pvec = z + (rz_new / rz) * pvec
        rz = rz_new
    return x, max_iter


def _free_mask(prob: DirichletProblem) -> np.ndarray:
    if prob.domain is None:
        return np.ones(prob.grid.shape, dtype=bool)
    return prob.domain.mask.copy()


def energy(u: ScalarField, prob: DirichletProblem) -> float:
    """Regularized discrete energy of u for the given problem."""
    _require_same_grid(u, prob)
    free = _free_mask(prob)
    disc = _Discretization(free, prob.grid.spacing)
    vals = u.values * free
    return disc.energy(vals, prob.f.values, prob.p, prob.resolved_eps, prob.grid.cell_volume)


def _line_step(
    u: np.ndarray,
    sol: np.ndarray,
    r: np.ndarray,
    lagged: Callable[[np.ndarray], tuple[list[np.ndarray], _Curvature | None, np.ndarray]],
) -> tuple[np.ndarray, list[np.ndarray], _Curvature | None, np.ndarray]:
    """The next iterate along d = sol - u, with its face weights, curvature and residual from ``lagged``.

    The step s comes from the slopes <grad E(u + s d), d> = h^N <r(u + s d), d>,
    negative at s = 0 (r is the residual at u and d a CG iterate from u).
    E is convex along d, so take the full step unless the slope has turned
    positive at s = 1; then the secant zero of the slope on [0, s], unless the
    chord puts it below s/8, which happens when the slope grows like s^{p-1}
    (p > 2) and the chord falls far short of the zero: then s/8, and look again.
    """
    d = sol - u
    slope0 = _dot(r, d)
    s, v = 1.0, sol
    T, Q, r = lagged(v)
    slope = _dot(r, d)
    while slope > 0.0:
        zero = s * slope0 / (slope0 - slope)
        s = max(zero, s / 8.0)
        v = u + s * d
        T = Q = r = None  # free the rejected point's operators before the next are formed (peak memory)
        T, Q, r = lagged(v)
        if s == zero:
            break
        slope = _dot(r, d)
    return v, T, Q, r


class _Minimum(NamedTuple):
    values: np.ndarray  # on the full grid
    residual: np.ndarray  # A(u) u - f at the returned iterate, on the free bounding box
    iterations: int
    cg_iterations: int
    converged: bool
    energy_history: list[float]


class _SolveContext:
    """What every solve on one grid and free-cell mask shares.

    The crop to the free bounding box, the free cells and the discretization;
    at p = 2 the weights (m^2 + eps^2)^0 are 1 on every free cell, so the
    unit-weight face weights and their V-cycle are built on first use and kept.
    """

    def __init__(self, grid: Grid, mask: np.ndarray):
        self.grid = grid
        self.mask = mask
        self.crop = _bbox_slices(mask)
        self.free = np.ascontiguousarray(mask[self.crop])
        self.disc = _Discretization(self.free, grid.spacing)

    @cached_property
    def unit_faces(self) -> list[np.ndarray]:
        """Face weights of the unit-weight (p = 2) operator."""
        return self.disc.faces(self.free * 1.0, self.free * 1.0)

    @cached_property
    def unit_cycle(self) -> _VCycle:
        """The V-cycle of the unit-weight operator."""
        return _VCycle(self.disc, self.unit_faces)

    def lagged(
        self, vals: np.ndarray, fv: np.ndarray, p: float, eps: float
    ) -> tuple[list[np.ndarray], _Curvature | None, np.ndarray]:
        """Face weights frozen at vals, the Hessian's curvature there (None at p = 2) and the
        residual A(vals) vals - f = grad E / h^N, all on the crop."""
        if p == 2.0:
            T, Q = self.unit_faces, None
        else:
            wf, wb, Q = self.disc.weights(vals, p, eps)
            T = self.disc.faces(wf, wb)
        return T, Q, self.disc.apply(vals, T) - fv

    def minimize(self, prob: DirichletProblem, initial: ScalarField | None = None) -> _Minimum:
        """The outer iteration of ``solve`` for a problem on this grid and mask."""
        if prob.grid != self.grid or not np.array_equal(_free_mask(prob), self.mask):
            raise ValueError("problem lives on another grid or mask than the solver context")
        crop, free, disc = self.crop, self.free, self.disc
        fv = np.where(free, prob.f.values[crop], 0.0)
        p, eps = prob.p, prob.resolved_eps
        hvol = self.grid.cell_volume

        if initial is not None:
            _require_same_grid(initial, prob)
            u = np.ascontiguousarray(initial.values[crop]) * free
        else:
            u = np.zeros(free.shape)

        cg_cap = max(2000, 40 * max(free.shape))
        # the certificate in Euclidean norm: ||r||_{L2} = sqrt(hvol) ||r||_2
        target = prob.tol * (1.0 + math.sqrt(_dot(fv, fv) * hvol)) / math.sqrt(hvol)

        lagged = partial(self.lagged, fv=fv, p=p, eps=eps)
        T, Q, r = lagged(u)
        # from a zero start at p > 2 the degenerate weights eps^{p-2} blow up
        # the first linear solution; seed with the unit-weight operator (the
        # residual at u = 0 is -f whatever the weights)
        unit = p == 2.0 or (p > 2.0 and not u.any())
        history = [disc.energy(u, fv, p, eps, hvol)]
        iterations = cg_total = 0
        rnorm = prev_rnorm = math.sqrt(_dot(r, r))
        while rnorm > target and iterations < prob.max_iter:
            iterations += 1
            if unit:
                T, Q, precond = self.unit_faces, None, self.unit_cycle
            else:
                precond = _VCycle(disc, T)
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
                sol, cg_its = _pcg(lambda x: disc.apply(x, T), -r, u, precond, reduction, cg_cap)
            # this step's operators are not needed past its CG run
            del precond, T, Q
            cg_total += cg_its
            prev_rnorm = rnorm
            u, T, Q, r = _line_step(u, sol, r, lagged)
            unit = p == 2.0
            history.append(disc.energy(u, fv, p, eps, hvol))
            rnorm = math.sqrt(_dot(r, r))
        if not np.all(np.isfinite(u)):
            raise SolverDivergenceError("non-finite iterate")
        full = np.zeros(self.grid.shape)
        full[crop] = u * free
        return _Minimum(full, r, iterations, cg_total, rnorm <= target, history)


def solve(prob: DirichletProblem, initial: ScalarField | None = None) -> tuple[ScalarField, SolveReport]:
    """Minimize the regularized p-energy by the outer iteration above; returns the field and a report.

    prob.tol is the relative stationarity tolerance: ``converged`` means
    ||A(u) u - f||_{L2} <= prob.tol (1 + ||f||_{L2}); otherwise the loop stops
    after prob.max_iter steps.  ``iterations`` counts the steps taken and
    ``energy_history`` holds the energy before the first and after each.

    Raises SolverDivergenceError on non-finite values; never clips.
    """
    mask = _free_mask(prob)
    res = _SolveContext(prob.grid, mask).minimize(prob, initial)
    report = SolveReport(res.iterations, res.energy_history[-1], res.energy_history,
                         _weak_residual(prob.grid, mask, res.residual, prob.p), res.converged, res.cg_iterations)
    return ScalarField(prob.grid, res.values), report


def _test_functions(grid: Grid, free: np.ndarray, crop: tuple[slice, ...]) -> Iterator[np.ndarray]:
    """The test functions of ``weak_residual`` on the cells ``crop`` of the box, one at a time.

    Tensor hat bumps plus radial cutoffs, zero off ``free``, with supports
    scaled to the free region so the family is valid for ball domains as
    well as for the whole box.
    """
    centers = grid.open_centers()
    cnt = float(np.count_nonzero(free))
    centroid = [float(np.sum(np.broadcast_to(c, free.shape)[free])) / cnt for c in centers]
    half = min((b.stop - b.start) * grid.spacing / 2.0 for b in _bbox_slices(free))
    coords = [c[_axslice(grid.N, k, crop[k])] for k, c in enumerate(centers)]
    inside = free[crop]

    def hat(center: Sequence[float], width: float) -> np.ndarray:
        vals = 1.0
        for x, ck in zip(coords, center):
            vals = vals * np.maximum(0.0, 1.0 - np.abs(x - ck) / width)
        return vals * inside

    yield hat(centroid, 0.3 * half)
    for k in range(grid.N):
        for sgn in (+1.0, -1.0):
            c = list(centroid)
            c[k] += sgn * 0.35 * half
            yield hat(c, 0.25 * half)
    for t_frac, s_frac in ((0.45, 0.8), (0.25, 0.5)):
        yield _cutoff_values(grid, coords, t_frac * half, s_frac * half, centroid) * inside


def weak_residual(u: ScalarField, prob: DirichletProblem) -> float:
    """max over the test functions (``_test_functions``) of
    |<stress(u), D phi> - <f, phi>| / (1 + ||D phi||_{p'}).

    The pairing <stress(u), D phi> is <A_{w(u)} u, phi> with the solver's own
    operator, so A(u) - f is formed once, as the solver forms it, and a
    converged solve's residual measures algebraic (not discretization) error.
    """
    _require_same_grid(u, prob)
    ctx = _SolveContext(prob.grid, _free_mask(prob))
    fv = np.where(ctx.free, prob.f.values[ctx.crop], 0.0)
    r = ctx.lagged(u.values[ctx.crop] * ctx.free, fv, prob.p, prob.resolved_eps)[-1]
    return _weak_residual(prob.grid, ctx.mask, r, prob.p)


def _weak_residual(grid: Grid, mask: np.ndarray, r: np.ndarray, p: float) -> float:
    """``weak_residual`` from the residual r = A(u) u - f on the free bounding box of ``mask``.

    r goes into zeros on that box plus one cell below and two above, where
    the one-sided differences of ``gradient`` see the same values as on the box.
    """
    box = _bbox_slices(mask)
    crop = tuple(slice(max(s.start - 1, 0), min(s.stop + 2, grid.cells_per_axis)) for s in box)
    residual = np.pad(r, [(b.start - c.start, c.stop - b.stop) for b, c in zip(box, crop)])
    pprime = p / (p - 1.0)
    hvol = grid.cell_volume
    worst = 0.0
    for phi in _test_functions(grid, mask, crop):  # each zero off the free cells
        num = hvol * _dot(residual, phi)
        g = _gradient_values(phi, grid.spacing)
        mag = np.sqrt(np.einsum("...k,...k->...", g, g))
        den = 1.0 + (float(np.sum(mag**pprime)) * hvol) ** (1.0 / pprime)
        worst = max(worst, abs(num) / den)
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
