"""Independent oracles used by the test suite.

The admissibility oracle re-evaluates the structural hypotheses from their
mathematical statement in exact rational arithmetic (fractions.Fraction),
sharing no code with the package's checker.  Infinite values (Sobolev
conjugate at p >= N, absent weight-integrability ceilings) are carried as
None so that every comparison stays exact.

The strided solver kernels (``StridedDiscretization``, ``strided_prolong``,
``StridedVCycle``) are the p-Laplacian solver's operators written on
face-shaped arrays, one strided slice per face array, as the solver had them
before it moved to the flat bordered layout.  They do the same floating-point
operations in the same order per element, so the solver's kernels must match
them byte for byte.  The V-cycle runs in the dtype it is given, unscaled: the
solver's cycle scales its weights and residuals by powers of two, which
commutes with rounding as long as no number leaves the dtype's normal range.
Its last level is assembled here as a dense matrix and inverted by the
solver's ``_dense_inverse``, which knows no layout.  ``strided_pcg`` sums its
inner products over a zero-bordered copy of its vectors, in the solver's
order.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from plapbench.plap_solver import _dense_inverse

INF_KEYS = ("zeta1", "zeta2")


def _frac(x):
    # the sweep uses dyadic rationals only, so Fraction(float) is exact
    return None if x is None else Fraction(x)


def _sobolev(p: Fraction, N: int):
    """Np/(N - p) for p < N, else None (meaning +infinity)."""
    if p >= N:
        return None
    return N * p / (N - p)


def _ratio(p: Fraction, pstar):
    """p/p* with p* = None meaning infinity."""
    return Fraction(0) if pstar is None else p / pstar


def _inv(z):
    return Fraction(0) if z is None else 1 / z


def exact_ranges_ok(c: dict) -> bool:
    """Structural parameter ranges, straight from their statement."""
    N = c["N"]
    p, q = _frac(c["p"]), _frac(c["q"])
    if N < 2 or not (1 < p < N) or not (1 < q < N):
        return False
    if not (-1 < _frac(c["alpha1"]) <= 0) or not (-1 < _frac(c["beta2"]) <= 0):
        return False
    for name in ("beta1", "delta1", "delta2"):
        if not (0 <= _frac(c[name]) < q - 1):
            return False
    for name in ("gamma1", "alpha2", "gamma2"):
        if not (0 <= _frac(c[name]) < p - 1):
            return False
    for name in ("m1", "mhat1", "m2", "mhat2"):
        if not _frac(c[name]) > 0:
            return False
    for name in INF_KEYS:
        z = c[name]
        if z is not None and not _frac(z) > 0:
            return False
    return True


def exact_h1a_ok(c: dict) -> bool:
    """Summability inequalities for the weight exponents, exact arithmetic.

    zeta_i > N, theta_1 < 1 - p/p*, theta_2 < 1 - q/q*,
    1/zeta_1 < 1 - p/p* - theta_1, 1/zeta_2 < 1 - q/q* - theta_2,
    where theta_1 = max(beta1/q*, gamma1/p, delta1/q) and
    theta_2 = max(alpha2/p*, gamma2/p, delta2/q).
    """
    N = c["N"]
    p, q = _frac(c["p"]), _frac(c["q"])
    pstar, qstar = _sobolev(p, N), _sobolev(q, N)
    z1 = None if c["zeta1"] is None else _frac(c["zeta1"])
    z2 = None if c["zeta2"] is None else _frac(c["zeta2"])
    theta1 = max(_ratio(_frac(c["beta1"]), qstar), _frac(c["gamma1"]) / p, _frac(c["delta1"]) / q)
    theta2 = max(_ratio(_frac(c["alpha2"]), pstar), _frac(c["gamma2"]) / p, _frac(c["delta2"]) / q)
    rp = _ratio(p, pstar)
    rq = _ratio(q, qstar)
    if z1 is not None and not z1 > N:
        return False
    if z2 is not None and not z2 > N:
        return False
    if not theta1 < 1 - rp:
        return False
    if not theta2 < 1 - rq:
        return False
    if not _inv(z1) < 1 - rp - theta1:
        return False
    if not _inv(z2) < 1 - rq - theta2:
        return False
    return True


def exact_h2_ok(c: dict) -> bool:
    """Coupling smallness eta1*eta2 < (p-1-gamma1)(q-1-delta2), exact."""
    p, q = _frac(c["p"]), _frac(c["q"])
    eta1 = max(_frac(c["beta1"]), _frac(c["delta1"]))
    eta2 = max(_frac(c["alpha2"]), _frac(c["gamma2"]))
    return eta1 * eta2 < (p - 1 - _frac(c["gamma1"])) * (q - 1 - _frac(c["delta2"]))


def exact_admissible(c: dict) -> bool:
    if not (_frac(c["p"]) > 1 and _frac(c["q"]) > 1):
        return False
    return exact_ranges_ok(c) and exact_h1a_ok(c) and exact_h2_ok(c)


def lattice_configs():
    """Deterministic quarter-grid sweep: > 10^4 configs covering N, p, q,
    both singular exponents held in range, convective and coupling exponents
    swept across and past their windows, finite and infinite zetas."""
    configs = []
    for N, p, q in product((2, 3), (1.5, 2.0, 3.0), (1.5, 2.0, 3.0)):
        for beta1, gamma1, delta1 in product((0.0, 0.5, 1.0), (0.0, 0.25, 0.75), (0.0, 0.5, 1.25)):
            for alpha2, delta2, gamma2 in product((0.0, 0.25, 1.0), (0.0, 0.5, 1.0), (0.0, 0.75)):
                for zeta in (2.5, None):
                    configs.append(
                        {
                            "N": N,
                            "p": p,
                            "q": q,
                            "alpha1": -0.5,
                            "beta1": beta1,
                            "gamma1": gamma1,
                            "delta1": delta1,
                            "m1": 1.0,
                            "mhat1": 1.0,
                            "alpha2": alpha2,
                            "beta2": -0.25,
                            "gamma2": gamma2,
                            "delta2": delta2,
                            "m2": 1.0,
                            "mhat2": 1.0,
                            "zeta1": zeta,
                            "zeta2": zeta,
                        }
                    )
    return configs


def _axslice(nd, k, s):
    return tuple(s if i == k else slice(None) for i in range(nd))


class StridedDiscretization:
    """Face differences G_k = diff(u, axis=k, prepend=0, append=0), n + 1 per axis, as strided
    views of a zero-bordered copy of u; face weights T_k are arrays of n + 1 faces along axis k."""

    def __init__(self, free, h, dtype=np.float64):
        self.free = free
        self.dtype = dtype
        self.fixed = ~free
        nd = self.ndim = free.ndim
        self.h = h
        self.lo = [_axslice(nd, k, slice(None, -1)) for k in range(nd)]
        self.hi = [_axslice(nd, k, slice(1, None)) for k in range(nd)]
        self._padded = np.zeros(tuple(n + 2 for n in free.shape), dtype)
        self._interior = (slice(1, -1),) * nd
        self._before = [tuple(slice(None, -1) if i == k else slice(1, -1) for i in range(nd)) for k in range(nd)]
        self._after = [tuple(slice(1, None) if i == k else slice(1, -1) for i in range(nd)) for k in range(nd)]
        self.ends = [np.diff(free, axis=k, prepend=False, append=False) for k in range(nd)]

    def _face_diffs(self, u):
        padded = self._padded
        padded[self._interior] = u
        for before, after in zip(self._before, self._after):
            yield padded[after] - padded[before]

    def apply(self, u, T, S=None):
        out = np.zeros(u.shape, self.dtype) if S is None else S * u
        for k, (t, TG) in enumerate(zip(T, self._face_diffs(u))):
            TG *= t
            out -= TG[self.hi[k]]
            out += TG[self.lo[k]]
        out[self.fixed] = 0.0
        return out

    def diagonal(self, T, S=None):
        diag = np.zeros(self.free.shape, self.dtype) if S is None else S.copy()
        for k, t in enumerate(T):
            diag += t[self.lo[k]] + t[self.hi[k]]
        diag[self.fixed] = 1.0
        return np.maximum(diag, np.finfo(self.dtype).tiny)

    def cf(self, k):
        return self.free * (1.0 + self.ends[k][self.hi[k]]) / self.h

    def cb(self, k):
        return self.free * (1.0 + self.ends[k][self.lo[k]]) / self.h

    def one_sided_sq(self, u):
        m2f = np.zeros_like(u)
        m2b = np.zeros_like(u)
        for k, G in enumerate(self._face_diffs(u)):
            df = self.cf(k) * G[self.hi[k]]
            db = self.cb(k) * G[self.lo[k]]
            m2f += df * df
            m2b += db * db
        return m2f, m2b

    def energy_density(self, u, p, eps):
        m2f, m2b = self.one_sided_sq(u)
        e2 = eps * eps
        ep = eps**p
        dens = 0.5 * (((m2f + e2) ** (0.5 * p) - ep) + ((m2b + e2) ** (0.5 * p) - ep)) / p
        dens[~self.free] = 0.0
        return float(np.sum(dens))

    def weights(self, u, p, eps):
        """wf, wb and the curvature (sign, qf, qb), qf and qb per axis on the cells."""
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
            np.power(scale, 0.25 * (p - 4.0), out=scale, where=scale > 0.0)
            scale *= math.sqrt(0.5 * abs(p - 2.0))
            for qk in q:
                qk *= scale
        return wf, wb, (math.copysign(1.0, p - 2.0), qf, qb)

    def faces(self, wf, wb):
        T = []
        for k in range(self.ndim):
            t = np.zeros(tuple(n + (i == k) for i, n in enumerate(wf.shape)))
            t[self.hi[k]] += 0.5 * wf * self.cf(k) ** 2
            t[self.lo[k]] += 0.5 * wb * self.cb(k) ** 2
            T.append(t)
        return T

    def hessian(self, v, T, Q):
        sign, qf, qb = Q
        out = np.zeros(v.shape)
        sf = np.zeros(v.shape)
        sb = np.zeros(v.shape)
        for k, (t, TG) in enumerate(zip(T, self._face_diffs(v))):
            hi, lo = self.hi[k], self.lo[k]
            sf += qf[k] * TG[hi]
            sb += qb[k] * TG[lo]
            TG *= t
            out -= TG[hi]
            out += TG[lo]
        sf *= sign
        sb *= sign
        for k, t in enumerate(T):
            hi, lo = self.hi[k], self.lo[k]
            flux = np.zeros(t.shape)
            np.multiply(sf, qf[k], out=flux[hi])
            flux[lo] += sb * qb[k]
            out -= flux[hi]
            out += flux[lo]
        out[self.fixed] = 0.0
        return out


def _pair_sums(x, axes):
    for k in axes:
        odd = x[_axslice(x.ndim, k, slice(1, None, 2))]
        x = x[_axslice(x.ndim, k, slice(None, None, 2))].copy()
        x[_axslice(x.ndim, k, slice(None, odd.shape[k]))] += odd
    return x


def strided_coarsen(free, T, S):
    """Galerkin coarse level (free cells, face weights, sink) of the aggregation V-cycle."""
    nd = free.ndim
    coarse = [(n + 1) // 2 for n in free.shape]
    sink = np.zeros(free.shape, T[0].dtype) if S is None else S.copy()
    Tc = []
    for k, t in enumerate(T):
        lo, hi = _axslice(nd, k, slice(None, -1)), _axslice(nd, k, slice(1, None))
        ts = t * np.diff(free, axis=k, prepend=False, append=False)
        sink += free * (ts[lo] + ts[hi])
        tb = t[_axslice(nd, k, slice(1, -1))] * (free[lo] & free[hi])
        between = _pair_sums(tb[_axslice(nd, k, slice(1, None, 2))], set(range(nd)) - {k})
        tc = np.zeros([m + (i == k) for i, m in enumerate(coarse)], t.dtype)
        tc[_axslice(nd, k, slice(1, -1))] = between
        Tc.append(tc)
    every = range(nd)
    return _pair_sums(free, every), Tc, _pair_sums(sink, every)


def strided_prolong(v, shape):
    for k in range(v.ndim):
        v = np.repeat(v, 2, axis=k)
    return v[tuple(slice(0, n) for n in shape)]


def strided_dense_matrix(free, T, S):
    """The flux form with face weights T and sink S on the free cells (in C order) as a dense float64 matrix."""
    nd = free.ndim
    rows = np.zeros(free.shape, int)
    rows[free] = np.arange(np.count_nonzero(free))
    T = [t.astype(np.float64) for t in T]
    diag = np.zeros(np.count_nonzero(free)) if S is None else S[free].astype(np.float64)
    M = np.zeros((diag.size, diag.size))
    for k, t in enumerate(T):
        lo, hi = _axslice(nd, k, slice(None, -1)), _axslice(nd, k, slice(1, None))
        diag += t[lo][free] + t[hi][free]  # each cell's lower and upper face
        both = free[lo] & free[hi]
        a, b = rows[lo][both], rows[hi][both]
        M[a, b] = M[b, a] = -t[_axslice(nd, k, slice(1, -1))][both]
    M[np.diag_indices_from(M)] = diag
    return M


class StridedVCycle:
    """The symmetric aggregation V-cycle on ``StridedDiscretization`` levels, every level in ``dtype``, down to
    the first level with at most ``dense_cells`` free cells, solved by its dense inverse; it takes and returns
    float64 residuals and corrections.  Each level smooths before and after its coarse correction with the
    degree-2 Chebyshev polynomial p(l) = scale (2 - k scale l) in D^-1 A: from the residual r0, the correction
    2 t - k w A t with t = w r0 and w = scale D^-1."""

    def __init__(self, disc, T, scale, k, alpha, dense_cells, dtype=np.float64):
        self.k, self.alpha = k, alpha
        self.dtype = dtype
        free, S = disc.free, None
        T = [t.astype(dtype) for t in T]
        self.levels = []
        while np.count_nonzero(free) > dense_cells:
            form = StridedDiscretization(free, 1.0, dtype)
            self.levels.append((form, T, S, scale / form.diagonal(T, S)))
            free, T, S = strided_coarsen(free, T, S)
        self.dense_free = free
        self.inverse = _dense_inverse(strided_dense_matrix(free, T, S)).astype(dtype)

    def __call__(self, r):
        return self._cycle(0, r.astype(self.dtype)).astype(np.float64)

    def _smooth(self, form, T, S, w, t):
        return form.apply(t, T, S) * w * -self.k + t + t

    def _cycle(self, i, r):
        if i == len(self.levels):
            z = np.zeros(r.shape, self.dtype)
            z[self.dense_free] = np.einsum("ij,j->i", self.inverse, r[self.dense_free])
            return z
        form, T, S, w = self.levels[i]
        z = self._smooth(form, T, S, w, w * r)
        rc = _pair_sums(r - form.apply(z, T, S), range(r.ndim))
        z[form.free] += strided_prolong(self._cycle(i + 1, rc) * self.alpha, form.free.shape)[form.free]
        return z + self._smooth(form, T, S, w, w * (r - form.apply(z, T, S)))


def _bordered_dot(a, b):
    return float(np.sum(np.pad(a, 1) * np.pad(b, 1)))


def strided_pcg(apply_A, r0, x0, precond, reduction, max_iter):
    """Preconditioned CG from x0 (residual r0) until the residual falls by ``reduction``."""
    x = x0.copy()
    r = r0.copy()
    stop = reduction * np.sqrt(_bordered_dot(r, r))
    pvec = precond(r)
    rz = _bordered_dot(r, pvec)
    for it in range(1, max_iter + 1):
        Ap = apply_A(pvec)
        alpha = rz / _bordered_dot(pvec, Ap)
        x += alpha * pvec
        r -= alpha * Ap
        if np.sqrt(_bordered_dot(r, r)) <= stop:
            return x, it
        z = precond(r)
        rz_new = _bordered_dot(r, z)
        pvec = z + (rz_new / rz) * pvec
        rz = rz_new
    return x, max_iter


def full_grid_weak_residual(grid, mask, r, p):
    """The solver's weak residual with every test function on the whole grid; r = A(u) u - f on the grid.

    The family of ``plap_solver._test_functions`` (hats at the free cells'
    centroid and 0.35 half-widths off it along each axis, two radial cutoffs),
    each normalized by 1 + ||D phi||_{p'}, D phi both one-sided differences of
    every cell, each side with half the weight.  A difference across the
    grid's edge runs to the Dirichlet value h/2 away, so its face jump is
    divided by h/2.
    """
    nd, h = grid.N, grid.spacing
    x = np.meshgrid(*[grid.axis_centers()] * nd, indexing="ij")
    centroid = [float(np.mean(xk[mask])) for xk in x]
    rows = [np.flatnonzero(np.any(mask, axis=tuple(i for i in range(nd) if i != k))) for k in range(nd)]
    half = min((idx[-1] + 1 - idx[0]) * h / 2.0 for idx in rows)
    family = [(centroid, 0.3 * half, None)]
    for k in range(nd):
        for sgn in (1.0, -1.0):
            c = list(centroid)
            c[k] += sgn * 0.35 * half
            family.append((c, 0.25 * half, None))
    family += [(centroid, 0.8 * half, 0.45 * half), (centroid, 0.5 * half, 0.25 * half)]
    pprime = p / (p - 1.0)
    worst = 0.0
    for c, reach, inner in family:
        if inner is None:
            phi = np.prod([np.maximum(0.0, 1.0 - np.abs(xk - ck) / reach) for xk, ck in zip(x, c)], axis=0)
        else:
            dist = np.sqrt(sum((xk - ck) ** 2 for xk, ck in zip(x, c)))
            phi = np.clip((reach - dist) / (reach - inner), 0.0, 1.0)
        phi = phi * mask
        forward, backward = np.zeros(phi.shape), np.zeros(phi.shape)
        for k in range(nd):
            d = np.diff(phi, axis=k, prepend=0.0, append=0.0) / h  # the n + 1 face jumps, zero beyond the grid
            d[_axslice(nd, k, [0, -1])] *= 2.0
            forward += d[_axslice(nd, k, slice(1, None))] ** 2
            backward += d[_axslice(nd, k, slice(None, -1))] ** 2
        sides = sum(float(np.sum(np.sqrt(m) ** pprime)) for m in (forward, backward))
        norm = (0.5 * sides * grid.cell_volume) ** (1.0 / pprime)
        worst = max(worst, abs(grid.cell_volume * float(np.sum(r * phi))) / (1.0 + norm))
    return worst
