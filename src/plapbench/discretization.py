"""How a grid function is differenced: one face stencil for the solver and the field gradient.

It imports numpy and the standard library only, so ``field``, ``estimates``
and ``plap_solver`` all import from it.

The solver minimizes, over the free cells (the whole box, or a cell mask
such as a ball) with zero Dirichlet data off them, the regularized energy

    E(u) = sum_cells [ (phi_eps(|D+ u|^2) + phi_eps(|D- u|^2))/2 - f u ] h^N,
    phi_eps(s) = ((s + eps^2)^{p/2} - eps^p)/p,

with D+ u the forward and D- u the backward one-sided difference along every
axis.  A difference that crosses into a constrained cell is taken to the
Dirichlet value over the half spacing h/2, i.e. to the cell face where the
boundary actually sits.  Both differences are read off G_k, the jumps of u
across the cell faces, and every formula on them (magnitudes, weights,
density, Hessian) is written once, in a loop over the two sides
(``_Discretization``).  For p = 2 this is exactly the standard
finite-volume 5/7-point scheme with face-centered Dirichlet data; the plain
forward-difference energy would be reflection-asymmetric (Neumann on one
side of every axis) and visibly skews radial solutions, so the symmetric
form is used throughout.

Symmetry caveat: grouping all forward differences into one gradient
magnitude and all backward ones into another makes the energy exactly
invariant under axis transpositions and under the full point reflection
x -> -x, but only asymptotically invariant under a single-axis reflection
when p != 2 (the flip maps the forward magnitude to a mixed forward/backward
mix, and phi_eps is nonlinear).  On radial problems the resulting axis-flip
asymmetry of the minimizer is a discretization effect that shrinks under
refinement and vanishes identically at p = 2.

Minimum principle: for f >= 0 the minimizer is >= 0.  Replacing u by
u+ = max(u, 0) shrinks no face jump, since |a+ - b+| <= |a - b| and the
Dirichlet value is 0, so it raises no magnitude and no phi_eps term; for
f >= 0 it also lowers -sum f u.  So E(u+) <= E(u), and since the strictly
convex energy has one minimizer, u+ = u (``tests/test_invariants.py``).
Comparison, f1 <= f2 => u1 <= u2, is exact at p = 2, where the operator is
an M-matrix.  For p != 2 it would need max(u1, u2) and min(u1, u2) to lower
the energy too, and one cell's magnitude mixes the jumps of all its axes: on
rough data (white noise plus a one-cell spike on 32^2) u2 < u1 in a cell or
two at p = 1.2 and at p = 6, by up to 1.7e-3 of max |u2 - u1|.

The field gradient (``_gradient_sides``, behind ``field.gradient``) is the
same pair: both one-sided differences of every cell, read off the face
jumps of ``_Discretization`` with every cell of the box free (c = 2/h across
the box's edge), forward then backward.  The reactions, the estimates and the
weak residual's test functions average the two sides as the energy does, and
where they need only each side's |g|^2 they take it without forming the pair
(``_side_squares``).  So a reaction, a norm or an estimate integrand keeps
the energy's symmetries: under x -> -x the forward and backward sides trade
places.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from operator import iadd
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


def _axslice(ndim: int, axis: int, sl: slice | np.ndarray) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def _pair_sums(x: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """Sums of neighbouring pairs along ``axes``; an odd axis keeps its last layer alone."""
    for k in axes:
        odd = x[_axslice(x.ndim, k, slice(1, None, 2))]
        x = x[_axslice(x.ndim, k, slice(None, None, 2))].copy()
        x[_axslice(x.ndim, k, slice(None, odd.shape[k]))] += odd
    return x


def _stress_values(a: np.ndarray, p: float) -> np.ndarray:
    """|a|^{p-2} a on the last axis, 0 at a = 0."""
    mag2 = np.einsum("...k,...k->...", a, a)
    factor = np.zeros_like(mag2)
    nz = mag2 > 0.0
    factor[nz] = mag2[nz] ** (0.5 * (p - 2.0))
    return a * factor[..., None]


class _FluxForm:
    """The flux-form operator -sum_k diff(T_k G_k) + S u on the free cells of a box.

    G_k = diff(u, axis=k, prepend=0, append=0) are the jumps of u across the
    n + 1 faces per axis, T_k holds one weight per face and S (None: no sink)
    one weight per cell.  Rows of constrained cells are zero and their diagonal
    entries 1, so every level of the multigrid hierarchy is one of these.

    Bordered layout, the one every solver vector lives in: u goes into the
    interior of a zero border, the box of (n + 2)^N cells flattened in C
    order, in which axis k has the stride s_k.  The face between bordered
    cells j and j + s_k is stored at index j, so with P the bordered u,
    G_k = P[s_k:] - P[:-s_k], and the divergence of a face array F is
    out[s_k:-s_k] -= F[s_k:], then out[s_k:-s_k] += F[:-s_k]: every pass runs
    over contiguous memory.  T_k and S are flat arrays of the bordered size,
    zero off the box's faces and cells; ``face_view`` and ``cells`` are their
    face- and cell-shaped views.  No inner product needs the views: a
    solver vector is +0 off the free cells, so an inner product sums it flat.
    """

    def __init__(self, free: np.ndarray):
        self.free = free
        nd = self.ndim = free.ndim
        self.bordered = tuple(n + 2 for n in free.shape)
        self.size = math.prod(self.bordered)
        self.strides = [math.prod(self.bordered[k + 1:]) for k in range(nd)]
        self._interior = (slice(1, -1),) * nd
        self._faces = [tuple(slice(None, -1) if i == k else slice(1, -1) for i in range(nd)) for k in range(nd)]
        self.inside = self.bordered_copy(free)
        self.outside = ~self.inside

    def cells(self, x: np.ndarray) -> np.ndarray:
        """The cell-shaped view of a bordered array."""
        return x.reshape(self.bordered)[self._interior]

    def face_view(self, t: np.ndarray, k: int) -> np.ndarray:
        """The face-shaped view (n + 1 faces along axis k) of a bordered face array of axis k."""
        return t.reshape(self.bordered)[self._faces[k]]

    def bordered_copy(self, x: np.ndarray) -> np.ndarray:
        """A cell-shaped array in the bordered layout, zero on the border, in x's dtype."""
        out = np.zeros(self.size, x.dtype)
        self.cells(out)[...] = x
        return out

    def free_rows(self, out: np.ndarray) -> np.ndarray:
        """out, bordered, with +0 on the border and in the rows of constrained cells, in place."""
        np.copyto(out, 0.0, where=self.outside)
        return out

    def apply(self, P: np.ndarray, T: list[np.ndarray], S: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the frozen quadratic, -sum_k diff(T_k G_k) + S P (no h^N), in P's dtype.

        P and the result are bordered; P is zero on the border, and the
        result's entries off the free cells are not zeroed (``free_rows``).
        """
        out = np.zeros(self.size, P.dtype) if S is None else S * P
        buf = np.empty(self.size, P.dtype)
        for s, t in zip(self.strides, T):
            TG = np.subtract(P[s:], P[:-s], out=buf[:-s])
            TG *= t[:-s]
            out[s:-s] -= TG[s:]
            out[s:-s] += TG[:-s]
        return out

    def diagonal(self, T: list[np.ndarray], S: np.ndarray | None = None) -> np.ndarray:
        """The operator's diagonal, bordered, in T's dtype, at least that dtype's smallest normal number."""
        diag = np.zeros(self.size, T[0].dtype) if S is None else S.copy()
        for s, t in zip(self.strides, T):
            diag[s:] += t[:-s] + t[s:]  # the cell's lower and upper face
        diag[self.outside] = 1.0
        return np.maximum(diag, np.finfo(diag.dtype).tiny)

    def matrix(self, T: list[np.ndarray], S: np.ndarray | None = None) -> np.ndarray:
        """The operator on the free cells (in C order) as a dense float64 matrix; its diagonal is not clamped."""
        cells = self.free_cells
        faces, offsets = self._off_diagonal
        m = cells.size
        T = [t.astype(np.float64) for t in T]
        M = np.zeros(m * m)
        w = np.concatenate([t[j] for t, j in zip(T, faces)])
        M[offsets] = -np.concatenate((w, w))
        diag = M[:: m + 1]
        if S is not None:
            diag += S[cells]
        for s, t in zip(self.strides, T):
            diag += t[cells - s] + t[cells]  # the cell's lower and upper face, summed as in ``diagonal``
        return M.reshape(m, m)

    @cached_property
    def free_cells(self) -> np.ndarray:
        """The bordered indices of the free cells, in C order."""
        return np.flatnonzero(self.inside)

    @cached_property
    def _off_diagonal(self) -> tuple[list[np.ndarray], np.ndarray]:
        """For ``matrix``: per axis the faces between two free cells, and those faces' flat positions
        in the matrix, above the diagonal, then below it."""
        cells = self.free_cells
        row = np.zeros(self.size, np.intp)
        row[cells] = np.arange(cells.size)
        faces = [np.flatnonzero(self.inside[:-s] & self.inside[s:]) for s in self.strides]
        below = np.concatenate([row[j] for j in faces])
        above = np.concatenate([row[j + s] for s, j in zip(self.strides, faces)])
        return faces, np.concatenate((below * cells.size + above, above * cells.size + below))

    @cached_property
    def coarse(self) -> _FluxForm:
        """The form on the 2^N box aggregates of ``_coarsen``, built once per form."""
        return _FluxForm(_pair_sums(self.free, range(self.ndim)))

    @cached_property
    def ends(self) -> list[np.ndarray]:
        """Per axis, True on the faces where the free region ends (exactly one side free), aligned with the faces."""
        return [self.inside[s:] != self.inside[:-s] for s in self.strides]



class _Curvature(NamedTuple):
    """The rank-one part of the energy's Hessian: the sign of p - 2 and the vectors q of each side.

    q[i][k] belongs to side i (``_Discretization.sides``) and is aligned with
    the faces of axis k: its entry j belongs to the cell whose difference on
    that side crosses face j, the bordered cell j forward and j + s_k backward.
    """

    sign: float
    q: list[list[np.ndarray]]



class _Discretization(_FluxForm):
    """Face differences G_k = diff(u, axis=k, prepend=0, append=0), n + 1 per axis, read one side at a time.

    A cell's forward difference is c times the jump across its upper face and
    its backward one c times the jump across its lower face, with c = 1/h, or
    2/h across a face that ends the free region (the Dirichlet value sits on
    that face, h/2 away), and c = 0 on constrained cells (``coefficient``).
    Each side of ``sides``, forward then backward, holds per axis k the slice
    that aligns a bordered cell array with the faces of axis k, [:-s_k] or
    [s_k:], and each per-side formula is one loop over the sides.  Frozen
    weights w give one weight per face, T_k = the sum over the sides of
    w c^2/2 from the face's cell on that side; the frozen quadratic is
    (1/2) sum_k sum_faces T_k G_k^2 and its gradient -sum_k diff(T_k G_k).
    """

    def __init__(self, free: np.ndarray, h: float):
        super().__init__(free)
        self.h = h
        self.sides = [[slice(None, -s) for s in self.strides], [slice(s, None) for s in self.strides]]

    def coefficient(self, k: int, side: list[slice] | None = None) -> np.ndarray:
        """c of a side's differences along axis k (``side`` is one of ``sides``), aligned with the faces of axis k;
        with no side, c on every face as if the cells on both sides were free."""
        # 1 << ends is 1, or 2 on a face that ends the free region; a side's constrained cell makes it 0
        free = 1 if side is None else self.inside[side[k]].view(np.uint8)
        return (free << self.ends[k].view(np.uint8)) * (1.0 / self.h)

    def _face_diffs(self, P: np.ndarray) -> Iterator[np.ndarray]:
        """G_k of a bordered P for k = 0, ..., N - 1, one at a time."""
        for s in self.strides:
            yield P[s:] - P[:-s]

    def linearize(self, u: np.ndarray, p: float, eps: float) -> tuple[list[np.ndarray], _Curvature, float]:
        """Per side, the lagged weights w = (|g|^2+eps^2)^{(p-2)/2} of the side's gradient g at u (bordered,
        +0 off the free cells); the rank-one part of the energy's Hessian there; and the energy density sum.

        Per side the density phi_eps(|g|^2)/2 has the Hessian (w/2) (I + (p-2) g g^T/(|g|^2+eps^2))
        in g, so the energy's Hessian is A_T plus, per side, the form
        sign (sum_k q_k G_k(v))^2 with q_k = sqrt(|p-2|/2) (|g|^2+eps^2)^{(p-4)/4} c_k g_k
        (``hessian``).  The products c_k g_k are kept and scaled into q in place,
        after the density is formed from the squared magnitudes.
        """
        m2 = [np.zeros(self.size) for _ in self.sides]
        q = [[] for _ in self.sides]
        for k, G in enumerate(self._face_diffs(u)):
            for m, qs, side in zip(m2, q, self.sides):
                c = self.coefficient(k, side)
                g = c * G
                m[side[k]] += g * g
                g *= c
                qs.append(g)
        e2 = eps * eps
        w = [self.free_rows((m + e2) ** (0.5 * (p - 2.0))) for m in m2]
        # each side's phi_eps(|g|^2)/2, summed over the whole cell box with the constrained cells zeroed
        dens = 0.5 * reduce(iadd, ((self.cells(m) + e2) ** (0.5 * p) - eps**p for m in m2)) / p
        dens[self.cells(self.outside)] = 0.0
        density = float(np.sum(dens))
        for m, qs, side in zip(m2, q, self.sides):
            m += e2
            # in place; at eps = 0 a cell without gradient keeps q = 0, not 0 * inf
            np.power(m, 0.25 * (p - 4.0), out=m, where=m > 0.0)
            m *= math.sqrt(0.5 * abs(p - 2.0))
            for qk, faces_k in zip(qs, side):
                qk *= m[faces_k]
        return w, _Curvature(math.copysign(1.0, p - 2.0), q), density

    def faces(self, w: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per-face weights T_k of the frozen quadratic from each side's per-cell weights, all bordered."""
        half = [x * 0.5 for x in w]
        T = []
        for k, s in enumerate(self.strides):
            t = np.zeros(self.size)
            for half_w, side in zip(half, self.sides):
                # w c^2/2 from the face's cell on this side
                c = self.coefficient(k, side)
                c *= c
                c *= half_w[side[k]]
                t[:-s] += c
            T.append(t)
        return T

    def hessian(self, v: np.ndarray, T: list[np.ndarray], Q: _Curvature) -> np.ndarray:
        """The energy's Hessian (no h^N) at the point of T and Q, applied to a bordered v; +0 off the free cells.

        ``apply(v, T)`` plus the face fluxes of the rank-one part: with
        t = sign sum_k q_k G_k(v) per side, each side puts t q_k on the face of
        axis k that its differences cross.
        """
        out = np.zeros(self.size)
        sums = [np.zeros(self.size) for _ in self.sides]
        for k, (s, t, TG) in enumerate(zip(self.strides, T, self._face_diffs(v))):
            for total, q, side in zip(sums, Q.q, self.sides):
                total[side[k]] += q[k] * TG
            TG *= t[:-s]
            out[s:-s] -= TG[s:]
            out[s:-s] += TG[:-s]
        for total in sums:
            total *= Q.sign
        # a face on the box's edge also takes the border cell's product, a
        # zero of either sign; out starts at +0 and so never holds -0, which
        # keeps that sign out of the result
        for k, s in enumerate(self.strides):
            flux = reduce(iadd, (total[side[k]] * q[k] for total, q, side in zip(sums, Q.q, self.sides)))
            out[s:-s] -= flux[s:]
            out[s:-s] += flux[:-s]
            del flux  # gone before the next axis's products are formed (peak memory)
        return self.free_rows(out)


def _box_differences(vals: np.ndarray, h: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per axis k, the array of c G_k of a box of values, as ``_Discretization`` reads it with every cell free
    (c = 2/h across the box's edge, where the Dirichlet value sits h/2 away), and the forward and the backward
    difference of every cell: two cell-shaped views of that one array."""
    disc = _Discretization(np.ones(vals.shape, dtype=bool), h)
    for k, (s, G) in enumerate(zip(disc.strides, disc._face_diffs(disc.bordered_copy(vals)))):
        # the face between bordered cells j and j + s goes to index j + s, so a cell's upper face sits s past its
        # own index and its lower face at it
        faces = np.zeros(disc.size + s)
        np.multiply(disc.coefficient(k), G, out=faces[s:disc.size])
        yield faces, disc.cells(faces[s:]), disc.cells(faces[:disc.size])


def _gradient_sides(vals: np.ndarray, h: float) -> np.ndarray:
    """Both one-sided differences of every cell (``_box_differences``), shape vals.shape + (2, N): [..., i, k] is
    side i's, forward then backward, along axis k."""
    return np.stack([np.stack(sides, axis=-1) for _, *sides in _box_differences(vals, h)], axis=-1)


def _side_squares(vals: np.ndarray, h: float) -> list[np.ndarray]:
    """Per side, |g|^2 of ``_gradient_sides`` (its squares summed over the axes in order, in the same bits),
    cell-shaped, with one axis's differences formed at a time."""
    m2 = [0.0, 0.0]
    for faces, *sides in _box_differences(vals, h):
        faces *= faces  # the sides are views of it
        m2 = [m + g for m, g in zip(m2, sides)]
    return m2
