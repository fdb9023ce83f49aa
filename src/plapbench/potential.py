"""Nonlinear potential of a source field and its closed-form Hölder bound.

For a scalar field f the potential at a point x is

    P_f(x, R) = int_0^R ( |f|^2(B_rho(x)) / rho^{N-2} )^{1/2}  drho / rho,

where |f|^2(B_rho(x)) is the squared L^2 mass of f over the ball B_rho(x)
(f extended by zero outside the box).  Collecting powers of rho the
integrand is g(rho) = mass(rho)^{1/2} rho^{-N/2}, which stays bounded as
rho -> 0 for bounded f, since mass(rho) ~ |f(x)|^2 omega_N rho^N.

The discrete ball mass is stair-stepped below the grid scale (a ball
smaller than a cell either contains the center or not), so the segment
[0, rho_min] is integrated analytically with the locally-constant value
g = |f(x)| sqrt(omega_N); above rho_min a composite midpoint rule is used.
For constant f the integrand is exactly constant and both pieces are exact
up to rounding.

The companion bound exchanges the mass for the full L^r norm by Hölder
(r > N): P_f(x, 2) <= C ||f||_{L^r} int_0^2 rho^{-N/r} drho, and the rho
integral has the closed form 2^{1-N/r}/(1 - N/r).  ``potential_profile``
(every cell) and ``potential_sup`` (its region's bounding box) get the ball
masses of the cells they read at once, by FFT convolution against ball
indicator kernels on a zero-padded lattice sized by the read box, with
transforms pruned to the lattice lines that hold data or are read (see
``_ball_masses_fft``).  One kernel transform is needed per quadrature node;
the transforms are kept from the second request of the same grid, lattice
and radii on, so a sweep of fields on one grid pays for them about twice
and a single call keeps nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .field import Grid, Region, ScalarField, _axslice, _bbox_slices, linf_norm, lp_norm


@dataclass(frozen=True)
class PotentialQuadrature:
    """Midpoint rule with ``num_nodes`` nodes and an analytic patch below
    ``rho_min_policy`` (None means: use the grid spacing at call time)."""

    num_nodes: int = 64
    rho_min_policy: float | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 8:
            raise ValueError("num_nodes must be at least 8")
        if self.rho_min_policy is not None and not self.rho_min_policy > 0.0:
            raise ValueError("rho_min_policy must be positive")

    def rho_min(self, grid: Grid) -> float:
        return self.rho_min_policy if self.rho_min_policy is not None else grid.spacing


def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N: pi^{N/2} / Gamma(N/2 + 1)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def ball_l2_mass(f: ScalarField, x: Sequence[float], rho: float) -> float:
    """Squared L^2 mass of f over B_rho(x), f extended by zero outside the box.

    Below the quadrature patch scale callers use the analytic form; this
    function applies it below one grid spacing: |f(x)|^2 omega_N rho^N with
    the nearest-cell value, removing the stair-step of sub-cell balls.
    """
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    grid = f.grid
    idx = grid.nearest_index(x)  # also validates that x lies in the box
    return _ball_mass(f, idx, f.values**2, grid.squared_distance(x), rho)


def _ball_mass(f: ScalarField, idx: tuple[int, ...], f2: np.ndarray, dist2: np.ndarray, rho: float) -> float:
    """``ball_l2_mass`` from f^2 and |c - x|^2 built by the caller, so a
    sweep over radii builds them once; idx is the cell nearest to x."""
    grid = f.grid
    if rho < grid.spacing:
        return float(f.values[idx]) ** 2 * unit_ball_volume(grid.N) * rho**grid.N
    return float(np.sum(f2[dist2 < rho * rho])) * grid.cell_volume


def _quad_nodes(quad: PotentialQuadrature, grid: Grid, R: float) -> tuple[float, np.ndarray, float]:
    """rho0 = min(rho_min, R), and the midpoint nodes on [rho0, R] with their width."""
    if not R > 0.0:
        raise ValueError("R must be positive")
    rho0 = min(quad.rho_min(grid), R)
    width = (R - rho0) / quad.num_nodes
    return rho0, rho0 + (np.arange(quad.num_nodes) + 0.5) * width, width


def potential_P(f: ScalarField, x: Sequence[float], R: float, quad: PotentialQuadrature) -> float:
    """Potential P_f(x, R) by midpoint quadrature with the small-rho patch.

    The segment [0, rho0] (rho0 = min(rho_min, R)) contributes the analytic
    value |f(x)| sqrt(omega_N) rho0; the rest is a midpoint sum of
    mass(rho)^{1/2} rho^{-N/2}.
    """
    grid, N = f.grid, f.grid.N
    rho0, rho, width = _quad_nodes(quad, grid, R)
    idx = grid.nearest_index(x)
    total = abs(float(f.values[idx])) * math.sqrt(unit_ball_volume(N)) * rho0
    if rho0 < R:
        f2 = f.values**2
        dist2 = grid.squared_distance(x)
        g = np.array([math.sqrt(_ball_mass(f, idx, f2, dist2, float(r))) * float(r) ** (-0.5 * N) for r in rho])
        total += float(np.sum(g)) * width
    return total


def _smooth_size(k: int) -> int:
    """Smallest 2^a 3^b 5^c >= k, a length pocketfft transforms quickly."""
    while True:
        r = k
        for prime in (2, 3, 5):
            while r % prime == 0:
                r //= prime
        if r == 1:
            return k
        k += 1


# Kernel spectra are kept for one key only, and only from the key's second
# request on: a one-off call (a CLI run) holds none of them, a sweep over
# fields on one grid reuses them.
_last_key: tuple | None = None
_kept: tuple[tuple, list[np.ndarray]] | None = None


def _lattice_rfftn(a: np.ndarray, L: int, slots: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.rfftn`` of a on the (L,)*N lattice, entry i of each axis in slot ``slots[i]`` (i if None),
    one axis at a time in rfftn's order, placed or zero-padded just before its transform."""
    for axis in reversed(range(a.ndim)):
        if slots is not None:
            placed = np.zeros(a.shape[:axis] + (L,) + a.shape[axis + 1:], dtype=a.dtype)
            placed[_axslice(a.ndim, axis, slots)] = a
            a = placed
        a = np.fft.rfft(a, n=L, axis=axis) if axis == a.ndim - 1 else np.fft.fft(a, n=L, axis=axis)
    return a


def _kernel_spectra(grid: Grid, L: int, m: int, radii: np.ndarray) -> Iterator[np.ndarray]:
    """Real spectra of the ball indicator kernels on the (L,)*N lattice, one
    per radius in turn; the offset o (|o| <= m per axis) sits in slot o mod L."""
    global _last_key, _kept
    key = (grid, L, radii.tobytes())
    if _kept is not None and _kept[0] == key:
        yield from _kept[1]
        return
    keep = key == _last_key
    _last_key = key
    if keep:
        _kept = None  # hold one set at a time
    off = np.arange(-m, m + 1)
    # |o h|^2 on the (2m + 1)^N block of offsets, summed over the axes in order
    sq = (off * grid.spacing) ** 2
    dist2 = sum(sq.reshape([-1 if j == k else 1 for j in range(grid.N)]) for k in range(grid.N))
    spectra = []
    for rho in radii:
        kernel = (dist2 < rho * rho).astype(np.float64)
        # the kernel is even, so its spectrum is real up to rounding
        spec = np.ascontiguousarray(_lattice_rfftn(kernel, L, off % L).real)
        if keep:
            spectra.append(spec)
        yield spec
    if keep:
        _kept = (key, spectra)


def _ball_masses_fft(f2: np.ndarray, grid: Grid, radii: np.ndarray, box: tuple[slice, ...]) -> Iterator[np.ndarray]:
    """Mass arrays sum_{|c_j - c_i| < rho} f2(j) h^N for every center i of
    ``box``, one array of the box's shape per radius in turn, via circular
    convolution on a zero-padded lattice.

    The largest radius reaches m cells along an axis (the largest offset o
    with (o h)^2 < rho_max^2, the kernel's own test), so the sources are the
    box widened by m, clamped to the grid.  With D the largest axis offset
    between a read cell and a source, L >= D + m + 1 slots per axis keep every
    wrapped term off the read cells (n + m for the whole grid), and L >= 2m + 1
    gives each kernel offset a slot of its own; L is rounded up to 2^a 3^b 5^c.
    The transforms skip all-zero input lines and unread output rows; every
    other line sees full-lattice rfftn/irfftn's data, so the bits match theirs.
    """
    n, nd = grid.cells_per_axis, grid.N
    rho_max = radii.max()
    m = int(np.flatnonzero((np.arange(n, dtype=np.float64) * grid.spacing) ** 2 < rho_max * rho_max)[-1])
    src = tuple(slice(max(b.start - m, 0), min(b.stop + m, n)) for b in box)
    D = max(max(b.stop - 1 - s.start, s.stop - 1 - b.start) for b, s in zip(box, src))
    L = _smooth_size(max(D, m) + m + 1)
    rows = tuple(slice(b.start - s.start, b.stop - s.start) for b, s in zip(box, src))
    F = _lattice_rfftn(f2[src], L)
    hvol = grid.cell_volume
    for spec in _kernel_spectra(grid, L, m, radii):
        # irfftn in its own order (axes 0 .. N-2, then the last), dropping the unread rows after each axis
        G = F * spec
        for axis in range(nd - 1):
            G = np.fft.ifft(G, axis=axis)[_axslice(nd, axis, rows[axis])]
        yield np.maximum(np.fft.irfft(G, n=L, axis=nd - 1)[_axslice(nd, nd - 1, rows[-1])], 0.0) * hvol


def _profile_values(f: ScalarField, R: float, quad: PotentialQuadrature, box: tuple[slice, ...]) -> np.ndarray:
    """P_f(x, R) at the cell centers of ``box`` (one bounded slice per axis), as an array of its shape."""
    grid, N = f.grid, f.grid.N
    rho0, rho, width = _quad_nodes(quad, grid, R)
    vals = np.abs(f.values[box]) * (math.sqrt(unit_ball_volume(N)) * rho0)
    if rho0 < R:
        acc = np.zeros(vals.shape)
        for j, mass in enumerate(_ball_masses_fft(f.values**2, grid, rho, box)):
            acc += np.sqrt(mass) * float(rho[j]) ** (-0.5 * N)
        vals = vals + acc * width
    return vals


def potential_profile(f: ScalarField, R: float, quad: PotentialQuadrature) -> ScalarField:
    """P_f(x, R) evaluated at every cell center, as a field on the same grid.

    Computes the same quadrature as ``potential_P`` for all centers at once
    (the per-radius ball masses come from one FFT convolution each).  The two
    paths agree up to convolution rounding plus an occasional single-cell tie
    break on the ball boundary: the kernel measures offsets as off * h while
    the direct path takes differences of rounded cell centers, so a cell
    sitting within one ulp of a quadrature sphere can land on different sides.
    """
    return ScalarField(f.grid, _profile_values(f, R, quad, (slice(0, f.grid.cells_per_axis),) * f.grid.N))


def potential_sup(f: ScalarField, region: Region, R: float, quad: PotentialQuadrature) -> float:
    """max over cell centers of the region of P_f(x, R), evaluated on the region's bounding box only."""
    if f.grid != region.grid:
        raise ValueError("field and region live on different grids")
    if region.count == 0:
        raise ValueError("region is empty")
    box = _bbox_slices(region.mask)
    return float(_profile_values(f, R, quad, box)[region.mask[box]].max())


def holder_rho_integral(N: int, r: float) -> float:
    """Closed form of int_0^2 rho^{-N/r} drho = 2^{1-N/r}/(1 - N/r); needs r > N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not r > N:
        raise ValueError(f"the rho integral diverges unless r > N (got r={r}, N={N})")
    a = N / r  # r = +inf gives a = 0 and the integral is exactly 2
    return 2.0 ** (1.0 - a) / (1.0 - a)


def potential_holder_bound(f: ScalarField, r: float, N: int) -> float:
    """||f||_{L^r(box)} * int_0^2 rho^{-N/r} drho, the Hölder-step upper bound
    for sup_x P_f(x, 2) (up to the absorbed Hölder constant)."""
    if N != f.grid.N:
        raise ValueError("N does not match the field's grid dimension")
    coef = holder_rho_integral(N, r)
    if math.isinf(r):
        return linf_norm(f) * coef
    return lp_norm(f, r) * coef
