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
integral has the closed form 2^{1-N/r}/(1 - N/r).  ``potential_sup`` scans
all cell centers of a region at once by evaluating the ball masses with an
FFT convolution against ball indicator kernels.  Zero padding matches the
zero extension of f; the padded lattice has n + m slots per axis (rounded
up to a 2^a 3^b 5^c length), where m is the number of cells the largest
ball reaches, so no wrapped term meets a real cell.  One kernel transform
is needed per quadrature node; the transforms are kept from the second
request of the same grid and radii on, so a sweep of fields on one grid
pays for them about twice and a single call keeps nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .field import Grid, Region, ScalarField, linf_norm, lp_norm


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


def _quad_nodes(rho0: float, R: float, num_nodes: int) -> tuple[np.ndarray, float]:
    width = (R - rho0) / num_nodes
    rho = rho0 + (np.arange(num_nodes) + 0.5) * width
    return rho, width


def potential_P(f: ScalarField, x: Sequence[float], R: float, quad: PotentialQuadrature) -> float:
    """Potential P_f(x, R) by midpoint quadrature with the small-rho patch.

    The segment [0, rho0] (rho0 = min(rho_min, R)) contributes the analytic
    value |f(x)| sqrt(omega_N) rho0; the rest is a midpoint sum of
    mass(rho)^{1/2} rho^{-N/2}.
    """
    if not R > 0.0:
        raise ValueError("R must be positive")
    grid = f.grid
    idx = grid.nearest_index(x)
    N = grid.N
    rho0 = min(quad.rho_min(grid), R)
    total = abs(float(f.values[idx])) * math.sqrt(unit_ball_volume(N)) * rho0
    if rho0 < R:
        rho, width = _quad_nodes(rho0, R, quad.num_nodes)
        f2 = f.values**2
        dist2 = grid.squared_distance(x)
        g = np.empty(quad.num_nodes)
        for j in range(quad.num_nodes):
            g[j] = math.sqrt(_ball_mass(f, idx, f2, dist2, float(rho[j]))) * float(rho[j]) ** (-0.5 * N)
        total += float(np.sum(g)) * width
    return total


def _smooth_size(k: int) -> int:
    """Smallest 2^a 3^b 5^c >= k, a length pocketfft transforms quickly."""
    size = k
    while True:
        r = size
        for prime in (2, 3, 5):
            while r % prime == 0:
                r //= prime
        if r == 1:
            return size
        size += 1


# Kernel spectra are kept for one key only, and only from the key's second
# request on: a one-off call (a CLI run) holds none of them, a sweep over
# fields on one grid reuses them.
_last_key: tuple | None = None
_kept: tuple[tuple, list[np.ndarray]] | None = None


def _kernel_spectra(grid: Grid, L: int, m: int, radii: np.ndarray) -> Iterator[np.ndarray]:
    """Real spectra of the ball indicator kernels on the (L,)*N lattice, one
    per radius in turn; slot s holds the offset ((s + L//2) mod L) - L//2."""
    global _last_key, _kept
    key = (grid, L, radii.tobytes())
    if _kept is not None and _kept[0] == key:
        yield from _kept[1]
        return
    keep = key == _last_key
    _last_key = key
    if keep:
        _kept = None  # hold one set at a time
    nd = grid.N
    h = grid.spacing
    off = ((np.arange(L) + L // 2) % L - L // 2).astype(np.float64)
    valid_ax = np.abs(off) <= m
    dist2 = np.zeros((L,) * nd)
    valid = np.ones((L,) * nd, dtype=bool)
    for k in range(nd):
        sh = [1] * nd
        sh[k] = L
        dist2 = dist2 + ((off * h) ** 2).reshape(sh)
        valid &= valid_ax.reshape(sh)
    spectra = []
    for rho in radii:
        kernel = (dist2 < rho * rho) & valid
        # the kernel is even, so its spectrum is real up to rounding
        spec = np.ascontiguousarray(np.fft.rfftn(kernel.astype(np.float64)).real)
        if keep:
            spectra.append(spec)
        yield spec
    if keep:
        _kept = (key, spectra)


def _ball_masses_fft(f2: np.ndarray, grid: Grid, radii: np.ndarray) -> Iterator[np.ndarray]:
    """Mass arrays sum_{|c_j - c_i| < rho} f2(j) h^N for every center i, one
    array per radius in turn, via circular convolution on a zero-padded lattice.

    The largest radius reaches m cells along an axis (the largest offset o
    with (o h)^2 < rho_max^2, the kernel's own test), so the lattice needs
    only L >= n + m slots per axis, not 2n: a wrapped offset of a pair of
    real cells then never lands within m of zero.  L is rounded up to a
    2^a 3^b 5^c length.  The kernel spectra come from ``_kernel_spectra``,
    which keeps them from the second request of the same grid and radii on.
    """
    n = grid.cells_per_axis
    nd = grid.N
    h = grid.spacing
    rho_max = radii.max()
    reach = (np.arange(n, dtype=np.float64) * h) ** 2 < rho_max * rho_max
    m = int(np.flatnonzero(reach)[-1])
    L = _smooth_size(n + m)
    pad_shape = (L,) * nd
    f2pad = np.zeros(pad_shape)
    f2pad[(slice(0, n),) * nd] = f2
    F = np.fft.rfftn(f2pad)
    hvol = grid.cell_volume
    for spec in _kernel_spectra(grid, L, m, radii):
        conv = np.fft.irfftn(F * spec, s=pad_shape, axes=tuple(range(nd)))
        yield np.maximum(conv[(slice(0, n),) * nd], 0.0) * hvol


def potential_profile(f: ScalarField, R: float, quad: PotentialQuadrature) -> ScalarField:
    """P_f(x, R) evaluated at every cell center, as a field on the same grid.

    Computes the same quadrature as ``potential_P`` for all centers at once
    (the per-radius ball masses come from one FFT convolution each).  The two
    paths agree up to convolution rounding plus an occasional single-cell tie
    break on the ball boundary: the kernel measures offsets as off * h while
    the direct path takes differences of rounded cell centers, so a cell
    sitting within one ulp of a quadrature sphere can land on different sides.
    """
    if not R > 0.0:
        raise ValueError("R must be positive")
    grid = f.grid
    N = grid.N
    rho0 = min(quad.rho_min(grid), R)
    vals = np.abs(f.values) * (math.sqrt(unit_ball_volume(N)) * rho0)
    if rho0 < R:
        rho, width = _quad_nodes(rho0, R, quad.num_nodes)
        acc = np.zeros(grid.shape)
        for j, mass in enumerate(_ball_masses_fft(f.values**2, grid, rho)):
            acc += np.sqrt(mass) * float(rho[j]) ** (-0.5 * N)
        vals = vals + acc * width
    return ScalarField(grid, vals)


def potential_sup(f: ScalarField, region: Region, R: float, quad: PotentialQuadrature) -> float:
    """max over cell centers of the region of P_f(x, R)."""
    if f.grid != region.grid:
        raise ValueError("field and region live on different grids")
    if region.count == 0:
        raise ValueError("region is empty")
    profile = potential_profile(f, R, quad)
    return float(profile.values[region.mask].max())


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
