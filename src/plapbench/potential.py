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
FFT convolution against ball indicator kernels (zero padding matches the
zero extension of f, and one kernel transform is needed per quadrature
node).
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
    if rho < grid.spacing:
        return float(f.values[idx]) ** 2 * unit_ball_volume(grid.N) * rho**grid.N
    mask = grid.squared_distance(x) < rho * rho
    return float(np.sum(f.values[mask] ** 2)) * grid.cell_volume


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
        g = np.empty(quad.num_nodes)
        for j in range(quad.num_nodes):
            g[j] = math.sqrt(ball_l2_mass(f, x, float(rho[j]))) * float(rho[j]) ** (-0.5 * N)
        total += float(np.sum(g)) * width
    return total


def _ball_masses_fft(f2: np.ndarray, grid: Grid, radii: np.ndarray) -> Iterator[np.ndarray]:
    """Mass arrays sum_{|c_j - c_i| < rho} f2(j) h^N for every center i, one
    array per radius in turn, via circular convolution on a zero-padded lattice."""
    n = grid.cells_per_axis
    nd = grid.N
    h = grid.spacing
    size = 2 * n
    pad_shape = (size,) * nd
    f2pad = np.zeros(pad_shape)
    f2pad[(slice(0, n),) * nd] = f2
    F = np.fft.rfftn(f2pad)
    # lattice offsets wrapped onto the padded grid: slot i holds offset
    # ((i + n) mod 2n) - n cells; only |offset| <= n - 1 pairs real cells
    off = ((np.arange(size) + n) % size - n).astype(np.float64)
    valid_ax = np.abs(off) <= n - 1
    dist2 = np.zeros(pad_shape)
    valid = np.ones(pad_shape, dtype=bool)
    for k in range(nd):
        sh = [1] * nd
        sh[k] = size
        dist2 = dist2 + ((off * h) ** 2).reshape(sh)
        valid &= valid_ax.reshape(sh)
    hvol = grid.cell_volume
    for rho in radii:
        kernel = (dist2 < rho * rho) & valid
        axes = tuple(range(nd))
        conv = np.fft.irfftn(F * np.fft.rfftn(kernel.astype(np.float64)), s=pad_shape, axes=axes)
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
