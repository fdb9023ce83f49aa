"""Desk-scale verification of the three analytic pillars.

1. Vector monotonicity: for the p-stress phi_p(a) = |a|^{p-2} a the gap
       (phi_p(a) - phi_p(b)) . (a - b)
   is nonnegative and controls |a - b|^p (p >= 2) or the regularized
   quadratic (1 + |a|^2 + |b|^2)^{(p-2)/2} |a - b|^2 (p in (1,2)).  The
   module evaluates the gap exactly and estimates the best constant
   empirically (random sampling plus a deterministic adversarial battery;
   for p >= 2 the infimum 2^{2-p} is attained at antipodal pairs).

2. The gradient sup bound: for a solved -Delta_p u = f,
       ||grad u||_{L^inf(B_R)}^{p-1} <= C (||grad u||_p^{p-1} + ||f||_r),
   r > N, with the alternative local form using the nonlinear potential,
       ||grad u||_{L^inf(B_R)} <= C [ (avg_{B_2R} |grad u|^p)^{1/p}
                                      + sup_{B_2R} P_f(., 2R)^{1/(p-1)} ].
   Constants are never asserted; the reports record the empirical ratio so
   stability can be tested under refinement and rescaling.

3. The difference-quotient compactness chain: testing the weak form with
   eta^2 delta_h u (eta a cutoff between B_t and B_s, |h| < R - s) bounds
   the monotonicity integral by explicitly assembled cutoff and Hölder
   factors:
       sum_{B_t} delta_h V . delta_h grad u  <=
           4 (1+eps_geom)/(s-t) ||delta_h u||_{p,B_R} ||grad u||_{p,B_R}^{p-1}
           + 2 ||f||_{r',B_R} ||delta_h u||_{r,B_R},
   V the stress field, eps_geom the discrete cutoff-slope excess.  The
   decay of sup_n ||delta_h grad u_n||_{L^p(B_t)} in |h|, uniformly in n,
   is the Riesz-Fréchet-Kolmogorov compactness hypothesis; for p < 2 the
   weighted quantity and its Hölder comparison are reported as well.

All shifts are exact lattice translations (no interpolation), all sums are
cell-volume weighted, and every report stores the inputs needed to audit
the inequality instance.  grad u is ``field.gradient``, the solver's forward
and backward difference per cell, and every cell sum of a gradient term is
the mean over the two sides, as in the solver's energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .discretization import _stress_values
from .field import (
    Region,
    ScalarField,
    VectorField,
    ball_mask,
    cutoff_eta,
    delta_h,
    gradient,
    lattice_vector,
    linf_norm,
    lp_norm,
    shift,
)
from .potential import PotentialQuadrature, potential_sup


@dataclass(frozen=True)
class EstimateReport:
    """One inequality instance: both sides, the empirical constant, and the
    inputs that produced them."""

    lhs: float
    rhs: float
    constant_estimate: float
    verdict: bool
    context: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict != (self.lhs <= self.rhs):
            raise ValueError("verdict inconsistent with stored sides")

    @classmethod
    def of(cls, lhs: float, rhs: float, **context: Any) -> "EstimateReport":
        """The instance lhs <= rhs, with the empirical constant lhs/rhs (0 when rhs = 0)."""
        return cls(lhs, rhs, lhs / rhs if rhs > 0.0 else 0.0, lhs <= rhs, context)


def _regularized_weight(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """(1 + |a|^2 + |b|^2)^{(p-2)/2} over the last axis: the weight of the p < 2 monotonicity bound."""
    return (1.0 + np.einsum("...k,...k->...", a, a) + np.einsum("...k,...k->...", b, b)) ** (0.5 * (p - 2.0))


def monotonicity_gap(a, b, p: float):
    """Gap (phi_p(a) - phi_p(b)) . (a - b) and its reference quantity.

    reference = |a - b|^p for p >= 2, (1 + |a|^2 + |b|^2)^{(p-2)/2} |a - b|^2
    for p in (1, 2).  Accepts single vectors or batches (..., N); returns
    floats or arrays accordingly.  For p = 2 both outputs are computed from
    the identical reduction, so their ratio is exactly 1 whenever a != b.
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError("a and b must have the same shape")
    d = av - bv
    gap = np.einsum("...k,...k->...", _stress_values(av, p) - _stress_values(bv, p), d)
    d2 = np.einsum("...k,...k->...", d, d)
    ref = d2 ** (0.5 * p) if p >= 2.0 else _regularized_weight(av, bv, p) * d2
    if av.ndim == 1:
        return float(gap), float(ref)
    return gap, ref


def _adversarial_pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic battery: antipodal pairs (attaining 2^{2-p} for p >= 2),
    near-parallel near-equal pairs at several norms, and near-zero pairs."""
    pairs_a: list[np.ndarray] = []
    pairs_b: list[np.ndarray] = []
    e = np.zeros(N)
    e[0] = 1.0
    diag = np.ones(N) / np.sqrt(N)
    for direction in (e, diag):
        for scale in (1e-6, 1e-3, 0.1, 1.0, 5.0, 9.999):
            v = scale * direction
            pairs_a.append(v)
            pairs_b.append(-v)  # antipodal
            for rel in (1e-8, 1e-4, 1e-2):
                pairs_a.append(v)
                pairs_b.append((1.0 - rel) * v)  # near-equal parallel
        perp = np.zeros(N)
        perp[-1] = 1.0
        if abs(float(direction @ perp)) > 0.9:
            perp = np.zeros(N)
            perp[0] = 1.0
        for scale in (0.1, 1.0, 9.999):
            pairs_a.append(scale * direction)
            pairs_b.append(scale * (direction + 1e-4 * perp) / np.sqrt(1.0 + 1e-8))
    return np.array(pairs_a), np.array(pairs_b)


def empirical_monotonicity_constant(p: float, samples: int, seed: int, N: int = 2) -> float:
    """min over sampled pairs of gap/reference (reference < 1e-14 skipped).

    Sampling is uniform on [-10, 10]^N, augmented with the deterministic
    adversarial battery so the minimizing corner is always probed; the
    result must be positive for every p > 1.
    """
    if samples < 10**4:
        raise ValueError("need at least 1e4 samples")
    rng = np.random.default_rng(seed)
    best = np.inf
    batch = 10**5
    left = samples
    while left > 0:
        m = min(batch, left)
        left -= m
        a = rng.uniform(-10.0, 10.0, size=(m, N))
        b = rng.uniform(-10.0, 10.0, size=(m, N))
        gap, ref = monotonicity_gap(a, b, p)
        keep = ref >= 1e-14
        if np.any(keep):
            best = min(best, float(np.min(gap[keep] / ref[keep])))
    a, b = _adversarial_pairs(N)
    gap, ref = monotonicity_gap(a, b, p)
    keep = ref >= 1e-14
    if np.any(keep):
        best = min(best, float(np.min(gap[keep] / ref[keep])))
    return best


def gradient_estimate_ratio(
    u: ScalarField,
    f: ScalarField,
    p: float,
    r: float,
    R: float,
    quad: PotentialQuadrature | None = None,
) -> EstimateReport:
    """Empirical constant of the gradient sup bound for a solved pair (u, f).

    lhs = ||grad u||_{L^inf(B_R)}^{p-1}; rhs = ||grad u||_p^{p-1} + ||f||_r
    (full box standing in for R^N, balls about the origin).  The context
    also records the local potential form: prop_rhs = (avg_{B_2R} |grad
    u|^p)^{1/p'} + potential_sup(f, B_2R, 2R) and its ratio.  Both sides are
    homogeneous of degree p-1 under (u, f) -> (lam u, lam^{p-1} f).
    """
    if u.grid != f.grid:
        raise ValueError("u and f live on different grids")
    grid = u.grid
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if not r > grid.N:
        raise ValueError("the sup bound needs r > N")
    if not R > 0.0:
        raise ValueError("R must be positive")
    if 2.0 * R > grid.extent:
        raise ValueError("B_2R does not fit inside the box")
    if quad is None:
        quad = PotentialQuadrature()
    center = (0.0,) * grid.N
    inner = ball_mask(grid, center, R)
    outer = ball_mask(grid, center, 2.0 * R)
    g = gradient(u)
    lhs = linf_norm(g, inner) ** (p - 1.0)
    rhs = lp_norm(g, p) ** (p - 1.0) + lp_norm(f, r)
    avg = lp_norm(g, p, outer) ** p / outer.volume
    prop_rhs = avg ** ((p - 1.0) / p) + potential_sup(f, outer, 2.0 * R, quad)
    prop_ratio = lhs / prop_rhs if prop_rhs > 0.0 else 0.0
    return EstimateReport.of(lhs, rhs, p=p, r=r, R=R, prop_rhs=prop_rhs, prop_ratio=prop_ratio)


def _ball_sum(values: np.ndarray, region: Region, h_vol: float) -> float:
    return float(np.sum(values[region.mask])) * h_vol


def comptest_chain(
    u_n: ScalarField,
    f_n: ScalarField,
    p: float,
    r: float,
    h_cells_list: Sequence[Sequence[int]],
    t: float,
    s: float,
    R: float,
) -> list[EstimateReport]:
    """Discrete compactness-chain inequality for one solved pair, one report per shift.

    lhs is the monotonicity integral sum_{B_t} delta_h V . delta_h grad u,
    averaged over the two sides of the gradient; rhs is assembled from the
    explicit cutoff constant (1+eps_geom)/(s-t) and two Hölder steps (never
    fitted):

        rhs = 4 (1+eps_geom)/(s-t) ||delta_h u||_{p,B_R} ||grad u||_{p,B_R}^{p-1}
              + 2 ||f||_{r',B_R} ||delta_h u||_{r,B_R}.

    Every shift is checked before anything is built; the cutoff, the balls,
    grad u, V and the two level norms are built once for all shifts.  The
    context carries, for audit, the weak form tested with
    phi = delta_{-h}(eta^2 delta_h u), eq_reaction = sum f phi, split by each
    side's exact product rule D_{s,k}(eta^2 w) = eta^2(x + sigma_s e_k) D_{s,k} w
    + w D_{s,k} eta^2 (sigma = +1 forward, -1 backward) into
    eq_weighted = (1/2) sum_s sum_k eta^2(x + sigma_s e_k) delta_h V_{s,k} delta_h g_{s,k} and
    eq_cross = (1/2) sum_s delta_h u sum_k delta_h V_{s,k} D_{s,k} eta^2 (all times h^N).
    For a pair solved on the whole box they balance, eq_weighted + eq_cross =
    eq_reaction, to the solver's tolerance: the solver's weak form is this one.
    """
    if u_n.grid != f_n.grid:
        raise ValueError("u and f live on different grids")
    grid = u_n.grid
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if not (np.isfinite(r) and r > 1.0):
        raise ValueError("r must be a finite real > 1")
    if not 0.0 < t < s < R:
        raise ValueError("need 0 < t < s < R")
    if R > grid.extent:
        raise ValueError("B_R does not fit inside the box")
    hmags = [float(np.sqrt(np.sum(lattice_vector(grid, cells) ** 2))) for cells in h_cells_list]
    if not all(0.0 < hmag < R - s for hmag in hmags):
        raise ValueError("need 0 < |h| < R - s")
    center = (0.0,) * grid.N
    bt = ball_mask(grid, center, t)
    br = ball_mask(grid, center, R)
    hvol = grid.cell_volume

    eta, eps_geom = cutoff_eta(grid, t, s)
    eta2 = ScalarField(grid, eta.values**2)
    grad_eta2 = gradient(eta2).values
    # eta^2 at the cell across the face of each difference: x + e_k forward, x - e_k backward
    across = np.stack([np.stack([shift(eta2, sign * e).values for e in np.eye(grid.N, dtype=int)], axis=-1)
                       for sign in (1, -1)], axis=-2)
    grad_u = gradient(u_n)
    V = VectorField(grid, _stress_values(grad_u.values, p))
    rprime = r / (r - 1.0)
    c_cut = (1.0 + eps_geom) / (s - t)
    grad_norm = lp_norm(grad_u, p, br) ** (p - 1.0)
    f_norm = lp_norm(f_n, rprime, br)

    reports = []
    for cells, hmag in zip(h_cells_list, hmags):
        dV = delta_h(V, cells).values
        dgrad = delta_h(grad_u, cells).values
        du = delta_h(u_n, cells)

        products = dV * dgrad
        lhs = _ball_sum(np.sum(products, axis=-1), bt, 0.5 * hvol)

        phi = ScalarField(grid, eta2.values * du.values)
        d_minus_phi = delta_h(phi, [-c for c in cells])
        eq_weighted = 0.5 * float(np.sum(across * products)) * hvol
        eq_cross = 0.5 * float(np.sum(du.values[..., None] * np.einsum("...k,...k->...", dV, grad_eta2))) * hvol
        eq_reaction = float(np.sum(f_n.values * d_minus_phi.values)) * hvol

        rhs = 4.0 * c_cut * lp_norm(du, p, br) * grad_norm
        rhs += 2.0 * f_norm * lp_norm(du, r, br)
        reports.append(EstimateReport.of(
            lhs, rhs, p=p, r=r, h_cells=[int(c) for c in cells], h_mag=hmag, t=t, s=s, R=R,
            eps_geom=eps_geom, eq_weighted=eq_weighted, eq_cross=eq_cross, eq_reaction=eq_reaction))
    return reports


@dataclass(frozen=True)
class DecayRow:
    """One shift magnitude of the decay table."""

    h_cells: tuple[int, ...]
    h_mag: float
    per_n: tuple[float, ...]
    sup_over_n: float
    weighted_per_n: tuple[float, ...] | None = None
    holder_bound_per_n: tuple[float, ...] | None = None

    def to_json_dict(self) -> dict[str, Any]:
        """The fields, less the optional columns that were not computed."""
        return {key: value for key, value in vars(self).items() if value is not None}


@dataclass(frozen=True)
class DecayTable:
    """sup_n ||delta_h grad u_n||_{L^p(B_t)} versus |h|, rows by decreasing |h|."""

    p: float
    t: float
    rows: tuple[DecayRow, ...]

    def __post_init__(self) -> None:
        mags = [row.h_mag for row in self.rows]
        if any(b >= a for a, b in zip(mags, mags[1:])):
            raise ValueError("rows must have strictly decreasing |h|")
        for row in self.rows:
            if row.sup_over_n != max(row.per_n):
                raise ValueError("sup_over_n must equal the row maximum")


def rfk_decay(
    sequence: Sequence[ScalarField],
    p: float,
    t: float,
    h_cells_list: Sequence[Sequence[int]],
) -> DecayTable:
    """Decay table of the difference-quotient gradient norms, uniform in n.

    For p in (1, 2) each row additionally records the weighted quantities
    int_{B_t} W_nh |delta_h grad u_n|^2 (like every integral here, the mean
    over the gradient's two sides) and the Hölder comparison bound
    (int W |d|^2)^{p/2} (int W^{p/(p-2)})^{(2-p)/2} >= ||delta_h grad u||_p^p,
    W_nh = (1 + |grad u_n(.+h)|^2 + |grad u_n|^2)^{(p-2)/2}.
    """
    if not sequence:
        raise ValueError("empty sequence")
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    grid = sequence[0].grid
    for u in sequence:
        if u.grid != grid:
            raise ValueError("sequence fields live on different grids")
    if not t > 0.0:
        raise ValueError("t must be positive")
    bt = ball_mask(grid, (0.0,) * grid.N, t)
    if bt.count == 0:
        raise ValueError("B_t contains no cell centers")
    if not h_cells_list:
        raise ValueError("no shifts given")
    for cells in h_cells_list:
        reach = max(abs(int(c)) for c in cells) * grid.spacing
        if t + reach > grid.extent:
            raise ValueError(f"shift {tuple(cells)} leaves the box from B_t")
    grads = [gradient(u) for u in sequence]
    half = 0.5 * grid.cell_volume  # each side's share of a cell

    rows = []
    for cells in h_cells_list:
        hmag = float(np.sqrt(np.sum(lattice_vector(grid, cells) ** 2)))
        per_n, weighted, holder = [], [], []
        for g in grads:
            gh = shift(g, cells)
            dgrad = VectorField(grid, gh.values - g.values)
            per_n.append(lp_norm(dgrad, p, bt))
            if p < 2.0:
                w = _regularized_weight(gh.values, g.values, p)
                d2 = np.einsum("...k,...k->...", dgrad.values, dgrad.values)
                wq = _ball_sum(w * d2, bt, half)
                mass = _ball_sum(w ** (p / (p - 2.0)), bt, half)
                weighted.append(wq)
                holder.append(wq ** (0.5 * p) * mass ** (0.5 * (2.0 - p)))
        rows.append(
            DecayRow(
                h_cells=tuple(int(c) for c in cells),
                h_mag=hmag,
                per_n=tuple(per_n),
                sup_over_n=max(per_n),
                weighted_per_n=tuple(weighted) if p < 2.0 else None,
                holder_bound_per_n=tuple(holder) if p < 2.0 else None,
            )
        )
    rows.sort(key=lambda row: -row.h_mag)
    return DecayTable(p=p, t=t, rows=tuple(rows))

