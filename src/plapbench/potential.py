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
g = |f(x)| sqrt(omega_N); above rho_min a composite midpoint rule is used,
whose nodes below one grid spacing (when rho_min < h) take that value too.
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

The transforms run in place where their data already fills the lattice
(numpy >= 2's FFT ``out=``).  A slot is one set of buffers (the product and
the irfft output) that ``_ball_masses_fft`` fills for a batch of radii, one
transform call, and reuses for the next batch; a call that keeps no spectra
builds each in the product buffer and multiplies the field's into it in
place.  A batch holds as many radii as their lattice spectra fit in
``_SPLIT_BYTES`` (256 KiB: 4 on the 80 x 41 lattice of ``potential_sup`` over
B_1 on the 64^2 grid), and one radius where a single spectrum reaches it (the
64^3 and 256^2 profiles).
When the process may run on two CPUs or more and the radii take two batches
or more, two slots run two runs of radii at once, round by round: the calling
thread takes radii j .. j + K - 1 and one lazily started worker thread takes
j + K .. j + 2K - 1, a batch at a time.  K is one radius on the large
lattices.  On the small ones it is as many batches as the worker's finished
terms, kept in a store until the caller yields them, fit in the same budget,
and at most half of the batches: 32 radii for that sup, so its 64 nodes take
one round.  The caller yields its own terms as it makes them and waits for the
worker before it yields the worker's terms or raises, also when the generator
is closed early.  Every 1-D transform sees the same data in every schedule and
the terms come out in radius order, so the bits do not depend on the number
of threads.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .discretization import _axslice
from .field import Grid, Region, ScalarField, _bbox_slices, linf_norm, lp_norm

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor


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


def _ball_mass(f: ScalarField, idx: tuple[int, ...], f2: np.ndarray, dist2: np.ndarray, rho: float) -> float:
    """Squared L^2 mass of f over B_rho(x), f extended by zero outside the box.

    f2 = f^2 and dist2 = |c - x|^2 are built by the caller, so a sweep over
    radii builds them once; idx is the cell nearest to x.  Below one grid
    spacing the analytic form |f(x)|^2 omega_N rho^N with the nearest-cell
    value replaces the stair-step of sub-cell balls.  This direct sum gives
    ``potential_P`` (the CLI's ``value_at_x``) its masses; ``potential_profile``
    says how it compares with the FFT pass.
    """
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
    mass(rho)^{1/2} rho^{-N/2}.  Raises FloatingPointError when f^2 summed
    over a ball leaves float64's range.
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
    if not math.isfinite(total):
        raise FloatingPointError("f^2 summed over a ball overflows float64")
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
# fields on one grid reuses them.  They are kept as one array along a leading
# radius axis, so a run of radii is a slice of it.
_last_key: tuple | None = None
_kept: tuple[tuple, np.ndarray] | None = None


# A radius whose lattice spectrum holds at least this many bytes gets a slot of
# its own; smaller spectra share one slot, as many radii per transform call as
# fit in this many bytes, and on two CPUs or more the worker's store of
# finished terms holds at most this many bytes.
_SPLIT_BYTES = 256 * 1024
_worker: tuple[int, ThreadPoolExecutor] | None = None  # (pid of the process that started it, the worker)
_worker_lock = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one (Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fft_worker() -> ThreadPoolExecutor:
    """The one worker thread of the second slot, started on first use, and
    again in a forked child, which inherits the executor but not its thread."""
    from concurrent.futures import ThreadPoolExecutor  # here, so a command that never uses it does not import it

    global _worker
    with _worker_lock:
        if _worker is None or _worker[0] != os.getpid():
            _worker = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="plapbench-fft"))
        return _worker[1]


def _lattice_rfftn(a: np.ndarray, L: int) -> np.ndarray:
    """``np.fft.rfftn`` of a zero-padded to the (L,)*N lattice, one axis at a time in rfftn's order, each
    axis padded by its own transform."""
    for axis in reversed(range(a.ndim)):
        last = axis == a.ndim - 1
        out = np.empty(a.shape[:axis] + (L // 2 + 1 if last else L,) + a.shape[axis + 1:], dtype=np.complex128)
        a = (np.fft.rfft if last else np.fft.fft)(a, axis=axis, out=out, n=L)
    return a


def _kernel_rfftn(kernel: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn`` of a (2m + 1)^N kernel of offsets -m .. m per axis on the (L,)*N lattice of out,
    offset o in slot o mod L, into out.

    One axis at a time in rfftn's order, each line as the full lattice has it: the last axis on the
    kernel placed into zeros, every later axis in place in out, first on just the axis-0 rows that
    hold offsets (0 .. m and L - m .. L - 1), axis 0 last on all of out."""
    L, m, nd = out.shape[0], kernel.shape[0] // 2, kernel.ndim
    slots = np.arange(-m, m + 1) % L
    placed = np.zeros(kernel.shape[:-1] + (L,))
    placed[..., slots] = kernel
    out.fill(0)
    out[np.ix_(*[slots] * (nd - 1))] = np.fft.rfft(placed, axis=-1)
    del placed  # freed before the next stage's buffer is made
    for axis in reversed(range(1, nd - 1)):
        for rows in (slice(0, m + 1), slice(L - m, L)):
            np.fft.fft(out[rows], axis=axis, out=out[rows])
    return np.fft.fft(out, axis=0, out=out)


def _ball_masses_fft(f: np.ndarray, grid: Grid, radii: np.ndarray, box: tuple[slice, ...]) -> Iterator[np.ndarray]:
    """The quadrature terms mass_j^{1/2} rho_j^{-N/2} at every center i of ``box``, one array of the box's
    shape per radius in turn, with mass_j(i) = sum_{|c_k - c_i| < rho_j} f(k)^2 h^N from a circular
    convolution on a zero-padded lattice.  Each array lives in a buffer that a later radius reuses.

    The largest radius reaches m cells along an axis (the largest offset o
    with (o h)^2 < rho_max^2, the kernel's own test), so the sources are the
    box widened by m, clamped to the grid.  With D the largest axis offset
    between a read cell and a source, L >= D + m + 1 slots per axis keep every
    wrapped term off the read cells (n + m for the whole grid), and L >= 2m + 1
    gives each kernel offset a slot of its own; L is rounded up to 2^a 3^b 5^c.
    The transforms skip all-zero input lines and unread output rows; every
    other line sees full-lattice rfftn/irfftn's data, so the bits match theirs.

    Each slot (see the module docstring) holds its batch of radii along a
    leading axis.  This thread waits for the worker before it yields the
    worker's terms or raises, and the terms come out in radius order.
    """
    global _last_key, _kept
    n, nd = grid.cells_per_axis, grid.N
    rho_max = radii.max()
    m = int(np.flatnonzero((np.arange(n, dtype=np.float64) * grid.spacing) ** 2 < rho_max * rho_max)[-1])
    src = tuple(slice(max(b.start - m, 0), min(b.stop + m, n)) for b in box)
    D = max(max(b.stop - 1 - s.start, s.stop - 1 - b.start) for b, s in zip(box, src))
    L = _smooth_size(max(D, m) + m + 1)
    rows = tuple(slice(b.start - s.start, b.stop - s.start) for b, s in zip(box, src))
    F = _lattice_rfftn(np.square(f[src]), L)
    key = (grid, L, radii.tobytes())
    build = _kept is None or _kept[0] != key
    if build:
        keep = key == _last_key
        _last_key = key
        if keep:
            _kept = None  # hold one set at a time
        kept = np.empty(radii.shape + F.shape) if keep else None
    else:
        keep, kept = False, _kept[1]
    off = np.arange(-m, m + 1)
    # |o h|^2 on the (2m + 1)^N block of offsets, summed over the axes in order
    sq = (off * grid.spacing) ** 2
    dist2 = sum(sq.reshape([-1 if j == k else 1 for j in range(nd)]) for k in range(nd))
    hvol = grid.cell_volume
    scale = np.array([float(r) ** (-0.5 * nd) for r in radii]).reshape((-1,) + (1,) * nd)

    def fill(slot: tuple[np.ndarray, ...], j: int) -> np.ndarray:
        """The terms of radii j, j + 1, ..., as many as the slot holds, in the slot's irfft buffer."""
        product, real = slot
        b = min(len(product), len(radii) - j)
        product, real = product[:b], real[:b]
        spec = kept[j:j + b] if kept is not None else None
        if build:
            for i, rho in enumerate(radii[j:j + b]):
                # the kernel is even, so its spectrum is real up to rounding
                _kernel_rfftn((dist2 < rho * rho).astype(np.float64), product[i])
                if spec is not None:
                    np.copyto(spec[i], product[i].real)
        if spec is None:
            # F times each spectrum's real part, in the product buffer that holds it: the imaginary
            # part first, from the real part, which its own product then overwrites
            np.multiply(product.real, F.imag, out=product.imag)
            np.multiply(product.real, F.real, out=product.real)
            G = product
        else:
            G = np.multiply(F, spec, out=product)
        # irfftn in its own order (axes 0 .. N-2 in place, then the last into ``real``),
        # dropping the unread rows after each axis
        for axis in range(1, nd):
            G = np.fft.ifft(G, axis=axis, out=G)[_axslice(nd + 1, axis, rows[axis - 1])]
        np.fft.irfft(G, axis=nd, n=L, out=real)
        t = real[_axslice(nd + 1, nd, rows[-1])]
        np.maximum(t, 0.0, out=t)
        t *= hvol
        np.sqrt(t, out=t)
        t *= scale[j:j + b]
        return t

    large = F.nbytes >= _SPLIT_BYTES
    per_slot = 1 if large else min(len(radii), _SPLIT_BYTES // F.nbytes)
    two = len(radii) > per_slot and _usable_cpus() > 1
    box_shape = tuple(b.stop - b.start for b in box)
    run = per_slot  # radii per thread per round
    if two and not large:
        # as many batches as the worker's finished terms fit in the budget, and at most half of them
        batches = -(-len(radii) // per_slot)
        run *= min(-(-batches // 2), _SPLIT_BYTES // (per_slot * 8 * math.prod(box_shape)))
    slots = [(np.empty((per_slot,) + F.shape, dtype=np.complex128), np.empty((per_slot,) + box_shape[:-1] + (L,)))
             for _ in range(1 + two)]
    store = np.empty((run,) + box_shape) if run > per_slot else None  # made here, not in the worker's arena

    def worker_run(j: int) -> np.ndarray:
        """The terms of radii j .. j + run - 1 (fewer at the end) in the second slot, or, when they take
        more than one transform call, copied call by call into the store."""
        if store is None:
            return fill(slots[1], j)
        stop = min(j + run, len(radii))
        for i in range(j, stop, per_slot):
            t = fill(slots[1], i)
            store[i - j:i - j + len(t)] = t
        return store[:stop - j]

    context = contextvars.copy_context()  # numpy's error state (np.errstate) holds on the worker too
    for j in range(0, len(radii), run * len(slots)):
        job = _fft_worker().submit(context.run, worker_run, j + run) if two and j + run < len(radii) else None
        try:
            for i in range(j, min(j + run, len(radii)), per_slot):
                yield from fill(slots[0], i)
        finally:
            if job is not None:
                job.exception()  # waits for the worker, also when this thread raised or the generator is closed
        if job is not None:
            yield from job.result()
    if keep:
        _kept = (key, kept)


def _profile_values(f: ScalarField, R: float, quad: PotentialQuadrature, box: tuple[slice, ...]) -> np.ndarray:
    """P_f(x, R) at the cell centers of ``box`` (one bounded slice per axis), as an array of its shape.
    Raises FloatingPointError when f^2 summed over a ball leaves float64's range."""
    grid, N = f.grid, f.grid.N
    rho0, rho, width = _quad_nodes(quad, grid, R)
    root = math.sqrt(unit_ball_volume(N))
    if not rho0 < R:
        return np.abs(f.values[box]) * (root * rho0)
    # a node whose ball is smaller than a cell takes ``_ball_mass``'s analytic
    # mass, so its term is |f| sqrt(omega_N); the FFT pass gives the others
    below = int(np.count_nonzero(rho < grid.spacing))
    vals = np.abs(f.values[box]) * (below * root)
    if below < len(rho):
        for term in _ball_masses_fft(f.values, grid, rho[below:], box):
            vals += term
    vals *= width
    vals += np.abs(f.values[box]) * (root * rho0)
    if not np.isfinite(vals.max()):
        raise FloatingPointError("f^2 summed over a ball overflows float64")
    return vals


def potential_profile(f: ScalarField, R: float, quad: PotentialQuadrature) -> ScalarField:
    """P_f(x, R) evaluated at every cell center, as a field on the same grid.

    Computes the same quadrature as ``potential_P`` for all centers at once
    (the per-radius ball masses come from one FFT convolution each, and a
    ball smaller than a cell takes the same analytic mass in both).  The two
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
    for sup_x P_f(x, 2) (up to the absorbed Hölder constant).  Raises
    FloatingPointError when the norm leaves float64's range."""
    if N != f.grid.N:
        raise ValueError("N does not match the field's grid dimension")
    coef = holder_rho_integral(N, r)
    bound = (linf_norm(f) if math.isinf(r) else lp_norm(f, r)) * coef
    if not math.isfinite(bound):
        raise FloatingPointError("the L^r norm of f overflows float64")
    return bound
