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
(r > N): P_f(x, 2) <= C ||f||_{L^r} int_0^2 rho^{-N/r} drho, where the rho
integral has the closed form 2^{1-N/r}/(1 - N/r) and C = lambda
omega_N^{1/2 - 1/r}, lambda >= 1 being the largest excess of the computed
quadrature terms over the Hölder integrand on the grid's lattice balls
(``_lattice_excess``), so the bound holds for what the program computes.  ``potential_profile``
(every cell) and ``potential_sup`` (its region's bounding box) get the ball
masses of the cells they read at once, by FFT convolution against ball
indicator kernels on a zero-padded lattice sized by the read box, with
transforms pruned to the lattice lines that hold data or are read (see
``_ball_masses_fft``).  One kernel transform is needed per quadrature node;
the transforms are kept from the second request of the same grid, lattice
and radii on, and released by a request on another, so a sweep of fields on
one grid pays for them about twice and a single call keeps nothing.

The transforms run in place where their data already fills the lattice
(numpy >= 2's FFT ``out=``).  ``_ball_masses_fft`` adds each radius's
quadrature term into the caller's running sum itself.  A call that keeps no
spectra builds each in the product buffer and multiplies the field's into it
in place; a kept spectrum is multiplied in the same two real products.

A radius whose lattice spectrum reaches ``_SPLIT_BYTES`` (256 KiB; the 64^3
and 256^2 profiles) is large: the pass takes large radii one at a time in a
single product buffer and never keeps their spectra.  When the process may
run on two CPUs or more, the stages of a large radius split their lines
into two halves along an axis the stage does not transform, the calling
thread taking one and one lazily started worker thread the other; the
caller waits for the worker before the next stage and before it raises.
The terms of a radius and the kernel of the next share one split of axis
0, so a radius takes two hand-offs.  Each thread inverts its read rows of
the product a chunk at a time, as many rows as fit in ``_SPLIT_BYTES`` (6
at 64^3, 102 at 256^2), and adds their terms into the sum's rows.  On a
2-D lattice the caller alone runs axis 0's transforms around the product
with the field's: their only lines lie along the contiguous last axis,
which two threads split no faster.

Smaller spectra share a slot (one product and one irfft output), as many
radii per transform call as their spectra fit in ``_SPLIT_BYTES`` (4 on the
80 x 41 lattice of ``potential_sup`` over B_1 on the 64^2 grid), and only
they are kept.  A thread copies the read cells of its batches into a stack
and forms the stack's terms at once.  On two CPUs, when the radii take two
batches or more, two slots run two runs of radii at once, round by round:
the calling thread takes radii j .. j + K - 1 and the worker
j + K .. j + 2K - 1, a batch at a time, where K is as many batches as a
stack fits in the same budget, and at most half of the batches: 32 radii
for that sup, so its 64 nodes take one round.  The caller adds its own
terms, then waits for the worker before it adds the worker's or raises.

Every 1-D transform sees the same data in every schedule and each cell's
terms are added in radius order, so the bits do not depend on the number of
threads.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .discretization import _axslice
from .field import Grid, Region, ScalarField, _bbox_slices, ball_box, linf_norm, lp_norm

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
    radii builds them once, on the whole grid or on a box of it that holds
    the ball; idx is the cell nearest to x.  Below one grid
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
    mass(rho)^{1/2} rho^{-N/2}.  Every ball lies in B_R(x), so f^2 and
    |c - x|^2 are formed only on the box of ``field.ball_box``: the same cells,
    in the same order, as on the whole grid.  Raises FloatingPointError when
    f^2 summed over a ball leaves float64's range.
    """
    grid, N = f.grid, f.grid.N
    rho0, rho, width = _quad_nodes(quad, grid, R)
    idx = grid.nearest_index(x)
    total = abs(float(f.values[idx])) * math.sqrt(unit_ball_volume(N)) * rho0
    if rho0 < R:
        box, dist2 = ball_box(grid, x, R * R)
        f2 = f.values[box] ** 2
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


# A radius whose lattice spectrum holds at least this many bytes is large: it
# has the pass's one product buffer to itself, its stages split their lines
# between the two threads, each thread's chunk of irfft rows holds at most
# this many bytes, and its spectrum is never kept.  Smaller spectra share a
# slot, as many radii per transform call as fit in this many bytes, and each
# thread's stack of a run's masses holds at most this many bytes.
_SPLIT_BYTES = 256 * 1024
_worker: tuple[int, ThreadPoolExecutor] | None = None  # (pid of the process that started it, the worker)
_worker_lock = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one (Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fft_worker() -> ThreadPoolExecutor:
    """The one worker thread (half of each stage on large lattices, the second slot's runs on small ones),
    started on first use, and again in a forked child, which inherits the executor but not its thread."""
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


def _kernel_rows(kernel: np.ndarray, out: np.ndarray, part: slice) -> None:
    """The axis-0 rows ``part`` of out after ``np.fft.rfftn``'s transforms of every axis but axis 0, for
    a (2m + 1)^N kernel of offsets -m .. m per axis on the (L,)*N lattice of out, offset o in slot o mod L.

    One axis at a time in rfftn's order, each line as the full lattice has it: the last axis on the
    kernel's rows placed into zeros, straight into out, and every later axis in place, on just the rows
    that hold offsets (0 .. m and L - m .. L - 1).  The axis-0 transform is left to the caller."""
    L, m, nd = out.shape[0], kernel.shape[0] // 2, kernel.ndim
    start, stop, _ = part.indices(L)
    out[part].fill(0)
    # (kernel indices, slots) of offsets 0 .. m and of offsets -m .. -1
    runs = ((slice(m, 2 * m + 1), slice(0, m + 1)), (slice(0, m), slice(L - m, L)))
    for held, slots in runs:
        lo, hi = max(start, slots.start), min(stop, slots.stop)
        if lo >= hi:
            continue
        placed = np.zeros((hi - lo,) + kernel.shape[1:-1] + (L,))
        for k, o in runs:
            placed[..., o] = kernel[held.start + lo - slots.start:held.start + hi - slots.start, ..., k]
        for sel in itertools.product(runs, repeat=nd - 2):
            np.fft.rfft(placed[(slice(None),) + tuple(k for k, _ in sel)], axis=-1,
                        out=out[(slice(lo, hi),) + tuple(o for _, o in sel)])
        del placed  # freed before the next run's is made
        for axis in reversed(range(1, nd - 1)):
            np.fft.fft(out[lo:hi], axis=axis, out=out[lo:hi])


def _ball_masses_fft(f: np.ndarray, grid: Grid, radii: np.ndarray, box: tuple[slice, ...], out: np.ndarray) -> None:
    """Adds the quadrature terms mass_j^{1/2} rho_j^{-N/2} at every center i of ``box`` into ``out`` (an array
    of the box's shape), one radius after another, with mass_j(i) = sum_{|c_k - c_i| < rho_j} f(k)^2 h^N from
    a circular convolution on a zero-padded lattice.

    The largest radius reaches m cells along an axis (the largest offset o
    with (o h)^2 < rho_max^2, the kernel's own test), so the sources are the
    box widened by m, clamped to the grid.  With D the largest axis offset
    between a read cell and a source, L >= D + m + 1 slots per axis keep every
    wrapped term off the read cells (n + m for the whole grid), and L >= 2m + 1
    gives each kernel offset a slot of its own; L is rounded up to 2^a 3^b 5^c.
    The transforms skip all-zero input lines and unread output rows; every
    other line sees full-lattice rfftn/irfftn's data, so the bits match theirs.

    A radius goes through three stages, each on lines along an axis it does
    not transform: the kernel's transforms but axis 0's (rows of lattice
    axis 0); axis 0's forward transform, the product with the transform of
    f^2 and axis 0's inverse (rows of lattice axis 1); the other inverse axes
    and the term (the read rows of lattice axis 0).  ``fill`` runs them on a
    batch of radii in one slot, which holds the batch along a leading axis,
    and ``terms`` stacks a run of batches' read rows and forms their terms at
    once; on a large lattice ``rows0`` (a radius's term, a chunk of rows at a
    time, then the next radius's kernel) and ``spectrum`` run them split
    between the two threads.  This thread waits for the worker before the
    next stage, before it adds the worker's terms and before it raises, and
    each cell's terms are added in radius order.
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
    large = F.nbytes >= _SPLIT_BYTES
    key = (grid, L, radii.tobytes())
    if _kept is not None and _kept[0] != key:
        _kept = None  # hold one set at a time, and none through a call on another key
    build = _kept is None
    keep = build and key == _last_key and not large
    _last_key = key
    kept = np.empty(radii.shape + F.shape) if keep else None if build else _kept[1]
    off = np.arange(-m, m + 1)
    # |o h|^2 on the (2m + 1)^N block of offsets, summed over the axes in order
    sq = (off * grid.spacing) ** 2
    dist2 = sum(sq.reshape([-1 if j == k else 1 for j in range(nd)]) for k in range(nd))
    hvol = grid.cell_volume
    scale = np.array([float(r) ** (-0.5 * nd) for r in radii]).reshape((-1,) + (1,) * nd)
    context = contextvars.copy_context()  # numpy's error state (np.errstate) holds on the worker too

    def balls(j: int, b: int) -> list[np.ndarray]:
        """The ball kernels of radii j .. j + b - 1 on the block of offsets."""
        return [(dist2 < rho * rho).astype(np.float64) for rho in radii[j:j + b]]

    def kernels(product: np.ndarray, ks: list[np.ndarray], part: slice) -> None:
        """The spectra of kernels ``ks`` but for axis 0's transform, on the axis-0 rows ``part`` of product."""
        for k, into in zip(ks, product):
            _kernel_rows(k, into, part)

    def tail(t: np.ndarray, j: int) -> None:
        """The terms of radii j, j + 1, ... in place of their masses over h^N, t holding one per radius."""
        np.maximum(t, 0.0, out=t)
        t *= hvol
        np.sqrt(t, out=t)
        t *= scale[j:j + len(t)]

    def fill(slot: tuple[np.ndarray, ...], j: int) -> np.ndarray:
        """The masses over h^N of radii j, j + 1, ..., as many as the slot holds, on the read cells of the
        slot's irfft buffer."""
        product, real = slot[:2]
        b = min(len(product), len(radii) - j)
        product, real = product[:b], real[:b]
        spec = kept[j:j + b] if kept is not None else None
        if build:
            kernels(product, balls(j, b), slice(None))
            np.fft.fft(product, axis=1, out=product)
            if spec is not None:
                np.copyto(spec, product.real)
        # F times each spectrum's real part (the kernel is even, so its spectrum is real up to rounding,
        # and a kept spectrum holds only that part), in the product buffer: the imaginary part first, as
        # it may be read from the real part, which its own product then overwrites
        re = product.real if spec is None else spec
        np.multiply(re, F.imag, out=product.imag)
        np.multiply(re, F.real, out=product.real)
        G = product
        # irfftn in its own order (axes 0 .. N-2 in place, then the last into ``real``),
        # dropping the unread rows after each axis
        for axis in range(1, nd):
            G = np.fft.ifft(G, axis=axis, out=G)[_axslice(nd + 1, axis, rows[axis - 1])]
        np.fft.irfft(G, axis=nd, n=L, out=real)
        return real[_axslice(nd + 1, nd, rows[-1])]

    box_shape = tuple(b.stop - b.start for b in box)
    two = _usable_cpus() > 1
    if large:
        # one product buffer, one radius at a time.  On two CPUs each stage splits its rows into two halves,
        # the second for the worker; the axis-0 halves meet at the middle read row, so one hand-off runs a
        # radius's terms and the next radius's kernel on the same rows.  Each thread takes its terms'
        # irfft through a buffer of as many read rows as fit in the budget, made here, not in the worker's arena
        product = np.empty((1,) + F.shape, dtype=np.complex128)
        mid = rows[0].start + box_shape[0] // 2
        chunk = max(1, _SPLIT_BYTES // (8 * L * math.prod(box_shape[1:-1])))
        bufs = [np.empty((1, chunk) + box_shape[1:-1] + (L,)) for _ in range(1 + two)]

        def each(stage, split: int, size: int, both: bool = two) -> None:
            """stage on the rows split .. size - 1 of its split axis on the worker and on the rows before
            them on this thread, each with its own buffer, or on all of them here unless ``both``."""
            if not both:
                stage(slice(None), bufs[0])
                return
            job = _fft_worker().submit(context.run, stage, slice(split, size), bufs[1])
            try:
                stage(slice(0, split), bufs[0])
            finally:
                job.exception()  # waits for the worker, also when this thread raised
            job.result()

        def rows0(j: int, ks: list[np.ndarray], part: slice, buf: np.ndarray) -> None:
            """Radius j - 1's term added into out, then radius j's kernel, on the axis-0 rows ``part``: the
            rest of irfftn as ``fill`` takes it, on the read rows in ``part``, a chunk through buf at a time,
            then ``kernels``."""
            start, stop, _ = part.indices(L)
            stop = min(stop, rows[0].stop) if j else 0  # no term before radius 0
            for a in range(max(start, rows[0].start), stop, chunk):
                G = product[:, a:min(a + chunk, stop)]
                for axis in range(2, nd):
                    G = np.fft.ifft(G, axis=axis, out=G)[_axslice(nd + 1, axis, rows[axis - 1])]
                t = buf[:, :G.shape[1]]
                np.fft.irfft(G, axis=nd, n=L, out=t)
                t = t[_axslice(nd + 1, nd, rows[-1])]
                tail(t, j - 1)
                out[a - rows[0].start:a - rows[0].start + t.shape[1]] += t[0]
            kernels(product, ks, part)

        def spectrum(part: slice, _: np.ndarray) -> None:
            """Axis 0's forward transform, F times the spectrum as ``fill`` takes it and axis 0's
            inverse, on the axis-1 rows ``part``."""
            G = product[:, :, part]
            np.fft.fft(G, axis=1, out=G)
            np.multiply(G.real, F[:, part].imag, out=G.imag)
            np.multiply(G.real, F[:, part].real, out=G.real)
            np.fft.ifft(G, axis=1, out=G)

        for j in range(len(radii) + 1):
            each(functools.partial(rows0, j, balls(j, 1)), mid, L)
            if j < len(radii):
                # a 2-D lattice's only axis-1 rows are its contiguous last axis, which two threads split no faster
                each(spectrum, F.shape[1] // 2, F.shape[1], two and nd > 2)
        return
    per_slot = min(len(radii), _SPLIT_BYTES // F.nbytes)
    two = two and len(radii) > per_slot
    run = per_slot  # radii per thread per round
    if two:
        # as many batches as a stack of their masses fits in the budget, and at most half of them
        batches = -(-len(radii) // per_slot)
        run *= min(-(-batches // 2), _SPLIT_BYTES // (per_slot * 8 * math.prod(box_shape)))
    # each thread's slot (the product and the irfft output) and stack of a run's masses, all made here, not
    # in the worker's arena
    slots = [(np.empty((per_slot,) + F.shape, dtype=np.complex128), np.empty((per_slot,) + box_shape[:-1] + (L,)),
              np.empty((run,) + box_shape)) for _ in range(1 + two)]

    def terms(slot: tuple[np.ndarray, ...], j: int) -> np.ndarray:
        """The terms of radii j .. j + run - 1 (fewer at the end) in the slot's stack, its masses stacked
        call by call."""
        stop = min(j + run, len(radii))
        t = slot[2][:stop - j]
        for i in range(j, stop, per_slot):
            masses = fill(slot, i)
            t[i - j:i - j + len(masses)] = masses
        tail(t, j)
        return t

    for j in range(0, len(radii), run * len(slots)):
        job = _fft_worker().submit(context.run, terms, slots[1], j + run) if two and j + run < len(radii) else None
        try:
            for t in terms(slots[0], j):
                out += t
        finally:
            if job is not None:
                job.exception()  # waits for the worker, also when this thread raised
        if job is not None:
            for t in job.result():
                out += t
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
        _ball_masses_fft(f.values, grid, rho[below:], box, vals)
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


@functools.lru_cache(maxsize=16)
def _lattice_excess(grid: Grid, quad: PotentialQuadrature, r: float) -> float:
    """lambda >= 1 such that every term of ``potential_sup``'s quadrature of P_f(x, 2) is at most lambda
    times the Hölder integrand omega_N^{1/2 - 1/r} ||f||_{L^r} rho^{-N/r} integrated over its segment.

    A node rho >= h sums n(rho) cells, those whose offset o from x has |o h|^2 < rho^2 (the kernel's own
    test, counted on the whole lattice), so Hölder gives mass <= ||f||_r^2 (n h^N)^{1 - 2/r} and its
    ratio is kappa^{1/2 - 1/r}, kappa = n h^N / (omega_N rho^N).  A node below h and the patch [0, rho0]
    take |f(x)| sqrt(omega_N) <= h^{-N/r} ||f||_r sqrt(omega_N): ratios (omega_N rho^N / h^N)^{1/r}
    and that at rho0 times (1 - N/r).  rho^{-N/r} is convex, so the midpoint sum of the integrand is at
    most its integral."""
    N, h = grid.N, grid.spacing
    omega, e = unit_ball_volume(N), 0.0 if math.isinf(r) else 1.0 / r
    rho0, rho, _ = _quad_nodes(quad, grid, 2.0)
    m = int(rho.max() / h) + 1
    sq = (np.arange(-m, m + 1) * h) ** 2
    dist2 = np.sort(sum(sq.reshape([-1 if j == k else 1 for j in range(N)]) for k in range(N)), axis=None)
    cells = np.searchsorted(dist2, rho * rho, side="left")
    ratios = np.where(rho < h, (omega * (rho / h) ** N) ** e, (cells * h**N / (omega * rho**N)) ** (0.5 - e))
    return max(1.0, (omega * (rho0 / h) ** N) ** e * (1.0 - N * e), float(ratios.max()))


def potential_holder_bound(f: ScalarField, r: float, N: int, quad: PotentialQuadrature = PotentialQuadrature()) -> float:
    """lambda omega_N^{1/2 - 1/r} ||f||_{L^r(box)} int_0^2 rho^{-N/r} drho, an upper bound for
    ``potential_sup(f, region, 2, quad)`` over any region, up to the transforms' rounding.

    Hölder on the ball mass gives |f|^2(B_rho) <= ||f||_r^2 |B_rho|^{1 - 2/r}, so the integrand of
    P_f is at most omega_N^{1/2 - 1/r} ||f||_r rho^{-N/r}; lambda >= 1 (``_lattice_excess``) is the
    largest factor by which a quadrature term of ``quad`` exceeds that on the grid's lattice balls
    (1.052 for r = 6 with 64 nodes on the 64^2 grid of half-width 2, where the largest lattice ball
    holds 1.165 times omega_N rho^N).  Raises FloatingPointError when the norm leaves float64's range."""
    if N != f.grid.N:
        raise ValueError("N does not match the field's grid dimension")
    coef = holder_rho_integral(N, r)  # checks r > N
    e = 0.0 if math.isinf(r) else 1.0 / r
    coef *= _lattice_excess(f.grid, quad, r) * unit_ball_volume(N) ** (0.5 - e)
    bound = (linf_norm(f) if math.isinf(r) else lp_norm(f, r)) * coef
    if not math.isfinite(bound):
        raise FloatingPointError("the L^r norm of f overflows float64")
    return bound
