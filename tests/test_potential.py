"""Nonlinear potential: closed forms, FFT profile vs direct quadrature,
homogeneity, and the constant-free Hölder bound."""

import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from _peak import traced_peak
from plapbench import potential
from plapbench.field import Grid, Region, ScalarField, ball_mask, full_region
from plapbench.potential import (
    PotentialQuadrature,
    ball_l2_mass,
    holder_rho_integral,
    potential_P,
    potential_holder_bound,
    potential_profile,
    potential_sup,
    unit_ball_volume,
)
from plapbench.synth import bump_field, draw_bump_params


def test_unit_ball_volume():
    assert math.isclose(unit_ball_volume(2), math.pi, rel_tol=1e-14)
    assert math.isclose(unit_ball_volume(3), 4.0 * math.pi / 3.0, rel_tol=1e-14)


def test_quadrature_validation():
    with pytest.raises(ValueError):
        PotentialQuadrature(num_nodes=4)
    g = Grid(2, 1.0, 16)
    assert PotentialQuadrature().rho_min(g) == g.spacing
    assert PotentialQuadrature(rho_min_policy=0.25).rho_min(g) == 0.25


def test_ball_l2_mass_constant_field():
    g = Grid(2, 1.0, 64)
    f = ScalarField(g, np.full(g.shape, 3.0))
    # fully interior ball: mass = value^2 * measured cell volume of the mask
    rho = 0.5
    ball = ball_mask(g, (0.0, 0.0), rho)
    assert math.isclose(ball_l2_mass(f, (0.0, 0.0), rho), 9.0 * ball.volume, rel_tol=1e-12)
    # sub-grid radius switches to the analytic patch 9 * omega_N * rho^N
    tiny = 0.4 * g.spacing
    assert math.isclose(ball_l2_mass(f, (0.0, 0.0), tiny), 9.0 * math.pi * tiny**2, rel_tol=1e-12)
    with pytest.raises(ValueError):
        ball_l2_mass(f, (0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        ball_l2_mass(f, (5.0, 0.0), 0.5)


def test_potential_constant_field_closed_form():
    # f = 1 on N = 2: mass(rho) = pi rho^2, so P(0, R) = sqrt(pi) R
    g = Grid(2, 2.0, 64)
    f = ScalarField(g, np.ones(g.shape))
    quad64 = PotentialQuadrature(num_nodes=64)
    val = potential_P(f, (0.0, 0.0), 1.0, quad64)
    assert abs(val - math.sqrt(math.pi)) / math.sqrt(math.pi) < 1e-2
    with pytest.raises(ValueError):
        potential_P(f, (0.0, 0.0), 0.0, quad64)


def test_potential_homogeneity():
    g = Grid(2, 1.0, 48)
    rng = np.random.default_rng(5)
    f = bump_field(g, draw_bump_params(rng, 2))
    quad16 = PotentialQuadrature(num_nodes=16)
    base = potential_P(f, (0.1, -0.2), 0.6, quad16)
    for c in (-3.0, 0.5, 7.25):
        scaled = potential_P(c * f, (0.1, -0.2), 0.6, quad16)
        assert math.isclose(scaled, abs(c) * base, rel_tol=1e-12)


def test_potential_monotone_in_radius():
    g = Grid(2, 1.0, 48)
    rng = np.random.default_rng(6)
    f = bump_field(g, draw_bump_params(rng, 2))
    q = PotentialQuadrature(num_nodes=32)
    vals = [potential_P(f, (0.0, 0.0), R, q) for R in (0.2, 0.4, 0.8)]
    assert vals[0] <= vals[1] <= vals[2]


def test_profile_matches_pointwise_potential():
    # the FFT convolution path must agree with the direct masked sums; the
    # last two cases take the ball kernel to its extremes: R beyond the box
    # diagonal (the kernel reaches n - 1 cells) and R < 2h (at most 1 cell)
    cases = ((2, 48, 0.7), (3, 24, 0.7), (2, 48, 3.0), (2, 48, 1.5 * 2.0 / 48))
    for N, n, R in cases:
        g = Grid(N, 1.0, n)
        rng = np.random.default_rng(40 + N)
        f = bump_field(g, draw_bump_params(rng, N))
        q = PotentialQuadrature(num_nodes=16)
        prof = potential_profile(f, R, q)
        idxs = [tuple(rng.integers(0, g.cells_per_axis, N)) for _ in range(12)]
        centers = g.centers()
        for idx in idxs:
            x = tuple(float(centers[k][idx]) for k in range(N))
            direct = potential_P(f, x, R, q)
            # mixed tolerance: a single boundary cell can flip sides between
            # the kernel's off*h distances and rounded center differences
            assert abs(prof.values[idx] - direct) <= 1e-6 * (1.0 + direct), (N, R, idx)


def test_profile_bit_identical_across_repeated_calls(monkeypatch):
    # the kernel spectra are rebuilt on the first call of a grid and radii,
    # kept on the second and reused after that; every path must give the
    # same bytes, under every schedule of the pass, and kept spectra must
    # never serve another grid or radii (the 3-D grid has the 2-D grid's
    # radii and lattice size)
    g, g3 = Grid(2, 1.0, 24), Grid(3, 1.0, 24)
    rng = np.random.default_rng(8)
    f = bump_field(g, draw_bump_params(rng, 2))
    f3 = bump_field(g3, draw_bump_params(rng, 3))
    q, q24 = PotentialQuadrature(num_nodes=20), PotentialQuadrature(num_nodes=24)

    def kept_grid():
        return potential._kept[0][0] if potential._kept is not None else None

    results = []
    for name in SCHEDULES:
        with monkeypatch.context() as mp:
            mp.setattr(potential, "_kept", None)
            mp.setattr(potential, "_last_key", None)
            _schedule(mp, name)
            other_nodes = potential_profile(f, 0.9, q24).values.tobytes()
            other_grid = potential_profile(f3, 0.9, q).values.tobytes()
            first = potential_profile(f, 0.9, q).values.tobytes()
            assert kept_grid() != g  # a single call keeps nothing
            assert potential_profile(f, 0.9, q).values.tobytes() == first
            assert kept_grid() == g
            assert potential_profile(f, 0.9, q).values.tobytes() == first
            assert potential_profile(f3, 0.9, q).values.tobytes() == other_grid
            assert potential_profile(f, 0.9, q).values.tobytes() == first
            assert potential_profile(f, 0.9, q24).values.tobytes() == other_nodes
            assert potential_profile(f, 0.9, q).values.tobytes() == first
        results.append((first, other_grid, other_nodes))
    assert results[1:] == results[:-1], "the schedules disagree"


def _full_lattice_profile(f, R, q):
    """The profile from full-lattice transforms: every ball kernel built on the
    whole (L,)*N lattice (L the smallest 2^a 3^b 5^c >= n + m), ``rfftn`` of the
    kernel and of the zero-padded f^2, ``irfftn`` of the product, then the
    real cells sliced out.  Returns the values and the kernel reach m."""
    g = f.grid
    n, N, h = g.cells_per_axis, g.N, g.spacing
    rho0 = min(q.rho_min(g), R)
    width = (R - rho0) / q.num_nodes
    rho = rho0 + (np.arange(q.num_nodes) + 0.5) * width
    m = int(np.flatnonzero((np.arange(n, dtype=np.float64) * h) ** 2 < rho.max() * rho.max())[-1])
    L = potential._smooth_size(n + m)
    off = ((np.arange(L) + L // 2) % L - L // 2).astype(np.float64)
    dist2 = np.zeros((L,) * N)
    valid = np.ones((L,) * N, dtype=bool)
    for k in range(N):
        sh = [1] * N
        sh[k] = L
        dist2 = dist2 + ((off * h) ** 2).reshape(sh)
        valid &= (np.abs(off) <= m).reshape(sh)
    f2pad = np.zeros((L,) * N)
    f2pad[(slice(0, n),) * N] = f.values**2
    F = np.fft.rfftn(f2pad)
    acc = np.zeros(g.shape)
    for r in rho:
        spec = np.fft.rfftn(((dist2 < r * r) & valid).astype(np.float64)).real
        conv = np.fft.irfftn(F * spec, s=(L,) * N, axes=tuple(range(N)))
        mass = np.maximum(conv[(slice(0, n),) * N], 0.0) * g.cell_volume
        acc += np.sqrt(mass) * float(r) ** (-0.5 * N)
    return np.abs(f.values) * (math.sqrt(unit_ball_volume(N)) * rho0) + acc * width, m


SCHEDULES = ("one", "several", "two", "runs")


def _schedule(mp, name, spectrum_bytes=None):
    """Put the ball-mass pass on one schedule, whatever the CPU count: "one"
    radius per transform call, "several" radii per call (five when each
    radius's lattice spectrum holds ``spectrum_bytes``, else all of them), both
    on this thread, "two" slots at once, one radius each, on this thread and
    the worker, or two "runs" of radii at once, two radii per call when each
    spectrum holds ``spectrum_bytes`` (else as many as fit in 64 KiB), so each
    thread takes one call or more a round.  Returns the list that grows by
    (made on the worker, radii in the call) per irfft call of the pass."""
    budget = {
        "several": 1 << 40 if spectrum_bytes is None else 5 * spectrum_bytes,
        "runs": 1 << 16 if spectrum_bytes is None else 2 * spectrum_bytes,
    }.get(name, 0)
    mp.setattr(potential, "_SPLIT_BYTES", budget)
    mp.setattr(potential, "_usable_cpus", lambda: 2 if name in ("two", "runs") else 1)
    calls = []
    irfft = np.fft.irfft

    def spy(a, *args, **kw):
        calls.append((threading.current_thread() is not threading.main_thread(), a.shape[0]))
        return irfft(a, *args, **kw)

    mp.setattr(np.fft, "irfft", spy)
    return calls


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_two_slots_run_in_a_forked_child(monkeypatch):
    # a child forked after the worker started inherits the executor but not
    # its thread: its two-slot profiles must still finish, with the same bits,
    # with one radius a slot and in two runs (the worker takes 3 of the 9
    # radii, 2 per call)
    g = Grid(3, 1.0, 10)
    f = bump_field(g, draw_bump_params(np.random.default_rng(5), 3))
    q = PotentialQuadrature(num_nodes=9)
    for name in ("two", "runs"):
        with monkeypatch.context() as mp:
            mp.setattr(potential, "_kept", None)
            mp.setattr(potential, "_last_key", None)
            calls = _schedule(mp, name)
            ref = potential_profile(f, 0.8, q).values.tobytes()
            assert any(worker and (b > 1) == (name == "runs") for worker, b in calls), (name, calls)

            def child():
                out = potential_profile(f, 0.8, q).values.tobytes()
                os._exit(0 if out == ref else 3)

            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(timeout=60)
            hung = proc.is_alive()
            if hung:
                proc.kill()
                proc.join()
            assert not hung and proc.exitcode == 0, (name, proc.exitcode)


def test_two_slots_wait_for_the_worker(monkeypatch):
    # each of the worker's radii takes 0.2 s longer than the caller's: one
    # radius of six in the "two" schedule, radii 4 and 5 in "runs" (the
    # caller takes 0 .. 3, two per call).  An error on either thread reaches
    # the caller only once the worker is done, and a generator closed after its
    # first term has waited for the worker's whole run.  The worker then still
    # takes jobs, under the caller's numpy error state, and the pass still
    # gives the same bytes
    g = Grid(2, 1.0, 16)
    f = bump_field(g, draw_bump_params(np.random.default_rng(2), 2))
    radii, box = np.linspace(0.2, 0.6, 6), (slice(0, 16),) * 2
    kernel_rfftn = potential._kernel_rfftn
    done, fail, states = [], [], set()

    def slow_kernel(kernel, out):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker:
            states.add(np.geterr()["over"])
        try:
            if on_worker:
                time.sleep(0.2)
            if fail == ["worker" if on_worker else "caller"]:
                raise RuntimeError("radius failed")
            return kernel_rfftn(kernel, out)
        finally:
            done.append(on_worker)

    for name, per_call, worker_radii in (("two", 1, 1), ("runs", 2, 2)):
        with monkeypatch.context() as mp:
            mp.setattr(potential, "_kept", None)
            mp.setattr(potential, "_last_key", None)
            _schedule(mp, name, spectrum_bytes=16 * 24 * 13)  # the 24 x 13 spectrum of the 24^2 lattice
            ref = [m.copy() for m in potential._ball_masses_fft(f.values, g, radii, box)]
            mp.setattr(potential, "_kernel_rfftn", slow_kernel)
            for side in ("worker", "caller"):
                done.clear()
                fail[:] = [side]
                with pytest.raises(RuntimeError, match="radius failed"):
                    list(potential._ball_masses_fft(f.values, g, radii, box))
                assert True in done, (name, side)  # the worker had finished its run
            done.clear()
            fail.clear()
            masses = potential._ball_masses_fft(f.values, g, radii, box)
            assert next(masses).tobytes() == ref[0].tobytes()
            masses.close()
            assert done.count(True) == worker_radii and done.count(False) == per_call, (name, done)
            assert potential._fft_worker().submit(int, "7").result(timeout=10) == 7
            states.clear()
            with np.errstate(over="raise"):
                masses = [m.tobytes() for m in potential._ball_masses_fft(f.values, g, radii, box)]
            assert masses == [m.tobytes() for m in ref], name
            assert states == {"raise"}, name


def _region(g, mask):
    return Region(g, mask, int(mask.sum()) * g.cell_volume, int(mask.sum()))


def test_pruned_transforms_equal_full_lattice(monkeypatch):
    # the pruned transforms give every 1-D transform the full lattice's data,
    # so the profile equals the full-lattice one bit for bit: odd n, the
    # kernel reaching one cell (R < 2h) and reaching n - 1 cells (R beyond
    # the box diagonal), in 2-D and 3-D.  Every schedule (one radius per
    # call, five per call with a shorter last call, two slots at once) gives
    # those bytes on a fresh call, the call that keeps the spectra and one
    # served from them, and the same sup bytes, also for a region one cell
    # thick
    cases = ((2, 33, 1.9 * 2.0 / 33, 1), (2, 33, 0.45, None), (2, 33, 3.0, 32),
             (3, 13, 1.9 * 2.0 / 13, 1), (3, 13, 0.7, None), (3, 13, 3.0, 12))
    for N, n, R, reach in cases:
        g = Grid(N, 1.0, n)
        f = bump_field(g, draw_bump_params(np.random.default_rng(n + N), N))
        q = PotentialQuadrature(num_nodes=12)
        ref, m = _full_lattice_profile(f, R, q)
        assert reach is None or m == reach, (N, n, R, m)
        L = potential._smooth_size(n + m)
        slab = np.zeros(g.shape, dtype=bool)
        slab[n // 3] = True
        regions = [ball_mask(g, (0.3,) * N, 0.5), _region(g, slab)]
        results = []
        for name in SCHEDULES:
            with monkeypatch.context() as mp:
                mp.setattr(potential, "_kept", None)
                mp.setattr(potential, "_last_key", None)
                calls = _schedule(mp, name, spectrum_bytes=16 * L ** (N - 1) * (L // 2 + 1))
                profiles = [potential_profile(f, R, q).values.tobytes() for _ in range(3)]
                assert potential._kept is not None  # the third profile was served from kept spectra
                sups = [potential_sup(f, region, R, q) for region in regions]
            assert profiles == [ref.tobytes()] * 3, (N, n, R, name)
            ran = {
                "one": all(b == 1 and not worker for worker, b in calls),
                "several": (False, 5) in calls and (False, 2) in calls,
                "two": any(worker for worker, _ in calls) and all(b == 1 for _, b in calls),
                "runs": {worker for worker, b in calls if b > 1} == {False, True},
            }
            assert ran[name], (name, calls)
            results.append(np.array(sups).tobytes())
        assert results[1:] == results[:-1], (N, n, R)


@settings(max_examples=60, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    n=st.integers(5, 14),
    kind=st.sampled_from(("ball", "edge", "cell", "slab")),
    frac=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    R=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_potential_sup_on_region_box(N, n, kind, frac, R, seed):
    # the sup reads only the region's bounding box, with a lattice sized by
    # it; it must equal the max of the whole-grid profile over the region.
    # The FFT's rounding is relative to the largest mass, so the field is
    # kept away from zero, where every mass is of that size
    g = Grid(N, 1.0, n)
    rng = np.random.default_rng(seed)
    f = ScalarField(g, rng.uniform(0.5, 1.5, g.shape) * rng.choice((-1.0, 1.0), g.shape))
    idx = tuple(min(int(t * n), n - 1) for t in frac[:N])
    if kind == "ball":  # off-centre
        mask = ball_mask(g, tuple(0.8 * (2.0 * t - 1.0) for t in frac[:N]), 0.2 + 0.5 * frac[-1]).mask
    elif kind == "edge":  # a ball centred on a face of the box
        center = (1.0,) + tuple(2.0 * t - 1.0 for t in frac[1:N])
        mask = ball_mask(g, center, 0.1 + 0.6 * frac[0]).mask
    else:
        mask = np.zeros(g.shape, dtype=bool)
        if kind == "cell":
            mask[idx] = True
        else:  # a slab one cell thick, part of the other axes: a non-cubic box
            mask[(idx[0],) + tuple(slice(i // 2, i + 1) for i in idx[1:])] = True
    assume(mask.any())
    region = _region(g, mask)
    q = PotentialQuadrature(num_nodes=8)
    sup = potential_sup(f, region, R, q)
    assert math.isclose(sup, float(np.max(potential_profile(f, R, q).values[mask])), rel_tol=1e-13)


def test_sup_and_profile_lattices_keep_apart(monkeypatch):
    # on the 64^2 grid with R = 2 the sup over B_1 reads a 32^2 box and needs
    # an 80^2 lattice, the whole-grid profile 96^2; alternating calls on one
    # grid and one set of radii must never serve one lattice's kept spectra
    # to the other, so every profile has the bytes of a fresh call
    monkeypatch.setattr(potential, "_kept", None)
    monkeypatch.setattr(potential, "_last_key", None)
    g = Grid(2, 2.0, 64)
    f = bump_field(g, draw_bump_params(np.random.default_rng(12), 2))
    region = ball_mask(g, (0.0, 0.0), 1.0)
    q = PotentialQuadrature(num_nodes=16)

    def kept_lattice():
        return potential._kept[0][1] if potential._kept is not None else None

    fresh = potential_profile(f, 2.0, q).values.tobytes()
    first = potential_sup(f, region, 2.0, q)
    assert potential_sup(f, region, 2.0, q) == first
    assert kept_lattice() == 80
    assert potential_profile(f, 2.0, q).values.tobytes() == fresh
    assert potential_sup(f, region, 2.0, q) == first  # served from the kept 80^2 spectra
    assert potential_profile(f, 2.0, q).values.tobytes() == fresh
    assert kept_lattice() == 96
    assert potential_sup(f, region, 2.0, q) == first
    assert potential_profile(f, 2.0, q).values.tobytes() == fresh  # served from the kept 96^2 spectra


def test_two_slot_profile_memory_stays_within_seven_spectra(monkeypatch):
    # R = 1 on the 48^3 grid of half-width 2 needs a 60^3 lattice.  With two
    # slots at once the pass holds the transform of f^2, two slots of
    # buffers and the running sum: its traced peak stays within 7 lattice
    # spectra (L * L * (L/2 + 1) complex each), so a slot that brings back a
    # per-radius temporary fails
    monkeypatch.setattr(potential, "_kept", None)
    monkeypatch.setattr(potential, "_last_key", None)
    _schedule(monkeypatch, "two")
    q = PotentialQuadrature()
    potential_profile(ScalarField(Grid(3, 2.0, 8), np.ones((8,) * 3)), 1.0, q)  # starts the worker untraced
    g = Grid(3, 2.0, 48)
    f = ScalarField(g, np.ones(g.shape))
    _, peak = traced_peak(lambda: potential_profile(f, 1.0, q))
    L = 60
    assert peak <= 7 * L * L * (L // 2 + 1) * 16, peak / (L * L * (L // 2 + 1) * 16)


def test_phase_a_sup_rounds_and_memory(monkeypatch):
    # the sup over B_1 with R = 2 on the 64^2 grid reads a 32^2 box through
    # the 80 x 41 lattice spectrum, 4 radii per transform call.  On two CPUs
    # the worker takes, each round, the 32 radii whose terms fill its 256 KiB
    # store: one round for 64 nodes and 8 for 512, with the one-CPU value.  A
    # served call's traced peak holds two slots (11.1 spectra), the store (5),
    # the transform of f^2 and each thread's transient copies in its multiply
    # and in-place ifft (4 each, overlapping or not): within 28 spectra at both
    # node counts (the one-thread pass holds ~11.5), so a third slot or a store
    # that grows with the node count fails
    monkeypatch.setattr(potential, "_kept", None)
    monkeypatch.setattr(potential, "_last_key", None)
    submits = []
    fft_worker = potential._fft_worker

    def counted_worker():
        submits.append(1)
        return fft_worker()

    monkeypatch.setattr(potential, "_fft_worker", counted_worker)
    g = Grid(2, 2.0, 64)
    f = bump_field(g, draw_bump_params(np.random.default_rng(3), 2))
    region = ball_mask(g, (0.0, 0.0), 1.0)
    spectrum = 80 * 41 * 16
    for nodes, rounds in ((64, 1), (512, 8)):
        q = PotentialQuadrature(num_nodes=nodes)
        monkeypatch.setattr(potential, "_usable_cpus", lambda: 1)
        one_cpu = potential_sup(f, region, 2.0, q)
        monkeypatch.setattr(potential, "_usable_cpus", lambda: 2)
        submits.clear()
        assert potential_sup(f, region, 2.0, q) == one_cpu  # keeps the spectra, starts the worker untraced
        assert len(submits) == rounds, (nodes, len(submits))
        sup, peak = traced_peak(lambda: potential_sup(f, region, 2.0, q))
        assert sup == one_cpu
        assert peak <= 28 * spectrum, (nodes, peak / spectrum)


def test_profile_overflow_raises():
    # f^2 = 1e308 is finite, its sums over the balls are not: the profile
    # raises rather than hand back a field it cannot hold.  So do potential_P,
    # whose f^2 overflows at 1e160, and the Hölder bound, whose |f|^6 does at
    # 1e60 (its r = inf bound stays finite)
    g = Grid(2, 1.0, 16)
    q = PotentialQuadrature(num_nodes=8)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError):
            potential_profile(ScalarField(g, np.full(g.shape, 1e154)), 0.5, q)
        with pytest.raises(FloatingPointError):
            potential_P(ScalarField(g, np.full(g.shape, 1e160)), (0.0, 0.0), 0.5, q)
        with pytest.raises(FloatingPointError):
            potential_holder_bound(ScalarField(g, np.full(g.shape, 1e60)), 6.0, 2)
    assert potential_holder_bound(ScalarField(g, np.full(g.shape, 1e60)), math.inf, 2) == 2e60


def test_potential_P_is_sum_of_ball_masses():
    # potential_P must equal, bit for bit, the midpoint sum over ball_l2_mass
    rng = np.random.default_rng(21)
    for N, n in ((2, 32), (3, 12)):
        g = Grid(N, 1.0, n)
        f = bump_field(g, draw_bump_params(rng, N))
        q = PotentialQuadrature(num_nodes=16, rho_min_policy=0.5 * g.spacing)
        for x, R in (((0.0,) * N, 0.8), ((0.31,) * N, 1.7), ((-0.9,) * N, 0.1)):
            rho0 = min(q.rho_min(g), R)
            total = abs(float(f.values[g.nearest_index(x)])) * math.sqrt(unit_ball_volume(N)) * rho0
            width = (R - rho0) / q.num_nodes
            rho = rho0 + (np.arange(q.num_nodes) + 0.5) * width
            terms = [math.sqrt(ball_l2_mass(f, x, float(r))) * float(r) ** (-0.5 * N) for r in rho]
            total += float(np.sum(np.array(terms))) * width
            assert potential_P(f, x, R, q) == total, (N, x, R)


def test_potential_sup_consistency():
    g = Grid(2, 1.0, 48)
    rng = np.random.default_rng(9)
    f = bump_field(g, draw_bump_params(rng, 2))
    q = PotentialQuadrature(num_nodes=16)
    region = ball_mask(g, (0.0, 0.0), 0.5)
    sup = potential_sup(f, region, 0.4, q)
    prof = potential_profile(f, 0.4, q)
    assert math.isclose(sup, float(np.max(prof.values[region.mask])), rel_tol=1e-13)
    assert sup <= float(np.max(prof.values)) + 1e-15
    other = ball_mask(Grid(2, 1.0, 32), (0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        potential_sup(f, other, 0.4, q)


def test_holder_rho_integral_closed_form():
    # integral of rho^(-N/r) over (0, 2) equals 2^(1-N/r)/(1-N/r)
    assert math.isclose(holder_rho_integral(2, 4.0), 2.0 * math.sqrt(2.0), rel_tol=1e-14)
    assert math.isclose(holder_rho_integral(3, 6.0), 2.0 * math.sqrt(2.0), rel_tol=1e-14)
    assert holder_rho_integral(2, math.inf) == 2.0
    for N, r in ((2, 3.0), (2, 6.0), (3, 4.5), (3, 9.0)):
        numeric, err = quad(lambda rho: rho ** (-N / r), 0.0, 2.0)
        assert err < 1e-8
        assert math.isclose(holder_rho_integral(N, r), numeric, rel_tol=1e-6), (N, r)
    with pytest.raises(ValueError):
        holder_rho_integral(2, 2.0)  # diverges at r = N
    with pytest.raises(ValueError):
        holder_rho_integral(3, 2.5)


def test_holder_bound_dominates_sup():
    g = Grid(2, 2.0, 48)
    interior = ball_mask(g, (0.0, 0.0), 1.0)
    q = PotentialQuadrature(num_nodes=24)
    rng = np.random.default_rng(77)
    for _ in range(10):
        f = bump_field(g, draw_bump_params(rng, 2))
        sup = potential_sup(f, interior, 2.0, q)
        for r in (3.0, 6.0):
            bound = potential_holder_bound(f, r, 2)
            assert sup <= bound, (sup, bound, r)
    with pytest.raises(ValueError):
        potential_holder_bound(f, 3.0, 3)  # dimension mismatch with the grid
