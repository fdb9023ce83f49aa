"""Grid geometry, norms, shifts, and field IO against hand-computable cases."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _peak import traced_peak
from plapbench import discretization
from plapbench.discretization import _Discretization, _axslice, _side_squares, _stress_values
from plapbench.field import (
    _HEADER,
    _MAGIC,
    Grid,
    Region,
    ScalarField,
    VectorField,
    ball_box,
    ball_mask,
    cutoff_eta,
    delta_h,
    export_csv,
    gradient,
    lattice_vector,
    linf_norm,
    load_field,
    lp_norm,
    save_field,
    shift,
    w1p_norm,
)


def linear_field(grid, slopes, offset=0.0):
    vals = np.full(grid.shape, offset)
    for k, (c, s) in enumerate(zip(np.meshgrid(*[grid.axis_centers()] * grid.N, indexing="ij"), slopes)):
        vals = vals + s * c
    return ScalarField(grid, vals)


def test_grid_geometry():
    g = Grid(2, 2.0, 8)
    assert g.spacing == 0.5
    assert g.cell_volume == 0.25
    ax = g.axis_centers()
    assert ax[0] == -1.75 and ax[-1] == 1.75
    # centers are symmetric about the origin
    assert np.allclose(ax + ax[::-1], 0.0)
    assert g.shape == (8, 8)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid(1, 1.0, 8)
    with pytest.raises(ValueError):
        Grid(2, -1.0, 8)
    with pytest.raises(ValueError):
        Grid(2, 1.0, 1)
    for extent in (math.inf, math.nan):
        with pytest.raises(ValueError):
            Grid(2, extent, 8)


def test_nearest_index_and_squared_distance():
    g = Grid(2, 1.0, 10)
    idx = g.nearest_index((0.0, 0.0))
    ax = g.axis_centers()
    assert abs(ax[idx[0]]) <= g.spacing / 2 + 1e-15
    with pytest.raises(ValueError):
        g.nearest_index((1.5, 0.0))
    d2 = g.squared_distance((0.25, -0.5))
    i, j = g.nearest_index((0.25, -0.5))
    assert d2[i, j] == np.min(d2)


def test_field_validation():
    g = Grid(2, 1.0, 4)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        ScalarField(g, np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((4, 4, 2)))  # one side only
    f = ScalarField(g, np.ones((4, 4)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0  # stored array is read-only


def test_fields_and_regions_do_not_change_under_their_holder():
    # a view of a writeable array is copied, so a write through its base after
    # construction reaches neither the values nor the mask and its count; an
    # array that nothing else can write through (owned, or a view of read-only
    # data) is frozen in place, without a copy
    g = Grid(2, 1.0, 4)
    base = np.zeros((6, 4))
    f = ScalarField(g, base[:4])
    vbase = np.zeros((4, 4, 2, 2))
    v = VectorField(g, vbase.reshape(-1).reshape(g.shape + (2, 2)))  # a view of a view
    base[0, 0] = vbase[0, 0, 0, 0] = 7.0
    assert f.values[0, 0] == 0.0 and v.values[0, 0, 0, 0] == 0.0
    mb = np.ones((8, 4), dtype=bool)
    r = Region(g, mb[:4])
    mb[:4] = False
    assert r.mask.all() and r.count == 16
    owned = np.ones((4, 4))
    assert ScalarField(g, owned).values is owned
    read_only = np.ones((6, 4))
    read_only.setflags(write=False)
    assert ScalarField(g, read_only[:4]).values.base is read_only
    mask = np.ones((4, 4), dtype=bool)
    assert Region(g, mask).mask is mask
    assert not (f.values.flags.writeable or r.mask.flags.writeable or owned.flags.writeable)


def test_field_arithmetic_stays_on_grid():
    g = Grid(2, 1.0, 4)
    a = ScalarField(g, np.ones(g.shape))
    b = ScalarField(g, 2.0 * np.ones(g.shape))
    assert np.all((b - a).values == 1.0)
    assert np.all((3.0 * a).values == 3.0)
    other = ScalarField(Grid(2, 1.0, 5), np.ones((5, 5)))
    with pytest.raises(ValueError):
        a - other
    # a vector field is not subtracted from a scalar one, not even where the shapes broadcast
    with pytest.raises(ValueError):
        a - VectorField(g, np.ones(g.shape + (2, 2)))
    tiny = Grid(2, 1.0, 2)
    with pytest.raises(ValueError):
        ScalarField(tiny, np.ones((2, 2))) - VectorField(tiny, np.ones((2, 2, 2, 2)))


def test_gradient_exact_on_linear_fields():
    # both one-sided differences are exact for affine data but in the box-edge
    # layer that each runs out of: there the forward (backward) difference runs
    # to the Dirichlet value 0 on the box's face, h/2 away
    for N in (2, 3):
        g = Grid(N, 1.5, 12)
        slopes = [0.7, -1.3, 2.1][:N]
        u = linear_field(g, slopes, offset=0.4)
        gr = gradient(u).values
        assert gr.shape == g.shape + (2, N)
        for k, s in enumerate(slopes):
            first, last = _axslice(N, k, slice(None, 1)), _axslice(N, k, slice(-1, None))
            assert np.allclose(gr[..., 0, k][_axslice(N, k, slice(None, -1))], s, atol=1e-12), f"axis {k}"
            assert np.allclose(gr[..., 1, k][_axslice(N, k, slice(1, None))], s, atol=1e-12), f"axis {k}"
            assert np.allclose(gr[..., 0, k][last], -u.values[last] / (g.spacing / 2), atol=1e-12)
            assert np.allclose(gr[..., 1, k][first], u.values[first] / (g.spacing / 2), atol=1e-12)


def test_lp_norm_constant_field():
    g = Grid(2, 2.0, 16)
    c = 0.7
    f = ScalarField(g, np.full(g.shape, c))
    # box volume (2*extent)^N = 16
    for p in (1.0, 2.0, 3.5):
        assert math.isclose(lp_norm(f, p), c * 16.0 ** (1.0 / p), rel_tol=1e-13)
    assert linf_norm(f) == c
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)
    with pytest.raises(ValueError):
        lp_norm(f, math.inf)


def test_lp_norm_region_restriction():
    g = Grid(2, 1.0, 32)
    vals = np.zeros(g.shape)
    ball = ball_mask(g, (0.0, 0.0), 0.5)
    vals[ball.mask] = 2.0
    f = ScalarField(g, vals)
    assert math.isclose(lp_norm(f, 2.0, ball), 2.0 * math.sqrt(ball.count * g.cell_volume), rel_tol=1e-13)
    whole = Region(g, np.ones(g.shape, dtype=bool))
    assert (whole.count, whole.count * g.cell_volume) == (g.cells_per_axis**2, 4.0)
    assert lp_norm(f, 2.0) == lp_norm(f, 2.0, whole)
    empty = Region(g, np.zeros(g.shape, dtype=bool))
    assert empty.count == 0
    with pytest.raises(ValueError):
        lp_norm(f, 2.0, empty)


def test_ball_mask_volume_converges():
    # strict-interior cell count times h^N approaches the continuum volume
    for N, target in ((2, math.pi), (3, 4.0 * math.pi / 3.0)):
        errs = []
        for n in (32, 64):
            g = Grid(N, 1.5, n)
            b = ball_mask(g, (0.0,) * N, 1.0)
            errs.append(abs(b.count * g.cell_volume - target) / target)
        assert errs[1] < errs[0]
        assert errs[1] < 0.05


@settings(max_examples=60, deadline=None)
@given(
    N=st.sampled_from((2, 3)),
    n=st.integers(2, 40),
    center=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    radius=st.floats(1e-3, 5.0),
)
def test_ball_mask_is_the_full_grid_formula(N, n, center, radius):
    # the mask is formed on the ball's box only (``ball_box``, which the CLI's
    # radial oracle reads too); it equals the comparison on the whole grid,
    # also for balls cut by or outside the box.  The box holds every cell of
    # the ball, and its squared distances are the whole grid's there
    g = Grid(N, 1.5, n)
    b = ball_mask(g, center[:N], radius)
    d2_full = g.squared_distance(center[:N])
    full = d2_full < radius * radius
    assert np.array_equal(b.mask, full)
    assert b.count == int(full.sum())
    box, d2 = ball_box(g, center[:N], radius * radius)
    assert np.array_equal(d2, d2_full[box]) and int(full[box].sum()) == b.count


def test_w1p_norm_combines_value_and_gradient():
    g = Grid(2, 1.0, 16)
    u = linear_field(g, (1.0, 0.0))
    a = lp_norm(u, 2.0)
    b = lp_norm(gradient(u), 2.0)
    assert math.isclose(w1p_norm(u, 2.0), math.hypot(a, b), rel_tol=1e-13)


def test_shift_zero_extension():
    g = Grid(2, 1.0, 6)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.standard_normal(g.shape))
    sh = shift(f, (2, 0))
    assert np.all(sh.values[:4, :] == f.values[2:, :])
    assert np.all(sh.values[4:, :] == 0.0)
    sh = shift(f, (0, -1))
    assert np.all(sh.values[:, 1:] == f.values[:, :5])
    assert np.all(sh.values[:, :1] == 0.0)
    with pytest.raises(ValueError):
        shift(f, (7, 0))
    with pytest.raises(ValueError):
        shift(f, (1,))


def test_delta_h_linear_interior():
    g = Grid(2, 1.0, 16)
    u = linear_field(g, (2.0, -1.0))
    cells = (1, 2)
    d = delta_h(u, cells)
    hv = lattice_vector(g, cells)
    expect = 2.0 * hv[0] - 1.0 * hv[1]
    # away from the zero-extension band the quotient is exact
    assert np.allclose(d.values[: 16 - 1, : 16 - 2], expect, atol=1e-12)
    assert np.allclose(lattice_vector(g, (1, 0)), [g.spacing, 0.0])


def test_delta_h_adjoint_identity():
    # sum f . delta_h g = sum (delta_{-h} f) . g  for zero-extended fields
    g = Grid(2, 1.0, 12)
    rng = np.random.default_rng(11)
    f = ScalarField(g, rng.standard_normal(g.shape))
    w = ScalarField(g, rng.standard_normal(g.shape))
    cells = (2, -1)
    lhs = float(np.sum(f.values * delta_h(w, cells).values))
    rhs = float(np.sum(delta_h(f, [-c for c in cells]).values * w.values))
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_stress_values_magnitude_power():
    # on the cells off the box-edge layers, where both sides of an affine
    # field's gradient are exact
    g = Grid(2, 1.0, 16)
    inner = (slice(1, -1), slice(1, -1))
    u = linear_field(g, (0.6, -0.8))  # |grad u| = 1 there, handy
    for p in (1.5, 2.0, 3.0):
        V = _stress_values(gradient(u).values[inner], p)
        mag = np.sqrt(np.einsum("...k,...k->...", V, V))
        assert mag.shape == (14, 14, 2)
        assert np.allclose(mag, 1.0, atol=1e-12)
    u2 = linear_field(g, (3.0, 4.0))  # |grad u| = 5
    V = _stress_values(gradient(u2).values[inner], 3.0)
    mag = np.sqrt(np.einsum("...k,...k->...", V, V))
    assert np.allclose(mag, 5.0**2, atol=1e-9)
    flat = ScalarField(g, np.ones(g.shape))
    V = _stress_values(gradient(flat).values[inner], 1.5)  # p < 2 at zero gradient: no division blowup
    assert np.all(np.isfinite(V))
    assert np.all(V == 0.0)


def test_cutoff_eta_profile_and_slope():
    g = Grid(2, 1.0, 64)
    t, s = 0.4, 0.7
    eta, eps_geom = cutoff_eta(g, t, s)
    r2 = g.squared_distance((0.0, 0.0))
    assert np.all(eta.values[r2 < t * t] == 1.0)
    assert np.all(eta.values[r2 > s * s] == 0.0)
    gmax = linf_norm(gradient(eta))
    assert gmax <= (1.0 + eps_geom) / (s - t) * (1.0 + 1e-12)
    assert eps_geom < 0.5  # modest anisotropy slack on a reasonable grid
    with pytest.raises(ValueError):
        cutoff_eta(g, 0.7, 0.4)
    with pytest.raises(ValueError):
        cutoff_eta(g, 0.4, 1.2)  # support must fit inside the box


def test_save_load_roundtrip(tmp_path):
    g = Grid(3, 1.2, 8)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = tmp_path / "f.fld"
    save_field(f, path)
    back = load_field(path)
    assert isinstance(back, ScalarField)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)

    bad = tmp_path / "bad.fld"
    bad.write_bytes(b"NOTAFLD0" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_field(bad)
    trunc = tmp_path / "trunc.fld"
    trunc.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ValueError):
        load_field(trunc)


@pytest.mark.parametrize(
    "header, payload, match",
    [
        ((2, 4, 1.0, 3), np.zeros(16 * 3), "component count 3"),
        ((2, 4, 1.0, 2), np.zeros(16 * 2), "component count 2"),  # N components: a vector field
        ((5, 4, 1.0, 1), np.zeros(4**5), "N must be 2 or 3"),
        ((2, 4, math.inf, 1), np.zeros(16), "extent"),
        ((2, 4, math.nan, 1), np.zeros(16), "extent"),
        ((2, 4, 1.0, 1), np.zeros(15), "payload size"),
        ((2, 4, 1.0, 1), np.full(16, math.nan), "finite"),
        # n**N overflows a 64-bit integer; the expected size must not
        ((2, 2**32 - 1, 1.0, 1), np.zeros(16), f"expected {_HEADER.size + 8 * (2**32 - 1) ** 2}$"),
    ],
    ids=["ncomp-3", "ncomp-N", "N-5", "extent-inf", "extent-nan", "short-payload", "nan-payload", "size-overflow"],
)
def test_load_field_rejects_bad_headers(tmp_path, header, payload, match):
    # header fields: N, cells_per_axis, extent, component count
    path = tmp_path / "f.fld"
    path.write_bytes(_HEADER.pack(_MAGIC, *header) + np.asarray(payload, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=match):
        load_field(path)


def test_save_field_streams_the_payload(tmp_path):
    # the file is the header, then the values' C-order little-endian bytes,
    # written from the values' own buffer: no copy of the payload is made
    g = Grid(3, 2.0, 48)
    f = ScalarField(g, np.random.default_rng(5).standard_normal(g.shape))
    _, peak = traced_peak(lambda: save_field(f, tmp_path / "f.fld"))
    assert peak < 0.1 * f.values.nbytes
    header = _HEADER.pack(_MAGIC, 3, 48, 2.0, 1)
    assert (tmp_path / "f.fld").read_bytes() == header + f.values.astype("<f8").tobytes()


def test_export_csv_roundtrips_values(tmp_path):
    g = Grid(2, 1.0, 4)
    f = ScalarField(g, np.arange(16.0).reshape(4, 4))
    path = tmp_path / "f.csv"
    export_csv(f, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x1,x2,v"
    assert len(rows) == 17
    first = [float(x) for x in rows[1].split(",")]
    ax = g.axis_centers()
    assert first == [ax[0], ax[0], 0.0]


def _export_csv_reference(field, path):
    """The row-by-row writer: full coordinate arrays, one writerow per cell."""
    grid = field.grid
    coords = [c.ravel() for c in np.meshgrid(*[grid.axis_centers()] * grid.N, indexing="ij")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k + 1}" for k in range(grid.N)] + ["v"])
        for row in zip(*coords, field.values.ravel()):
            writer.writerow([repr(float(x)) for x in row])


def test_export_csv_bytes_match_row_writer(tmp_path):
    rng = np.random.default_rng(12)
    values = rng.standard_normal((7, 7))
    values[0, 0] = -0.0
    values[1, 0] = 1e-300
    values[2, 0] = 5e-324  # the smallest subnormal
    values3 = rng.standard_normal((5, 5, 5)) * 1e5
    values3[0, 0, :3] = (-0.0, 2.5e-310, -1e-320)
    cases = [
        ScalarField(Grid(2, 1.5, 7), values),
        ScalarField(Grid(3, 2.0, 5), values3),
    ]
    # fields refuse non-finite values, so these two get them past the check:
    # the writer must still match the csv module on every float repr
    for f, cells in ((cases[0], [(2, 1), (2, 2), (2, 3)]), (cases[1], [(4, 4, 4), (4, 4, 3), (0, 1, 0)])):
        raw = f.values.copy()
        for cell, value in zip(cells, (math.inf, -math.inf, math.nan)):
            raw[cell] = value
        object.__setattr__(f, "values", raw)
    for k, f in enumerate(cases):
        export_csv(f, tmp_path / f"new{k}.csv")
        _export_csv_reference(f, tmp_path / f"ref{k}.csv")
        new = (tmp_path / f"new{k}.csv").read_bytes()
        assert new == (tmp_path / f"ref{k}.csv").read_bytes(), k
        assert new.count(b"\r\n") == f.grid.cells_per_axis**f.grid.N + 1


def test_discretization_imports_no_other_plapbench_module():
    # field, estimates and plap_solver import the stencil, so it imports none of them
    src = str(Path(discretization.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, plapbench.discretization; print(*sorted(m for m in sys.modules if m.startswith('plapbench')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout
    assert out.split() == ["plapbench", "plapbench.discretization"]


@pytest.mark.parametrize("grid", [Grid(2, 2.0, 16), Grid(3, 1.5, 9)], ids=["2d", "3d"])
def test_field_gradient_is_the_solvers_two_one_sided_differences(grid):
    # on a full box, side i of component k of the field gradient is the
    # solver's c G_k of side i, bit for bit, on every cell, the box-edge
    # layers included (c = 2/h there); h = 1/3 in 3-D is no power of two.
    # Each side's |g|^2, taken without forming the gradient, is the sum of
    # its squares over the axes, in the same bits
    u = np.random.default_rng(34).standard_normal(grid.shape)
    g = gradient(ScalarField(grid, u)).values
    disc = _Discretization(np.ones(grid.shape, dtype=bool), grid.spacing)
    for k, G in enumerate(disc._face_diffs(disc.bordered_copy(u))):
        for i, side in enumerate(disc.sides):
            diff = np.zeros(disc.size)
            diff[side[k]] = disc.coefficient(k, side) * G
            assert np.array_equal(g[..., i, k], disc.cells(diff)), (i, k)
    for i, m in enumerate(_side_squares(u, grid.spacing)):
        assert np.array_equal(m, sum(g[..., i, k] ** 2 for k in range(grid.N)))
