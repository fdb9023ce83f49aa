"""Grid geometry, norms, shifts, and field IO against hand-computable cases."""

import csv
import math

import numpy as np
import pytest

from plapbench.field import (
    _HEADER,
    _MAGIC,
    Grid,
    Region,
    ScalarField,
    VectorField,
    ball_mask,
    cutoff_eta,
    delta_h,
    export_csv,
    full_region,
    gradient,
    lattice_vector,
    linf_norm,
    load_field,
    lp_norm,
    save_field,
    shift,
    stress_field,
    w1p_norm,
)


def linear_field(grid, slopes, offset=0.0):
    vals = np.full(grid.shape, offset)
    for k, (c, s) in enumerate(zip(grid.centers(), slopes)):
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
    f = ScalarField(g, np.ones((4, 4)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0  # stored array is read-only


def test_field_arithmetic_stays_on_grid():
    g = Grid(2, 1.0, 4)
    a = ScalarField(g, np.ones(g.shape))
    b = ScalarField(g, 2.0 * np.ones(g.shape))
    assert np.all((a + b).values == 3.0)
    assert np.all((b - a).values == 1.0)
    assert np.all((3.0 * a).values == 3.0)
    other = ScalarField(Grid(2, 1.0, 5), np.ones((5, 5)))
    with pytest.raises(ValueError):
        a + other
    with pytest.raises(ValueError):
        a - other
    # vector fields keep their type through the same arithmetic
    va = VectorField(g, np.ones(g.shape + (2,)))
    vb = VectorField(g, 2.0 * np.ones(g.shape + (2,)))
    for res, value in ((va + vb, 3.0), (vb - va, 1.0), (va * 3.0, 3.0), (3.0 * va, 3.0)):
        assert type(res) is VectorField and res.grid == g
        assert np.all(res.values == value)
    with pytest.raises(ValueError):
        va + VectorField(other.grid, np.ones((5, 5, 2)))
    # a scalar and a vector field do not combine, not even where the shapes broadcast
    with pytest.raises(ValueError):
        a + va
    tiny = Grid(2, 1.0, 2)
    with pytest.raises(ValueError):
        VectorField(tiny, np.ones((2, 2, 2))) + ScalarField(tiny, np.ones((2, 2)))


def test_gradient_exact_on_linear_fields():
    # forward differences are exact for affine data, including the backward
    # fallback on the last layer
    for N in (2, 3):
        g = Grid(N, 1.5, 12)
        slopes = [0.7, -1.3, 2.1][:N]
        u = linear_field(g, slopes, offset=0.4)
        gr = gradient(u)
        for k, s in enumerate(slopes):
            assert np.allclose(gr.values[..., k], s, atol=1e-12), f"axis {k}"


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
    assert math.isclose(lp_norm(f, 2.0, ball), 2.0 * math.sqrt(ball.volume), rel_tol=1e-13)
    assert lp_norm(f, 2.0) == lp_norm(f, 2.0, full_region(g))
    empty = Region(g, np.zeros(g.shape, dtype=bool), 0.0, 0)
    with pytest.raises(ValueError):
        lp_norm(f, 2.0, empty)


def test_ball_mask_volume_converges():
    # strict-interior cell count times h^N approaches the continuum volume
    for N, target in ((2, math.pi), (3, 4.0 * math.pi / 3.0)):
        errs = []
        for n in (32, 64):
            g = Grid(N, 1.5, n)
            b = ball_mask(g, (0.0,) * N, 1.0)
            errs.append(abs(b.volume - target) / target)
        assert errs[1] < errs[0]
        assert errs[1] < 0.05


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


def test_stress_field_magnitude_power():
    g = Grid(2, 1.0, 16)
    u = linear_field(g, (0.6, -0.8))  # |grad u| = 1 everywhere, handy
    for p in (1.5, 2.0, 3.0):
        V = stress_field(u, p)
        mag = np.sqrt(np.einsum("...k,...k->...", V.values, V.values))
        assert np.allclose(mag, 1.0, atol=1e-12)
    u2 = linear_field(g, (3.0, 4.0))  # |grad u| = 5
    V = stress_field(u2, 3.0)
    mag = np.sqrt(np.einsum("...k,...k->...", V.values, V.values))
    assert np.allclose(mag, 5.0**2, atol=1e-9)
    flat = ScalarField(g, np.ones(g.shape))
    V = stress_field(flat, 1.5)  # p < 2 at zero gradient: no division blowup
    assert np.all(np.isfinite(V.values))
    assert np.all(V.values == 0.0)


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

    v = VectorField(g, rng.standard_normal(g.shape + (3,)))
    vpath = tmp_path / "v.fld"
    save_field(v, vpath)
    vback = load_field(vpath)
    assert isinstance(vback, VectorField)
    assert np.array_equal(vback.values, v.values)

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
        ((5, 4, 1.0, 1), np.zeros(4**5), "N must be 2 or 3"),
        ((2, 4, math.inf, 1), np.zeros(16), "extent"),
        ((2, 4, math.nan, 1), np.zeros(16), "extent"),
        ((2, 4, 1.0, 1), np.zeros(15), "payload size"),
        ((2, 4, 1.0, 1), np.full(16, math.nan), "finite"),
        # n**N overflows a 64-bit integer; the expected size must not
        ((2, 2**32 - 1, 1.0, 1), np.zeros(16), f"expected {_HEADER.size + 8 * (2**32 - 1) ** 2}$"),
    ],
    ids=["ncomp-3", "N-5", "extent-inf", "extent-nan", "short-payload", "nan-payload", "size-overflow"],
)
def test_load_field_rejects_bad_headers(tmp_path, header, payload, match):
    # header fields: N, cells_per_axis, extent, component count
    path = tmp_path / "f.fld"
    path.write_bytes(_HEADER.pack(_MAGIC, *header) + np.asarray(payload, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=match):
        load_field(path)


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
    coords = [c.ravel() for c in grid.centers()]
    if isinstance(field, ScalarField):
        cols = [field.values.ravel()]
        names = [f"x{k + 1}" for k in range(grid.N)] + ["v"]
    else:
        cols = [field.values[..., k].ravel() for k in range(grid.N)]
        names = [f"x{k + 1}" for k in range(grid.N)] + [f"v{k + 1}" for k in range(grid.N)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*coords, *cols):
            writer.writerow([repr(float(x)) for x in row])


def test_export_csv_bytes_match_row_writer(tmp_path):
    rng = np.random.default_rng(12)
    values = rng.standard_normal((7, 7))
    values[0, 0] = -0.0
    values[1, 0] = 1e-300
    values[2, 0] = 5e-324  # the smallest subnormal
    vec3 = rng.standard_normal((4, 4, 4, 3))
    vec3[0, 0, 0] = (-0.0, 2.5e-310, -1e-320)
    cases = [
        ScalarField(Grid(2, 1.5, 7), values),
        ScalarField(Grid(3, 2.0, 5), rng.standard_normal((5, 5, 5)) * 1e5),
        VectorField(Grid(2, 1.0, 6), rng.standard_normal((6, 6, 2))),
        VectorField(Grid(3, 1.0, 4), vec3),
    ]
    # fields refuse non-finite values, so these two get them past the check:
    # the writer must still match the csv module on every float repr
    for f, cells in ((cases[0], [(2, 1), (2, 2), (2, 3)]), (cases[3], [(3, 3, 3), (3, 3, 2), (0, 1, 0)])):
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
