"""Uniform Cartesian grids and cell-centered fields on a truncated box.

The computational domain is the box [-L, L]^N (N = 2 or 3) split into
``cells_per_axis`` cells per axis, spacing h = 2L/cells_per_axis, with cell
centers at -L + (i + 1/2) h.  Fields live on cell centers and are understood
as extended by zero outside the box, which is the discrete stand-in for
zero Dirichlet data on the truncation boundary.  A ``ScalarField`` holds one
value per cell; a ``VectorField`` is a discrete gradient's value, two
N-vectors per cell, the forward and the backward one-sided difference of the
solver's stencil, read by the norms, shifts and difference quotients.  Every
sum over a vector field's cells is the mean over its two sides, as the
solver's energy takes it.  Field files and CSV export hold scalar fields only.

Shifts are restricted to exact lattice vectors so that difference quotients
delta_h u = u(. + h) - u carry no interpolation error, and norms use plain
cell-volume weighting.  Reductions go through numpy's pairwise summation on
C-ordered arrays: the reduction tree is fixed by the array shape alone, so
repeated runs (and any thread-count setting) give bit-identical results.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .discretization import _gradient_sides, _side_squares

_MAGIC = b"PLAPFLD1"
_HEADER = struct.Struct("<8sIIdI")  # magic, N, cells_per_axis, extent, n_components


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-extent, extent]^N."""

    N: int
    extent: float
    cells_per_axis: int

    def __post_init__(self) -> None:
        if self.N not in (2, 3):
            raise ValueError(f"N must be 2 or 3, got {self.N}")
        if not 0.0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if self.cells_per_axis < 2:
            raise ValueError("need at least 2 cells per axis")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.cells_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.N

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.N

    def axis_centers(self) -> np.ndarray:
        h = self.spacing
        return -self.extent + (np.arange(self.cells_per_axis) + 0.5) * h

    def open_centers(self) -> list[np.ndarray]:
        """Axis coordinates shaped to broadcast against each other (no full arrays)."""
        ax = self.axis_centers()
        return [ax.reshape([-1 if j == k else 1 for j in range(self.N)]) for k in range(self.N)]

    def squared_distance(self, center: Sequence[float], box: Sequence[slice] | None = None) -> np.ndarray:
        """|x - center|^2 at every cell center, or on the box ``box`` of cells (one slice per axis)."""
        if len(center) != self.N:
            raise ValueError("center dimension mismatch")
        ax = self.axis_centers()
        axes = [ax] * self.N if box is None else [ax[b] for b in box]
        acc = np.zeros(tuple(map(len, axes)))
        for k, a in enumerate(axes):
            sh = [1] * self.N
            sh[k] = len(a)
            acc = acc + ((a - center[k]) ** 2).reshape(sh)
        return acc

    def nearest_index(self, x: Sequence[float]) -> tuple[int, ...]:
        """Index of the cell whose center is nearest to x; x must lie in the box."""
        if len(x) != self.N:
            raise ValueError("point dimension mismatch")
        idx = []
        for xk in x:
            if abs(xk) > self.extent:
                raise ValueError(f"point component {xk} outside the box")
            i = int(np.floor((xk + self.extent) / self.spacing))
            idx.append(min(max(i, 0), self.cells_per_axis - 1))
        return tuple(idx)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, C-contiguous and read-only; a copy when its data can still be written through another array
    (one on its ``.base`` chain is writeable), so no holder's write reaches it."""
    arr = np.ascontiguousarray(arr)
    base = arr.base
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            arr = arr.copy()
            break
        base = base.base
    arr.setflags(write=False)
    return arr


def _as_values(grid: Grid, values: np.ndarray, trailing: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != grid.shape + trailing:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape + trailing}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    return _frozen(arr)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One value per cell.  A difference of two fields on one grid and a scalar multiple are fields again."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_values(self.grid, self.values, ()))

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(c))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class VectorField:
    """A gradient's values: per cell the forward and the backward N-vector, shape ``grid.shape + (2, N)``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_values(self.grid, self.values, (2, self.grid.N)))


Field = ScalarField | VectorField


@dataclass(frozen=True, eq=False)
class Region:
    """Boolean cell mask; its cell count follows from it."""

    grid: Grid
    mask: np.ndarray
    count: int = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != self.grid.shape:
            raise ValueError("mask shape does not match grid")
        m = _frozen(m)
        object.__setattr__(self, "mask", m)
        object.__setattr__(self, "count", int(m.sum()))


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def _bbox_slices(mask: np.ndarray) -> tuple[slice, ...]:
    """The bounding box of the True cells of a nonempty mask, one slice per axis."""
    nd = mask.ndim
    idx = [np.flatnonzero(np.any(mask, axis=tuple(i for i in range(nd) if i != k))) for k in range(nd)]
    return tuple(slice(int(i[0]), int(i[-1]) + 1) for i in idx)


def ball_box(grid: Grid, center: Sequence[float], r2: float) -> tuple[tuple[slice, ...], np.ndarray]:
    """The box of cells whose every axis term of |x - center|^2 is below r2 (no term exceeds the sum, so it
    holds the open ball's cells), one slice per axis, empty where no cell has one; |x - center|^2 on it."""
    box = [np.flatnonzero((grid.axis_centers() - c) ** 2 < r2) for c in center]
    box = tuple(slice(b[0], b[-1] + 1) if len(b) else slice(0, 0) for b in box)
    return box, grid.squared_distance(center, box)


def ball_mask(grid: Grid, center: Sequence[float], radius: float) -> Region:
    """Cells whose centers lie strictly inside the ball B_radius(center)."""
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    if len(center) != grid.N:
        raise ValueError("center dimension mismatch")
    r2 = radius * radius
    box, d2 = ball_box(grid, center, r2)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[box] = d2 < r2
    return Region(grid, mask)


def gradient(u: ScalarField) -> VectorField:
    """Both one-sided differences of every cell, on the solver's stencil (``discretization._gradient_sides``)."""
    return VectorField(u.grid, _gradient_sides(u.values, u.grid.spacing))


def _squares(grad: VectorField) -> list[np.ndarray]:
    """Per side, |value|^2 at every cell, in the bits of ``discretization._side_squares``."""
    return [sum(side[..., k] ** 2 for k in range(grad.grid.N)) for side in np.moveaxis(grad.values, -2, 0)]


def _magnitudes(field: Field, region: Region | None = None) -> list[np.ndarray]:
    """|value| at every cell, or at the cells of a nonempty region: one array for a scalar field, one per side
    for a vector field."""
    mags = [np.abs(field.values)] if isinstance(field, ScalarField) else [np.sqrt(m) for m in _squares(field)]
    if region is None:
        return mags
    _require_same_grid(field, region)
    if region.count == 0:
        raise ValueError("empty region")
    return [m[region.mask] for m in mags]


def _mean_power(mags: Sequence[np.ndarray], p_exp: float) -> float:
    """The mean over the arrays of sum |m|^p_exp: a scalar field's sum, or the mean over a gradient's two sides,
    each with half the weight, as the solver's energy takes them."""
    return sum(float(np.sum(m**p_exp)) for m in mags) / len(mags)


def lp_norm(field: Field, p_exp: float, region: Region | None = None) -> float:
    """(sum |value|^p_exp * h^N)^{1/p_exp} over the region (default: whole box), the sum a vector field's mean
    over its two sides (``_mean_power``)."""
    if not (np.isfinite(p_exp) and p_exp >= 1.0):
        raise ValueError("p_exp must be a finite real >= 1")
    return (_mean_power(_magnitudes(field, region), p_exp) * field.grid.cell_volume) ** (1.0 / p_exp)


def linf_norm(field: Field, region: Region | None = None) -> float:
    """max |value| over the region (default: whole box), over both sides of a vector field."""
    return max(float(np.max(m)) for m in _magnitudes(field, region))


def w1p_norm(u: ScalarField, p_exp: float, region: Region | None = None) -> float:
    """(||u||_p^p + ||grad u||_p^p)^{1/p} over the region, grad u's term as ``lp_norm`` forms it, from each
    side's |g|^2 (``discretization._side_squares``) without forming grad u."""
    a = lp_norm(u, p_exp, region)  # checks the region
    sides = _side_squares(u.values, u.grid.spacing)
    b = _mean_power([np.sqrt(m if region is None else m[region.mask]) for m in sides], p_exp)
    return (a**p_exp + b * u.grid.cell_volume) ** (1.0 / p_exp)


def _shift_values(values: np.ndarray, grid: Grid, cells: Sequence[int]) -> np.ndarray:
    if len(cells) != grid.N:
        raise ValueError("shift vector dimension mismatch")
    n = grid.cells_per_axis
    src: list = []
    dst: list = []
    for c in cells:
        c = int(c)
        if abs(c) > n:
            raise ValueError(f"lattice shift {c} cells exceeds the box size {n}")
        src.append(slice(max(c, 0), n + min(c, 0)))
        dst.append(slice(max(-c, 0), n - max(c, 0)))
    out = np.zeros_like(values)
    out[tuple(dst)] = values[tuple(src)]
    return out


def shift(field: Field, cells: Sequence[int]) -> Field:
    """u_h(x) = u(x + h) for the lattice vector h = cells * spacing, zero extension."""
    vals = _shift_values(field.values, field.grid, cells)
    return type(field)(field.grid, vals)


def delta_h(field: Field, cells: Sequence[int]) -> Field:
    """Difference quotient delta_h u = u(. + h) - u for a lattice shift."""
    vals = _shift_values(field.values, field.grid, cells) - field.values
    return type(field)(field.grid, vals)


def lattice_vector(grid: Grid, cells: Sequence[int]) -> np.ndarray:
    return np.asarray(cells, dtype=np.float64) * grid.spacing


def cutoff_eta(grid: Grid, t: float, s: float) -> tuple[ScalarField, float]:
    """Radial cutoff about the origin: 1 on B_t, 0 outside B_s, linear ramp in between.

    eta(x) = clamp((s - |x|)/(s - t), 0, 1).  Returns the field and the
    measured grid-anisotropy slack eps_geom, defined so that the discrete
    gradient magnitude is <= (1 + eps_geom)/(s - t) on both sides of every cell.
    """
    if not (0.0 < t < s):
        raise ValueError("need 0 < t < s")
    if s > grid.extent * (1.0 + 1e-12):
        raise ValueError("B_s must lie inside the box")
    vals = _cutoff_values(grid.open_centers(), t, s, (0.0,) * grid.N)
    eta = ScalarField(grid, vals)
    gmax = linf_norm(gradient(eta))
    eps_geom = max(0.0, gmax * (s - t) - 1.0)
    return eta, eps_geom


def _cutoff_values(coords: Sequence[np.ndarray], t: float, s: float, center: Sequence[float]) -> np.ndarray:
    """The values of ``cutoff_eta`` at the broadcast axis coordinates ``coords``, B_s inside the box or not."""
    r = np.sqrt(sum((x - ck) ** 2 for x, ck in zip(coords, center)))
    return np.clip((s - r) / (s - t), 0.0, 1.0)


# ---------------------------------------------------------------------------
# binary field files and CSV export, scalar fields only


def save_field(field: ScalarField, path: str | Path) -> None:
    """Write the binary field format: fixed header (component count 1), then the row-major LE doubles,
    from the values' own buffer."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, field.grid.N, field.grid.cells_per_axis, field.grid.extent, 1))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").data)


def load_field(path: str | Path) -> ScalarField:
    """Read a file ``save_field`` wrote.  Raises ValueError for a bad magic, grid or payload size, and for a
    header whose component count is not 1."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated field file")
    magic, N, n_c, extent, ncomp = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    grid = Grid(int(N), float(extent), int(n_c))
    if ncomp != 1:
        raise ValueError(f"{path}: component count {ncomp} not supported, field files hold one")
    expected = _HEADER.size + 8 * math.prod(grid.shape)  # Python integers: a header's n**N cannot overflow
    if len(raw) != expected:
        raise ValueError(f"{path}: payload size {len(raw)} != expected {expected}")
    return ScalarField(grid, np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(grid.shape))


def export_csv(field: ScalarField, path: str | Path) -> None:
    """One cell per row: coordinates x1 .. xN, then the value v.

    The bytes are ``_write_csv``'s: no coordinate or ``repr`` value needs
    quoting, and every row ends in ``\\r\\n``.  Each slab of the first axis is
    written as one string, joined from a part list whose inner coordinates
    and separators are laid out once."""
    grid = field.grid
    ax = [repr(x) for x in grid.axis_centers().tolist()]
    # a row's parts: the first coordinate, ",x2,...,xN,", the value, the line end; C order, the last axis runs fastest
    inner = ["".join("," + x for x in c) + "," for c in itertools.product(ax, repeat=grid.N - 1)]
    parts = [""] * (4 * len(inner))
    parts[1::4] = inner
    parts[3::4] = ["\r\n"] * len(inner)
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x{k + 1}" for k in range(grid.N)] + ["v"]) + "\r\n")
        for first, slab in zip(ax, field.values):
            parts[0::4] = [first] * len(inner)
            parts[2::4] = map(repr, slab.ravel().tolist())
            fh.write("".join(parts))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header row, then the rows, in the csv module's default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
