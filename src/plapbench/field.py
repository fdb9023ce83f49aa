"""Uniform Cartesian grids and cell-centered fields on a truncated box.

The computational domain is the box [-L, L]^N (N = 2 or 3) split into
``cells_per_axis`` cells per axis, spacing h = 2L/cells_per_axis, with cell
centers at -L + (i + 1/2) h.  Fields live on cell centers and are understood
as extended by zero outside the box, which is the discrete stand-in for
zero Dirichlet data on the truncation boundary.

Shifts are restricted to exact lattice vectors so that difference quotients
delta_h u = u(. + h) - u carry no interpolation error, and norms use plain
cell-volume weighting.  Reductions go through numpy's pairwise summation on
C-ordered arrays: the reduction tree is fixed by the array shape alone, so
repeated runs (and any thread-count setting) give bit-identical results.
"""

from __future__ import annotations

import csv
import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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

    def centers(self) -> list[np.ndarray]:
        """Full coordinate arrays, one per axis, each of shape ``grid.shape``."""
        return list(np.meshgrid(*([self.axis_centers()] * self.N), indexing="ij"))

    def open_centers(self) -> list[np.ndarray]:
        """Axis coordinates shaped to broadcast against each other (no full arrays)."""
        ax = self.axis_centers()
        return [ax.reshape([-1 if j == k else 1 for j in range(self.N)]) for k in range(self.N)]

    def squared_distance(self, center: Sequence[float]) -> np.ndarray:
        """|x - center|^2 at every cell center (broadcast, one full array)."""
        if len(center) != self.N:
            raise ValueError("center dimension mismatch")
        ax = self.axis_centers()
        acc = np.zeros(self.shape)
        for k in range(self.N):
            sh = [1] * self.N
            sh[k] = self.cells_per_axis
            acc = acc + ((ax - center[k]) ** 2).reshape(sh)
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


def _as_values(grid: Grid, values: np.ndarray, trailing: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != grid.shape + trailing:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape + trailing}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _GridField:
    """Arithmetic shared by the field types: sums and differences of two fields
    of one type on one grid, and scalar multiples."""

    grid: Grid
    values: np.ndarray

    def _other_values(self, other: "_GridField") -> np.ndarray:
        if type(other) is not type(self):
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        _require_same_grid(self, other)
        return other.values

    def __add__(self, other):
        return type(self)(self.grid, self.values + self._other_values(other))

    def __sub__(self, other):
        return type(self)(self.grid, self.values - self._other_values(other))

    def __mul__(self, c: float):
        return type(self)(self.grid, self.values * float(c))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class ScalarField(_GridField):
    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_values(self.grid, self.values, ()))


@dataclass(frozen=True, eq=False)
class VectorField(_GridField):
    def __post_init__(self) -> None:  # values: shape grid.shape + (N,)
        object.__setattr__(self, "values", _as_values(self.grid, self.values, (self.grid.N,)))


Field = ScalarField | VectorField


@dataclass(frozen=True, eq=False)
class Region:
    """Boolean cell mask together with its summed cell volume."""

    grid: Grid
    mask: np.ndarray
    volume: float
    count: int

    def __post_init__(self) -> None:
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != self.grid.shape:
            raise ValueError("mask shape does not match grid")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def _axslice(ndim: int, axis: int, sl: slice | np.ndarray) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def _bbox_slices(mask: np.ndarray) -> tuple[slice, ...]:
    """The bounding box of the True cells of a nonempty mask, one slice per axis."""
    nd = mask.ndim
    idx = [np.flatnonzero(np.any(mask, axis=tuple(i for i in range(nd) if i != k))) for k in range(nd)]
    return tuple(slice(int(i[0]), int(i[-1]) + 1) for i in idx)


def full_region(grid: Grid) -> Region:
    mask = np.ones(grid.shape, dtype=bool)
    return Region(grid, mask, grid.cell_volume * mask.size, mask.size)


def ball_mask(grid: Grid, center: Sequence[float], radius: float) -> Region:
    """Cells whose centers lie strictly inside the ball B_radius(center)."""
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    mask = grid.squared_distance(center) < radius * radius
    cnt = int(mask.sum())
    return Region(grid, mask, cnt * grid.cell_volume, cnt)


def _gradient_values(vals: np.ndarray, h: float) -> np.ndarray:
    """Forward differences per axis, backward in the last layer, on any box shape."""
    nd = vals.ndim
    out = np.empty(vals.shape + (nd,))
    for k, n in enumerate(vals.shape):
        dk = out[..., k]
        lead = _axslice(nd, k, slice(0, n - 1))
        lag = _axslice(nd, k, slice(1, n))
        dk[lead] = (vals[lag] - vals[lead]) / h
        last = _axslice(nd, k, slice(n - 1, n))
        prev = _axslice(nd, k, slice(n - 2, n - 1))
        dk[last] = (vals[last] - vals[prev]) / h
    return out


def gradient(u: ScalarField) -> VectorField:
    """Cell-centered one-sided gradient.

    Forward differences (u(x + h e_k) - u(x))/h per axis; the last cell layer
    along each axis, where no forward neighbor exists, uses the backward
    difference instead.
    """
    return VectorField(u.grid, _gradient_values(u.values, u.grid.spacing))


def _stress_values(a: np.ndarray, p: float) -> np.ndarray:
    """|a|^{p-2} a on the last axis, 0 at a = 0."""
    mag2 = np.einsum("...k,...k->...", a, a)
    factor = np.zeros_like(mag2)
    nz = mag2 > 0.0
    factor[nz] = mag2[nz] ** (0.5 * (p - 2.0))
    return a * factor[..., None]


def stress_field(u: ScalarField, p: float) -> VectorField:
    """|grad u|^{p-2} grad u, with the value 0 wherever grad u = 0."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    return VectorField(u.grid, _stress_values(gradient(u).values, p))


def _magnitude(field: Field, region: Region | None = None) -> np.ndarray:
    """|value| at every cell, or at the cells of a nonempty region."""
    if isinstance(field, ScalarField):
        mag = np.abs(field.values)
    else:
        mag = np.sqrt(np.einsum("...k,...k->...", field.values, field.values))
    if region is None:
        return mag
    _require_same_grid(field, region)
    if region.count == 0:
        raise ValueError("empty region")
    return mag[region.mask]


def lp_norm(field: Field, p_exp: float, region: Region | None = None) -> float:
    """(sum |value|^p_exp * h^N)^{1/p_exp} over the region (default: whole box)."""
    if not (np.isfinite(p_exp) and p_exp >= 1.0):
        raise ValueError("p_exp must be a finite real >= 1")
    s = float(np.sum(_magnitude(field, region) ** p_exp))
    return (s * field.grid.cell_volume) ** (1.0 / p_exp)


def linf_norm(field: Field, region: Region | None = None) -> float:
    return float(np.max(_magnitude(field, region)))


def w1p_norm(u: ScalarField, p_exp: float, region: Region | None = None) -> float:
    """(||u||_p^p + ||grad u||_p^p)^{1/p} over the region."""
    a = lp_norm(u, p_exp, region)
    b = lp_norm(gradient(u), p_exp, region)
    return (a**p_exp + b**p_exp) ** (1.0 / p_exp)


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


def cutoff_eta(
    grid: Grid, t: float, s: float, center: Sequence[float] | None = None
) -> tuple[ScalarField, float]:
    """Radial cutoff: 1 on B_t, 0 outside B_s, linear ramp in between.

    eta(x) = clamp((s - |x - center|)/(s - t), 0, 1).  Returns the field and
    the measured grid-anisotropy slack eps_geom, defined so that the discrete
    gradient magnitude is <= (1 + eps_geom)/(s - t) at every cell.
    """
    if center is None:
        center = (0.0,) * grid.N
    vals = _cutoff_values(grid, grid.open_centers(), t, s, center)
    eta = ScalarField(grid, vals)
    gmax = linf_norm(gradient(eta))
    eps_geom = max(0.0, gmax * (s - t) - 1.0)
    return eta, eps_geom


def _cutoff_values(
    grid: Grid, coords: Sequence[np.ndarray], t: float, s: float, center: Sequence[float]
) -> np.ndarray:
    """The values of ``cutoff_eta`` at the broadcast axis coordinates ``coords``."""
    if len(center) != grid.N:
        raise ValueError("center dimension mismatch")
    if not (0.0 < t < s):
        raise ValueError("need 0 < t < s")
    for ck in center:
        if abs(ck) + s > grid.extent * (1.0 + 1e-12):
            raise ValueError("B_s must lie inside the box")
    r = np.sqrt(sum((x - ck) ** 2 for x, ck in zip(coords, center)))
    return np.clip((s - r) / (s - t), 0.0, 1.0)


# ---------------------------------------------------------------------------
# binary field files and CSV export


def save_field(field: Field, path: str | Path) -> None:
    """Write the binary field format: fixed header, then row-major LE doubles."""
    ncomp = 1 if isinstance(field, ScalarField) else field.grid.N
    header = _HEADER.pack(_MAGIC, field.grid.N, field.grid.cells_per_axis, field.grid.extent, ncomp)
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def load_field(path: str | Path) -> Field:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated field file")
    magic, N, n_c, extent, ncomp = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    grid = Grid(int(N), float(extent), int(n_c))
    if ncomp == 1:
        shape: tuple[int, ...] = grid.shape
    elif ncomp == grid.N:
        shape = grid.shape + (grid.N,)
    else:
        raise ValueError(f"{path}: component count {ncomp} not supported for N={grid.N}")
    expected = _HEADER.size + 8 * math.prod(shape)  # Python integers: a header's n**N cannot overflow
    if len(raw) != expected:
        raise ValueError(f"{path}: payload size {len(raw)} != expected {expected}")
    vals = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(shape)
    if ncomp == 1:
        return ScalarField(grid, vals)
    return VectorField(grid, vals)


def export_csv(field: Field, path: str | Path) -> None:
    """One cell per row: coordinates, then value (scalar) or components (vector).

    The bytes are ``_write_csv``'s: no coordinate or ``repr`` value needs
    quoting, and every row ends in ``\\r\\n``.  Each slab of the first axis is
    written as one string, joined from a part list whose inner coordinates
    and separators are laid out once."""
    grid = field.grid
    ax = [repr(x) for x in grid.axis_centers().tolist()]
    names = [f"x{k + 1}" for k in range(grid.N)]
    if isinstance(field, ScalarField):
        names.append("v")
        per_cell = 1
    else:
        names += [f"v{k + 1}" for k in range(grid.N)]
        per_cell = grid.N
    # a row's parts: the first coordinate, ",x2,...,xN,", then each component and
    # its separator ("," or the line end); C order, the last axis runs fastest
    stride = 2 + 2 * per_cell
    inner = ["".join("," + x for x in c) + "," for c in itertools.product(ax, repeat=grid.N - 1)]
    parts = [""] * (stride * len(inner))
    parts[1::stride] = inner
    for c in range(per_cell):
        parts[3 + 2 * c::stride] = ["," if c < per_cell - 1 else "\r\n"] * len(inner)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        for first, slab in zip(ax, field.values):
            parts[0::stride] = [first] * len(inner)
            values = list(map(repr, slab.ravel().tolist()))
            for c in range(per_cell):
                parts[2 + 2 * c::stride] = values[c::per_cell]
            fh.write("".join(parts))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header row, then the rows, in the csv module's default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
