"""The flat test potential that several test modules share."""

import numpy as np

from kelab.domains import ball
from kelab.field import PotentialField, SquaredNorm


def quadratic_fixture(n: int) -> PotentialField:
    """|z|^2 on the unit ball: the flat test metric (Ricci = 0)."""
    return PotentialField(
        domain=ball(n),
        ricci_constant=np.nan,
        parts=[(1.0, SquaredNorm())],
        label=f"flat-quadratic[n={n}]",
    )
