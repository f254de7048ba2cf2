"""Euler-angle composition for SU(2), SU(3) and SU(4), plus parameter ranges.

The SU(4) element is the ordered 15-factor product

    U = e^{i l3 a1} e^{i l2 a2} e^{i l3 a3} e^{i l5 a4} e^{i l3 a5}
        e^{i l10 a6} e^{i l3 a7} e^{i l2 a8} e^{i l3 a9} e^{i l5 a10}
        e^{i l3 a11} e^{i l2 a12} e^{i l3 a13} e^{i l8 a14} e^{i l15 a15}

with SU(3) its a7..a14 factors and SU(2) its a1..a3 factors: each takes the
SU(4) chain's ranges (and, in haar, its Haar factors) at those positions.
compose(SU2_GENERATOR_SEQUENCE, ...) and compose(SU3_GENERATOR_SEQUENCE,
...) return SU(2) and SU(3) elements embedded in the top-left block of a
4x4 identity.  A product starts from the identity, and each factor updates
in place only the columns it touches.  Angles are radians and unrestricted
(the group is periodic); the range profiles are for integration and
sampling only.
"""

from typing import NamedTuple

import numpy as np

from .algebra import _check_index, _right_multiply
from .errors import _shown

SU4_GENERATOR_SEQUENCE = (3, 2, 3, 5, 3, 10, 3, 2, 3, 5, 3, 2, 3, 8, 15)

# Each group's factors within the SU(4) chain.
_CHAINS = {"su2": slice(0, 3), "su3": slice(6, 14), "su4": slice(0, 15)}
_GENERATOR_SEQUENCES = {g: SU4_GENERATOR_SEQUENCE[c] for g, c in _CHAINS.items()}
SU3_GENERATOR_SEQUENCE = _GENERATOR_SEQUENCES["su3"]  # (3, 2, 3, 5, 3, 2, 3, 8)
SU2_GENERATOR_SEQUENCE = _GENERATOR_SEQUENCES["su2"]  # (3, 2, 3)

# The paper's angle names where they are not a1, a2, ... by position.
_ANGLE_NAMES = {SU2_GENERATOR_SEQUENCE: ("mu", "nu", "xi"),
                SU3_GENERATOR_SEQUENCE: [f"a{k}" for k in range(7, 15)]}

_PI = np.pi
_HALF_PI = np.pi / 2.0

# Upper bounds per SU(4) angle; all lower bounds are 0.
_PROFILE_HIGHS = {
    "volume": (_PI, _HALF_PI, _PI, _HALF_PI, _PI, _HALF_PI, _PI, _HALF_PI, _PI,
               _HALF_PI, _PI, _HALF_PI, _PI, _PI / np.sqrt(3.0), _PI / np.sqrt(6.0)),
    "covering": (_PI, _HALF_PI, 2 * _PI, _HALF_PI, 2 * _PI, _HALF_PI, _PI,
                 _HALF_PI, 2 * _PI, _HALF_PI, _PI, _HALF_PI, 2 * _PI,
                 np.sqrt(3.0) * _PI, 2 * np.sqrt(2.0 / 3.0) * _PI),
}


class RangeProfile(NamedTuple):
    """Per-angle closed intervals [lo, hi] for one group and range kind."""

    group: str
    kind: str
    bounds: tuple

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def lengths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bounds])


def _lookup(name: str, allowed: tuple, what: str) -> str:
    """name lower-cased if it is a string naming one of allowed."""
    key = name.lower() if isinstance(name, str) else None
    if key not in allowed:
        raise ValueError(f"unknown {what} {_shown(name)}; expected one of {allowed}")
    return key


def normalize_group(group: str) -> str:
    return _lookup(group, tuple(_CHAINS), "group")


def range_profile(group: str, kind: str) -> RangeProfile:
    """The volume ranges (integrate to the group volume after normalization)
    or the covering ranges (parametrize every group element)."""
    g = normalize_group(group)
    k = _lookup(kind, tuple(_PROFILE_HIGHS), "range kind")
    highs = _PROFILE_HIGHS[k][_CHAINS[g]]
    return RangeProfile(g, k, tuple((0.0, hi) for hi in highs))


def compose(generators, angles) -> np.ndarray:
    """Ordered left-to-right product of exp(i lam_g a) factors.

    Angles of shape (..., n) give a (..., 4, 4) stack equal, row by row and
    bit for bit, to the product composed from each angle row alone.  A
    non-finite angle is named as in the paper (a7..a14 for SU(3)), and a
    generator index that is not an integer in 1..15 by its value.
    """
    for g in generators:
        _check_index(g)
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1:] != (len(generators),):
        raise ValueError(
            f"expected {len(generators)} angles, got shape {angles.shape}"
        )
    finite = np.isfinite(angles)
    if not finite.all():
        pos = tuple(np.argwhere(~finite)[0])
        names = _ANGLE_NAMES.get(tuple(generators))
        name = names[pos[-1]] if names else f"a{pos[-1] + 1}"
        raise ValueError(f"angles must be finite, got {name} = {angles[pos]}")
    u = np.broadcast_to(np.eye(4, dtype=complex), angles.shape[:-1] + (4, 4)).copy()
    for k, g in enumerate(generators):
        _right_multiply(u, g, angles[..., k])
    return u


def compose_su4(angles) -> np.ndarray:
    """SU(4) element from the fifteen angles a1..a15."""
    return compose(SU4_GENERATOR_SEQUENCE, angles)
