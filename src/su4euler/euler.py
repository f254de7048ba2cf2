"""Euler-angle composition for SU(2), SU(3) and SU(4), plus parameter ranges.

The SU(4) element is the ordered 15-factor product

    U = e^{i l3 a1} e^{i l2 a2} e^{i l3 a3} e^{i l5 a4} e^{i l3 a5}
        e^{i l10 a6} e^{i l3 a7} e^{i l2 a8} e^{i l3 a9} e^{i l5 a10}
        e^{i l3 a11} e^{i l2 a12} e^{i l3 a13} e^{i l8 a14} e^{i l15 a15}

with SU(3) the middle eight factors and SU(2) the l3/l2/l3 triple.  SU(2)
and SU(3) elements are returned embedded in the top-left block of a 4x4
identity.  A product starts from the identity, and each factor updates in
place only the columns it touches.  Angles are radians and unrestricted
(the group is periodic); the range profiles are for integration and
sampling only.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import _right_multiply

SU4_GENERATOR_SEQUENCE = (3, 2, 3, 5, 3, 10, 3, 2, 3, 5, 3, 2, 3, 8, 15)
SU3_GENERATOR_SEQUENCE = SU4_GENERATOR_SEQUENCE[6:14]  # (3, 2, 3, 5, 3, 2, 3, 8)
SU2_GENERATOR_SEQUENCE = (3, 2, 3)

# The paper's angle names where they are not a1, a2, ... by position.
_ANGLE_NAMES = {SU2_GENERATOR_SEQUENCE: ("mu", "nu", "xi"),
                SU3_GENERATOR_SEQUENCE: [f"a{k}" for k in range(7, 15)]}

_GROUPS = ("su2", "su3", "su4")
_KINDS = ("volume", "covering")

_PI = np.pi
_HALF_PI = np.pi / 2.0

# Upper bounds per angle; all lower bounds are 0.
_PROFILE_HIGHS = {
    ("su2", "volume"): (_PI, _HALF_PI, _PI),
    ("su2", "covering"): (_PI, _HALF_PI, 2 * _PI),
    ("su3", "volume"): (_PI, _HALF_PI, _PI, _HALF_PI, _PI, _HALF_PI, _PI,
                        _PI / np.sqrt(3.0)),
    ("su3", "covering"): (_PI, _HALF_PI, 2 * _PI, _HALF_PI, _PI, _HALF_PI,
                          2 * _PI, np.sqrt(3.0) * _PI),
    ("su4", "volume"): (_PI, _HALF_PI, _PI, _HALF_PI, _PI, _HALF_PI, _PI,
                        _HALF_PI, _PI, _HALF_PI, _PI, _HALF_PI, _PI,
                        _PI / np.sqrt(3.0), _PI / np.sqrt(6.0)),
    ("su4", "covering"): (_PI, _HALF_PI, 2 * _PI, _HALF_PI, 2 * _PI, _HALF_PI,
                          _PI, _HALF_PI, 2 * _PI, _HALF_PI, _PI, _HALF_PI,
                          2 * _PI, np.sqrt(3.0) * _PI,
                          2 * np.sqrt(2.0 / 3.0) * _PI),
}


@dataclass(frozen=True)
class RangeProfile:
    """Per-angle closed intervals [lo, hi] for one group and range kind."""

    group: str
    kind: str
    bounds: tuple

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def lengths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bounds])


def normalize_group(group: str) -> str:
    g = group.lower()
    if g not in _GROUPS:
        raise ValueError(f"unknown group {group!r}; expected one of {_GROUPS}")
    return g


def range_profile(group: str, kind: str) -> RangeProfile:
    """The volume ranges (integrate to the group volume after normalization)
    or the covering ranges (parametrize every group element)."""
    g = normalize_group(group)
    k = kind.lower()
    if k not in _KINDS:
        raise ValueError(f"unknown range kind {kind!r}; expected one of {_KINDS}")
    highs = _PROFILE_HIGHS[(g, k)]
    return RangeProfile(g, k, tuple((0.0, hi) for hi in highs))


def compose(generators, angles) -> np.ndarray:
    """Ordered left-to-right product of exp(i lam_g a) factors.

    Angles of shape (..., n) give a (..., 4, 4) stack equal, row by row and
    bit for bit, to the product composed from each angle row alone.  A
    non-finite angle is named as in the paper (a7..a14 for SU(3)).
    """
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


def compose_su2(mu: float, nu: float, xi: float) -> np.ndarray:
    """D(mu, nu, xi) = e^{i l3 mu} e^{i l2 nu} e^{i l3 xi}, embedded 4x4."""
    return compose(SU2_GENERATOR_SEQUENCE, (mu, nu, xi))


def compose_su3(angles) -> np.ndarray:
    """SU(3) element from the eight angles a7..a14, embedded 4x4."""
    return compose(SU3_GENERATOR_SEQUENCE, angles)


def compose_su4(angles) -> np.ndarray:
    """SU(4) element from the fifteen angles a1..a15."""
    return compose(SU4_GENERATOR_SEQUENCE, angles)
