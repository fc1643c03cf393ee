"""Planar Henon and Lozi maps: stepping, equilibria, local Lipschitz bounds.

Both maps are treated as two-dimensional quadratic / piecewise-linear systems

    Henon:  (x, y) -> (y + 1 - a*x^2,  b*x)
    Lozi:   (x, y) -> (y + 1 - a*|x|,  b*x)

with parameters a, b > 0.  All operations here are pure functions and safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple


class DomainError(ValueError):
    """Requested quantity does not exist for the given parameters."""


class MapKind(Enum):
    HENON = "henon"
    LOZI = "lozi"


class Branch(Enum):
    """Selects the +/- branch of the equilibrium formulas.

    PLUS is the branch with + before the square root (Henon) or denominator
    1 + a - b (Lozi); it is the equilibrium in the right half-plane that all
    simulations stabilize by default.
    """

    PLUS = "plus"
    MINUS = "minus"


class Point2(NamedTuple):
    """A point of the planar state space."""

    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


class Matrix2(NamedTuple):
    """Real 2x2 matrix, row-major entries."""

    a11: float
    a12: float
    a21: float
    a22: float


class MapParams(NamedTuple("MapParams", [("kind", MapKind), ("a", float), ("b", float)])):
    """Which map plus its two coefficients.

    Requires a > 0 and b > 0.  The extra Lozi equilibrium-existence condition
    -a < 1 - b < a is checked where equilibria are actually requested.
    """

    __slots__ = ()

    def __new__(cls, kind: MapKind, a: float, b: float) -> MapParams:
        if not (math.isfinite(a) and a > 0.0):
            raise DomainError(f"map coefficient a must be finite and > 0, got {a}")
        if not (math.isfinite(b) and b > 0.0):
            raise DomainError(f"map coefficient b must be finite and > 0, got {b}")
        return super().__new__(cls, kind, a, b)


def henon(a: float = 1.4, b: float = 0.3) -> MapParams:
    return MapParams(MapKind.HENON, a, b)


def lozi(a: float = 1.4, b: float = 0.3) -> MapParams:
    return MapParams(MapKind.LOZI, a, b)


def map_step(params: MapParams, p: Point2) -> Point2:
    """One uncontrolled iteration of the map.

    Returns the raw arithmetic result; overflow to non-finite values is the
    caller's concern (the trajectory engine reports it as an escape).
    """
    if params.kind is MapKind.HENON:
        fx = p.y + 1.0 - params.a * p.x * p.x
    else:
        fx = p.y + 1.0 - params.a * abs(p.x)
    return Point2(fx, params.b * p.x)


def fixed_point(params: MapParams, branch: Branch) -> Point2:
    """Equilibrium of the map on the chosen branch.

    Henon: x* = (1/(2a)) [b - 1 +/- sqrt(4a + (b-1)^2)], y* = b x*.
    Lozi:  x* = 1 / (1 +/- a - b), y* = b x*, which exists (with the sign of
    x* matching the branch) iff -a < 1 - b < a.

    The Henon root is taken in that textbook form where 4a >= (b-1)^2.
    Below that, the root whose square root opposes b - 1 cancels, so both
    roots come from q = (b-1) + sign(b-1) sqrt(4a + (b-1)^2), which does not
    cancel: they are q / (2a) and -2 / q, since their product is -1/a.
    The Lozi denominator for small a is summed as (1 - b) +/- a, for the
    same reason.

    Raises DomainError when the equilibrium does not exist, or when it is
    not finite or its denominator is 0 in floating point.
    """
    a, b = params.a, params.b
    sign = 1.0 if branch is Branch.PLUS else -1.0
    if params.kind is MapKind.HENON:
        disc = 4.0 * a + (b - 1.0) * (b - 1.0)
        if disc < 0.0:
            raise DomainError(f"henon equilibria need 4a + (b-1)^2 >= 0, got {disc}")
        if 4.0 * a >= (b - 1.0) * (b - 1.0):
            xs = ((b - 1.0) + sign * math.sqrt(disc)) / (2.0 * a)
        else:
            q = (b - 1.0) + math.copysign(math.sqrt(disc), b - 1.0)
            xs = q / (2.0 * a) if (sign > 0.0) == (q > 0.0) else -2.0 / q
    else:
        if not (-a < 1.0 - b < a):
            raise DomainError(
                f"lozi equilibria need -a < 1 - b < a, got a={a}, b={b}"
            )
        # For a < 0.5, existence puts b in (0.5, 1.5), where 1 - b is exact
        # (Sterbenz) and adding +/- a last does not cancel.  Elsewhere the
        # textbook order is kept, so the preset equilibria keep their bits.
        den = (1.0 - b) + sign * a if a < 0.5 else 1.0 + sign * a - b
        if den == 0.0:
            raise DomainError(
                f"lozi equilibrium denominator 1 {'+' if sign > 0.0 else '-'} a - b"
                f" rounds to 0, got a={a}, b={b}"
            )
        xs = 1.0 / den
    star = Point2(xs, b * xs)
    if not star.is_finite():
        raise DomainError(f"equilibrium ({star.x}, {star.y}) is not finite for a={a}, b={b}")
    return star


def lipschitz_matrix(params: MapParams, branch: Branch, R: float) -> Matrix2:
    """Componentwise Lipschitz bound of the map around the chosen equilibrium.

    Valid on the ball of radius R (R < |x*|, so the ball stays in one
    half-plane for the Lozi map):

        Henon: [[a (2|x*| + R), 1], [b, 0]]
        Lozi:  [[a, 1], [b, 0]]            (independent of R)

    The Henon (1,1) entry is the maximum of a|x + x*| over the closed ball.
    Row sums give the per-component Lipschitz constants.
    """
    if R < 0.0 or not math.isfinite(R):
        raise DomainError(f"radius must be finite and >= 0, got {R}")
    star = fixed_point(params, branch)
    if R >= abs(star.x):
        raise DomainError(f"radius must satisfy R < |x*| = {abs(star.x)}, got {R}")
    if params.kind is MapKind.HENON:
        a11 = params.a * (2.0 * abs(star.x) + R)
    else:
        a11 = params.a
    return Matrix2(a11, 1.0, params.b, 0.0)
