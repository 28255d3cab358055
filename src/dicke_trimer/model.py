"""Parameters, rescalings, critical-point formulas and the six-region classifier.

Everything here is a closed-form, stateless function of the model parameters.
Conventions: the coupling ``g`` and the hoppings ``J1`` (photon) and ``J2``
(atom) are dimensionless, ``J1 = Jbar1/omega`` and ``J2 = Jbar2/Omega``.  The
ground-state energy is measured in units of ``N_a * Omega``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

TWO_THIRDS_PI = 2.0 * math.pi / 3.0

#: Phase labels used throughout the package.
NP = "NP"
NSP = "NSP"
FSP = "FSP"

#: Transition sequence (in increasing g) for each of the six hopping regions.
REGION_SEQUENCES = {
    1: (NP, FSP),
    2: (NP, FSP),
    3: (NP, FSP, NSP),
    4: (NP, NSP),
    5: (NP, NSP),
    6: (NP, NSP, FSP),
}

#: The transition between each pair of phases: its boundary name, its order
#: and its closed-form g at given hoppings (a ModelParams, whose g is not
#: read), None where the transition does not exist.
TRANSITIONS = {
    frozenset((NP, FSP)): ("g_c_plus", "second", lambda p: critical_couplings(p).g_c_plus),
    frozenset((NP, NSP)): ("g_c_minus", "second", lambda p: critical_couplings(p).g_c_minus),
    frozenset((NSP, FSP)): ("g_L", "first", lambda p: first_order_point(p)),
}


class ParameterError(ValueError):
    """Raised when model parameters fall outside the validity domain."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and rescaled parameters of the trimer.

    g      : dimensionless atom-cavity coupling, g = 2*lambda/sqrt(omega*Omega)
    J1, J2 : dimensionless photon / atom hopping, restricted to (-1/2, 1/2)
    omega  : cavity frequency (energy units)
    Omega  : atom frequency (energy units)
    """

    g: float
    J1: float = 0.0
    J2: float = 0.0
    omega: float = 1.0
    Omega: float = 1.0

    def __post_init__(self):
        # written as "inside", so that NaN fails every test
        if not (0.0 < self.omega < math.inf and 0.0 < self.Omega < math.inf):
            raise ParameterError(
                "omega and Omega must be strictly positive and finite, got "
                f"omega={self.omega}, Omega={self.Omega}"
            )
        if not 0.0 <= self.g < math.inf:
            raise ParameterError(f"g must be finite and >= 0, got g={self.g}")
        for name in ("J1", "J2"):
            val = getattr(self, name)
            if not -0.5 < val < 0.5:
                raise ParameterError(
                    f"{name} must lie in the open interval (-1/2, 1/2), got {val}"
                )

    @property
    def lam(self) -> float:
        """Bare cavity-atom coupling lambda = g*sqrt(omega*Omega)/2."""
        return 0.5 * self.g * math.sqrt(self.omega * self.Omega)

    @property
    def Jbar1(self) -> float:
        return self.J1 * self.omega

    @property
    def Jbar2(self) -> float:
        return self.J2 * self.Omega

    def replace(self, **kwargs) -> "ModelParams":
        return dataclasses.replace(self, **kwargs)


def c_tilde(J1: float) -> float:
    """Quadratic coefficient (1+J1)/((-1+J1)(1+2*J1)); defined even at g=0."""
    return (1.0 + J1) / ((-1.0 + J1) * (1.0 + 2.0 * J1))


def b_tilde(params: ModelParams) -> float:
    """Cross coefficient J1/((1-J1)(1+2*J1)) + J2/g^2; its sign selects
    frustrated (B > 0) versus uniform (B < 0) order."""
    g, J1 = params.g, params.J1
    # g * g rather than g**2, which raises OverflowError where g * g is inf
    if g * g == 0.0:
        raise ParameterError(f"B_tilde is undefined at g=0 (contains J2/g^2), got g={g}")
    return J1 / ((1.0 - J1) * (1.0 + 2.0 * J1)) + params.J2 / (g * g)


def _b_tildes(points):
    """b_tilde of every point as an array, NaN where it raises, and per
    point its ParameterError or None."""
    B, errors = np.full(len(points), np.nan), [None] * len(points)
    for i, p in enumerate(points):
        try:
            B[i] = b_tilde(p)
        except ParameterError as err:
            errors[i] = err
    return B, errors


def per_row(params, fn):
    """fn(params) for one ModelParams.  For a sequence of them, one per row of
    a stacked x, the values of fn (a tuple) as (N, 1) columns, one per entry."""
    if isinstance(params, ModelParams):
        return fn(params)
    values = np.array([fn(p) for p in params], dtype=float).reshape(len(params), -1)
    return tuple(values.T[:, :, None])


def hopping_matrix(J1: float) -> np.ndarray:
    """Symmetric 3x3 map S with unit diagonal and off-diagonal J1 (x = S @ alpha)."""
    S = np.full((3, 3), J1)
    np.fill_diagonal(S, 1.0)
    return S


def x_from_alpha(alpha, params: ModelParams) -> np.ndarray:
    """Transformed variables x_n = alpha_n + J1*(alpha_{n-1} + alpha_{n+1})."""
    return hopping_matrix(params.J1) @ np.asarray(alpha, dtype=float)


def alpha_from_x(x, params) -> np.ndarray:
    """Inverse of :func:`x_from_alpha` over the last axis of x; S is
    invertible for |J1| < 1/2.  params is one ModelParams, or one per row."""
    x = np.asarray(x, dtype=float)
    # S = (1-J1)*I + J1*ones, so S^-1 has the same circulant structure.
    (J1,) = per_row(params, lambda p: (p.J1,))
    s = x.sum(axis=-1, keepdims=True)
    return (x - J1 * s / (1.0 + 2.0 * J1)) / (1.0 - J1)


@dataclass(frozen=True)
class CriticalCouplings:
    """Second-order critical couplings of the normal phase.

    g_c_plus  : finite-momentum (k = +-2*pi/3) branch, sqrt((1-J1)(1-J2))
    g_c_minus : zero-momentum branch, sqrt((1+2*J1)(1+2*J2))
    g_c       : the realised critical coupling, min of the two branches
    k_star    : momentum of the soft mode (0.0 or 2*pi/3; ties report 0.0)
    """

    g_c_plus: float
    g_c_minus: float
    g_c: float
    k_star: float


def critical_couplings(params: ModelParams) -> CriticalCouplings:
    """Critical coupling per momentum branch and the realised minimum."""
    J1, J2 = params.J1, params.J2
    gcp = math.sqrt((1.0 - J1) * (1.0 - J2))
    gcm = math.sqrt((1.0 + 2.0 * J1) * (1.0 + 2.0 * J2))
    if gcp < gcm:
        return CriticalCouplings(gcp, gcm, gcp, TWO_THIRDS_PI)
    return CriticalCouplings(gcp, gcm, gcm, 0.0)


def dividing_curve(J2: float) -> float:
    """J1 value where both critical branches coincide, J1 = -J2/(1+J2)."""
    if J2 <= -1.0:
        raise ParameterError(f"dividing curve requires J2 > -1, got {J2}")
    return -J2 / (1.0 + J2)


def first_order_point(params: ModelParams):
    """Coupling g_L where B_tilde changes sign, or None when it never does.

    g_L = sqrt((J1-1)(1+2*J1) * J2 / J1); real only when J1 and J2 have
    opposite signs (the prefactor is negative on the whole hopping domain).
    """
    J1, J2 = params.J1, params.J2
    if J1 == 0.0:
        return None
    radicand = (-1.0 + J1) * (1.0 + 2.0 * J1) * J2 / J1
    if radicand <= 0.0:
        return None
    return math.sqrt(radicand)


@dataclass(frozen=True)
class RegionLabel:
    """Classification of a (J1, J2) point in the hopping plane.

    region            : 1..6 for interior points, None on a boundary
    expected_sequence : phase sequence met as g increases (interior points)
    boundary          : True when the point sits on an axis or the dividing curve
    adjacent          : regions touching a boundary point (sorted, empty otherwise)
    """

    region: int | None
    expected_sequence: tuple
    boundary: bool = False
    adjacent: tuple = ()


_BOUNDARY_TOL = 1e-12


def _interior_region(J1: float, J2: float) -> int:
    above_curve = J1 > dividing_curve(J2)
    if J1 > 0.0 and J2 > 0.0:
        return 2
    if J1 < 0.0 and J2 < 0.0:
        return 5
    if J1 > 0.0 and J2 < 0.0:
        # above the curve g_L < g_c_plus (NP->FSP), below it g_c_minus < g_L
        return 1 if above_curve else 6
    # J1 < 0, J2 > 0
    return 3 if above_curve else 4


def classify_region(J1: float, J2: float) -> RegionLabel:
    """Map (J1, J2) to one of the six transition regions.

    Interior points get the region number and its g-driven phase sequence.
    Points on the axes or on the dividing curve are reported as boundaries
    together with the regions they touch, found by probing small offsets;
    the half offsets reach the regions on both sides of the curve at the
    origin, where its tangent J1 = -J2 runs through the diagonal probes.
    """
    for name, val in (("J1", J1), ("J2", J2)):
        if not -0.5 < val < 0.5:
            raise ParameterError(f"{name} must lie in (-1/2, 1/2), got {val}")

    on_axis = abs(J1) < _BOUNDARY_TOL or abs(J2) < _BOUNDARY_TOL
    on_curve = abs(J1 - dividing_curve(J2)) < _BOUNDARY_TOL
    if on_axis or on_curve:
        eps = 1e-6
        neighbours = set()
        offsets = (-eps, -0.5 * eps, 0.0, 0.5 * eps, eps)
        for dJ1 in offsets:
            for dJ2 in offsets:
                p1, p2 = J1 + dJ1, J2 + dJ2
                if not (-0.5 < p1 < 0.5 and -0.5 < p2 < 0.5):
                    continue
                if abs(p1) < _BOUNDARY_TOL or abs(p2) < _BOUNDARY_TOL:
                    continue
                if abs(p1 - dividing_curve(p2)) < eps * 1e-3:
                    continue
                neighbours.add(_interior_region(p1, p2))
        return RegionLabel(
            region=None,
            expected_sequence=(),
            boundary=True,
            adjacent=tuple(sorted(neighbours)),
        )

    region = _interior_region(J1, J2)
    return RegionLabel(region=region, expected_sequence=REGION_SEQUENCES[region])
