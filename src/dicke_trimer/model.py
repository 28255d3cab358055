"""Parameters, rescalings, critical-point formulas and the six-region classifier.

Everything here is a closed-form, stateless function of the model parameters.
A batch of points is one :class:`Points` record of columns.  The closed
forms take one ModelParams or Points; on Points each row equals its one-row
call bitwise, since numpy and Python round ``+ - * / sqrt`` alike.
Conventions: the coupling ``g`` and the hoppings ``J1`` (photon) and ``J2``
(atom) are dimensionless, ``J1 = Jbar1/omega`` and ``J2 = Jbar2/Omega``.  The
ground-state energy is measured in units of ``N_a * Omega``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
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
#: and its closed-form g at given hoppings (a ModelParams or Points, whose g
#: is not read), None (NaN on Points) where the transition does not exist.
TRANSITIONS = {
    frozenset((NP, FSP)): ("g_c_plus", "second", lambda p: critical_couplings(p).g_c_plus),
    frozenset((NP, NSP)): ("g_c_minus", "second", lambda p: critical_couplings(p).g_c_minus),
    frozenset((NSP, FSP)): ("g_L", "first", lambda p: first_order_point(p)),
}

_sqrt = math.sqrt


class ParameterError(ValueError):
    """Raised when model parameters fall outside the validity domain."""


def _lam(params):
    """Bare cavity-atom coupling lambda = g*sqrt(omega*Omega)/2."""
    w = params.omega * params.Omega
    return 0.5 * params.g * (np.sqrt(w) if isinstance(w, np.ndarray) else _sqrt(w))


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

    lam = property(_lam)

    @property
    def Jbar1(self) -> float:
        return self.J1 * self.omega

    @property
    def Jbar2(self) -> float:
        return self.J2 * self.Omega

    def replace(self, **kwargs) -> "ModelParams":
        return dataclasses.replace(self, **kwargs)


_FIELDS = ("g", "J1", "J2", "omega", "Omega")


@dataclass(frozen=True, eq=False)
class Points:
    """Parameter points as columns: g, J1, J2, omega and Omega as read-only
    1-D float arrays, one entry per row; scalars broadcast, with the
    defaults of ModelParams.  The first row that ModelParams rejects raises
    its ParameterError.  points[i] is row i as a ModelParams, points[rows]
    (a slice, index array or mask) the Points of those rows."""

    g: np.ndarray
    J1: np.ndarray = 0.0
    J2: np.ndarray = 0.0
    omega: np.ndarray = 1.0
    Omega: np.ndarray = 1.0

    def __post_init__(self):
        g, J1, J2, omega, Omega = columns = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(getattr(self, f), dtype=float)) for f in _FIELDS))
        if g.ndim != 1:
            raise ValueError(f"Points needs 1-D columns, got shape {g.shape}")
        # ModelParams's rules, written as "inside" so that NaN fails them
        ok = ((0.0 < omega) & (omega < math.inf) & (0.0 < Omega) & (Omega < math.inf)
              & (0.0 <= g) & (g < math.inf) & (np.abs(J1) < 0.5) & (np.abs(J2) < 0.5))
        if not ok.all():
            ModelParams(*(float(c[np.argmin(ok)]) for c in columns))
        self._set(np.array(c) for c in columns)

    def _set(self, columns):
        for name, col in zip(_FIELDS, columns):
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        return self

    @classmethod
    def of(cls, params) -> "Points":
        """params as Points: Points as they are, one ModelParams as one row,
        an iterable of ModelParams as one row each."""
        if isinstance(params, Points):
            return params
        rows = [(p.g, p.J1, p.J2, p.omega, p.Omega)
                for p in ((params,) if isinstance(params, ModelParams) else params)]
        return object.__new__(cls)._set(np.array(rows, dtype=float).reshape(-1, 5).T.copy())

    def __len__(self):
        return len(self.g)

    def __getitem__(self, rows):
        if isinstance(rows, numbers.Integral):
            return ModelParams(*(float(getattr(self, f)[rows]) for f in _FIELDS))
        return object.__new__(Points)._set([getattr(self, f)[rows] for f in _FIELDS])

    lam = property(_lam)
    Jbar1 = ModelParams.Jbar1
    Jbar2 = ModelParams.Jbar2


def c_tilde(J1):
    """Quadratic coefficient (1+J1)/((-1+J1)(1+2*J1)); defined even at g=0."""
    return (1.0 + J1) / ((-1.0 + J1) * (1.0 + 2.0 * J1))


def _b_tilde_error(g, J2) -> ParameterError:
    return ParameterError(f"B_tilde is undefined where J2/g^2 is not finite, got g={g}, J2={J2}")


def b_tilde(params):
    """Cross coefficient J1/((1-J1)(1+2*J1)) + J2/g^2; its sign selects
    frustrated (B > 0) versus uniform (B < 0) order.  Undefined where J2/g^2
    is not finite: one ModelParams raises there, a row of Points is NaN."""
    g, J1, J2 = params.g, params.J1, params.J2
    # g * g rather than g**2, which raises OverflowError where g * g is inf
    if type(params) is Points:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            hop = J2 / (g * g)
        hop[~np.isfinite(hop)] = np.nan
    else:
        gg = g * g
        hop = float(J2) / float(gg) if gg else math.nan  # numpy scalars warn on overflow
        if hop - hop:  # NaN unless J2/g^2 is finite
            raise _b_tilde_error(g, J2)
    return J1 / ((1.0 - J1) * (1.0 + 2.0 * J1)) + hop


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
    invertible for |J1| < 1/2.  params is one ModelParams, or Points (or a
    sequence of ModelParams) with one row per row of x."""
    x = np.asarray(x, dtype=float)
    # S = (1-J1)*I + J1*ones, so S^-1 has the same circulant structure.
    J1 = params.J1 if isinstance(params, ModelParams) else Points.of(params).J1[:, None]
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


def critical_couplings(params) -> CriticalCouplings:
    """Critical coupling per momentum branch and the realised minimum; on
    Points, each entry is a column."""
    J1, J2 = params.J1, params.J2
    scalar = type(params) is not Points
    sqrt = _sqrt if scalar else np.sqrt
    gcp = sqrt((1.0 - J1) * (1.0 - J2))
    gcm = sqrt((1.0 + 2.0 * J1) * (1.0 + 2.0 * J2))
    plus = gcp < gcm
    if scalar:
        return (CriticalCouplings(gcp, gcm, gcp, TWO_THIRDS_PI) if plus
                else CriticalCouplings(gcp, gcm, gcm, 0.0))
    return CriticalCouplings(gcp, gcm, np.where(plus, gcp, gcm),
                             np.where(plus, TWO_THIRDS_PI, 0.0))


def dividing_curve(J2: float) -> float:
    """J1 value where both critical branches coincide, J1 = -J2/(1+J2)."""
    if J2 <= -1.0:
        raise ParameterError(f"dividing curve requires J2 > -1, got {J2}")
    return -J2 / (1.0 + J2)


def first_order_point(params):
    """Coupling g_L where B_tilde changes sign, or None when it never does at
    a finite g (NaN in that row of Points).

    g_L = sqrt((J1-1)(1+2*J1) * J2 / J1); real only when J1 and J2 have
    opposite signs (the prefactor is negative on the whole hopping domain).
    """
    J1, J2 = params.J1, params.J2
    if type(params) is Points:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            radicand = (-1.0 + J1) * (1.0 + 2.0 * J1) * J2 / J1
        return np.sqrt(np.where((0.0 < radicand) & (radicand < np.inf), radicand, np.nan))
    if J1 == 0.0:
        return None
    radicand = (-1.0 + J1) * (1.0 + 2.0 * J1) * J2 / J1
    return _sqrt(radicand) if 0.0 < radicand < math.inf else None


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
