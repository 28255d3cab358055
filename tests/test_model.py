"""Closed-form layer: parameters, coefficients, critical points, regions."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_trimer import (
    ModelParams,
    ParameterError,
    alpha_from_x,
    classify_region,
    critical_couplings,
    dividing_curve,
    first_order_point,
    hopping_matrix,
    x_from_alpha,
)
from dicke_trimer.model import REGION_SEQUENCES, Points, b_tilde, c_tilde

finite_J = st.floats(min_value=-0.49, max_value=0.49)
finite_g = st.floats(min_value=0.05, max_value=3.0)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams(g=1.0)
        assert p.J1 == 0.0 and p.J2 == 0.0
        assert p.omega == 1.0 and p.Omega == 1.0

    def test_lam_rescaling(self):
        p = ModelParams(g=1.2, omega=2.0, Omega=0.5)
        assert p.lam == pytest.approx(0.5 * 1.2 * math.sqrt(1.0))
        assert p.Jbar1 == 0.0

    @pytest.mark.parametrize("bad", [0.5, -0.5, 0.7, -1.0])
    def test_hopping_domain_is_open(self, bad):
        with pytest.raises(ParameterError):
            ModelParams(g=1.0, J1=bad)
        with pytest.raises(ParameterError):
            ModelParams(g=1.0, J2=bad)

    def test_negative_g_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams(g=-0.1)

    def test_nonpositive_frequencies_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams(g=1.0, omega=0.0)
        with pytest.raises(ParameterError):
            ModelParams(g=1.0, Omega=-1.0)

    @pytest.mark.parametrize("field", ["g", "omega", "Omega"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_rejected(self, field, bad):
        with pytest.raises(ParameterError):
            ModelParams(**{"g": 1.0, field: bad})

    def test_replace(self):
        p = ModelParams(g=1.0, J1=0.1)
        q = p.replace(g=2.0)
        assert q.g == 2.0 and q.J1 == 0.1 and p.g == 1.0


class TestCoefficients:
    def test_known_values(self):
        # C at J1=0.1: 1.1/((-0.9)*1.2); B at (0.1, -0.1, g=1)
        assert c_tilde(0.1) == pytest.approx(1.1 / (-0.9 * 1.2))
        p = ModelParams(g=1.0, J1=0.1, J2=-0.1)
        assert b_tilde(p) == pytest.approx(0.1 / 1.08 - 0.1, abs=1e-15)

    def test_c_tilde_negative_on_domain(self):
        for J1 in np.linspace(-0.49, 0.49, 99):
            assert c_tilde(J1) < 0.0

    def test_g_zero_rejected(self):
        with pytest.raises(ParameterError):
            b_tilde(ModelParams(g=0.0, J2=0.1))

    @pytest.mark.parametrize("g", [1e-200, 1e200, 1e308])
    @pytest.mark.parametrize("J1", [-0.1, 0.1])
    def test_extreme_g(self, g, J1):
        # g * g underflows to 0 at 1e-200, the g = 0 case, and overflows to
        # inf at 1e200, where J2/g^2 vanishes
        p = ModelParams(g=g, J1=J1, J2=0.1)
        if g < 1.0:
            with pytest.raises(ParameterError):
                b_tilde(p)
        else:
            assert b_tilde(p) == J1 / ((1.0 - J1) * (1.0 + 2.0 * J1))

    @pytest.mark.parametrize("g, J2", [(np.float64(1e-160), 0.1), (1e-160, np.float64(0.1)),
                                       (np.float64(1e-160), np.float64(0.1))],
                             ids=["g", "J2", "both"])
    def test_numpy_scalar_b_tilde_raises_as_for_floats(self, g, J2):
        # J2/g^2 of numpy scalars warns on overflow, an error under
        # filterwarnings; it must raise the ParameterError as floats do
        with pytest.raises(ParameterError, match="B_tilde is undefined"):
            b_tilde(ModelParams(g=g, J2=J2))
        scalars = ModelParams(g=np.float64(1.1), J1=np.float64(0.1), J2=np.float64(0.1))
        assert b_tilde(scalars) == b_tilde(ModelParams(g=1.1, J1=0.1, J2=0.1))

    @given(finite_J, finite_J, finite_g)
    def test_b_sign_flips_at_first_order_point(self, J1, J2, g):
        if abs(J1) < 1e-3 or abs(J2) < 1e-3:  # g_L diverges as J1 -> 0
            return
        p = ModelParams(g=g, J1=J1, J2=J2)
        gL = first_order_point(p)
        if gL is None:
            return
        assert b_tilde(p.replace(g=gL)) == pytest.approx(0.0, abs=1e-12)
        assert b_tilde(p.replace(g=gL * 0.9)) * b_tilde(p.replace(g=gL * 1.1)) < 0.0

    @pytest.mark.parametrize("J1", [-0.4999999, -0.49999, 0.1, 0.4999999])
    def test_against_exact_arithmetic(self, J1):
        # the denominator (1 - J1)(1 + 2 J1) keeps its accuracy as J1 -> -1/2,
        # where the expanded 1 + J1 - 2 J1^2 cancels
        eps = np.finfo(float).eps
        F = Fraction(J1)
        exact_b = F / ((1 - F) * (1 + 2 * F))
        b = b_tilde(ModelParams(g=1.0, J1=J1, J2=0.0))
        assert abs(Fraction(b) - exact_b) <= 4 * eps * abs(exact_b)
        J2 = -0.25 if J1 > 0.0 else 0.25
        radicand = (F - 1) * (1 + 2 * F) * Fraction(J2) / F
        gL = first_order_point(ModelParams(g=1.0, J1=J1, J2=J2))
        with localcontext() as ctx:
            ctx.prec = 40
            exact_gL = (Decimal(radicand.numerator) / Decimal(radicand.denominator)).sqrt()
            assert abs(Decimal(gL) - exact_gL) <= Decimal(4 * eps) * exact_gL


class TestVariableMap:
    def test_matrix_structure(self):
        S = hopping_matrix(0.2)
        assert np.allclose(np.diag(S), 1.0)
        assert S[0, 1] == S[1, 2] == 0.2

    @given(finite_J, st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_round_trip(self, J1, alpha):
        p = ModelParams(g=1.0, J1=J1)
        alpha = np.array(alpha)
        assert np.allclose(alpha_from_x(x_from_alpha(alpha, p), p), alpha, atol=1e-12)

    def test_inverse_matches_matrix_inverse(self):
        p = ModelParams(g=1.0, J1=0.3)
        x = np.array([0.2, -0.1, 0.05])
        assert np.allclose(
            alpha_from_x(x, p), np.linalg.solve(hopping_matrix(0.3), x), atol=1e-14
        )


class TestCriticalCouplings:
    def test_closed_forms(self):
        cc = critical_couplings(ModelParams(g=1.0, J1=0.1, J2=-0.1))
        assert cc.g_c_plus == pytest.approx(math.sqrt(0.9 * 1.1))
        assert cc.g_c_minus == pytest.approx(math.sqrt(1.2 * 0.8))
        assert cc.g_c == cc.g_c_minus
        assert cc.k_star == 0.0

    def test_finite_momentum_side(self):
        cc = critical_couplings(ModelParams(g=1.0, J1=0.1, J2=0.1))
        assert cc.g_c == cc.g_c_plus == pytest.approx(0.9)
        assert cc.k_star == pytest.approx(2.0 * math.pi / 3.0)

    def test_uncoupled_limit(self):
        cc = critical_couplings(ModelParams(g=1.0))
        assert cc.g_c_plus == cc.g_c_minus == cc.g_c == 1.0

    @given(st.floats(-0.45, 0.45))
    def test_branches_coincide_on_dividing_curve(self, J2):
        J1 = dividing_curve(J2)
        if not -0.5 < J1 < 0.5:
            return
        cc = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2))
        assert cc.g_c_plus == pytest.approx(cc.g_c_minus, abs=1e-12)

    def test_dividing_curve_rejects_j2_at_or_below_minus_one(self):
        with pytest.raises(ParameterError, match="J2 > -1, got -1.0"):
            dividing_curve(-1.0)


class TestFirstOrderPoint:
    def test_reference_value(self):
        gL = first_order_point(ModelParams(g=1.0, J1=0.1, J2=-0.1))
        assert gL == pytest.approx(math.sqrt(1.08))

    def test_absent_for_same_sign_hoppings(self):
        assert first_order_point(ModelParams(g=1.0, J1=0.1, J2=0.1)) is None
        assert first_order_point(ModelParams(g=1.0, J1=-0.1, J2=-0.1)) is None
        assert first_order_point(ModelParams(g=1.0, J1=0.0, J2=0.3)) is None

    def test_coincides_with_critical_point_on_curve(self):
        # on the dividing curve the first-order point lands exactly on g_c
        J2 = -0.0909090909090909
        J1 = dividing_curve(J2)
        p = ModelParams(g=1.0, J1=J1, J2=J2)
        cc = critical_couplings(p)
        assert first_order_point(p) == pytest.approx(cc.g_c, abs=1e-12)


class TestRegions:
    SAMPLES = {
        1: (0.3, -0.1), 2: (0.1, 0.1), 3: (-0.1, 0.3),
        4: (-0.3, 0.3), 5: (-0.1, -0.1), 6: (0.1, -0.1),
    }

    @pytest.mark.parametrize("region,point", sorted(SAMPLES.items()))
    def test_interior_samples(self, region, point):
        label = classify_region(*point)
        assert label.region == region
        assert not label.boundary
        assert label.expected_sequence == REGION_SEQUENCES[region]

    def test_axis_boundary(self):
        label = classify_region(0.0, 0.2)
        assert label.boundary and label.region is None
        assert label.adjacent == (2, 3)

    def test_curve_boundary(self):
        J2 = 0.2
        label = classify_region(dividing_curve(J2), J2)
        assert label.boundary
        assert label.adjacent == (3, 4)

    def test_origin_touches_all_regions_present(self):
        label = classify_region(0.0, 0.0)
        assert label.boundary
        assert label.adjacent == (1, 2, 3, 4, 5, 6)

    def test_out_of_domain(self):
        with pytest.raises(ParameterError):
            classify_region(0.6, 0.0)


def _bits(values):
    """Values as the bits of their float64s, None as NaN: equal bits are
    bitwise-equal floats."""
    return np.array([math.nan if v is None else v for v in values], dtype=float).view(np.uint64)


_EDGE = 0.4999999
_hopping = st.one_of(st.floats(-_EDGE, _EDGE), st.sampled_from([0.0, -0.0, -_EDGE, _EDGE]))
# g anywhere, near 0 and where g * g is tiny but nonzero (J2/g^2 overflows);
# "g_c", "g_c_plus", "g_c_minus", "g_L" put g on that closed form exactly
_coupling = st.one_of(st.floats(0.0, 100.0), st.floats(0.0, 1e-150),
                      st.sampled_from([0.0, 1e-160, 5e-324, "g_c", "g_c_plus", "g_c_minus",
                                       "g_L"]))


@st.composite
def _rows(draw):
    J1, J2, g = draw(_hopping), draw(_hopping), draw(_coupling)
    if isinstance(g, str):
        p = ModelParams(g=1.0, J1=J1, J2=J2)
        g = first_order_point(p) if g == "g_L" else getattr(critical_couplings(p), g)
    return ModelParams(g=1.0 if g is None else g, J1=J1, J2=J2)


class TestPoints:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_rows(), min_size=1, max_size=12))
    def test_columns_equal_scalar_closed_forms_bitwise(self, rows):
        from dicke_trimer.meanfield import nsp_alpha

        points = Points.of(rows)
        assert np.array_equal(_bits(c_tilde(points.J1)), _bits(c_tilde(p.J1) for p in rows))
        cc = critical_couplings(points)
        for name in ("g_c_plus", "g_c_minus", "g_c", "k_star"):
            assert np.array_equal(_bits(getattr(cc, name)),
                                  _bits(getattr(critical_couplings(p), name) for p in rows))
        assert np.array_equal(_bits(first_order_point(points)),
                              _bits(first_order_point(p) for p in rows))
        assert np.array_equal(_bits(nsp_alpha(points)), _bits(nsp_alpha(p) for p in rows))
        assert np.array_equal(_bits(points.lam), _bits(p.lam for p in rows))
        want = []
        for p in rows:
            try:
                want.append(b_tilde(p))
            except ParameterError as exc:
                assert str(exc).startswith("B_tilde is undefined")
                want.append(None)
        assert np.array_equal(_bits(b_tilde(points)), _bits(want))

    def test_tie_reports_zero_momentum(self):
        # g_c_plus == g_c_minus exactly: both branches report the zero-momentum tie
        points = Points(g=1.0, J1=[0.0, 0.1], J2=[0.0, 0.1])
        cc = critical_couplings(points)
        assert cc.g_c_plus[0] == cc.g_c_minus[0] and cc.k_star[0] == 0.0
        assert critical_couplings(points[0]).k_star == 0.0
        assert cc.k_star[1] == critical_couplings(points[1]).k_star > 0.0

    def test_nonfinite_b_tilde_raises_one_row_and_is_nan_in_columns(self):
        with pytest.raises(ParameterError, match="B_tilde is undefined"):
            b_tilde(ModelParams(g=1e-160, J2=0.1))
        assert b_tilde(ModelParams(g=1e-160, J2=0.0)) == 0.0
        B = b_tilde(Points(g=[1e-160, 1e-160, 0.0, 1.0], J2=[0.1, 0.0, 0.0, 0.1]))
        assert np.isnan(B[0]) and B[1] == 0.0 and np.isnan(B[2]) and B[3] == 0.1

    @pytest.mark.parametrize("field, bad", [
        ("omega", 0.0), ("omega", -1.0), ("Omega", 0.0), ("Omega", -2.0),
        ("omega", math.inf), ("g", math.nan), ("g", -0.1), ("g", math.inf),
        ("J1", 0.5), ("J1", -0.5), ("J2", 0.5), ("J2", -0.5), ("J2", math.nan),
    ])
    def test_first_bad_row_raises_model_params_message(self, field, bad):
        rows = [dict(g=1.0 + 0.1 * i, J1=0.1, J2=-0.1, omega=1.0, Omega=1.0) for i in range(4)]
        rows[2][field] = bad
        # a later row bad in another way
        rows[3]["omega" if field in ("J1", "J2") else "J1"] = 0.7 if field == "g" else -1.0
        with pytest.raises(ParameterError) as want:
            ModelParams(**rows[2])
        with pytest.raises(ParameterError) as got:
            Points(**{k: [row[k] for row in rows] for k in rows[0]})
        assert str(got.value) == str(want.value)

    def test_rows_round_trip(self):
        rows = [ModelParams(g=0.5, J1=0.1, J2=-0.2), ModelParams(g=1.5, J1=-0.3, J2=0.4,
                                                                 omega=2.0, Omega=0.5)]
        points = Points.of(rows)
        assert len(points) == 2 and list(points) == rows
        assert Points.of(points) is points and list(Points.of(rows[1])) == rows[1:]
        assert list(points[[1, 0]]) == rows[::-1] and list(points[1:]) == rows[1:]
        assert points[0] == rows[0] and isinstance(points[0].g, float)
        assert np.array_equal(points.Jbar1, [0.1, -0.6]) and not points.g.flags.writeable
        assert len(Points.of([])) == 0

    def test_scalars_broadcast_with_model_params_defaults(self):
        points = Points(g=[0.5, 1.0])
        assert list(points) == [ModelParams(g=0.5), ModelParams(g=1.0)]
        with pytest.raises(ValueError, match="1-D"):
            Points(g=np.ones((2, 2)))
