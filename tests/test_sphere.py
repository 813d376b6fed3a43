"""Charts, finite-difference geometry, and the octonionic fixture."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import chart_coords, saddle_metric
from oracles import (OCTONION_EPS, conformally_flat_curvature, cross7, g2_structure, nabla_J,
                     octonionic_chart_jet, phi, sampled_sup_norm)
from occert import budget as bd
from occert import cli
from occert import curvature as cv
from occert import sphere as sp
from occert.errors import ConfigError, FDQualityError, InputError, MetricError
from occert.rng import make_rng


def _g00_drops_along(k):
    """Custom metric with g_00 = 1 - 10 x_k: not SPD from x_k = 0.1 on."""
    powers = [0] * 6
    powers[k] = 1
    return sp.MetricField("custom", {"terms": [
        [i, i, [[1.0, [0] * 6]] + ([[-10.0, powers]] if i == 0 else [])]
        for i in range(6)]})


def _g11_with_power(p):
    """Custom params of the chart metric Id + 0.3 x_0^p e_1 e_1."""
    terms = [[i, i, [[1.0, [0] * 6]]] for i in range(6)]
    terms[1][2].append([0.3, [p, 0, 0, 0, 0, 0]])
    return {"terms": terms}


# the rotation of R^7 that turns the north chart into the south one
_T = np.array([1, 1, 1, 1, 1, -1, -1.0])


def _same_bits(a, b):
    """Equal arrays whose zeros also carry the same signs."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestOctonionTable:
    def test_three_form_total_antisymmetry(self):
        eps = OCTONION_EPS
        assert np.max(np.abs(eps + eps.transpose(1, 0, 2))) == 0.0
        assert np.max(np.abs(eps + eps.transpose(0, 2, 1))) == 0.0
        assert np.max(np.abs(eps - eps.transpose(1, 2, 0))) == 0.0

    def test_anchor_product(self):
        e = np.eye(7)
        assert np.allclose(cross7(e[0], e[1]), e[2])

    def test_unit_products(self):
        e = np.eye(7)
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert abs(np.linalg.norm(cross7(e[i], e[j])) - 1.0) < 1e-14

    def test_alternativity(self):
        rng = make_rng(1)
        for _ in range(200):
            u, v = rng.normal(size=7), rng.normal(size=7)
            lhs = cross7(u, cross7(u, v))
            rhs = (u @ v) * u - (u @ u) * v
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestG2Structure:
    def test_unit_point_required(self):
        with pytest.raises(AssertionError, match="^base point must be a unit 7-vector$"):
            g2_structure(np.ones(7))

    def test_tangent_orthogonality_and_square(self):
        rng = make_rng(2)
        for _ in range(20):
            p = rng.normal(size=7)
            p /= np.linalg.norm(p)
            Jp = g2_structure(p)
            assert np.max(np.abs(Jp @ p)) < 1e-14
            for _ in range(100):
                v = rng.normal(size=7)
                v -= (v @ p) * p
                w = Jp @ v
                assert abs(w @ v) < 1e-12 * max(1.0, v @ v)
                assert abs(w @ p) < 1e-13
                assert np.max(np.abs(Jp @ w + v)) < 1e-12


class TestCharts:
    def test_round_trip(self):
        rng = make_rng(3)
        for _ in range(200):
            p = rng.normal(size=7)
            p /= np.linalg.norm(p)
            cp = sp.ambient_to_chart(p)
            assert np.linalg.norm(cp.x) <= 1.0 + 1e-12
            assert np.max(np.abs(sp.chart_to_ambient(cp) - p)) < 1e-12

    def test_jacobian_matches_numeric(self):
        for chart in ("north", "south"):
            x = np.array([0.3, -0.2, 0.1, 0.4, -0.5, 0.2])
            jac = sp._jacobian_stack(chart, x[None])[0]
            h = 1e-6
            for i in range(6):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                num = (sp.chart_to_ambient(sp.ChartPoint(chart, xp))
                       - sp.chart_to_ambient(sp.ChartPoint(chart, xm))) / (2 * h)
                assert np.max(np.abs(jac[:, i] - num)) < 1e-9

    def test_south_chart_is_the_north_chart_turned(self):
        # p_south(x) = T p_north(x) with T = diag(1, 1, 1, 1, 1, -1, -1):
        # the map and its first three derivatives, to the bit and the sign
        # of zero
        xs = np.stack([pt.x for pt in sp.sample_points(300, 5)])
        assert _same_bits(sp._ambient_stack("south", xs), _T * sp._ambient_stack("north", xs))
        assert _same_bits(sp._jacobian_stack("south", xs),
                          _T[:, None] * sp._jacobian_stack("north", xs))
        for x in xs:
            for south, north in zip(sp._stereographic_jets("south", x),
                                    sp._stereographic_jets("north", x)):
                assert _same_bits(south, _T.reshape((7,) + (1,) * (north.ndim - 1)) * north)

    def test_metrics_read_alike_in_both_charts(self):
        # f = c . p_south = (T c) . p_north, and the round and ellipsoid
        # metrics are invariant under T
        c = np.array([0.3, -0.2, 0.1, 0, 0.4, 0.5, -0.25])

        def conformal(coeffs):
            return sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                                      "coeffs": list(coeffs)}})
        axes = {"axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]}
        pairs = [(conformal(c), conformal(_T * c)), (sp.MetricField("round"),) * 2,
                 (sp.MetricField("ellipsoid", axes),) * 2]
        xs = np.stack([pt.x for pt in sp.sample_points(300, 5)])
        for south, north in pairs:
            assert np.array_equal(south.matrices("south", xs), north.matrices("north", xs))
            for x in xs:
                for a, b in zip(south.jets("south", x), north.jets("north", x)):
                    assert np.array_equal(a, b)

    def test_transition_preserves_orientation(self):
        # north coords near the equator, re-expressed in the south chart
        x = np.array([0.9, 0.3, -0.2, 0.1, 0.2, -0.4])

        def transition(y):
            p = sp.chart_to_ambient(sp.ChartPoint("north", y))
            return sp.ambient_to_chart(p).x if p[6] > 0 else None

        h = 1e-6
        jac = np.zeros((6, 6))
        base = transition(x)
        assert base is not None
        for i in range(6):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            jac[:, i] = (transition(xp) - transition(xm)) / (2 * h)
        assert np.linalg.det(jac) > 0

    def test_invariant_enforced(self):
        with pytest.raises(InputError):
            sp.ChartPoint("north", np.array([2.0, 0, 0, 0, 0, 0]))

    def test_offsphere_input_rejected(self):
        with pytest.raises(InputError):
            sp.ambient_to_chart(np.ones(7))


class TestMetricFamilies:
    def test_round_at_origin(self):
        f = sp.MetricField("round")
        g = f.matrix(sp.ChartPoint("north", np.zeros(6)))
        assert np.allclose(g, 4.0 * np.eye(6))

    def test_round_matches_embedding_pullback(self):
        # oracle: pull the flat 7-space metric back through the chart
        f = sp.MetricField("round")
        rng = make_rng(5)
        for _ in range(30):
            x = chart_coords(rng)
            for chart in ("north", "south"):
                pt = sp.ChartPoint(chart, x)
                P = sp._jacobian_stack(chart, x[None])[0]
                assert np.max(np.abs(P.T @ P - f.matrix(pt))) < 1e-12

    def test_trivial_conformal_equals_round(self):
        f = sp.MetricField("round")
        c0 = sp.MetricField("conformal",
                            {"f": {"type": "ambient_linear", "coeffs": [0.0] * 7}})
        rng = make_rng(7)
        for _ in range(100):
            pt = sp.ChartPoint("north", chart_coords(rng))
            assert np.max(np.abs(c0.matrix(pt) - f.matrix(pt))) < 1e-14

    def test_unit_ellipsoid_equals_round(self):
        f = sp.MetricField("round")
        e1 = sp.MetricField("ellipsoid", {"axes": [1.0] * 7})
        rng = make_rng(9)
        for _ in range(50):
            pt = sp.ChartPoint("south", chart_coords(rng))
            assert np.max(np.abs(e1.matrix(pt) - f.matrix(pt))) < 1e-12

    def test_scale_factor(self):
        f = sp.MetricField("round", scale=2.0)
        g = f.matrix(sp.ChartPoint("north", np.zeros(6)))
        assert np.allclose(g, 8.0 * np.eye(6))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_scale_applied_before_checks(self):
        with pytest.raises(MetricError, match="non-finite"):
            sp.MetricField("round", scale=1e308).matrix(
                sp.ChartPoint("north", np.zeros(6)))

    def test_custom_spd_enforced(self):
        bad = sp.MetricField("custom", {"terms": [[0, 0, [[1.0, [0] * 6]]]]})
        with pytest.raises(MetricError):
            bad.matrix(sp.ChartPoint("north", np.zeros(6)))

    def test_matrices_equal_stacked_matrix_calls(self):
        families = [
            ("round", {}),
            ("conformal", {"f": {"type": "constant", "value": 0.3}}),
            ("conformal", {"f": {"type": "ambient_linear",
                                 "coeffs": [0.3, -0.1, 0, 0.2, 0, 0.05, -0.2]}}),
            ("ellipsoid", {"axes": [0.5, 0.9, 1.2, 1.7, 2.1, 2.6, 3.0]}),
            ("custom", {"terms": saddle_metric().params["terms"]
                        + [[0, 3, [[0.1, [1, 0, 2, 0, 0, 1]]]]]}),
        ]
        rng = make_rng(14)
        xs = np.stack([chart_coords(rng) for _ in range(40)])
        for family, params in families:
            field = sp.MetricField(family, params, scale=1.7)
            for chart in ("north", "south"):
                stacked = np.stack([field.matrix(sp.ChartPoint(chart, x))
                                    for x in xs])
                assert np.array_equal(field.matrices(chart, xs), stacked)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_matrices_fail_at_first_bad_row(self):
        terms = _g00_drops_along(0).params["terms"]
        # g_11 = 1 + 2e308 x_1 overflows to inf at x_1 = 1
        terms[1][2] += [[1e308, [0, 1, 0, 0, 0, 0]]] * 2
        field = sp.MetricField("custom", {"terms": terms})
        good, bad, huge, outside = np.zeros(6), np.zeros(6), np.zeros(6), np.zeros(6)
        bad[0] = 0.2
        huge[1] = 1.0
        outside[0] = 1.6
        with pytest.raises(InputError):
            field.matrices("north", np.stack([good, outside, bad]))
        with pytest.raises(MetricError, match="non-SPD"):
            field.matrices("north", np.stack([good, bad, outside]))
        with pytest.raises(InputError):
            field.matrices("north", np.stack([good, outside, huge]))
        with pytest.raises(MetricError, match="non-finite"):
            field.matrices("north", np.stack([good, huge, outside]))
        with pytest.raises(MetricError, match="non-finite"):
            field.matrices("north", np.stack([good, huge, bad]))
        with pytest.raises(MetricError, match="non-SPD"):
            field.matrices("north", np.stack([good, bad, huge]))
        # finite is checked before SPD within one row
        with pytest.raises(MetricError, match="non-finite"):
            field.matrices("north", np.stack([good, bad + huge]))
        with pytest.raises(InputError):
            field.matrices("east", good[None])

    def test_non_finite_parameters_rejected(self):
        for scale in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="at 'scale'"):
                sp.MetricField("round", scale=scale)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="at 'axes/6'"):
                sp.MetricField("ellipsoid", {"axes": [1.0] * 6 + [bad]})


    @pytest.mark.parametrize("family, params, scale, text", [
        ("ellipsoid", {"axis": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]}, 1.0,
         "invalid metric spec at 'family': Additional properties are not allowed "
         "('axis' was unexpected)"),
        ("custom", _g11_with_power(1.5), 1.0,
         "invalid metric spec at 'terms/1/2/1/1/0': 1.5 is not of type 'integer'"),
        ("custom", _g11_with_power(-1), 1.0,
         "invalid metric spec at 'terms/1/2/1/1/0': -1 is less than the minimum of 0"),
        ("round", {}, True, "invalid metric spec at 'scale': True is not of type 'number'"),
    ], ids=["misspelled-key", "fractional-power", "negative-power", "bool-scale"])
    def test_what_a_spec_file_may_not_hold_is_rejected(self, family, params, scale, text):
        # each was once accepted: a misspelled key evaluated the round
        # metric, fractional and negative powers gave wrong exact curvature
        with pytest.raises(ConfigError) as err:
            sp.MetricField(family, params, scale)
        assert str(err.value) == text

    def test_integer_power_exact_matches_richardson(self):
        field = sp.MetricField("custom", _g11_with_power(2))
        pt = sp.ChartPoint("north", np.array([0.4, 0.1, 0, 0, 0, 0]))
        R = sp.riemann(field, pt, sp.FDConfig(scheme="exact"))
        ref = sp.riemann(field, pt, sp.FDConfig(scheme="richardson_4th"))
        assert np.max(np.abs(R - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(ref)) > 1e-2

    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_beyond_the_float_range_rejected(self, sign):
        # an int converts to float only up to about 1.8e308; it once got
        # through to an uncaught OverflowError at evaluation
        scale = sign * 10 ** 400
        texts = []
        for build in (lambda: sp.MetricField("round", scale=scale),
                      lambda: cli.metric_from_dict({"family": "round", "scale": scale})):
            with pytest.raises(ConfigError, match="^invalid metric spec at 'scale': ") as err:
                build()
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        with pytest.raises(ConfigError, match="^invalid metric spec at 'axes/3': an integer "
                                              "of 1329 bits is not a finite number$"):
            sp.MetricField("ellipsoid", {"axes": [1, 1, 1, 10 ** 400, 1, 1, 1]})
        assert sp.MetricField("round", scale=10 ** 300).scale == 10 ** 300
        # the schema's own messages: repr fails on an int of more than
        # 4300 digits, so such an int is named by its bit length
        huge = 10 ** 5000
        index = [[huge, 0, [[1.0, [0] * 6]]]]
        power = [[0, 0, [[1.0, [-huge] + [0] * 5]]]]
        for build, where, text in (
                (lambda: sp.MetricField("ellipsoid", {"axes": [1] * 6 + [-huge]}),
                 "axes/6", "is less than or equal to the minimum of 0"),
                (lambda: sp.MetricField("custom", {"terms": index}),
                 "terms/0/0", "is greater than the maximum of 5"),
                (lambda: sp.MetricField("custom", {"terms": power}),
                 "terms/0/2/0/1/0", "is less than the minimum of 0"),
                (lambda: sp.MetricField("round", scale=-huge),
                 "scale", "is less than or equal to the minimum of 0")):
            with pytest.raises(ConfigError) as err:
                build()
            assert str(err.value) == ("invalid metric spec at '%s': an integer of "
                                      "16610 bits %s" % (where, text))
        with pytest.raises(ConfigError) as err:
            sp.MetricField("ellipsoid", {"axes": [1] * 7 + [sign * huge]})
        assert str(err.value) == ("invalid metric spec at 'axes': [1, 1, 1, 1, 1, 1, 1, "
                                  "an integer of 16610 bits] is too long")


class TestSPDScreen:
    """``matrices`` proves a stack SPD with one Cholesky factorization and
    scans rows only when that fails, so a failure names the row and text
    a row-by-row spectrum would."""

    xs = make_rng(32).uniform(-0.5, 0.5, size=(625, 6))    # one Richardson stencil

    @pytest.fixture
    def stack(self, monkeypatch):
        A = make_rng(31).normal(size=(len(self.xs), 6, 6))
        g = A @ A.transpose(0, 2, 1) + 0.5 * np.eye(6)
        monkeypatch.setattr(sp.MetricField, "_unchecked",
                            lambda self, chart_id, xs, xx: g.copy())
        return g

    def _error(self) -> str:
        with pytest.raises(MetricError) as err:
            sp.MetricField("round").matrices("north", self.xs)
        return str(err.value)

    def test_all_spd_returned_unchanged(self, stack):
        g = sp.MetricField("round", scale=2.0).matrices("north", self.xs)
        assert np.array_equal(g, 2.0 * stack)

    @pytest.mark.parametrize("spd_row, sym_row", [
        (400, None), (None, 400), (200, 500), (500, 200), (624, None), (0, None)])
    def test_first_failing_row_named(self, stack, spd_row, sym_row):
        if spd_row is not None:
            stack[spd_row] = np.diag([1.0, 1.0, -1e-3, 1.0, 1.0, 1.0])
        if sym_row is not None:
            stack[sym_row, 0, 1] += 1e-6
        if sym_row is None or (spd_row is not None and spd_row < sym_row):
            assert self._error() == ("metric evaluator returned a non-SPD matrix at %s"
                                     % self.xs[spd_row])
        else:
            assert self._error() == "metric evaluator returned a non-symmetric matrix"

    def test_non_finite_and_non_spd_rows_in_row_order(self, stack):
        stack[100, 2, 2] = np.inf
        stack[50:60] *= -1.0
        assert self._error() == ("metric evaluator returned a non-SPD matrix at %s"
                                 % self.xs[50])
        stack[50:60] *= -1.0
        assert self._error() == ("metric evaluator returned a non-finite matrix at %s"
                                 % self.xs[100])


def _exact_christoffel(field, pt):
    """Levi-Civita symbols gamma[k, i, j] and the metric g at the point,
    from the closed-form jets that riemann's exact scheme reads."""
    g, dg, _ = field.jets(pt.chart_id, pt.x)
    return sp._christoffel(g, dg, pt.x)[0], g


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        gamma, _ = _exact_christoffel(sp.MetricField.flat_toy(),
                                      sp.ChartPoint("north", np.array([0.2, 0, 0, 0, 0, 0.1])))
        assert np.max(np.abs(gamma)) < 1e-14

    def test_round_vanishes_at_origin(self):
        gamma, _ = _exact_christoffel(sp.MetricField("round"),
                                      sp.ChartPoint("north", np.zeros(6)))
        assert np.max(np.abs(gamma)) < 1e-12

    def test_symmetry_exact(self):
        gamma, _ = _exact_christoffel(sp.MetricField("round"),
                                      sp.ChartPoint("north", np.full(6, 0.2)))
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) == 0.0

    def test_metricity_residual(self):
        # fourth-order differences: the worst residual is 2.6e-11 = 26 h^4
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        field = sp.MetricField("round")
        for pt in sp.sample_points(20, 31):
            gamma, g = _exact_christoffel(field, pt)
            stencil = sp._stencil(pt.x[None], fd.h)[0, 1:]
            dg = sp._fd_derivative(field.matrices(pt.chart_id, stencil), fd.h)
            res = (dg - np.einsum("mij,mk->ijk", gamma, g)
                   - np.einsum("mik,jm->ijk", gamma, g))
            assert np.max(np.abs(res)) < 100.0 * fd.h ** 4


class TestRiemann:
    def test_round_anchor_richardson(self, G):
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        field = sp.MetricField("round")
        for pt in sp.sample_points(3, 43):
            R = sp.riemann(field, pt, fd)
            assert np.max(np.abs(R - G)) < 1e-6

    def test_flat_vanishes(self):
        R = sp.riemann(sp.MetricField.flat_toy(),
                       sp.ChartPoint("north", np.array([0.2, 0, 0, 0, 0, 0.1])))
        assert np.max(np.abs(R)) < 1e-8

    def test_symmetry_violations_bounded(self):
        # the tensor riemann's 100 h^2 gate reads, before the projection:
        # its worst violation is 1.1e-11, far inside the gate's 1e-4
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        conf = sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                                  "coeffs": [0.1, 0, 0.2, 0, 0, 0, 0]}})
        for pt in sp.sample_points(5, 44):
            R, g = sp._coordinate_riemann(conf, pt, fd)
            R = cv.express_in_frame(R, sp.orthonormal_frame(g))
            assert max(cv.validate_symmetries(R).values()) < 1e-9

    def test_output_is_an_exact_curvature_tensor(self):
        fields = [
            sp.MetricField("round"),
            sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                               "coeffs": [0.3, 0, 0.1, 0, 0, 0, 0]}}),
            sp.MetricField("ellipsoid", {"axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]}),
        ]
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        for field in fields:
            for pt in sp.sample_points(3, 47):
                R = sp.riemann(field, pt, fd)
                worst = max(cv.validate_symmetries(R).values())
                assert worst <= 1e-14 * np.max(np.abs(R))

    def test_step_size_convergence(self, G):
        # fourth order: halving h divides the error by 16 (15.4 here).
        # Below h = 2e-3 rounding takes over (the ratio from 2e-3 to 1e-3
        # is 2.4), so the steps are larger.
        field = sp.MetricField("round")
        pt = sp.sample_points(1, 45)[0]
        err = {}
        for h in (4e-3, 2e-3):
            R = sp.riemann(field, pt, sp.FDConfig(h=h, scheme="richardson_4th"))
            err[h] = np.max(np.abs(R - G))
        assert err[4e-3] / err[2e-3] >= 12.0

    def test_chart_consistency(self):
        # a point near the equator is expressible in both charts;
        # the operator spectra must agree (they are frame-invariant)
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        conf = sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                                  "coeffs": [0.05, 0, 0, 0.02, 0, 0, 0]}})
        p = np.array([0.9, 0.3, -0.2, 0.1, 0.2, -0.1, 0.05])
        p /= np.linalg.norm(p)
        spectra = []
        for chart in ("north", "south"):
            denom = 1.0 - p[6] if chart == "north" else 1.0 + p[6]
            x = p[:6] / denom
            if chart == "south":
                x = x * np.array([1, 1, 1, 1, 1, -1.0])
            R = sp.riemann(conf, sp.ChartPoint(chart, x), fd)
            spectra.append(cv.curvature_operator(R).spectrum)
        assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-6

    def test_small_conformal_spectrum_near_ones(self):
        # the worst deviation from 1 is 1.2e-4, the metric's own: the
        # exact scheme's spectra differ from these by 4e-10 at most
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        conf = sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                                  "coeffs": [0.01, 0, 0, 0, 0, 0, 0]}})
        for pt in sp.sample_points(5, 46):
            R = sp.riemann(conf, pt, fd)
            spec = cv.curvature_operator(R).spectrum
            assert np.max(np.abs(spec - 1.0)) < 1e-3

    def test_stencil_leaving_chart_rejected(self):
        pt = sp.ChartPoint("north", np.array([0.9, 0, -1.2, 0, 0, 0]))
        assert np.linalg.norm(pt.x) == 1.5
        with pytest.raises(InputError, match="^chart coordinates exceed the chart radius$"):
            sp.riemann(sp.MetricField("round"), pt, sp.FDConfig(scheme="richardson_4th"))

    def test_non_spd_inside_stencil_names_first_point(self):
        # SPD at every point of the stencil of x (x_5 + 2h < 0.1), but not
        # at x + 3h e_5, the first point whose x_5 reaches 0.1: the + 2h e_5
        # sample around the base x + h e_5.
        field = _g00_drops_along(5)
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        x = np.array([0.1, -0.2, 0.0, 0.3, 0.1, 0.0975])
        e5 = np.eye(6)[5]
        first = (x + fd.h * e5) + 2.0 * fd.h * e5
        with pytest.raises(MetricError) as info:
            sp.riemann(field, sp.ChartPoint("north", x), fd)
        assert str(info.value) == ("metric evaluator returned a non-SPD matrix at %s"
                                   % first)

    def test_one_metric_evaluation_per_point(self, monkeypatch):
        calls = []
        matrices = sp.MetricField.matrices

        def counted(self, chart_id, xs):
            calls.append(len(xs))
            return matrices(self, chart_id, xs)

        monkeypatch.setattr(sp.MetricField, "matrices", counted)
        field = sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                                   "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}})
        pt = sp.sample_points(1, 55)[0]
        sp.riemann(field, pt, sp.FDConfig(h=1e-3, scheme="richardson_4th"))
        assert calls == [25 * 25]

    def test_fd_quality_error_raised(self, monkeypatch):
        # a fully antisymmetric part keeps the pair symmetries and breaks
        # only the Bianchi identity: by 6.2e-3 in the orthonormal frame
        # here, 62 times the 100 h^2 = 1e-4 gate (max |R| is 1)
        eps = np.zeros((6, 6, 6, 6))
        for perm in itertools.permutations(range(4)):
            eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
        coordinate_riemann = sp._coordinate_riemann

        def with_bianchi_part(field, point, fd):
            R, g = coordinate_riemann(field, point, fd)
            return R + 1e-2 * eps, g

        monkeypatch.setattr(sp, "_coordinate_riemann", with_bianchi_part)
        pt = sp.ChartPoint("north", np.array([0.31, -0.12, 0.22, 0.05, -0.4, 0.17]))
        for scheme in ("exact", "richardson_4th"):
            with pytest.raises(FDQualityError, match="^curvature identities violated at "):
                sp.riemann(sp.MetricField("round"), pt, sp.FDConfig(scheme=scheme))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_raised(self, monkeypatch, bad):
        # the gate scales with max |R|, which must not let inf through;
        # the entry goes into the frame tensor the gate reads
        express_in_frame = sp.express_in_frame

        def with_bad_entry(R, frame):
            R_onf = express_in_frame(R, frame)
            R_onf[0, 1, 2, 3] = bad
            return R_onf

        monkeypatch.setattr(sp, "express_in_frame", with_bad_entry)
        with pytest.raises(FDQualityError):
            sp.riemann(sp.MetricField("round"), sp.sample_points(1, 3)[0])


def _fd_christoffel(field, pt, fd):
    """Levi-Civita symbols and the metric by finite differences of the
    metric, from the jet and symbol routines of riemann's FD scheme."""
    g, dg, _ = sp._fd_jets(field, pt, fd.h)
    return sp._christoffel(g, dg, pt.x)[0], g


def _jet_fields():
    """One metric of each closed form the exact scheme covers."""
    return [
        sp.MetricField("round"),
        sp.MetricField("round", scale=2.5),
        sp.MetricField("conformal", {"f": {"type": "constant", "value": 0.3}}),
        sp.MetricField("conformal", {"f": {"type": "ambient_linear", "coeffs":
                                           [0.3, -0.2, 0.1, 0.05, -0.15, 0.25, 0.4]}}),
        sp.MetricField("ellipsoid", {"axes": [1, 1, 1, 1, 1, 1, 1.05]}),
        sp.MetricField("ellipsoid", {"axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]}),
        saddle_metric(),
        sp.MetricField.flat_toy(),
    ]


def _jet_points():
    """Sampled points of both charts, plus one off-axis point per chart."""
    pts = sp.sample_points(4, 61) + [
        sp.ChartPoint(chart, np.array([0.3, -0.2, 0.1, 0.4, -0.1, 0.5]))
        for chart in ("north", "south")]
    assert {pt.chart_id for pt in pts} == {"north", "south"}
    return pts


def _central_jets(field, chart_id, x, h):
    """dg and ddg by central differences of ``matrices`` at step h."""
    E = np.eye(6)
    g = field.matrices(chart_id, np.concatenate([x + h * E, x - h * E]))
    dg = (g[:6] - g[6:]) / (2.0 * h)
    corners = np.array([x + h * (s * E[i] + t * E[j]) for i in range(6)
                        for j in range(6) for s in (1, -1) for t in (1, -1)])
    c = field.matrices(chart_id, corners).reshape(6, 6, 2, 2, 6, 6)
    ddg = (c[:, :, 0, 0] - c[:, :, 0, 1] - c[:, :, 1, 0] + c[:, :, 1, 1]) / (4.0 * h * h)
    return dg, ddg


EXACT = sp.FDConfig(h=1e-3, scheme="exact")


class TestExactJets:
    @pytest.mark.parametrize("field", _jet_fields(),
                             ids=lambda f: "%s-%g" % (f.family, f.scale))
    def test_riemann_matches_richardson(self, field):
        rich = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        for pt in _jet_points():
            R = sp.riemann(field, pt, EXACT)
            ref = sp.riemann(field, pt, rich)
            assert np.max(np.abs(R - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))

    def test_round_is_the_kulkarni_nomizu_square(self, G):
        for scale in (1.0, 2.5):
            field = sp.MetricField("round", scale=scale)
            for pt in _jet_points():
                R = sp.riemann(field, pt, EXACT)
                assert np.max(np.abs(R - G / scale)) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("coeffs", [
        [0.3, 0, 0, 0, 0, 0, 0],
        [0.3, -0.2, 0.1, 0.05, -0.15, 0.25, 0.4],
        [0, 0, 0, 0, 0, -0.6, 0.8],
        [0.01, 0.02, -0.03, 0, 0, 0, -0.02],
    ])
    def test_conformal_matches_the_conformal_change_oracle(self, coeffs, scale):
        """The Christoffel route against a formula without Christoffel
        symbols, on the conformal family of the survey."""
        field = sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                                   "coeffs": coeffs}}, scale)
        pts = _jet_points() + sp.sample_points(20, 29)
        for pt in pts:
            R = sp.riemann(field, pt, EXACT)
            ref = conformally_flat_curvature(field, pt)
            assert np.max(np.abs(R - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("field", _jet_fields(),
                             ids=lambda f: "%s-%g" % (f.family, f.scale))
    def test_jets_match_central_differences(self, field):
        # central differences at h and h/2, extrapolated to O(h^4); the
        # O(h^2) error alone exceeds 10 h^2 on the strongly curved ellipsoid.
        # riemann's fourth-order jets are off by at most 2.2e-10 relative.
        h = 1e-3
        for pt in _jet_points():
            g, dg, ddg = field.jets(pt.chart_id, pt.x)
            assert np.array_equal(g, field.matrix(pt))
            coarse = _central_jets(field, pt.chart_id, pt.x, h)
            fine = _central_jets(field, pt.chart_id, pt.x, h / 2)
            fd_g, *fd_jets = sp._fd_jets(field, pt, h)
            assert np.array_equal(fd_g, g)
            for exact, c, f, fd in zip((dg, ddg), coarse, fine, fd_jets):
                ref = (4.0 * f - c) / 3.0
                scale = max(1.0, np.max(np.abs(exact)))
                assert np.max(np.abs(exact - ref)) <= 10 * h ** 2 * scale
                assert np.max(np.abs(exact - fd)) <= 1e-8 * scale

    def test_custom_zero_powers_at_zero_coordinates(self):
        # g_00 = 1 + x_0 x_1 + x_2^2 + 3 x_3; at x_0 = x_1 = x_2 = 0 the
        # factors x^(p - 1) with p = 0 would be 0 * inf
        terms = [[i, i, [[1.0, [0] * 6]]] for i in range(6)]
        terms[0][2] += [[1.0, [1, 1, 0, 0, 0, 0]], [1.0, [0, 0, 2, 0, 0, 0]],
                        [3.0, [0, 0, 0, 1, 0, 0]]]
        field = sp.MetricField("custom", {"terms": terms})
        for x in (np.zeros(6), np.array([0, 0, 0, 0.1, 0, 0.2])):
            g, dg, ddg = field.jets("north", x)
            assert np.isfinite(dg).all() and np.isfinite(ddg).all()
            d0 = np.zeros(6)
            d0[3] = 3.0
            assert np.array_equal(dg[:, 0, 0], d0)
            h0 = np.zeros((6, 6))
            h0[0, 1] = h0[1, 0] = 1.0
            h0[2, 2] = 2.0
            assert np.array_equal(ddg[:, :, 0, 0], h0)
            assert not dg[:, 1:, :].any() and not ddg[:, :, 1:, :].any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_derivative_rejected(self):
        # g = 1e308 Id is finite at x = e_0, its derivative -2e308 is not
        x = np.eye(6)[0]
        with pytest.raises(MetricError, match="non-finite derivatives"):
            sp.MetricField("round", scale=1e308).jets("north", x)

    def test_metric_checks_shared_with_matrices(self):
        field = _g00_drops_along(5)
        x = np.array([0.1, -0.2, 0.0, 0.3, 0.1, 0.2])
        with pytest.raises(MetricError) as info:
            field.jets("north", x)
        assert str(info.value) == ("metric evaluator returned a non-SPD matrix at %s"
                                   % x)
        with pytest.raises(InputError):
            field.jets("north", np.array([1.6, 0, 0, 0, 0, 0]))
        with pytest.raises(InputError):
            field.jets("north", np.zeros(7))

    def test_christoffel_matches_finite_differences(self):
        # fourth-order differences: the central ones are off by up to
        # 25 h^2 on the strongly curved ellipsoid
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        for field in _jet_fields():
            for pt in _jet_points():
                gamma, g = _exact_christoffel(field, pt)
                ref_gamma, ref_g = _fd_christoffel(field, pt, fd)
                assert np.array_equal(g, ref_g)
                assert np.max(np.abs(gamma - ref_gamma)) <= 10 * fd.h ** 2 * max(
                    1.0, np.max(np.abs(gamma)))

    def test_j_jet_matches_central_differences(self):
        h = 1e-4
        for pt in _jet_points():
            J, dJ = octonionic_chart_jet(pt)
            ref = np.stack([(octonionic_chart_jet(sp.ChartPoint(pt.chart_id, pt.x + h * e))[0]
                             - octonionic_chart_jet(sp.ChartPoint(pt.chart_id, pt.x - h * e))[0])
                            / (2.0 * h) for e in np.eye(6)])
            assert np.max(np.abs(J @ J + np.eye(6))) <= 1e-12
            assert np.max(np.abs(dJ - ref)) <= 1e-6 * np.max(np.abs(dJ))

    def test_identity_gate_applies(self, monkeypatch):
        # the exact scheme keeps the 100 h^2 gate: NaN curvature fails
        field = sp.MetricField("round")
        pt = sp.sample_points(1, 63)[0]
        jets = sp.MetricField.jets

        def nan_jets(self, chart_id, x):
            g, dg, ddg = jets(self, chart_id, x)
            return g, dg, np.full_like(ddg, np.nan)

        monkeypatch.setattr(sp.MetricField, "jets", nan_jets)
        with pytest.raises(FDQualityError):
            sp.riemann(field, pt, EXACT)


def _round_points():
    """Sampled points of both charts on the round sphere."""
    pts = sp.sample_points(20, 48)
    assert {pt.chart_id for pt in pts} == {"north", "south"}
    return pts


class TestNablaJ:
    def test_nearly_kahler_skewness(self):
        # (nabla_X J) X = 0 for every X: each slice nabla[i, a, b] is
        # skew in the direction i and the argument b
        for pt in _round_points():
            _, N = nabla_J(sp.MetricField("round"), pt)
            assert np.max(np.abs(N + N.transpose(2, 1, 0))) <= 1e-12

    def test_constant_type_one(self):
        # the unit round sphere is nearly Kaehler of constant type 1:
        # |(nabla_X J) Y|^2 = |X|^2 |Y|^2 - <X, Y>^2 - <JX, Y>^2
        rng = make_rng(50)
        for pt in _round_points():
            J, N = nabla_J(sp.MetricField("round"), pt)
            for _ in range(10):
                x, y = rng.normal(size=(2, 6))
                lhs = np.sum(np.einsum("i,iab,b->a", x, N, y) ** 2)
                rhs = (x @ x) * (y @ y) - (x @ y) ** 2 - (x @ J @ y) ** 2
                assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_constant_j_flat_metric(self):
        J6 = np.kron(np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]))
        J, N = nabla_J(sp.MetricField.flat_toy(),
                       sp.ChartPoint("north", np.array([0.1, 0, 0, 0, 0, 0.2])),
                       jet=lambda pt: (J6, np.zeros((6, 6, 6))))
        assert not N.any()
        assert np.max(np.abs(J - J6)) < 1e-12

    def test_anticommutation(self):
        for pt in _round_points():
            J, N = nabla_J(sp.MetricField("round"), pt)
            anti = np.einsum("iab,bc->iac", N, J) + np.einsum("ab,ibc->iac", J, N)
            assert np.max(np.abs(anti)) <= 1e-12

    @pytest.mark.parametrize("field", [
        sp.MetricField("round"),
        sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                           "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}}),
    ], ids=["round", "conformal"])
    def test_invariants_checked_to_roundoff(self, field):
        # the octonionic J is orthogonal for every metric conformal to the
        # round one; its exact nabla J passes phi's check, a 1e-9 defect fails it
        for pt in _round_points():
            J, N = nabla_J(field, pt)
            phi(J, N)
            bad = N.copy()
            bad[0, 0, 1] += 1e-9
            with pytest.raises(AssertionError, match="^nabla J incompatible with J"):
                phi(J, bad)

    def test_ellipsoid_octonionic_rejected(self):
        # not orthogonal for the ellipsoid metric: the invariants fail by O(1)
        field = sp.MetricField("ellipsoid", {"axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]})
        for pt in _round_points():
            with pytest.raises(AssertionError, match="^nabla J incompatible with J"):
                phi(*nabla_J(field, pt))

    def test_g2_phi_positive_on_round_sphere(self):
        rng = make_rng(52)
        for pt in sp.sample_points(5, 53):
            J, N = nabla_J(sp.MetricField("round"), pt)
            p = phi(J, N)
            for _ in range(50):
                x = rng.normal(size=6)
                x /= np.linalg.norm(x)
                assert x @ p @ (J @ x) > 0.0


class TestSampling:
    def test_determinism(self):
        a = sp.sample_points(5, 8)
        b = sp.sample_points(5, 8)
        for pa, pb in zip(a, b):
            assert pa.chart_id == pb.chart_id
            assert np.array_equal(pa.x, pb.x)

    def test_chart_invariant(self):
        for pt in sp.sample_points(200, 9):
            assert np.linalg.norm(pt.x) <= 1.0 + 1e-12

    def test_ambient_mean_vanishes(self):
        n = 10_000
        pts = sp.sample_points(n, 10)
        amb = np.stack([sp.chart_to_ambient(p) for p in pts])
        sem = amb.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(amb.mean(axis=0)) <= 3.0 * sem)

    def test_at_least_one_point_required(self):
        with pytest.raises(InputError):
            sp.sample_points(0, 1)


class TestPerturbationEstimate:
    def test_round_is_zero(self):
        budget = bd.estimate_perturbation(sp.MetricField("round"), sp.sample_points(2, 11))
        assert budget.eps1 < 1e-8
        assert budget.eps2 < 1e-14

    def test_small_conformal_feeds_budget_check(self):
        from occert.budget import perturbation_budget_check

        conf = sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                                  "coeffs": [0.002, 0, 0, 0, 0, 0, 0]}})
        budget = bd.estimate_perturbation(conf, sp.sample_points(3, 12))
        assert budget.eps2 < 0.02
        assert perturbation_budget_check(budget).quadratic_ok

    def test_saddle_is_far(self):
        budget = bd.estimate_perturbation(saddle_metric(), sp.sample_points(2, 13))
        assert budget.eps1 > 0.5

    @pytest.mark.parametrize("field", [
        sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                           "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}}),
        saddle_metric(),
        sp.MetricField("ellipsoid", {"axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]}),
    ], ids=["conformal", "saddle", "ellipsoid"])
    def test_eps1_bounds_the_sampled_deviation(self, field):
        # eps1 is the operator norm of D = R - G in the round orthonormal
        # frame: at least every component and every sampled unit
        # quadruple, up to rounding, and at most the Frobenius norm.  On
        # the ellipsoid the largest component attains it to 6e-15.
        rng = make_rng(14)
        G = cv.kulkarni_nomizu_square()
        for pt in sp.sample_points(4, 15):
            B0 = sp.orthonormal_frame(sp.MetricField("round").matrix(pt))
            D = cv.express_in_frame(sp._coordinate_riemann(field, pt, sp.FDConfig())[0], B0) - G
            eps1 = bd.estimate_perturbation(field, [pt]).eps1
            rounded = eps1 * (1.0 + 1e-12)
            assert np.max(np.abs(D)) <= rounded and sampled_sup_norm(D, rng, 10_000) <= rounded
            assert eps1 <= cv.frobenius_norm(D)
