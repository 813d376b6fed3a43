"""Charts, finite-difference geometry, and the octonionic fixture."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import chart_coords, saddle_metric
from occert import budget as bd
from occert import cli
from occert import curvature as cv
from occert import sphere as sp
from occert import structures as sr
from occert.errors import ConfigError, FDQualityError, InputError, MetricError, StructureError
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

class TestOctonionTable:
    def test_three_form_total_antisymmetry(self):
        eps = sr.OCTONION_EPS
        assert np.max(np.abs(eps + eps.transpose(1, 0, 2))) == 0.0
        assert np.max(np.abs(eps + eps.transpose(0, 2, 1))) == 0.0
        assert np.max(np.abs(eps - eps.transpose(1, 2, 0))) == 0.0

    def test_anchor_product(self):
        e = np.eye(7)
        assert np.allclose(sr.cross7(e[0], e[1]), e[2])

    def test_unit_products(self):
        e = np.eye(7)
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert abs(np.linalg.norm(sr.cross7(e[i], e[j])) - 1.0) < 1e-14

    def test_alternativity(self):
        rng = make_rng(1)
        for _ in range(200):
            u, v = rng.normal(size=7), rng.normal(size=7)
            lhs = sr.cross7(u, sr.cross7(u, v))
            rhs = (u @ v) * u - (u @ u) * v
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestG2Structure:
    def test_unit_point_required(self):
        with pytest.raises(InputError):
            sr.g2_structure(np.ones(7))

    def test_tangent_orthogonality_and_square(self):
        rng = make_rng(2)
        for _ in range(20):
            p = rng.normal(size=7)
            p /= np.linalg.norm(p)
            Jp = sr.g2_structure(p)
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


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        conn = sr.christoffel(sp.MetricField.flat_toy(),
                              sp.ChartPoint("north", np.array([0.2, 0, 0, 0, 0, 0.1])))
        assert np.max(np.abs(conn.gamma)) < 1e-14

    def test_round_vanishes_at_origin(self):
        conn = sr.christoffel(sp.MetricField("round"),
                              sp.ChartPoint("north", np.zeros(6)))
        assert np.max(np.abs(conn.gamma)) < 1e-12

    def test_symmetry_exact(self):
        conn = sr.christoffel(sp.MetricField("round"),
                              sp.ChartPoint("north", np.full(6, 0.2)))
        assert np.max(np.abs(conn.gamma - conn.gamma.transpose(0, 2, 1))) == 0.0

    def test_metricity_residual(self):
        # fourth-order differences: the worst residual is 2.6e-11 = 26 h^4
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        field = sp.MetricField("round")
        for pt in sp.sample_points(20, 31):
            conn = sr.christoffel(field, pt)
            stencil = sp._stencil(pt.x[None], fd.h)[0, 1:]
            dg = sp._fd_derivative(field.matrices(pt.chart_id, stencil), fd.h)
            res = (dg - np.einsum("mij,mk->ijk", conn.gamma, conn.g)
                   - np.einsum("mik,jm->ijk", conn.gamma, conn.g))
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

    def test_single_base_matches_batched_stack(self, monkeypatch):
        # the symbols at the point, from the stack over the point and its
        # stencil, equal those of a one-base evaluation, bit for bit
        stacks = []
        christoffel = sp._christoffel

        def recorded(g, dg, bases):
            out = christoffel(g, dg, bases)
            stacks.append((out[0], g, out[1]))
            return out

        monkeypatch.setattr(sp, "_christoffel", recorded)
        fields = [
            sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                               "coeffs": [0.3, 0, 0.1, 0, 0, 0, 0]}}),
            sp.MetricField("ellipsoid", {"axes": [0.5, 0.9, 1.2, 1.7, 2.1, 2.6, 3.0]}),
        ]
        fd = sp.FDConfig(h=1e-3, scheme="richardson_4th")
        for field in fields:
            for pt in sp.sample_points(3, 56):
                stacks.clear()
                R = sp._coordinate_riemann(field, pt, fd)[0]
                assert np.array_equal(sp._coordinate_riemann(field, pt, fd)[0], R)
                gamma, g, g_inv = stacks[0]
                conn = _fd_christoffel(field, pt, fd)
                assert np.array_equal(conn.gamma, gamma[0])
                assert np.array_equal(conn.g, g[0])
                assert np.array_equal(conn.g_inv, g_inv[0])

    def test_fd_quality_error_raised(self):
        # at the smallest step the roundoff floor exceeds the h^2 bound:
        # on this ellipsoid the identities fail at 5.2e-9, 52 times the
        # 1e-10 gate (on the round metric at this point only 1.8 times)
        ellipsoid = sp.MetricField("ellipsoid",
                                   {"axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]})
        pt = sp.ChartPoint("north",
                           np.array([0.31, -0.12, 0.22, 0.05, -0.4, 0.17]))
        with pytest.raises(FDQualityError):
            sp.riemann(ellipsoid, pt, sp.FDConfig(h=1e-6, scheme="richardson_4th"))


def _fd_christoffel(field, pt, fd):
    """Levi-Civita symbols by finite differences of the metric, from the
    stencil, difference and symbol routines of riemann's FD scheme."""
    x = np.asarray(pt.x, dtype=float)[None]
    g = field.matrices(pt.chart_id, sp._stencil(x, fd.h)[0])
    dg = sp._fd_derivative(g[1:], fd.h)
    gamma, g_inv = sp._christoffel(g[:1], dg[None], x)
    return sr.ConnectionCoefficients(gamma=gamma[0], g=g[0], g_inv=g_inv[0])


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

    @pytest.mark.parametrize("field", _jet_fields(),
                             ids=lambda f: "%s-%g" % (f.family, f.scale))
    def test_jets_match_central_differences(self, field):
        # central differences at h and h/2, extrapolated to O(h^4); the
        # O(h^2) error alone exceeds 10 h^2 on the strongly curved ellipsoid
        h = 1e-3
        for pt in _jet_points():
            g, dg, ddg = field.jets(pt.chart_id, pt.x)
            assert np.array_equal(g, field.matrix(pt))
            coarse = _central_jets(field, pt.chart_id, pt.x, h)
            fine = _central_jets(field, pt.chart_id, pt.x, h / 2)
            for exact, c, f in zip((dg, ddg), coarse, fine):
                ref = (4.0 * f - c) / 3.0
                assert np.max(np.abs(exact - ref)) <= 10 * h ** 2 * max(
                    1.0, np.max(np.abs(exact)))

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
                exact = sr.christoffel(field, pt)
                ref = _fd_christoffel(field, pt, fd)
                assert np.array_equal(exact.g, ref.g)
                assert np.max(np.abs(exact.gamma - ref.gamma)) <= 10 * fd.h ** 2 * max(
                    1.0, np.max(np.abs(exact.gamma)))

    def test_j_jet_matches_central_differences(self):
        h = 1e-4
        acs = sr.ACSField()
        for pt in _jet_points():
            J, dJ = acs.chart_jet(pt)
            ref = np.stack([(acs.chart_jet(sp.ChartPoint(pt.chart_id, pt.x + h * e))[0]
                             - acs.chart_jet(sp.ChartPoint(pt.chart_id, pt.x - h * e))[0])
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
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="^unknown ACS field kind 'custom'$"):
            sr.ACSField(kind="custom")

    def test_nearly_kahler_skewness(self):
        # (nabla_X J) X = 0 for every X: each slice nabla[i, a, b] is
        # skew in the direction i and the argument b
        for pt in _round_points():
            nd = sr.nabla_J(sp.MetricField("round"), sr.ACSField(), pt)
            assert np.max(np.abs(nd.nabla + nd.nabla.transpose(2, 1, 0))) <= 1e-12

    def test_constant_type_one(self):
        # the unit round sphere is nearly Kaehler of constant type 1:
        # |(nabla_X J) Y|^2 = |X|^2 |Y|^2 - <X, Y>^2 - <JX, Y>^2
        rng = make_rng(50)
        for pt in _round_points():
            nd = sr.nabla_J(sp.MetricField("round"), sr.ACSField(), pt)
            for _ in range(10):
                x, y = rng.normal(size=(2, 6))
                lhs = np.sum(np.einsum("i,iab,b->a", x, nd.nabla, y) ** 2)
                rhs = (x @ x) * (y @ y) - (x @ y) ** 2 - (x @ nd.J @ y) ** 2
                assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_constant_j_flat_metric(self):
        J6 = np.kron(np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]))
        acs = sr.ACSField(kind="chart_constant", matrix=J6)
        nd = sr.nabla_J(sp.MetricField.flat_toy(), acs,
                        sp.ChartPoint("north", np.array([0.1, 0, 0, 0, 0, 0.2])))
        assert not nd.nabla.any()
        assert np.max(np.abs(nd.J - J6)) < 1e-12

    def test_anticommutation(self):
        for pt in _round_points():
            nd = sr.nabla_J(sp.MetricField("round"), sr.ACSField(), pt)
            anti = (np.einsum("iab,bc->iac", nd.nabla, nd.J)
                    + np.einsum("ab,ibc->iac", nd.J, nd.nabla))
            assert np.max(np.abs(anti)) <= 1e-12

    @pytest.mark.parametrize("field", [
        sp.MetricField("round"),
        sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                           "coeffs": [0.3, 0, 0, 0, 0, 0, 0]}}),
    ], ids=["round", "conformal"])
    def test_invariants_checked_to_roundoff(self, field):
        # the octonionic J is orthogonal for every metric conformal to the
        # round one; its exact nabla J passes the check, a 1e-9 defect fails it
        for pt in _round_points():
            nd = sr.nabla_J(field, sr.ACSField(), pt)
            sr.check_nabla_j(nd.nabla, nd.J)
            bad = nd.nabla.copy()
            bad[0, 0, 1] += 1e-9
            with pytest.raises(StructureError):
                sr.check_nabla_j(bad, nd.J)

    def test_ellipsoid_octonionic_rejected(self):
        # not orthogonal for the ellipsoid metric: the invariants fail by O(1)
        field = sp.MetricField("ellipsoid", {"axes": [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 3.0]})
        for pt in _round_points():
            nd = sr.nabla_J(field, sr.ACSField(), pt)
            with pytest.raises(StructureError):
                sr.phi(nd.J, nd.nabla)

    def test_g2_phi_positive_on_round_sphere(self):
        rng = make_rng(52)
        for pt in sp.sample_points(5, 53):
            nd = sr.nabla_J(sp.MetricField("round"), sr.ACSField(), pt)
            phi = sr.phi(nd.J, nd.nabla)
            for _ in range(50):
                x = rng.normal(size=6)
                x /= np.linalg.norm(x)
                assert x @ phi @ (nd.J @ x) > 0.0


class TestCanonicalConnection:
    def test_flat_kahler_toy(self):
        J6 = np.kron(np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]))
        rep = sr.canonical_connection_check(
            sp.MetricField.flat_toy(),
            sr.ACSField(kind="chart_constant", matrix=J6),
            sp.ChartPoint("north", np.array([0.1, 0, 0, 0, 0, 0.2])))
        assert rep.metricity < 1e-10
        assert rep.complex_compat < 1e-10
        assert rep.torsion_norm < 1e-10

    def test_round_g2_torsion(self):
        for pt in _round_points():
            rep = sr.canonical_connection_check(sp.MetricField("round"),
                                                sr.ACSField(), pt)
            assert rep.metricity <= 1e-12
            assert rep.complex_compat <= 1e-12
            assert rep.torsion_formula <= 1e-12
            assert rep.torsion_norm > 0.1     # the derivative of J forces torsion


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
        pts = sp.sample_points(2, 11)
        budget = bd.estimate_perturbation(sp.MetricField("round"), pts,
                                          quad_samples=20)
        assert budget.eps1 < 1e-8
        assert budget.eps2 < 1e-14

    def test_small_conformal_feeds_budget_check(self):
        from occert.budget import perturbation_budget_check

        conf = sp.MetricField("conformal", {"f": {"type": "ambient_linear",
                                                  "coeffs": [0.002, 0, 0, 0, 0, 0, 0]}})
        pts = sp.sample_points(3, 12)
        budget = bd.estimate_perturbation(conf, pts, quad_samples=30)
        assert budget.eps2 < 0.02
        assert perturbation_budget_check(budget).quadratic_ok

    def test_saddle_is_far(self):
        budget = bd.estimate_perturbation(saddle_metric(),
                                          sp.sample_points(2, 13),
                                          quad_samples=20)
        assert budget.eps1 > 0.5
