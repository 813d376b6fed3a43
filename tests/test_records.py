"""Record contracts: every record keeps its fields, its positional and
keyword constructors, its defaults and its validation texts, survives a
pickle round trip, and no attribute of a record can be assigned."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from occert import budget as bd
from occert import certify as ct
from occert import cli
from occert import curvature as cv
from occert import hermitian as hm
from occert import sphere as sp
from occert import structures as sr
from occert.errors import ConfigError, InputError

# (record, its fields in constructor order, valid field values; None: any)
RECORDS = [
    (ct.BhlResult, "passed lambda_min lambda_max margin boundary", None),
    (ct.Witness, "J X value", None),
    (ct.PMembership, "status sup_lower sup_upper threshold witness", None),
    (ct.LemmaLLResult, "hypotheses_met nondegenerate det_value deviation", None),
    (ct.SearchConfig, "multistarts tol seed", (8, 1e-6, 3)),
    (ct.RefutationResult, "witness best_value", None),
    (ct.Certificate, "bhl p_membership lemma_ll spectrum verdict_notes", None),
    (ct.CertifyOptions, "checks search", (("bhl", "p_refute"), ct.SearchConfig(8, 1e-6, 3))),
    (cv.CurvatureOperator, "matrix spectrum", None),
    (hm.ComplexStructure, "J compatible_orientation", None),
    (sp.ChartPoint, "chart_id x", ("south", np.full(6, 0.1))),
    (sp.FDConfig, "h scheme", (2e-3, "richardson_4th")),
    (sp.MetricField, "family params scale", ("ellipsoid", {"axes": [2.0] * 7}, 0.5)),
    (cli.RunConfig, "metric points fd options out", None),
    (bd.PerturbationBudget, "eps1 eps2", (0.01, 0.02)),
    (bd.BudgetCheck, "quadratic_ok linear_ok implied_bound", None),
    (sr.StarRicciData, "ric ric_star psi phi", None),
    (sr.ACSField, "kind matrix", ("chart_constant", hm.standard_complex_structure())),
    (sr.ConnectionCoefficients, "gamma g g_inv", None),
    (sr.NablaJData, "J nabla", None),
    (sr.CanonicalConnectionReport,
     "metricity complex_compat torsion_formula torsion_norm", None),
]


def _values(fields: str, values):
    return values if values is not None else tuple(object() for _ in fields.split())


@pytest.mark.parametrize("record, fields, values", RECORDS,
                         ids=[r.__name__ for r, _, _ in RECORDS])
def test_constructors(record, fields, values):
    values = _values(fields, values)
    assert record._fields == tuple(fields.split())
    by_position = record(*values)
    by_keyword = record(**dict(zip(record._fields, values)))
    for name, value in zip(record._fields, values):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    with pytest.raises(TypeError):
        record(*values, None)
    with pytest.raises(TypeError):
        record(*values[:-1], **{record._fields[0] + "_": None})


@pytest.mark.parametrize("record, fields, values", RECORDS,
                         ids=[r.__name__ for r, _, _ in RECORDS])
def test_attributes_are_read_only(record, fields, values):
    rec = record(*_values(fields, values))
    with pytest.raises(AttributeError):
        setattr(rec, record._fields[0], None)
    with pytest.raises(AttributeError):
        rec.note = "extra"


def test_defaults():
    assert sp.FDConfig() == (1e-3, "exact")
    assert ct.SearchConfig() == (64, 1e-9, 0)
    assert ct.CertifyOptions() == (("bhl", "p_sufficient"), ct.SearchConfig())
    assert ct.PMembership("unknown", 0.0, 1.0, 1.0 / 6.0).witness is None
    assert sr.ACSField() == ("g2_octonionic", None)
    field = sp.MetricField("round")
    assert field.params == {} and field.scale == 1.0
    field.params["f"] = {"type": "constant"}         # each metric has its own
    assert sp.MetricField("round").params == {}


@pytest.mark.parametrize("record, fields, values", RECORDS,
                         ids=[r.__name__ for r, _, _ in RECORDS])
def test_pickle_round_trip(record, fields, values):
    rec = record(*(values if values is not None else range(len(fields.split()))))
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is record and repr(back) == repr(rec)


@pytest.mark.parametrize("build, error, text", [
    (lambda: sp.ChartPoint("east", np.zeros(6)), InputError,
     "chart_id must be 'north' or 'south'"),
    (lambda: sp.ChartPoint("north", np.ones(6)), InputError,
     "chart coordinates exceed the chart radius"),
    pytest.param(lambda: sp.ChartPoint("north", np.zeros(5)), InputError,
                 "chart coordinates must be 6 finite numbers", id="chart-point-5-vector"),
    pytest.param(lambda: sp.ChartPoint("north", np.full(6, np.nan)), InputError,
                 "chart coordinates must be 6 finite numbers", id="chart-point-nan"),
    pytest.param(lambda: sp.ChartPoint("south", [0.1, np.inf, 0, 0, 0, 0]), InputError,
                 "chart coordinates must be 6 finite numbers", id="chart-point-inf"),
    pytest.param(lambda: sp.ChartPoint("north", ["a"] * 6), InputError,
                 "chart coordinates must be 6 finite numbers", id="chart-point-strings"),
    pytest.param(lambda: sp.ambient_to_chart(np.eye(6)[0]), InputError,
                 "ambient point must be a unit 7-vector", id="ambient-6-vector"),
    pytest.param(lambda: sp.ambient_to_chart(np.full(7, np.nan)), InputError,
                 "ambient point must be a unit 7-vector", id="ambient-nan"),
    (lambda: sp.FDConfig(h=1.0), InputError,
     "finite-difference step h must lie in [1e-4, 1e-1]"),
    pytest.param(lambda: sp.FDConfig(h=5e-5), InputError,
                 "finite-difference step h must lie in [1e-4, 1e-1]", id="fd-h-below-1e-4"),
    pytest.param(lambda: sp.FDConfig(h="x"), InputError,
                 "finite-difference step h must lie in [1e-4, 1e-1]", id="fd-h-string"),
    (lambda: sp.FDConfig(scheme="forward"), InputError,
     "unknown curvature scheme 'forward'"),
    (lambda: sp.MetricField("nope"), ConfigError,
     "invalid metric spec at 'family': 'nope' is not one of "
     "['round', 'conformal', 'ellipsoid', 'custom']"),
    (lambda: sp.MetricField("round", scale=float("nan")), ConfigError,
     "invalid metric spec at 'scale': nan is not a finite number"),
    (lambda: bd.PerturbationBudget(0.0, -1e-3), InputError,
     "perturbation budget entries must be nonnegative"),
    pytest.param(lambda: bd.PerturbationBudget(float("nan"), 0.0), InputError,
                 "perturbation budget entries must be nonnegative", id="budget-nan"),
    pytest.param(lambda: bd.estimate_perturbation(sp.MetricField("round"), []), InputError,
                 "need at least one point to estimate a perturbation", id="estimate-no-points"),
    pytest.param(lambda: sr.ACSField(kind="custom"), ConfigError,
                 "unknown ACS field kind 'custom'", id="acs-unknown-kind"),
    pytest.param(lambda: sr.ACSField("chart_constant"), ConfigError,
                 "chart_constant ACS field needs a matrix", id="acs-no-matrix"),
    pytest.param(lambda: sr.ACSField("chart_constant", np.eye(5)), ConfigError,
                 "chart_constant ACS field needs a matrix", id="acs-matrix-5x5"),
    pytest.param(lambda: sr.ACSField("chart_constant", np.full((6, 6), np.nan)), ConfigError,
                 "chart_constant ACS field needs a matrix", id="acs-matrix-nan"),
    pytest.param(lambda: sr.ACSField("chart_constant", "abc"), ConfigError,
                 "chart_constant ACS field needs a matrix", id="acs-matrix-string"),
    (lambda: ct.SearchConfig(tol=float("nan")), InputError, "tol must be positive and finite"),
    pytest.param(lambda: ct.SearchConfig(tol="x"), InputError,
                 "tol must be positive and finite", id="tol-string"),
    (lambda: ct.SearchConfig(multistarts=-1), InputError, "multistarts must be nonnegative"),
    (lambda: ct.SearchConfig(seed=-3), InputError, "seed must be nonnegative"),
    pytest.param(lambda: ct.SearchConfig(multistarts=2.5), InputError,
                 "multistarts must be an integer", id="multistarts-float"),
    pytest.param(lambda: ct.SearchConfig(multistarts=True), InputError,
                 "multistarts must be an integer", id="multistarts-bool"),
    pytest.param(lambda: ct.SearchConfig(seed=1.5), InputError,
                 "seed must be an integer", id="seed-float"),
    pytest.param(lambda: ct.SearchConfig(seed=False), InputError,
                 "seed must be an integer", id="seed-bool"),
    (lambda: ct.CertifyOptions(checks=()), InputError, "checks must name at least one check"),
    (lambda: ct.CertifyOptions(checks=("bhl", "nope")), InputError, "unknown checks: nope"),
    (lambda: ct.CertifyOptions(checks=("lemma_ll_demo",)), InputError,
     "checks lemma_ll_demo needs bhl, whose result it reads"),
    pytest.param(lambda: ct.CertifyOptions(checks="bhl"), InputError,
                 "checks must be a sequence of check names", id="checks-string"),
])
def test_validation_texts(build, error, text):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error
    assert str(err.value) == text


# (family, params, the field at fault, the error text)
_BAD_PARAMS = [
    ("conformal", {"f": 3}, "'f'", "invalid metric spec at 'f': 3 is not of type 'object'"),
    ("conformal", {"f": {"type": "cubic"}}, "'f'",
     "invalid metric spec at 'f/type': 'cubic' is not one of ['ambient_linear', 'constant']"),
    ("conformal", {"f": {"type": "ambient_linear", "coeffs": [0.1] * 6}}, "'coeffs'",
     "invalid metric spec at 'f/coeffs': [0.1, 0.1, 0.1, 0.1, 0.1, 0.1] is too short"),
    ("conformal", {"f": {"type": "ambient_linear", "coeffs": ["a"] * 7}}, "'coeffs'",
     "invalid metric spec at 'f/coeffs/6': 'a' is not of type 'number'"),
    ("conformal", {"f": {"type": "ambient_linear", "coeffs": 0.1}}, "'coeffs'",
     "invalid metric spec at 'f/coeffs': 0.1 is not of type 'array'"),
    ("conformal", {"f": {"type": "constant", "value": "a"}}, "'value'",
     "invalid metric spec at 'f/value': 'a' is not of type 'number'"),
    ("ellipsoid", {"axes": ["a"] * 7}, "'axes'",
     "invalid metric spec at 'axes/6': 'a' is not of type 'number'"),
    ("ellipsoid", {"axes": 2.0}, "'axes'",
     "invalid metric spec at 'axes': 2.0 is not of type 'array'"),
    ("ellipsoid", {"axes": [1.0] * 6 + [None]}, "'axes'",
     "invalid metric spec at 'axes/6': None is not of type 'number'"),
    ("custom", {}, "'terms'", "custom metric needs a 'terms' table of "
     "[i, j, [[coeff, 6 powers], ...]] entries, i and j in 0..5"),
    ("custom", {"terms": 5}, "'terms'",
     "invalid metric spec at 'terms': 5 is not of type 'array'"),
    ("custom", {"terms": [[0, 6, [[1.0, [0] * 6]]]]}, "'terms'",
     "invalid metric spec at 'terms/0/1': 6 is greater than the maximum of 5"),
    ("custom", {"terms": [[0, 0, [[1.0, [0] * 5]]]]}, "'terms'",
     "invalid metric spec at 'terms/0/2/0/1': [0, 0, 0, 0, 0] is too short"),
    ("custom", {"terms": [[0, 0, [["a", [0] * 6]]]]}, "'terms'",
     "invalid metric spec at 'terms/0/2/0/0': 'a' is not of type 'number'"),
    ("custom", {"terms": [[0, 0]]}, "'terms'",
     "invalid metric spec at 'terms/0': [0, 0] is too short"),
    ("round", ["not", "a", "mapping"], "params", "metric params must be a mapping"),
]


@pytest.mark.parametrize("family, params, field, text", _BAD_PARAMS,
                         ids=["%s-params%d-%s" % (family, i, field)
                              for i, (family, _, field, _) in enumerate(_BAD_PARAMS)])
def test_bad_params_name_the_field(family, params, field, text):
    """A directly built metric rejects malformed params by name, before
    any evaluation can fail on them, with the text a spec file gets."""
    with pytest.raises(ConfigError) as err:
        sp.MetricField(family, params)
    assert str(err.value) == text
    assert field.strip("'") in text
    if isinstance(params, dict):
        with pytest.raises(ConfigError) as err:
            cli.metric_from_dict({"family": family, **params})
        assert str(err.value) == text


@pytest.mark.parametrize("payload, text", [
    ({"family": "conformal", "f": 3}, "invalid metric spec at 'f': 3 is not of type 'object'"),
    ({"family": "conformal", "f": {"type": "constant", "value": "a"}},
     "invalid metric spec at 'f/value': 'a' is not of type 'number'"),
    ({"family": "ellipsoid", "axes": ["a"] * 7},
     "invalid metric spec at 'axes/6': 'a' is not of type 'number'"),
    ({"family": "custom", "terms": [[0, 6, [[1.0, [0] * 6]]]]},
     "invalid metric spec at 'terms/0/1': 6 is greater than the maximum of 5"),
])
def test_cli_texts_come_from_the_schema(payload, text):
    with pytest.raises(ConfigError) as err:
        cli.metric_from_dict(payload)
    assert str(err.value) == text


def test_refuted_membership_keeps_bounds_and_witness():
    R = -cv.kulkarni_nomizu_square()
    options = ct.CertifyOptions(checks=("p_refute",),
                                search=ct.SearchConfig(multistarts=4, seed=3))
    pm = ct.certify_point(R, options).p_membership
    sufficient = ct.certify_P_sufficient(R)
    assert pm.status == "refuted"
    assert (pm.sup_lower, pm.sup_upper, pm.threshold) == (
        sufficient.sup_lower, sufficient.sup_upper, sufficient.threshold)
    assert type(pm.witness) is ct.Witness
    J, X = pm.witness.J, pm.witness.X
    assert np.allclose(J @ J, -np.eye(6)) and np.allclose(J.T @ J, np.eye(6))
    assert np.linalg.norm(X) == pytest.approx(1.0)
    assert pm.witness.value == pytest.approx(X @ cv.ricci_star(R, J) @ X)
    assert pm.witness.value < -options.search.tol


# the records that check their fields: (record, valid values, a bad field)
CHECKED = [
    (sp.ChartPoint, ("north", np.zeros(6)), {"chart_id": "east"}),
    (sp.FDConfig, (), {"h": 1.0}),
    (sp.MetricField, ("round",), {"scale": float("nan")}),
    (sr.ACSField, (), {"kind": "custom"}),
    (bd.PerturbationBudget, (0.0, 0.0), {"eps1": -1.0}),
    (ct.SearchConfig, (), {"tol": float("nan")}),
    (ct.CertifyOptions, (), {"checks": ("lemma_ll_demo",)}),
]


@pytest.mark.parametrize("record, values, bad", CHECKED,
                         ids=[r.__name__ for r, _, _ in CHECKED])
def test_replace_and_make_check_their_fields(record, values, bad):
    """``_replace`` and ``_make`` build through the record's checks, with
    the texts its constructor gives; a valid replacement still works."""
    rec = record(*values)
    fields = [bad.get(name, getattr(rec, name)) for name in record._fields]
    with pytest.raises((ConfigError, InputError)) as direct:
        record(*fields)
    for build in (lambda: rec._replace(**bad), lambda: record._make(fields)):
        with pytest.raises(type(direct.value)) as err:
            build()
        assert str(err.value) == str(direct.value)
    same = rec._replace()
    assert type(same) is record and repr(same) == repr(rec)
    assert type(record._make(list(rec))) is record


def test_only_the_checked_records_route_make_through_new():
    # the others, PMembership among them (certify_point replaces its
    # status), keep the plain namedtuple's _make
    checked = {record for record, _, _ in CHECKED}
    assert {r for r, _, _ in RECORDS if issubclass(r, sp.CheckedRecord)} == checked


def test_metric_checks_its_spec_once(monkeypatch):
    calls = []
    check = sp.check_spec
    monkeypatch.setattr(sp, "check_spec", lambda doc: calls.append(doc) or check(doc))
    metric = sp.MetricField("round")
    assert calls == [{"family": "round", "scale": 1.0}]
    assert metric.params == {} and metric.params is not sp.MetricField("round").params


def test_search_counts_accept_numpy_integers():
    assert ct.SearchConfig(multistarts=np.int64(4), seed=np.uint8(3)) == (4, 1e-9, 3)
