import dataclasses

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accelflow.clf import DEFAULT_CLF
from accelflow.config import (
    ConfigError,
    DiscreteMethodConfig,
    FlowMethodConfig,
    RunConfig,
    load_config,
    parse_config,
)
from accelflow.cli import _run_flow, main
from accelflow.control import (
    ControllerFamily,
    accelerated_newton_controller,
    polyak_controller,
    quasi_newton_flow_controller,
)


def flow_config(**method_overrides):
    method = {"kind": "flow", "controller": "polyak", "gamma_a": 2.0,
              "gamma_b": 2.0, "h": 0.01, "t_max": 5.0}
    method.update(method_overrides)
    return {"problem": {"name": "quadratic", "dim": 4, "seed": 7},
            "method": method}


def discrete_config(**method_overrides):
    method = {"kind": "discrete", "name": "heavy_ball", "alpha": 0.01,
              "beta": 0.9, "max_iters": 100}
    method.update(method_overrides)
    return {"problem": {"name": "quadratic", "dim": 4, "seed": 7},
            "method": method}


class TestProblemBlock:
    def test_defaults_fill_in(self):
        cfg = parse_config(flow_config())
        assert cfg.problem.kappa == 10.0
        assert cfg.problem.scale == 1.0
        assert cfg.problem.x0 is None

    def test_build_quadratic_honors_fields(self):
        data = flow_config()
        data["problem"].update({"dim": 6, "kappa": 50.0, "scale": 0.5})
        problem = parse_config(data).problem.build()
        assert problem.oracle.dim == 6
        eigs = np.linalg.eigvalsh(problem.oracle.hessian(problem.x0))
        assert eigs.max() / eigs.min() == pytest.approx(50.0)
        assert eigs.min() == pytest.approx(0.5)

    def test_build_rosenbrock_ignores_dim(self):
        data = flow_config()
        data["problem"] = {"name": "rosenbrock", "x0": [-1.2, 1.0]}
        problem = parse_config(data).problem.build()
        assert problem.oracle.dim == 2
        np.testing.assert_allclose(problem.x0, [-1.2, 1.0])

    def test_rosenbrock_rejects_wrong_x0_length(self):
        data = flow_config()
        data["problem"] = {"name": "rosenbrock", "x0": [1.0, 2.0, 3.0]}
        with pytest.raises(ConfigError, match="problem.x0"):
            parse_config(data)

    def test_v0_length_must_match_the_problem(self):
        data = flow_config(v0=[1.0])
        with pytest.raises(ConfigError,
                           match="method.v0: quadratic needs 4 entries, got 1"):
            parse_config(data)
        data["problem"] = {"name": "rosenbrock", "dim": 1}
        with pytest.raises(ConfigError,
                           match="method.v0: rosenbrock needs 2 entries"):
            parse_config(data)
        data["method"]["v0"] = [0.5, 0.5]
        assert parse_config(data).method.v0 == (0.5, 0.5)

    def test_unknown_problem_name(self):
        data = flow_config()
        data["problem"]["name"] = "himmelblau"
        with pytest.raises(ConfigError, match="problem.name"):
            parse_config(data)

    def test_negative_kappa_names_field(self):
        data = flow_config()
        data["problem"]["kappa"] = -2.0
        with pytest.raises(ConfigError, match="problem.kappa"):
            parse_config(data)

    def test_unknown_key_rejected(self):
        data = flow_config()
        data["problem"]["kapa"] = 10.0
        with pytest.raises(ConfigError, match="unknown field.*kapa"):
            parse_config(data)


class TestFlowMethodBlock:
    def test_minimal_parse(self):
        cfg = parse_config(flow_config())
        method = cfg.method
        assert isinstance(method, FlowMethodConfig)
        assert cfg.to_dict()["method"]["kind"] == "flow"
        assert method.metric == "euclidean"
        assert method.integrator == "rk4"
        assert method.mode == "reduced"

    def test_missing_required_field(self):
        data = flow_config()
        del data["method"]["h"]
        with pytest.raises(ConfigError, match="method.h"):
            parse_config(data)

    def test_unknown_controller(self):
        with pytest.raises(ConfigError, match="method.controller"):
            parse_config(flow_config(controller="warp_drive"))

    def test_controller_requirements_named(self):
        data = flow_config(controller="min_p_star")
        del data["method"]["gamma_a"], data["method"]["gamma_b"]
        with pytest.raises(ConfigError,
                           match="method.eta: required by controller"):
            parse_config(data)

    def test_fixed_sigma_needs_sigma_q(self):
        data = flow_config(controller="min_p", delta_mode="fixed_sigma")
        del data["method"]["gamma_a"], data["method"]["gamma_b"]
        with pytest.raises(ConfigError, match="method.sigma_q"):
            parse_config(data)

    def test_invalid_clf_rejected_at_parse(self):
        data = flow_config(clf={"a": 1.0, "b": 1.0, "c": 2.0})
        with pytest.raises(ConfigError, match="method.clf"):
            parse_config(data)

    def test_invalid_direct_gains_rejected_at_parse(self):
        data = flow_config(controller="direct", gamma_c=2.0)
        data["method"]["gamma_a"] = 1.0
        data["method"]["gamma_b"] = -1.0
        with pytest.raises(ConfigError, match="method:"):
            parse_config(data)

    def test_default_clf_used_when_absent(self):
        cfg = parse_config(flow_config())
        assert cfg.method.clf_params() == DEFAULT_CLF

    def test_build_controller_dispatch(self):
        spec = parse_config(
            flow_config(controller="min_p_star", eta=2.0)).method \
            .build_controller()
        assert spec.family is ControllerFamily.MIN_P_STAR
        assert spec.rate_eta == 2.0

    def test_enum_converters(self):
        cfg = parse_config(flow_config(integrator="semi_implicit_euler",
                                       mode="full_primal_dual", t_max=0.02))
        record = _run_flow(cfg, cfg.problem.build(),
                           cfg.method.build_controller())
        assert record.meta["method"] == "semi_implicit_euler"
        assert record.meta["mode"] == "full_primal_dual"

    @pytest.mark.parametrize("controller, factory", [
        ("polyak", lambda ga, gb, floor: polyak_controller(ga, gb)),
        ("accel_newton", accelerated_newton_controller),
        ("quasi_newton", quasi_newton_flow_controller),
    ])
    @pytest.mark.parametrize("metric", ["euclidean", "hessian"])
    def test_named_momentum_flows_are_their_factories(self, controller,
                                                      factory, metric):
        # the name fixes the metric; method.metric does not enter
        method = parse_config(flow_config(
            controller=controller, gamma_a=3.0, gamma_b=5.0, metric=metric,
            eig_floor=1e-3)).method
        built = method.build_controller()
        expected = factory(3.0, 5.0, 1e-3)
        for f in dataclasses.fields(expected):
            if f.name != "metric":
                assert getattr(built, f.name) == getattr(expected, f.name), \
                    f.name
        for f in dataclasses.fields(expected.metric):
            assert getattr(built.metric, f.name) \
                == getattr(expected.metric, f.name), f.name

    def test_nonpositive_h_rejected(self):
        with pytest.raises(ConfigError, match="method.h"):
            parse_config(flow_config(h=0.0))


class TestDiscreteMethodBlock:
    def test_minimal_parse(self):
        cfg = parse_config(discrete_config())
        method = cfg.method
        assert isinstance(method, DiscreteMethodConfig)
        assert cfg.to_dict()["method"]["kind"] == "discrete"
        assert method.alpha == 0.01

    @pytest.mark.parametrize("name,missing", [
        ("heavy_ball", "beta"),
        ("nesterov1", "alpha"),
        ("cg", "beta_cg"),
        ("accel_newton", "gamma_a"),
        ("accel_qn", "h"),
    ])
    def test_per_method_requirements(self, name, missing):
        data = discrete_config(name=name)
        for key in ("alpha", "beta"):
            data["method"].pop(key, None)
        fields = {"heavy_ball": {"alpha": 0.01, "beta": 0.9},
                  "nesterov1": {"alpha": 0.01, "beta": 0.9},
                  "cg": {"alpha": 0.01, "beta_cg": 0.2},
                  "accel_newton": {"gamma_a": 1.0, "gamma_b": 1.0, "h": 0.5},
                  "accel_qn": {"gamma_a": 1.0, "gamma_b": 1.0, "h": 0.5}}
        complete = fields[name]
        data["method"].update(
            {k: v for k, v in complete.items() if k != missing})
        with pytest.raises(ConfigError, match=f"method.{missing}"):
            parse_config(data)

    def test_rule_names_accepted(self):
        data = discrete_config(name="cg", alpha="exact_line_search",
                               beta_cg="fletcher_reeves")
        del data["method"]["beta"]
        method = parse_config(data).method
        assert method.alpha == "exact_line_search"
        assert method.beta_cg == "fletcher_reeves"

    def test_unknown_rule_name_rejected(self):
        data = discrete_config(name="cg", alpha="newton_raphson",
                               beta_cg=0.2)
        del data["method"]["beta"]
        with pytest.raises(ConfigError, match="method.alpha"):
            parse_config(data)

    def test_momentum_methods_need_numeric_alpha(self):
        data = discrete_config(alpha="exact_line_search")
        with pytest.raises(ConfigError, match="numeric step"):
            parse_config(data)


class TestOtherBlocks:
    def test_output_defaults(self):
        cfg = parse_config(flow_config())
        assert cfg.output.out_dir == "runs"
        assert cfg.output.stride == 1

    def test_stride_minimum(self):
        data = flow_config()
        data["output"] = {"stride": 0}
        with pytest.raises(ConfigError, match="output.stride"):
            parse_config(data)

    def test_verify_checks_validated(self):
        data = flow_config()
        data["verify"] = {"checks": ["dissipation", "vibes"]}
        with pytest.raises(ConfigError, match=r"verify.checks\[1\]"):
            parse_config(data)

    def test_verify_effective_tol_tracks_mode(self):
        data = flow_config()
        data["verify"] = {"checks": ["dissipation"],
                          "dissipation_mode": "rate"}
        cfg = parse_config(data)
        assert cfg.verify.effective_tol() == 1e-6
        data["verify"]["dissipation_mode"] = "strict"
        assert parse_config(data).verify.effective_tol() == 1e-12
        data["verify"]["tol"] = 1e-9
        assert parse_config(data).verify.effective_tol() == 1e-9

    def test_empty_label_rejected(self):
        data = flow_config()
        data["label"] = ""
        with pytest.raises(ConfigError, match="label"):
            parse_config(data)

    def test_run_label_falls_back_to_method(self):
        assert parse_config(flow_config()).run_label() == "polyak"
        assert parse_config(discrete_config()).run_label() == "heavy_ball"
        data = flow_config()
        data["label"] = "baseline"
        assert parse_config(data).run_label() == "baseline"


class TestRoundTripAndOverrides:
    @pytest.mark.parametrize("data", [
        flow_config(),
        flow_config(controller="min_p", delta=1.0, delta_mode="taper",
                    metric="hessian", eig_floor=0.5,
                    clf={"a": 2.0, "b": 1.0, "c": -1.0,
                         "pd_hessian_mode": True},
                    mode="full_primal_dual", v0=[0.1, 0.0, 0.0, 0.0]),
        discrete_config(),
        discrete_config(name="accel_qn", gamma_a=1.0, gamma_b=2.0, h=0.5,
                        alpha=None, beta=None),
    ])
    def test_yaml_round_trip_is_lossless(self, data):
        data = {k: v for k, v in data.items()}
        if data["method"].get("alpha") is None:
            data["method"].pop("alpha", None)
            data["method"].pop("beta", None)
        cfg = parse_config(data)
        again = parse_config(yaml.safe_load(cfg.to_yaml()))
        assert again == cfg

    def test_with_seed_replaces_only_seed(self):
        cfg = parse_config(flow_config())
        reseeded = cfg.with_seed(99)
        assert reseeded.problem.seed == 99
        assert dataclasses.replace(reseeded.problem, seed=7) == cfg.problem
        assert reseeded.method == cfg.method

    def test_with_stride_and_out_dir(self):
        cfg = parse_config(flow_config())
        assert cfg.with_stride(5).output.stride == 5
        assert cfg.with_out_dir("elsewhere").output.out_dir == "elsewhere"
        assert cfg.with_out_dir("elsewhere").problem == cfg.problem


class TestLoadConfig:
    def test_loads_yaml_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(flow_config()))
        cfg = load_config(str(path))
        assert cfg.method.controller == "polyak"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="No such file"):
            load_config(str(tmp_path / "absent.yaml"))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("problem:\n  name: quadratic\n   bad_indent: 1\n")
        with pytest.raises(ConfigError, match="broken.yaml:"):
            load_config(str(path))

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError, match="config"):
            load_config(str(path))


# ---------------------------------------------------------------------------
# config fuzzer
# ---------------------------------------------------------------------------

#: mapping keys as YAML loads them: strings, and 1:, null:, on: (True)
ODD_KEYS = st.integers(-2, 2) | st.booleans() | st.none()
KEYS = st.text(max_size=6) | ODD_KEYS
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_categories=["Cs"]), max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS, inner, max_size=3), max_leaves=6)


def _fields(required, optional):
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def _problem(draw):
    name = draw(st.sampled_from(["quadratic", "rosenbrock", "log_sum_exp"]))
    dim = draw(st.integers(1, 4))
    n = 2 if name == "rosenbrock" else dim
    return draw(_fields({"name": st.just(name), "dim": st.just(dim)}, {
        "kappa": st.floats(1.0, 100.0), "scale": st.floats(0.1, 2.0),
        "terms": st.integers(2, 6), "seed": st.integers(0, 5),
        "x0": st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)}))


FLOW = _fields({
    "kind": st.just("flow"),
    "controller": st.sampled_from(
        ["min_p", "min_p_star", "direct", "momentum_flow", "polyak",
         "accel_newton", "quasi_newton", "nesterov"]),
    "h": st.floats(1e-3, 0.05), "t_max": st.floats(0.05, 0.1),
    # every controller's coefficients; the others ignore them
    "gamma_a": st.floats(0.1, 20.0), "gamma_b": st.floats(0.1, 20.0),
    "gamma_c": st.floats(-1.0, 4.0), "delta": st.floats(0.1, 10.0),
    "sigma_q": st.floats(0.1, 4.0), "eta": st.floats(0.1, 4.0),
}, {
    "metric": st.sampled_from(["euclidean", "hessian", "quasi_newton"]),
    "eig_floor": st.floats(1e-8, 1.0),
    "clf": _fields({"a": st.floats(0.5, 3.0), "b": st.floats(0.5, 3.0),
                    "c": st.floats(-2.0, 1.0)},
                   {"pd_hessian_mode": st.booleans()}),
    "delta_mode": st.sampled_from(["constant", "taper", "fixed_sigma"]),
    "integrator": st.sampled_from(["rk4", "semi_implicit_euler"]),
    "mode": st.sampled_from(["reduced", "full_primal_dual"]),
    "tol_g": st.floats(1e-8, 1.0), "tol_v": st.floats(1e-8, 1.0),
})
DISCRETE = _fields({
    "kind": st.just("discrete"),
    "name": st.sampled_from(["heavy_ball", "nesterov1", "nesterov2", "cg",
                             "accel_newton", "accel_qn"]),
    "max_iters": st.integers(1, 50),
    # every method's coefficients; the others ignore them
    "alpha": st.floats(1e-3, 0.5) | st.just("exact_line_search"),
    "beta": st.floats(0.0, 1.0),
    "beta_cg": st.floats(0.0, 1.0) | st.just("fletcher_reeves"),
    "gamma_a": st.floats(0.1, 5.0), "gamma_b": st.floats(0.1, 5.0),
    "h": st.floats(0.05, 1.0),
}, {
    "gamma": st.floats(0.0, 1.0), "eig_floor": st.floats(1e-8, 1.0),
    "tol_g": st.floats(1e-8, 1.0),
})
VERIFY = _fields({}, {
    "checks": st.lists(st.sampled_from(
        ["dissipation", "adjoint_consistency", "singular_arc",
         "stationarity"]), max_size=3),
    "dissipation_mode": st.sampled_from(["strict", "rate"]),
    "eta": st.floats(0.1, 2.0), "tol": st.floats(1e-12, 1e-3),
    "adjoint_coeff": st.floats(1.0, 1e4),
    "singular_tol": st.floats(1e-10, 1e-4),
})
PLAUSIBLE = _fields({"problem": _problem(), "method": FLOW | DISCRETE}, {
    "output": _fields({}, {"out_dir": st.just("runs"),
                           "stride": st.integers(1, 5)}),
    "verify": VERIFY, "label": st.text(min_size=1, max_size=4)})


def _mappings(doc):
    """doc and every mapping nested in it."""
    out = [doc]
    for value in doc.values():
        if isinstance(value, dict):
            out += _mappings(value)
    return out


@st.composite
def _faulty(draw, keys=KEYS, values=VALUES):
    """A plausible config with up to three faults, each in any block: a
    field dropped, or a key, known or stray, set to one of values."""
    doc = draw(PLAUSIBLE)
    for _ in range(draw(st.integers(0, 3))):
        block = draw(st.sampled_from(_mappings(doc)))
        if block and draw(st.booleans()):
            del block[draw(st.sampled_from(list(block)))]
        else:
            block[draw(keys)] = draw(values)
    return doc


@settings(max_examples=300, deadline=None)
@given(data=_faulty())
def test_parse_fuzz_accepts_or_raises_config_error(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert parse_config(yaml.safe_load(cfg.to_yaml())) == cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_faulty(keys=ODD_KEYS, values=st.integers(0, 3)))
def test_run_fuzz_exits_with_a_contract_code(fuzz_dir, capsys, doc):
    # only dropped fields and stray keys: every size stays small
    output = doc.get("output")
    doc["output"] = {**(output if isinstance(output, dict) else {}),
                     "out_dir": str(fuzz_dir / "run")}
    path = fuzz_dir / "fuzz.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    capsys.readouterr()
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
