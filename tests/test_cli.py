"""Config round-trip, file emission, and end-to-end CLI exit codes."""

import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevolab import cli, outputs
from sevolab.cli import cli_main
from sevolab.config import (
    DEFAULTS,
    KINDS as CONFIG_KINDS,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
    resolve,
)
from sevolab.exponents import SystemParams
from sevolab.harness import FitResult, LifespanSweep, decay_experiment
from sevolab.outputs import (
    plot_loglog,
    read_lifespan_csv,
    read_norms_csv,
    resolve_out_dir,
    write_config_echo,
    write_lifespan_csv,
    write_norms_csv,
)
from sevolab.solver import (
    ComponentData,
    GridSpec,
    InitialData,
    RunResult,
    run,
)


def small_config(**kw):
    base = dict(
        kind="decay",
        params=SystemParams(n=1, sigma=1.0, k=2, p=(3.0, 4.0)),
        grid=GridSpec(n=1, N=64, L=10.0),
        data=InitialData(epsilon=0.1, components=(
            ComponentData(amp0=1.0), ComponentData(amp0=0.5, amp1=0.2))),
        tolerances={"fit": 0.1},
        options={"t_end": 50.0},
    )
    base.update(kw)
    return ExperimentConfig(**base)


@st.composite
def configs(draw):
    n = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(2, 4))
    p = tuple(draw(st.floats(1.1, 5.0, allow_nan=False)) for _ in range(k))
    sigma = draw(st.sampled_from([1.0, 1.5, 2.0, 2.25]))
    params = SystemParams(n=n, sigma=sigma, k=k, p=p)
    grid = None
    data = None
    if draw(st.booleans()):
        grid = GridSpec(n=n, N=draw(st.sampled_from([16, 64, 256])),
                        L=draw(st.floats(1.0, 100.0)))
        data = InitialData(
            epsilon=draw(st.floats(1e-6, 10.0)),
            components=tuple(
                ComponentData(amp0=draw(st.floats(-2.0, 2.0)),
                              amp1=draw(st.floats(-2.0, 2.0)),
                              width=draw(st.floats(0.5, 4.0)))
                for _ in range(k)),
        )
    return ExperimentConfig(
        kind=draw(st.sampled_from(["decay", "blowup", "lifespan",
                                   "convergence"])),
        params=params, grid=grid, data=data,
        tolerances={"fit": draw(st.floats(0.01, 1.0))},
        options={"t_end": draw(st.floats(1.0, 1e4)),
                 "epsilons": [0.1, 0.2]},
        out=draw(st.sampled_from([None, "somewhere"])),
    )


class TestConfig:
    @settings(max_examples=60, deadline=None)
    @given(configs())
    def test_round_trip(self, config):
        assert config_from_dict(config_to_dict(config)) == config
        assert config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))) == config

    @settings(max_examples=20, deadline=None)
    @given(configs())
    def test_hash_stable_and_sensitive(self, config):
        h = config_hash(config)
        assert h == config_hash(config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))))
        bumped = config_from_dict(apply_overrides(
            config_to_dict(config),
            [f"options.t_end={config.options['t_end'] + 1.0}"]))
        assert config_hash(bumped) != h

    @pytest.mark.parametrize("kind", CONFIG_KINDS)
    def test_hash_is_hashlib_sha256_of_the_canonical_json(self, kind):
        config = resolve(kind, {})
        canonical = json.dumps(config_to_dict(config), sort_keys=True,
                               separators=(",", ":"))
        assert config_hash(config) == \
            hashlib.sha256(canonical.encode()).hexdigest()

    # out=None names the default directory out/decay-329c70f1d0ae
    @pytest.mark.parametrize("out,digest", [
        (None,
         "329c70f1d0ae13d2d8bc8c9a4f535fecfe10fa2d24120f798a20db501a8924f4"),
        ("out",
         "645643fd94950be3af8f19f4dc96d0dc45f71fa077f4244cb7a7fefd6771a838"),
    ])
    def test_default_decay_hash_is_pinned(self, out, digest):
        assert config_hash(resolve("decay", {}, out=out)) == digest

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            small_config(kind="nonsense")

    def test_dimension_consistency(self):
        with pytest.raises(ValueError, match="dimension"):
            small_config(params=SystemParams(n=2, sigma=1.0, k=2,
                                             p=(3.0, 4.0)))

    def test_component_count(self):
        with pytest.raises(ValueError, match="components"):
            small_config(data=InitialData(
                epsilon=0.1, components=(ComponentData(amp0=1.0),)))

    def test_overrides(self):
        doc = config_to_dict(small_config())
        apply_overrides(doc, [
            "data.epsilon=0.25",
            "params.p=2.5,3.5",
            "options.flag=true",
            "data.components.0.amp0=-1.5",
            "tolerances.extra=0.07",
        ])
        cfg = config_from_dict(doc)
        assert cfg.data.epsilon == 0.25
        assert cfg.params.p == (2.5, 3.5)
        assert cfg.options["flag"] is True
        assert cfg.data.components[0].amp0 == -1.5
        assert cfg.tolerances["extra"] == 0.07

    def test_bad_override(self):
        with pytest.raises(ValueError, match="path=value"):
            apply_overrides({}, ["no_equals_sign"])

    def test_whole_number_sizes_are_stored_as_int(self):
        cfg = config_from_dict(apply_overrides(
            config_to_dict(small_config()),
            ["params.n=1.0", "grid.N=64.0", "grid.L=10"]))
        assert cfg == small_config()
        assert type(cfg.params.n) is int and type(cfg.grid.N) is int
        assert type(cfg.grid.L) is float


def fake_run(times, k=2, seed=3):
    rng = np.random.default_rng(seed)
    shape = (k, times.size)
    return RunResult(
        times=times, l2=rng.uniform(0.1, 2.0, shape),
        hsigma=rng.uniform(0.1, 2.0, shape),
        sup=rng.uniform(0.1, 2.0, shape),
        mean=rng.normal(0.0, 1.0, shape), blowup_time=None,
        u_final=None, steps=7)


def norms_csv_by_cell(result):
    """Reference norms.csv text, converting one cell at a time."""
    k = result.l2.shape[0]
    names = ["t"] + [f"{stem}_{ell + 1}" for stem in ("l2", "hs", "sup",
                                                      "mean")
                     for ell in range(k)]
    lines = [",".join(names)]
    for j, t in enumerate(result.times):
        row = [repr(float(t))]
        for block in (result.l2, result.hsigma, result.sup, result.mean):
            row += [repr(float(block[ell, j])) for ell in range(k)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestOutputs:
    def test_norms_csv_bit_exact(self, tmp_path):
        res = fake_run(np.geomspace(0.1, 97.3, 23))
        path = write_norms_csv(tmp_path / "norms.csv", res)
        text = path.read_text()
        assert text == norms_csv_by_cell(res)
        assert text.startswith("t,l2_1,l2_2,hs_1,hs_2,sup_1,sup_2,"
                               "mean_1,mean_2\n")
        assert text.endswith("\n")
        back = read_norms_csv(path)
        assert np.array_equal(back["t"], res.times)
        assert np.array_equal(back["l2"], res.l2)
        assert np.array_equal(back["hs"], res.hsigma)
        assert np.array_equal(back["sup"], res.sup)
        assert np.array_equal(back["mean"], res.mean)

    def test_pipeline_determinism_bit_identical_csv(self, tmp_path):
        from sevolab.harness import decay_experiment
        params = SystemParams(n=1, sigma=1.0, k=2, p=(3.0, 4.0))
        grid = GridSpec(n=1, N=256, L=40.0)
        data = InitialData(epsilon=1e-3, components=(
            ComponentData(amp0=1.0), ComponentData(amp0=1.0)))
        paths = []
        for name in ("a.csv", "b.csv"):
            rep = decay_experiment(params, grid, data, t_end=100.0,
                                   window=(10.0, 90.0))
            paths.append(write_norms_csv(tmp_path / name, rep.run))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lifespan_csv(self, tmp_path):
        fit = FitResult(slope=-2.0, intercept=1.0, r_squared=1.0,
                        window=(0.1, 0.4), expected=-2.0, tolerance=0.3,
                        passed=True)
        sweep = LifespanSweep(epsilons=(0.4, 0.2, 0.1),
                              lifespans=(7.25, 31.5, None),
                              capped=(False, False, True), fit=fit,
                              monotone=True)
        path = write_lifespan_csv(tmp_path / "lifespan.csv", sweep)
        eps, T = read_lifespan_csv(path)
        assert np.array_equal(eps, [0.4, 0.2, 0.1])
        assert T[0] == 7.25 and T[1] == 31.5 and np.isnan(T[2])

    def test_plot_is_wellformed_svg(self, tmp_path):
        t = np.geomspace(1.0, 100.0, 40)
        fit = FitResult(slope=-0.5, intercept=0.0, r_squared=1.0,
                        window=(2.0, 80.0), expected=-0.5, tolerance=0.1,
                        passed=True)
        path = plot_loglog(tmp_path / "p.svg",
                           [(t, t ** -0.5, "a"), (t, 2.0 * t ** -0.25, "b")],
                           fit=fit, guide_slope=-0.5, title="demo")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root.iter())) > 20

    def test_plot_keeps_label_and_colour_with_their_curve(self, tmp_path):
        # the first curve has no point a log axis can show; the second
        # keeps its own label and colour
        t = np.geomspace(1.0, 100.0, 40)
        path = plot_loglog(tmp_path / "p.svg",
                           [(t, 0.0 * t, "empty"), (t, t ** -0.5, "kept")])
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        (curve,) = root.iter(ns + "polyline")
        assert curve.get("stroke") == outputs._COLORS[1]
        labels = [el.text for el in root.iter(ns + "text")]
        assert "kept" in labels and "empty" not in labels
        legend = [el for el in root.iter(ns + "line")
                  if el.get("stroke-width") == "2"]
        assert [el.get("stroke") for el in legend] == [outputs._COLORS[1]]

    def test_plot_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to plot"):
            plot_loglog(tmp_path / "p.svg",
                        [(np.array([1.0]), np.array([-1.0]), "bad")])

    def test_config_echo_has_hash(self, tmp_path):
        cfg = small_config()
        path = write_config_echo(tmp_path, cfg)
        doc = json.loads(path.read_text())
        assert doc["sha256"] == config_hash(cfg)
        assert config_from_dict(doc["config"]) == cfg

    def test_out_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEVOLAB_OUT", str(tmp_path / "root"))
        cfg = small_config(out=None)
        path = resolve_out_dir(cfg)
        assert path.parent == tmp_path / "root"
        assert path.name == f"decay-{config_hash(cfg)[:12]}"
        explicit = small_config(out=str(tmp_path / "explicit"))
        assert resolve_out_dir(explicit) == tmp_path / "explicit"


class TestCliExitCodes:
    def test_exponents_example(self, capsys):
        code = cli_main(["exponents", "--n", "1", "--sigma", "1",
                         "--p", "2,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma = (1, 1)" in out
        assert "Subcritical" in out
        assert "lifespan exponent: -2" in out

    def test_seven_component_exponents(self, tmp_path):
        # valid, with chain terms 1e4 times its loss-of-decay entries
        p = ("4.485382925887668,2.0681185844721064,5.519067938946438,"
             "4.463737070884823,8.336778171722319,8.394226269946335,"
             "4.717215590912812")
        code = cli_main(["exponents", "--n", "2", "--sigma",
                         "2.797593651072492", "--p", p,
                         "--out", str(tmp_path / "exp")])
        assert code == 0
        doc = json.loads((tmp_path / "exp" / "exponents.json").read_text())
        assert doc["classification"] == "Subcritical"
        assert len(doc["epsilon_seq"]) == 7

    def test_module_entry_point_warns_nothing(self):
        # importing the package must not import sevolab.cli first, or
        # runpy warns that the module it is about to run is loaded
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "sevolab.cli", "exponents"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr

    def test_overflowing_run_warns_nothing(self, tmp_path):
        # |u|^70 of data at 1e5 overflows on the first step; run() judges
        # the non-finite fields itself, so numpy has nothing to report
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "overflow"
        proc = subprocess.run(
            [sys.executable, "-m", "sevolab.cli", "simulate", "--p", "70,70",
             "--set", "data.epsilon=1e5", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr
        assert json.loads((out / "run.json").read_text())["blown_up"] is True

    def test_unallocatable_schedule_is_an_error_line(self, tmp_path):
        # 1e11 record times do not fit an address space of 3 GB: numpy's
        # MemoryError is reported like the other runtime errors; one BLAS
        # thread keeps numpy's own reservations far below the limit
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 30,) * 2)

        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, SEVOLAB_OUT=str(tmp_path),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "sevolab.cli", "simulate", "--set",
             "options.outputs=100000000000"], preexec_fn=limit,
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_supercritical_exponents_print_and_write_decay(self, tmp_path,
                                                           capsys):
        out = tmp_path / "exp"
        assert cli_main(["exponents", "--p", "3,4", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "decay L2: (" in printed and "decay Hsigma: (" in printed
        doc = json.loads((out / "exponents.json").read_text())
        assert len(doc["decay_l2"]) == len(doc["decay_hsigma"]) == 2

    def test_flags_are_set_shorthands_applied_first(self):
        args = cli.build_parser().parse_args([
            "decay", "--n", "1", "--sigma", "1.5", "--p", "2.5,3",
            "--epsilon", "0.002", "--set", "params.sigma=2"])
        config = cli._resolve_config(args, "decay")
        assert config.params == SystemParams(n=1, sigma=2.0, k=2,
                                             p=(2.5, 3.0))
        assert config.data.epsilon == 0.002

    def test_singular_system_is_usage_error(self, capsys):
        code = cli_main(["exponents", "--p", "1.0,2"])
        assert code == 1
        assert "SingularSystem" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert cli_main([]) == 1

    def test_kernels_pass_and_fail(self, capsys):
        assert cli_main(["kernels"]) == 0
        assert cli_main(["kernels", "--set",
                         "tolerances.profile=0.001"]) == 2

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = cli_main(["simulate", "--out", str(out)])
        assert code == 0
        assert "blow-up at T" in capsys.readouterr().out
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["blown_up"] is True
        assert 5.0 < run_doc["blowup_time"] < 25.0
        assert (out / "norms.csv").exists()
        assert (out / "config.json").exists()

    def test_simulate_short_of_blowup(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--epsilon", "0.25", "--set",
                         "options.t_end=5", "--out", str(out)]) == 0
        assert "completed to t = 5 (" in capsys.readouterr().out
        assert json.loads((out / "run.json").read_text())["blown_up"] is False
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["config"]["data"]["epsilon"] == 0.25

    def test_decay_short_run(self, tmp_path, capsys):
        out = tmp_path / "dec"
        code = cli_main(["decay", "--set", "options.t_end=400",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "decay.json").read_text())
        assert all(f["passed"] for f in doc["l2"] + doc["hsigma"])
        assert doc["xnorm_passed"] is True
        ET.parse(out / "decay.svg")

    @pytest.mark.parametrize("argv, name, policy", [
        (["decay", "--set", "options.t_end=400"], "decay.json", "adaptive"),
        (["simulate", "--set", "options.dt_policy=fixed"], "run.json",
         "fixed"),
    ])
    def test_step_statistics_written(self, tmp_path, capsys, argv, name,
                                     policy):
        out = tmp_path / "stats"
        assert cli_main(argv + ["--out", str(out)]) == 0
        doc = json.loads((out / name).read_text())
        assert doc["steps"] > 0 and doc["rejected_steps"] >= 0
        assert doc["floor_steps"] == 0
        assert 0.0 < doc["dt_min"] <= doc["dt_max"]
        if policy == "fixed":
            assert doc["rejected_steps"] == 0
            assert doc["dt_max"] == 0.05

    def test_floor_steps_written(self, tmp_path, capsys):
        # dt sets the adaptive floor dt / 1024, where steps over the
        # tolerance are taken anyway
        out = tmp_path / "floor"
        assert cli_main(["simulate", "--set", "options.dt=50",
                         "--out", str(out)]) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["blown_up"] is True
        assert 0 < doc["floor_steps"] <= doc["steps"]

    def test_decay_respects_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "data": {"epsilon": 0.002,
                     "components": [{"amp0": 1.0}, {"amp0": 1.0}]},
            "options": {"t_end": 300.0},
        }))
        out = tmp_path / "dec2"
        code = cli_main(["decay", "--config", str(cfg_file),
                         "--out", str(out)])
        assert code == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["config"]["data"]["epsilon"] == 0.002
        assert echoed["config"]["options"]["t_end"] == 300.0

    def test_missing_config_file(self, capsys):
        assert cli_main(["decay", "--config", "/nonexistent.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_lifespan_cheap_sweep_fails_tolerance(self, tmp_path, capsys):
        # the large-epsilon range is pre-asymptotic: slope -1.53 misses
        # -2 +- 0.3, so the verdict exit code must be 2
        out = tmp_path / "life"
        code = cli_main([
            "lifespan", "--out", str(out),
            "--set", "grid.N=1024", "--set", "grid.L=80.0",
            "--set", "options.epsilons=[0.3,0.4,0.5,0.6]",
        ])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        eps, T = read_lifespan_csv(out / "lifespan.csv")
        assert np.array_equal(eps, [0.6, 0.5, 0.4, 0.3])
        assert np.all(np.diff(T) > 0)
        ET.parse(out / "lifespan.svg")

    def test_blowup_times_carry_their_error_bars(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert cli_main(["simulate", "--out", str(sim)]) == 0
        doc = json.loads((sim / "run.json").read_text())
        T, err = doc["blowup_time"], doc["blowup_error"]
        assert 0.0 < err < 1e-3 * T
        assert f"blow-up at T = {T:.6g} +- {err:.2g}" \
            in capsys.readouterr().out
        life = tmp_path / "life"
        cli_main(["lifespan", "--out", str(life),
                  "--set", "grid.N=1024", "--set", "grid.L=80.0",
                  "--set", "options.epsilons=[0.3,0.4,0.5,0.6]"])
        doc = json.loads((life / "lifespan.json").read_text())
        assert len(doc["lifespan_errors"]) == 4
        out = capsys.readouterr().out
        for eps, T, err in zip(doc["epsilons"], doc["lifespans"],
                               doc["lifespan_errors"]):
            assert 0.0 < err < 1e-3 * T
            assert f"epsilon {eps:<8g} T = {T:.6g} +- {err:.2g}" in out
        assert (life / "lifespan.csv").read_text().startswith("epsilon,T\n")

    def test_testfunc_pass_and_eta_failure(self, capsys):
        assert cli_main(["testfunc"]) == 0
        assert cli_main(["testfunc", "--set", "options.mu=2"]) == 2

    def test_infinite_lam_is_refused(self, capsys):
        # lam' = lam / (lam - 1) is nan at lam = inf: no condition to judge
        assert cli_main(["testfunc", "--set", "options.lam=Infinity"]) == 1
        captured = capsys.readouterr()
        assert "lam" in captured.err
        assert "eta condition" not in captured.out

    @pytest.mark.parametrize("argv, code", [
        (["kernels", "--set", "tolerances.profile=0.001"], 2),
        (["testfunc", "--set", "options.mu=2"], 2),
        (["decay", "--set", "options.t_end=400",
          "--set", "tolerances.fit=0"], 2),
        (["convergence", "--set", "tolerances.tail=1e-20"], 2),
        (["lifespan", "--set", "grid.N=1024", "--set", "grid.L=80.0",
          "--set", "options.epsilons=[0.3,0.4,0.5,0.6]"], 2),
        # condition flags classify the system and judge nothing
        (["exponents", "--sigma", "1.25",
          "--p", "3.0833333333333335,6"], 0),
    ], ids=["kernels", "testfunc", "decay", "convergence", "lifespan",
            "exponents"])
    def test_exit_code_follows_the_verdict_lines(self, argv, code, tmp_path,
                                                 capsys):
        assert cli_main(argv + ["--out", str(tmp_path / "out")]) == code
        out = capsys.readouterr().out
        failed = any(line.endswith(" FAIL") or ": FAIL (" in line
                     for line in out.splitlines())
        assert failed == (code == 2)

    def test_convergence(self, capsys):
        assert cli_main(["convergence"]) == 0
        out = capsys.readouterr().out
        assert "halving ratio" in out
        assert "pass" in out

    def test_not_subcritical_is_runtime_error(self, capsys):
        code = cli_main(["lifespan", "--p", "3,4"])
        assert code == 1
        assert "NotSubcritical" in capsys.readouterr().err

    def test_critical_system_gets_no_decay_verdict(self, tmp_path, capsys):
        # max gamma = n/(2 sigma) up to an ulp below: neither regime flag
        # holds, so no rate is predicted and decay refuses to run
        system = ["--sigma", "1.25", "--p", "3.0833333333333335,6"]
        assert cli_main(["exponents", *system]) == 0
        out = capsys.readouterr().out
        assert "classification: Critical" in out
        assert "gamma_supercritical=FAIL, gamma_subcritical=FAIL" in out
        assert "decay L2" not in out and "decay Hsigma" not in out
        code = cli_main(["decay", *system, "--out", str(tmp_path)])
        assert code == 1
        assert "ConditionsUnmet" in capsys.readouterr().err
        assert not (tmp_path / "decay.json").exists()


class TestLifespanGrid:
    """The default `lifespan` grid against one of 2N points on the same
    box: T's spatial error must stay far below its step error (about
    1.5e-4 relative)."""

    CONFIG = config_from_dict(dict(DEFAULTS["lifespan"],
                                   kind="lifespan"))

    def blowup(self, N, eps, center=0.0):
        cfg = self.CONFIG
        comps = tuple(dataclasses.replace(c, center=(center,))
                      for c in cfg.data.components)
        # T does not depend on t_end once the run blows up before it
        return run(cfg.params, dataclasses.replace(cfg.grid, N=N),
                   InitialData(eps, comps), t_end=1e6, dt=cfg.options["dt"],
                   dt_policy=cfg.options["dt_policy"], outputs=0)

    @pytest.mark.parametrize("eps", [0.4, 0.05])
    def test_centred_data_is_resolved(self, eps):
        # measured: 3.2e-8 relative at eps = 0.4, 1e-14 at 0.05
        N = self.CONFIG.grid.N
        coarse, fine = (self.blowup(n, eps).blowup_time for n in (N, 2 * N))
        assert coarse == pytest.approx(fine, rel=1e-6, abs=0.0)

    def test_off_node_data_moves_t_within_a_quarter_bar(self):
        # both centres half a cell (L/N) off a node of the default grid:
        # T moves by 1.1e-5 relative, 0.24 of its bar
        N, L = self.CONFIG.grid.N, self.CONFIG.grid.L
        coarse, fine = (self.blowup(n, 0.4, L / N) for n in (N, 2 * N))
        assert (abs(coarse.blowup_time - fine.blowup_time)
                <= 0.25 * coarse.blowup_error)


class TestDecayGrid:
    """The default `decay` grid against one of 2N points on the same box:
    the A6 slopes and the steps must not move."""

    CONFIG = config_from_dict(dict(DEFAULTS["decay"], kind="decay"))

    def decay(self, N, center):
        cfg = self.CONFIG
        comps = tuple(dataclasses.replace(c, center=(center,))
                      for c in cfg.data.components)
        return decay_experiment(
            cfg.params, dataclasses.replace(cfg.grid, N=N),
            InitialData(cfg.data.epsilon, comps), **cfg.options,
            fit_tolerance=cfg.tolerances["fit"])

    # measured: bit-identical, centred and with both centres half a cell
    # of N = 512 off a node
    @pytest.mark.parametrize("center", [0.0, 0.078125])
    def test_slopes_and_steps_match_the_finer_grid(self, center):
        N = self.CONFIG.grid.N
        coarse, fine = (self.decay(n, center) for n in (N, 2 * N))
        assert coarse.run.steps == fine.run.steps
        for a, b in zip(coarse.l2 + coarse.hsigma, fine.l2 + fine.hsigma,
                        strict=True):
            assert a.slope == pytest.approx(b.slope, rel=1e-9, abs=0.0)


# subcommand -> config kind, read off the CLI's own table
KINDS = {cmd: kind for cmd, (kind, *_) in cli.COMMANDS.items()}
SETTABLE = [(cmd, section, key) for cmd, kind in KINDS.items()
            for section in ("options", "tolerances")
            for key in DEFAULTS[kind].get(section, {})]


class _Reads(Mapping):
    """Read-only view that logs each key looked up, ** unpacking included."""

    def __init__(self, data, log):
        self._data, self._log = data, log

    def __getitem__(self, key):
        self._log.add(key)
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


class _Stop(Exception):
    pass


# every config section a command's document has; None is the top level
MISSPELT = [(cmd, section) for cmd in sorted(KINDS)
            for section in ("options", "tolerances", "params", "grid", "data",
                            "data.components.0", None)
            if section in (None, "options", "tolerances")
            or section.split(".")[0] in DEFAULTS[KINDS[cmd]]]


# 10^400, an integer past the largest float (about 1.8e308)
BIG = "1" + "0" * 400


class TestCliKeys:
    def test_one_set_of_kinds(self):
        # config derives its kinds from its defaults, and every
        # subcommand looks one of them up
        assert (set(CONFIG_KINDS) == set(DEFAULTS)
                == set(KINDS.values()))
        assert len(CONFIG_KINDS) == len(set(CONFIG_KINDS))

    @pytest.mark.parametrize("cmd,section", MISSPELT)
    def test_misspelt_key_is_usage_error(self, cmd, section, capsys):
        path = "t_edn" if section is None else f"{section}.t_edn"
        assert cli_main([cmd, "--set", f"{path}=1"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "t_edn" in err
        if section in ("options", "tolerances"):
            assert path in err

    @pytest.mark.parametrize("argv", [
        ["exponents", "--set", "params.n=1.5", "--p", "3,4"],
        ["simulate", "--set", "grid.N=256.9"],
    ])
    def test_non_integer_size_is_usage_error(self, argv, capsys):
        assert cli_main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,name", [
        pytest.param(["simulate", "--set", "data.epsilon=NaN"], "epsilon",
                     id="epsilon-nan"),
        pytest.param(["simulate", "--set", "data.epsilon=Infinity"],
                     "epsilon", id="epsilon-inf"),
        pytest.param(["simulate", "--set", "data.components.0.amp1=NaN"],
                     "amp1", id="amp1-nan"),
        pytest.param(["simulate", "--set", "data.components.0.center=[NaN]"],
                     "center", id="center-nan"),
        pytest.param(["simulate", "--set", "grid.L=Infinity"], "L",
                     id="L-inf"),
        pytest.param(["simulate", "--set", "options.t_end=Infinity"],
                     "t_end", id="t_end-inf"),
        pytest.param(["simulate", "--set", "options.dt=Infinity"], "dt",
                     id="dt-inf"),
        pytest.param(["simulate", "--p", "2,Infinity"], "exponent",
                     id="p-inf"),
        pytest.param(["exponents", "--sigma", "Infinity"], "sigma",
                     id="sigma-inf"),
        pytest.param(["kernels", "--set", "tolerances.profile=NaN"],
                     "profile", id="profile-nan"),
        pytest.param(["decay", "--set", "tolerances.fit=Infinity"], "fit",
                     id="fit-inf"),
        pytest.param(["testfunc", "--set", "options.nu_list=[Infinity]"],
                     "nu", id="nu-inf"),
        pytest.param(["testfunc", "--set", "options.nu_list=[NaN]"], "nu",
                     id="nu-nan"),
        pytest.param(["lifespan", "--set", "options.cap_factor=Infinity"],
                     "cap_factor", id="cap_factor-inf"),
        pytest.param(["lifespan", "--set", "options.first_cap=NaN"],
                     "first_cap", id="first_cap-nan"),
        pytest.param(["lifespan", "--set", "grid.N=256", "--set",
                      "options.epsilons=[Infinity,0.1,0.2,0.4]"],
                     "epsilons", id="epsilons-inf"),
        pytest.param(["lifespan", "--set", "grid.N=256", "--set",
                      "options.epsilons=[NaN,0.1,0.2,0.4]"],
                     "epsilons", id="epsilons-nan"),
    ])
    def test_non_finite_input_is_refused(self, argv, name, tmp_path,
                                         capsys):
        out = tmp_path / "out"
        assert cli_main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"{name} must be" in captured.err
        assert "finite" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv,path", [
        (["decay", "--set", f"tolerances.fit={BIG}"], "tolerances.fit"),
        (["simulate", "--set", f"options.t_end={BIG}"], "options.t_end"),
        (["simulate", "--set", f"data.epsilon={BIG}"], "data.epsilon"),
        (["simulate", "--set", f"params.sigma={BIG}"], "params.sigma"),
        (["simulate", "--set", f"grid.L={BIG}"], "grid.L"),
        (["lifespan", "--set", f"options.epsilons=[0.1,0.2,0.3,{BIG}]"],
         "options.epsilons.3"),
    ], ids=["fit", "t_end", "epsilon", "sigma", "L", "epsilons"])
    def test_integer_too_large_for_a_float_is_refused(self, argv, path,
                                                      tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"usage error: {path} is an integer too large" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_integer_too_large_for_a_float_in_config_file(self, tmp_path,
                                                          capsys):
        cfg_file, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg_file.write_text(json.dumps({"data": {"epsilon": int(BIG)}}))
        assert cli_main(["simulate", "--config", str(cfg_file),
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "usage error: data.epsilon is an integer" in captured.err
        assert captured.out == "" and not out.exists()

    def test_ordinary_integers_are_echoed_as_given(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["simulate", "--set", "options.t_end=5",
                         "--out", str(out)]) == 0
        doc = json.loads((out / "config.json").read_text())
        assert doc["config"]["options"]["t_end"] == 5
        assert type(doc["config"]["options"]["t_end"]) is int

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "options.outputs=-1"],
        ["decay", "--set", "options.outputs=-3"],
    ], ids=["simulate", "decay"])
    def test_negative_outputs_is_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "outputs must be nonnegative" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("override", [
        "data.components.5.amp0=1", "grid.N.x=1", "grid.N.x.y=1",
        "data.components.x.amp0=1"])
    def test_override_past_the_document_is_usage_error(self, override,
                                                       capsys):
        assert cli_main(["simulate", "--set", override]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "no such path" in err
        assert "Traceback" not in err

    def test_misspelt_key_in_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"options": {"t_edn": 300.0}}))
        assert cli_main(["decay", "--config", str(cfg_file)]) == 1
        assert "options.t_edn" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,message", [
        ({"options": [300.0]}, "options must be a JSON object"),
        ([{"options": {}}], "config document must be a JSON object"),
    ], ids=["options-list", "top-level-list"])
    def test_config_file_of_wrong_shape(self, doc, message, tmp_path,
                                        capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        assert cli_main(["decay", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and message in err

    @pytest.mark.parametrize("cmd,section,key", SETTABLE)
    def test_wrong_type_is_usage_error(self, cmd, section, key, capsys):
        assert cli_main([cmd, "--set", f'{section}.{key}={{"a": 1}}']) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,section,key", [
        (cmd, section, key) for cmd, section, key in SETTABLE
        if isinstance(DEFAULTS[KINDS[cmd]][section][key], list)])
    def test_empty_list_is_usage_error(self, cmd, section, key, tmp_path,
                                       capsys):
        out = tmp_path / "out"
        assert cli_main([cmd, "--set", f"{section}.{key}=[]",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (f"usage error: {section}.{key} must not be empty"
                in captured.err)
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("value", ["64.0", "true", "abc", "[64]"])
    def test_wrong_scalar_type_is_usage_error(self, value, capsys):
        assert cli_main(["simulate", "--set", f"options.outputs={value}"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", sorted(KINDS))
    def test_echo_names_exactly_what_is_read(self, cmd, tmp_path,
                                             monkeypatch):
        reads = {"options": set(), "tolerances": set()}
        echoed = {}
        resolve = cli._resolve_config

        def recording_resolve(args, kind):
            config = resolve(args, kind)
            doc = json.loads(write_config_echo(tmp_path, config).read_text())
            echoed.update({s: set(doc["config"][s]) for s in reads})
            return dataclasses.replace(
                config,
                options=_Reads(config.options, reads["options"]),
                tolerances=_Reads(config.tolerances, reads["tolerances"]))

        def stop(*args, **kwargs):
            raise _Stop

        monkeypatch.setattr(cli, "_resolve_config", recording_resolve)
        # every command reads its configuration before its first call
        # into the library, so stopping there sees every read
        for name in ("report", "decay_profile", "run", "decay_experiment",
                     "lifespan_sweep", "check_scaling", "convergence_study"):
            monkeypatch.setattr(cli, name, stop)
        with pytest.raises(_Stop):
            cli_main([cmd])
        assert reads == echoed
