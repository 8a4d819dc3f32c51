"""Config round-trip, file emission, and end-to-end CLI exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevolab import cli
from sevolab.cli import cli_main
from sevolab.config import (
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_from_json,
    config_hash,
    config_to_dict,
    config_to_json,
)
from sevolab.exponents import SystemParams
from sevolab.harness import FitResult, LifespanSweep
from sevolab.outputs import (
    plot_loglog,
    read_lifespan_csv,
    read_norms_csv,
    resolve_out_dir,
    write_config_echo,
    write_lifespan_csv,
    write_norms_csv,
)
from sevolab.solver import ComponentData, GridSpec, InitialData, RunResult

P22 = SystemParams(n=1, sigma=1.0, k=2, p=(2.0, 2.0))


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
        seed=draw(st.integers(0, 2 ** 31)),
    )


class TestConfig:
    @settings(max_examples=60, deadline=None)
    @given(configs())
    def test_round_trip(self, config):
        assert config_from_dict(config_to_dict(config)) == config
        assert config_from_json(config_to_json(config)) == config

    @settings(max_examples=20, deadline=None)
    @given(configs())
    def test_hash_stable_and_sensitive(self, config):
        h = config_hash(config)
        assert h == config_hash(config_from_json(config_to_json(config)))
        bumped = config_from_dict(
            apply_overrides(config_to_dict(config), ["seed=999999999999"]))
        assert config_hash(bumped) != h

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


def fake_run(times, k=2, seed=3):
    rng = np.random.default_rng(seed)
    shape = (k, times.size)
    return RunResult(
        params=P22, times=times, l2=rng.uniform(0.1, 2.0, shape),
        hsigma=rng.uniform(0.1, 2.0, shape),
        sup=rng.uniform(0.1, 2.0, shape),
        mean=rng.normal(0.0, 1.0, shape), blown_up=False,
        blowup_time=None, snapshots=(), steps=7, data_report={})


class TestOutputs:
    def test_norms_csv_bit_exact(self, tmp_path):
        res = fake_run(np.geomspace(0.1, 97.3, 23))
        path = write_norms_csv(tmp_path / "norms.csv", res)
        text = path.read_text()
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
        assert 0.0 < doc["dt_min"] <= doc["dt_max"]
        if policy == "fixed":
            assert doc["rejected_steps"] == 0
            assert doc["dt_max"] == 0.05

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

    def test_testfunc_pass_and_eta_failure(self, capsys):
        assert cli_main(["testfunc"]) == 0
        assert cli_main(["testfunc", "--set", "options.mu=2"]) == 2

    def test_convergence(self, capsys):
        assert cli_main(["convergence"]) == 0
        out = capsys.readouterr().out
        assert "halving ratio" in out
        assert "pass" in out

    def test_not_subcritical_is_runtime_error(self, capsys):
        code = cli_main(["lifespan", "--p", "3,4"])
        assert code == 1
        assert "NotSubcritical" in capsys.readouterr().err


# subcommand -> config kind (the blow-up kind answers to `simulate`)
KINDS = {"exponents": "exponents", "kernels": "kernels",
         "simulate": "blowup", "decay": "decay", "lifespan": "lifespan",
         "testfunc": "testfunc", "convergence": "convergence"}
SETTABLE = [(cmd, section, key) for cmd, kind in KINDS.items()
            for section in ("options", "tolerances")
            for key in cli._DEFAULTS[kind].get(section, {})]


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


class TestCliKeys:
    @pytest.mark.parametrize("section", ["options", "tolerances"])
    @pytest.mark.parametrize("cmd", sorted(KINDS))
    def test_misspelt_key_is_usage_error(self, cmd, section, capsys):
        assert cli_main([cmd, "--set", f"{section}.t_edn=1"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"{section}.t_edn" in err

    def test_misspelt_key_in_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"options": {"t_edn": 300.0}}))
        assert cli_main(["decay", "--config", str(cfg_file)]) == 1
        assert "options.t_edn" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,section,key", SETTABLE)
    def test_wrong_type_is_usage_error(self, cmd, section, key, capsys):
        assert cli_main([cmd, "--set", f'{section}.{key}={{"a": 1}}']) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

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
