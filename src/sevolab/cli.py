"""Command-line surface.

One subcommand per experiment kind (the single-run blow-up experiment
answers to `simulate`).  Every run resolves a full ExperimentConfig
from built-in defaults, an optional --config JSON file, dotted --set
overrides, and convenience flags, in that order; the resolved config
and its hash are echoed into the output directory next to the data.
The built-in defaults name every option and tolerance a kind reads;
any other key, or a value of another type, is a usage error.

Exit codes: 0 all verdicts pass, 2 some verdict failed, 1 usage or
runtime error.
"""

from __future__ import annotations

import argparse
import copy
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, apply_overrides, config_from_dict
from .errors import ConditionViolated, SevolabError
from .exponents import report
from .harness import convergence_study, decay_experiment, lifespan_sweep
from .kernels import decay_profile
from .outputs import (
    plot_loglog,
    resolve_out_dir,
    write_config_echo,
    write_json,
    write_lifespan_csv,
    write_norms_csv,
)
from .solver import GridSpec, run
from .testfunc import (
    check_scaling,
    check_weight_decay,
    verify_eta_condition,
    weight_decay_exponent,
)

PASS, USAGE_ERROR, VERDICT_FAILED = 0, 1, 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _keyword_defaults(fn, *names, **renamed) -> dict:
    """Keyword defaults of fn under their config names (a keyword passed
    as config_name="parameter" is renamed), so fn's signature stays the
    only copy of each value.  Tuples become JSON lists."""
    params = inspect.signature(fn).parameters
    out = {}
    for key, name in [(n, n) for n in names] + list(renamed.items()):
        value = params[name].default
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


_DEFAULTS = {
    "exponents": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
    },
    "kernels": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
        "tolerances": {"profile": 0.05},
    },
    "blowup": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
        "grid": {"N": 256, "L": 40.0},
        "data": {"epsilon": 0.3, "components": [
            {"amp0": 1.0, "amp1": 1.0}, {"amp0": 1.0, "amp1": 1.0}]},
        "options": {"t_end": 200.0, "dt": 0.05, "dt_policy": "adaptive",
                    **_keyword_defaults(run, "outputs", "linear_only")},
    },
    "decay": {
        "params": {"n": 1, "sigma": 1.0, "p": [3.0, 4.0]},
        "grid": {"N": 512, "L": 40.0},
        "data": {"epsilon": 1e-3, "components": [
            {"amp0": 1.0}, {"amp0": 1.0}]},
        "options": _keyword_defaults(decay_experiment, "t_end", "dt",
                                     "dt_policy", "outputs", "linear_only"),
        "tolerances": _keyword_defaults(decay_experiment,
                                        fit="fit_tolerance"),
    },
    "lifespan": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
        "grid": {"N": 2048, "L": 160.0},
        "data": {"epsilon": 0.4, "components": [
            {"amp0": 0.25, "amp1": 0.25}, {"amp0": 0.25, "amp1": 0.25}]},
        "options": {"epsilons": [0.05, 0.1, 0.2, 0.4],
                    **_keyword_defaults(lifespan_sweep, "dt", "dt_policy",
                                        "first_cap", "cap_factor")},
        "tolerances": _keyword_defaults(lifespan_sweep,
                                        lifespan="fit_tolerance"),
    },
    "testfunc": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
        "options": {"nu_list": [0.5, 1.0, 1.5], "r_list": [2, 4, 8],
                    "lam": 2.0,
                    **_keyword_defaults(verify_eta_condition, "mu")},
        "tolerances": {"scaling": 1e-3, "stability": 0.1},
    },
    "convergence": {
        "params": {"n": 1, "sigma": 1.0, "p": [3.0, 4.0]},
        "grid": {"N": 256, "L": 20.0},
        "data": {"epsilon": 0.5, "components": [
            {"amp0": 1.0, "amp1": 0.5}, {"amp0": 0.8, "amp1": -0.3}]},
        "options": _keyword_defaults(convergence_study, "t_end",
                                     "dt_ladder", "dt_reference",
                                     "n_ladder", "linear_only"),
        "tolerances": {"ratio_low": 3.0, "ratio_high": 5.0,
                       "tail": 1e-10},
    },
}


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _fits(value, default) -> bool:
    """Whether value may stand where default stands: ints pass for
    floats, only bools pass for bools, lists are checked item by item."""
    if isinstance(default, list):
        return isinstance(value, list) and all(
            _fits(v, default[0]) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _check_keys(doc: dict, kind: str):
    for section in ("options", "tolerances"):
        known = _DEFAULTS[kind].get(section, {})
        given = doc.get(section, {})
        if not isinstance(given, dict):
            raise UsageError(f"{section} must be a JSON object")
        for key, value in given.items():
            if key not in known:
                raise UsageError(
                    f"unknown key {section}.{key}; {kind} knows "
                    f"{', '.join(sorted(known)) or 'none'}")
            if not _fits(value, known[key]):
                raise UsageError(
                    f"{section}.{key} = {value!r} does not match the "
                    f"type of its default {known[key]!r}")


def _resolve_config(args, kind: str) -> ExperimentConfig:
    doc = copy.deepcopy(_DEFAULTS[kind])
    doc["kind"] = kind
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        _deep_update(doc, json.loads(path.read_text()))
        doc["kind"] = kind  # the subcommand, not the file, picks the kind
    if getattr(args, "n", None) is not None:
        doc["params"]["n"] = args.n
    if getattr(args, "sigma", None) is not None:
        doc["params"]["sigma"] = args.sigma
    if getattr(args, "p", None) is not None:
        doc["params"]["p"] = [float(x) for x in args.p.split(",")]
    if getattr(args, "epsilon", None) is not None:
        doc.setdefault("data", {})["epsilon"] = args.epsilon
    if args.set:
        apply_overrides(doc, args.set)
    if args.out:
        doc["out"] = args.out
    _check_keys(doc, kind)
    try:
        return config_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}") from exc


def _emit(config: ExperimentConfig):
    out_dir = resolve_out_dir(config)
    write_config_echo(out_dir, config)
    return out_dir


def _fit_dict(fit) -> dict:
    return {
        "slope": fit.slope, "intercept": fit.intercept,
        "r_squared": fit.r_squared, "window": list(fit.window),
        "expected": fit.expected, "tolerance": fit.tolerance,
        "passed": fit.passed,
    }


def _step_stats(result) -> dict:
    """Accepted and rejected step counts and the accepted dt range."""
    return {"steps": result.steps, "rejected_steps": result.rejected_steps,
            "dt_min": result.dt_min, "dt_max": result.dt_max}


def _cmd_exponents(args) -> int:
    config = _resolve_config(args, "exponents")
    rep = report(config.params)
    lines = [
        f"system: n={config.params.n} sigma={config.params.sigma} "
        f"p={config.params.p}",
        f"gamma = ({', '.join(f'{g:.6g}' for g in rep.gamma.gamma)})",
        f"max gamma = {rep.gamma.max:.6g} vs n/(2 sigma) = "
        f"{config.params.n / (2 * config.params.sigma):.6g}",
        f"classification: {rep.classification}",
        "lifespan exponent: " + (
            f"{rep.lifespan_exponent:.6g}" if rep.lifespan_exponent is not None
            else "n/a (not subcritical)"),
        f"loss of decay (eps={rep.eps}): "
        f"({', '.join(f'{e:.6g}' for e in rep.epsilon_seq)})",
        "conditions: " + ", ".join(
            f"{name}={'ok' if ok else 'FAIL'}"
            for name, ok in rep.condition_flags.items()),
    ]
    if rep.decay_L2:
        lines.append(
            f"decay L2: ({', '.join(f'{d:.6g}' for d in rep.decay_L2)})")
        lines.append(
            f"decay Hsigma: "
            f"({', '.join(f'{d:.6g}' for d in rep.decay_Hsigma)})")
    for note in rep.notes:
        lines.append(f"note: {note}")
    print("\n".join(lines))
    if args.out:
        out_dir = _emit(config)
        write_json(out_dir / "exponents.json", {
            "gamma": list(rep.gamma.gamma),
            "classification": rep.classification,
            "lifespan_exponent": rep.lifespan_exponent,
            "epsilon_seq": list(rep.epsilon_seq),
            "decay_l2": list(rep.decay_L2),
            "decay_hsigma": list(rep.decay_Hsigma),
            "condition_flags": rep.condition_flags,
            "notes": list(rep.notes),
        })
    return PASS


def _cmd_kernels(args) -> int:
    config = _resolve_config(args, "kernels")
    n, sigma = config.params.n, config.params.sigma
    tol = config.tolerances["profile"]
    cases = (("L2L2", sigma), ("L2L2", 2.0 * sigma), ("L1L2", 0.0))
    failed = False
    rows = []
    for regime, s in cases:
        prof = decay_profile(s, regime, n, sigma)
        ok = abs(prof.slope - prof.expected) <= tol
        failed |= not ok
        rows.append((regime, s, prof))
        print(f"{regime} s={s:<4g} slope {prof.slope:+.4f} "
              f"expected {prof.expected:+.4f} r2 {prof.r_squared:.5f} "
              f"{'pass' if ok else 'FAIL'}")
    if args.out:
        out_dir = _emit(config)
        write_json(out_dir / "kernels.json", {
            f"{regime}_s{s:g}": {
                "slope": prof.slope, "expected": prof.expected,
                "r_squared": prof.r_squared}
            for regime, s, prof in rows})
        for regime, s, prof in rows:
            plot_loglog(
                out_dir / f"profile_{regime}_s{s:g}.svg",
                [(np.array(prof.t), np.array(prof.values), f"{regime} s={s:g}")],
                guide_slope=prof.expected,
                title=f"multiplier decay {regime}, s={s:g}, n={n}, "
                      f"sigma={sigma:g}",
                ylabel="profile")
    return VERDICT_FAILED if failed else PASS


def _cmd_simulate(args) -> int:
    config = _resolve_config(args, "blowup")
    result = run(config.params, config.grid, config.data, **config.options)
    out_dir = _emit(config)
    write_norms_csv(out_dir / "norms.csv", result)
    verdict = {
        "blown_up": result.blown_up,
        "blowup_time": result.blowup_time,
        **_step_stats(result),
        "t_final": float(result.times[-1]),
    }
    write_json(out_dir / "run.json", verdict)
    curves = [(result.times, result.l2[ell], f"l2 comp {ell + 1}")
              for ell in range(config.params.k)]
    try:
        plot_loglog(out_dir / "norms.svg", curves,
                    title="L2 norms", ylabel="L2 norm")
    except ValueError:
        pass  # an immediate blow-up can leave nothing plottable
    if result.blown_up:
        print(f"blow-up at T = {result.blowup_time:.6g} "
              f"({result.steps} steps)")
    else:
        print(f"completed to t = {result.times[-1]:.6g} "
              f"({result.steps} steps), sup norms "
              f"{tuple(float(s) for s in result.sup[:, -1])}")
    print(f"outputs: {out_dir}")
    return PASS


def _cmd_decay(args) -> int:
    config = _resolve_config(args, "decay")
    rep = decay_experiment(
        config.params, config.grid, config.data,
        fit_tolerance=config.tolerances["fit"], **config.options,
    )
    out_dir = _emit(config)
    write_norms_csv(out_dir / "norms.csv", rep.run)
    summary = {
        "window": list(rep.window),
        "l2": [_fit_dict(f) for f in rep.l2],
        "hsigma": [_fit_dict(f) for f in rep.hsigma],
        "xnorm_ratios": list(rep.xnorm_ratios),
        "xnorm_passed": rep.xnorm_passed,
        **_step_stats(rep.run),
    }
    write_json(out_dir / "decay.json", summary)
    failed = not rep.xnorm_passed
    for ell in range(config.params.k):
        for name, fit in (("L2", rep.l2[ell]), ("Hsigma", rep.hsigma[ell])):
            failed |= not fit.passed
            print(f"comp {ell + 1} {name:<6} slope {fit.slope:+.4f} "
                  f"expected {fit.expected:+.4f} +- {fit.tolerance:.3f} "
                  f"r2 {fit.r_squared:.5f} "
                  f"{'pass' if fit.passed else 'FAIL'}")
    print(f"window [{rep.window[0]:.6g}, {rep.window[1]:.6g}]  "
          f"xnorm ratios {tuple(round(r, 3) for r in rep.xnorm_ratios)} "
          f"{'pass' if rep.xnorm_passed else 'FAIL'}")
    times = rep.run.times
    sel = times > 0
    plot_loglog(
        out_dir / "decay.svg",
        [(times[sel], rep.run.l2[ell][sel], f"l2 comp {ell + 1}")
         for ell in range(config.params.k)],
        fit=rep.l2[-1], guide_slope=rep.l2[-1].expected,
        title="component L2 decay", ylabel="L2 norm")
    print(f"outputs: {out_dir}")
    return VERDICT_FAILED if failed else PASS


def _cmd_lifespan(args) -> int:
    config = _resolve_config(args, "lifespan")
    sweep = lifespan_sweep(
        config.params, config.grid, config.data.components,
        fit_tolerance=config.tolerances["lifespan"], **config.options,
    )
    out_dir = _emit(config)
    write_lifespan_csv(out_dir / "lifespan.csv", sweep)
    write_json(out_dir / "lifespan.json", {
        "epsilons": list(sweep.epsilons),
        "lifespans": list(sweep.lifespans),
        "capped": list(sweep.capped),
        "fit": _fit_dict(sweep.fit),
        "monotone": sweep.monotone,
    })
    for eps, T, capped in zip(sweep.epsilons, sweep.lifespans, sweep.capped):
        print(f"epsilon {eps:<8g} T = "
              + (f"{T:.6g}" if T is not None else "cap exceeded"))
    ok = bool(sweep.fit.passed) and sweep.monotone
    print(f"fitted slope {sweep.fit.slope:+.4f} expected "
          f"{sweep.fit.expected:+.4f} +- {sweep.fit.tolerance:.2f} "
          f"r2 {sweep.fit.r_squared:.5f} monotone {sweep.monotone} "
          f"{'pass' if ok else 'FAIL'}")
    pairs = [(e, t) for e, t in zip(sweep.epsilons, sweep.lifespans)
             if t is not None]
    plot_loglog(
        out_dir / "lifespan.svg",
        [(np.array([e for e, _ in pairs]), np.array([t for _, t in pairs]),
          "T(epsilon)")],
        fit=sweep.fit, guide_slope=sweep.fit.expected,
        title="lifespan scaling", xlabel="epsilon", ylabel="T")
    print(f"outputs: {out_dir}")
    return VERDICT_FAILED if not ok else PASS


def _cmd_testfunc(args) -> int:
    config = _resolve_config(args, "testfunc")
    opts = config.options
    n, sigma = config.params.n, config.params.sigma
    nu_list, r_list = opts["nu_list"], opts["r_list"]
    lam, mu = opts["lam"], opts["mu"]
    scaling_tol = config.tolerances["scaling"]
    stability_tol = config.tolerances["stability"]
    failed = False
    scaling = {}
    for nu in nu_list:
        for R in r_list:
            err = check_scaling(nu, R)
            ok = err < scaling_tol
            failed |= not ok
            scaling[f"nu{nu:g}_R{R}"] = err
            print(f"scaling nu={nu:<4g} R={R}: rel err {err:.3e} "
                  f"{'pass' if ok else 'FAIL'}")
    stability = {}
    for nu in nu_list:
        q = weight_decay_exponent(nu, n)
        if q <= n:  # weighted sup needs an integrable weight margin
            continue
        coarse = check_weight_decay(GridSpec(n=n, N=2048, L=64.0), nu, q)
        fine = check_weight_decay(GridSpec(n=n, N=4096, L=64.0), nu, q)
        drift = abs(fine - coarse) / max(abs(fine), abs(coarse))
        ok = drift <= stability_tol
        failed |= not ok
        stability[f"nu{nu:g}"] = {"coarse": coarse, "fine": fine,
                                  "drift": drift}
        print(f"weight decay nu={nu:<4g} q={q:g}: sup {fine:.6g} "
              f"drift {drift:.2%} {'pass' if ok else 'FAIL'}")
    try:
        sup = verify_eta_condition(lam, mu=mu)
        print(f"eta condition lam'={lam / (lam - 1.0):g} mu={mu}: "
              f"sup {sup:.6g} pass")
        eta = {"sup": sup, "violated": False}
    except ConditionViolated as exc:
        print(f"eta condition mu={mu}: FAIL ({exc})")
        eta = {"sup": None, "violated": True}
        failed = True
    if args.out:
        out_dir = _emit(config)
        write_json(out_dir / "testfunc.json", {
            "scaling": scaling, "stability": stability, "eta": eta})
    return VERDICT_FAILED if failed else PASS


def _cmd_convergence(args) -> int:
    config = _resolve_config(args, "convergence")
    tols = config.tolerances
    lo, hi, tail_tol = tols["ratio_low"], tols["ratio_high"], tols["tail"]
    rep = convergence_study(config.params, config.grid, config.data,
                            **config.options)
    failed = False
    for dt, err in zip(rep.dt_ladder, rep.errors):
        print(f"dt {dt:<10g} error {err:.6e}")
    for r in rep.ratios:
        ok = lo <= r <= hi
        failed |= not ok
        print(f"halving ratio {r:.3f} {'pass' if ok else 'FAIL'}")
    for N, tail in zip(rep.n_ladder, rep.tails):
        print(f"N {N:<6d} spectral tail {tail:.3e}")
    tail_ok = rep.tails[-1] < tail_tol
    failed |= not tail_ok
    print(f"resolved tail {rep.tails[-1]:.3e} < {tail_tol:g} "
          f"{'pass' if tail_ok else 'FAIL'}")
    if args.out:
        out_dir = _emit(config)
        write_json(out_dir / "convergence.json", {
            "dt_ladder": list(rep.dt_ladder),
            "errors": list(rep.errors),
            "ratios": list(rep.ratios),
            "n_ladder": list(rep.n_ladder),
            "tails": list(rep.tails),
        })
    return VERDICT_FAILED if failed else PASS


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--set", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="dotted-path config override, repeatable")
    common.add_argument("--out", help="output directory")
    common.add_argument("--n", type=int, help="space dimension")
    common.add_argument("--sigma", type=float, help="operator exponent")
    common.add_argument("--p", help="coupling powers, comma separated")

    parser = _Parser(prog="sevolab", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    sub.add_parser("exponents", parents=[common],
                   help="exponent calculus report").set_defaults(
        func=_cmd_exponents)
    sub.add_parser("kernels", parents=[common],
                   help="multiplier decay profiles").set_defaults(
        func=_cmd_kernels)
    sim = sub.add_parser("simulate", parents=[common],
                         help="single run with blow-up verdict")
    sim.add_argument("--epsilon", type=float, help="data size")
    sim.set_defaults(func=_cmd_simulate)
    dec = sub.add_parser("decay", parents=[common],
                         help="decay-rate experiment")
    dec.add_argument("--epsilon", type=float, help="data size")
    dec.set_defaults(func=_cmd_decay)
    sub.add_parser("lifespan", parents=[common],
                   help="lifespan scaling sweep").set_defaults(
        func=_cmd_lifespan)
    sub.add_parser("testfunc", parents=[common],
                   help="test-function lemma checks").set_defaults(
        func=_cmd_testfunc)
    sub.add_parser("convergence", parents=[common],
                   help="temporal and spectral convergence").set_defaults(
        func=_cmd_convergence)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if getattr(args, "cmd", None) is None:
        parser.print_help()
        return USAGE_ERROR
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SevolabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyboardInterrupt:
        print("interrupted; outputs written so far are kept",
              file=sys.stderr)
        return USAGE_ERROR


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
