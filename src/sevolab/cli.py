"""Command-line surface.

One subcommand per experiment kind (the single-run blow-up experiment
answers to `simulate`).  Every run resolves a full ExperimentConfig
through `config.resolve`: the kind's defaults, an optional --config
JSON file, then dotted overrides, the flags --n, --sigma, --p and
--epsilon before the --set ones; the resolved config and its hash are
echoed into the output directory next to the data.  A config that
resolve refuses is a usage error.

Each subcommand yields its stdout lines, judged ones as Verdicts.  Exit
codes: 2 if a Verdict failed, else 0; 1 on a usage or runtime error.
The ok/FAIL condition flags of `exponents` never give exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

from .config import ExperimentConfig, resolve
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


@dataclass(frozen=True)
class Verdict:
    """A judged stdout line: text, then `pass`, or `FAIL` and detail."""

    text: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        return (f"{self.text} pass" if self.passed
                else f"{self.text} FAIL{self.detail}")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# each flag is a shorthand for one --set path, applied before --set
_SHORTHANDS = {"n": "params.n", "sigma": "params.sigma", "p": "params.p",
               "epsilon": "data.epsilon"}


def _resolve_config(args, kind: str) -> ExperimentConfig:
    doc = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        doc = json.loads(path.read_text())
    shorthands = [f"{key}={v if isinstance(v, str) else json.dumps(v)}"
                  for flag, key in _SHORTHANDS.items()
                  if (v := getattr(args, flag, None)) is not None]
    try:
        return resolve(kind, doc, shorthands + args.set, args.out)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(config: ExperimentConfig):
    out_dir = resolve_out_dir(config)
    write_config_echo(out_dir, config)
    return out_dir


def _step_stats(result) -> dict:
    """Accepted, rejected and uncontrolled floor step counts and the
    accepted dt range."""
    return {"steps": result.steps, "rejected_steps": result.rejected_steps,
            "floor_steps": result.floor_steps,
            "dt_min": result.dt_min, "dt_max": result.dt_max}


def _cmd_exponents(config: ExperimentConfig) -> Iterator[str | Verdict]:
    rep = report(config.params)
    yield (f"system: n={config.params.n} sigma={config.params.sigma} "
           f"p={config.params.p}")
    yield f"gamma = ({', '.join(f'{g:.6g}' for g in rep.gamma.gamma)})"
    yield (f"max gamma = {rep.gamma.max:.6g} vs n/(2 sigma) = "
           f"{config.params.fujita_ratio:.6g}")
    yield f"classification: {rep.classification}"
    yield "lifespan exponent: " + (
        f"{rep.lifespan_exponent:.6g}" if rep.lifespan_exponent is not None
        else "n/a (not subcritical)")
    yield (f"loss of decay (eps={rep.eps}): "
           f"({', '.join(f'{e:.6g}' for e in rep.epsilon_seq)})")
    yield "conditions: " + ", ".join(
        f"{name}={'ok' if ok else 'FAIL'}"
        for name, ok in rep.condition_flags.items())
    if rep.decay_L2:
        yield f"decay L2: ({', '.join(f'{d:.6g}' for d in rep.decay_L2)})"
        yield (f"decay Hsigma: "
               f"({', '.join(f'{d:.6g}' for d in rep.decay_Hsigma)})")
    for note in rep.notes:
        yield f"note: {note}"
    if config.out:
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


def _cmd_kernels(config: ExperimentConfig) -> Iterator[str | Verdict]:
    n, sigma = config.params.n, config.params.sigma
    tol = config.tolerances["profile"]
    cases = (("L2L2", sigma), ("L2L2", 2.0 * sigma), ("L1L2", 0.0))
    rows = []
    for regime, s in cases:
        prof = decay_profile(s, regime, n, sigma)
        rows.append((regime, s, prof))
        yield Verdict(f"{regime} s={s:<4g} slope {prof.slope:+.4f} "
                      f"expected {prof.expected:+.4f} r2 {prof.r_squared:.5f}",
                      abs(prof.slope - prof.expected) <= tol)
    if config.out:
        out_dir = _emit(config)
        write_json(out_dir / "kernels.json", {
            f"{regime}_s{s:g}": {
                "slope": prof.slope, "expected": prof.expected,
                "r_squared": prof.r_squared}
            for regime, s, prof in rows})
        for regime, s, prof in rows:
            plot_loglog(
                out_dir / f"profile_{regime}_s{s:g}.svg",
                [(prof.t, prof.values, f"{regime} s={s:g}")],
                guide_slope=prof.expected,
                title=f"multiplier decay {regime}, s={s:g}, n={n}, "
                      f"sigma={sigma:g}",
                ylabel="profile")


def _cmd_simulate(config: ExperimentConfig) -> Iterator[str | Verdict]:
    result = run(config.params, config.grid, config.data, **config.options)
    out_dir = _emit(config)
    write_norms_csv(out_dir / "norms.csv", result)
    verdict = {
        "blown_up": result.blown_up,
        "blowup_time": result.blowup_time,
        "blowup_error": result.blowup_error,
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
        yield (f"blow-up at T = {result.blowup_time:.6g} "
               f"+- {result.blowup_error:.2g} ({result.steps} steps)")
    else:
        yield (f"completed to t = {result.times[-1]:.6g} "
               f"({result.steps} steps), sup norms "
               f"{tuple(float(s) for s in result.sup[:, -1])}")
    yield f"outputs: {out_dir}"


def _cmd_decay(config: ExperimentConfig) -> Iterator[str | Verdict]:
    rep = decay_experiment(
        config.params, config.grid, config.data,
        fit_tolerance=config.tolerances["fit"], **config.options,
    )
    out_dir = _emit(config)
    write_norms_csv(out_dir / "norms.csv", rep.run)
    summary = {
        "window": list(rep.window),
        "l2": [asdict(f) for f in rep.l2],
        "hsigma": [asdict(f) for f in rep.hsigma],
        "xnorm_ratios": list(rep.xnorm_ratios),
        "xnorm_passed": rep.xnorm_passed,
        **_step_stats(rep.run),
    }
    write_json(out_dir / "decay.json", summary)
    for ell in range(config.params.k):
        for name, fit in (("L2", rep.l2[ell]), ("Hsigma", rep.hsigma[ell])):
            yield Verdict(f"comp {ell + 1} {name:<6} slope {fit.slope:+.4f} "
                          f"expected {fit.expected:+.4f} "
                          f"+- {fit.tolerance:.3f} r2 {fit.r_squared:.5f}",
                          fit.passed)
    yield Verdict(
        f"window [{rep.window[0]:.6g}, {rep.window[1]:.6g}]  "
        f"xnorm ratios {tuple(round(r, 3) for r in rep.xnorm_ratios)}",
        rep.xnorm_passed)
    plot_loglog(
        out_dir / "decay.svg",
        [(rep.run.times, rep.run.l2[ell], f"l2 comp {ell + 1}")
         for ell in range(config.params.k)],
        fit=rep.l2[-1], guide_slope=rep.l2[-1].expected,
        title="component L2 decay", ylabel="L2 norm")
    yield f"outputs: {out_dir}"


def _cmd_lifespan(config: ExperimentConfig) -> Iterator[str | Verdict]:
    sweep = lifespan_sweep(
        config.params, config.grid, config.data.components,
        fit_tolerance=config.tolerances["lifespan"], **config.options,
    )
    out_dir = _emit(config)
    write_lifespan_csv(out_dir / "lifespan.csv", sweep)
    write_json(out_dir / "lifespan.json", asdict(sweep))
    for eps, T, err in zip(sweep.epsilons, sweep.lifespans,
                           sweep.lifespan_errors):
        yield (f"epsilon {eps:<8g} T = "
               + (f"{T:.6g} +- {err:.2g}" if T is not None
                  else "cap exceeded"))
    yield Verdict(f"fitted slope {sweep.fit.slope:+.4f} expected "
                  f"{sweep.fit.expected:+.4f} +- {sweep.fit.tolerance:.2f} "
                  f"r2 {sweep.fit.r_squared:.5f} monotone {sweep.monotone}",
                  bool(sweep.fit.passed) and sweep.monotone)
    # a capped run's T of None becomes a NaN, which the plot drops
    plot_loglog(
        out_dir / "lifespan.svg",
        [(sweep.epsilons, sweep.lifespans, "T(epsilon)")],
        fit=sweep.fit, guide_slope=sweep.fit.expected,
        title="lifespan scaling", xlabel="epsilon", ylabel="T")
    yield f"outputs: {out_dir}"


def _cmd_testfunc(config: ExperimentConfig) -> Iterator[str | Verdict]:
    opts = config.options
    n, sigma = config.params.n, config.params.sigma
    nu_list, r_list = opts["nu_list"], opts["r_list"]
    lam, mu = opts["lam"], opts["mu"]
    scaling_tol = config.tolerances["scaling"]
    stability_tol = config.tolerances["stability"]
    scaling = {}
    for nu in nu_list:
        for R in r_list:
            err = check_scaling(nu, R)
            scaling[f"nu{nu:g}_R{R}"] = err
            yield Verdict(f"scaling nu={nu:<4g} R={R}: rel err {err:.3e}",
                          err < scaling_tol)
    stability = {}
    for nu in nu_list:
        q = weight_decay_exponent(nu, n)
        if q <= n:  # weighted sup needs an integrable weight margin
            continue
        coarse = check_weight_decay(GridSpec(n=n, N=2048, L=64.0), nu, q)
        fine = check_weight_decay(GridSpec(n=n, N=4096, L=64.0), nu, q)
        drift = abs(fine - coarse) / max(abs(fine), abs(coarse))
        stability[f"nu{nu:g}"] = {"coarse": coarse, "fine": fine,
                                  "drift": drift}
        yield Verdict(f"weight decay nu={nu:<4g} q={q:g}: sup {fine:.6g} "
                      f"drift {drift:.2%}", drift <= stability_tol)
    try:
        sup = verify_eta_condition(lam, mu=mu)
        yield Verdict(f"eta condition lam'={lam / (lam - 1.0):g} mu={mu}: "
                      f"sup {sup:.6g}", True)
        eta = {"sup": sup, "violated": False}
    except ConditionViolated as exc:
        yield Verdict(f"eta condition mu={mu}:", False, f" ({exc})")
        eta = {"sup": None, "violated": True}
    if config.out:
        out_dir = _emit(config)
        write_json(out_dir / "testfunc.json", {
            "scaling": scaling, "stability": stability, "eta": eta})


def _cmd_convergence(config: ExperimentConfig) -> Iterator[str | Verdict]:
    tols = config.tolerances
    lo, hi, tail_tol = tols["ratio_low"], tols["ratio_high"], tols["tail"]
    rep = convergence_study(config.params, config.grid, config.data,
                            **config.options)
    for dt, err in zip(rep.dt_ladder, rep.errors):
        yield f"dt {dt:<10g} error {err:.6e}"
    for r in rep.ratios:
        yield Verdict(f"halving ratio {r:.3f}", lo <= r <= hi)
    for N, tail in zip(rep.n_ladder, rep.tails):
        yield f"N {N:<6d} spectral tail {tail:.3e}"
    yield Verdict(f"resolved tail {rep.tails[-1]:.3e} < {tail_tol:g}",
                  rep.tails[-1] < tail_tol)
    if config.out:
        out_dir = _emit(config)
        write_json(out_dir / "convergence.json", asdict(rep))


# subcommand -> (config kind, handler, help, whether --epsilon sets the
# data size); the blow-up kind answers to `simulate`
COMMANDS = {
    "exponents": ("exponents", _cmd_exponents, "exponent calculus report",
                  False),
    "kernels": ("kernels", _cmd_kernels, "multiplier decay profiles", False),
    "simulate": ("blowup", _cmd_simulate, "single run with blow-up verdict",
                 True),
    "decay": ("decay", _cmd_decay, "decay-rate experiment", True),
    "lifespan": ("lifespan", _cmd_lifespan, "lifespan scaling sweep", False),
    "testfunc": ("testfunc", _cmd_testfunc, "test-function lemma checks",
                 False),
    "convergence": ("convergence", _cmd_convergence,
                    "temporal and spectral convergence", False),
}


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

    for name, (_, _, help_text, epsilon) in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        if epsilon:
            cmd.add_argument("--epsilon", type=float, help="data size")
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
    kind, handler, _, _ = COMMANDS[args.cmd]
    failed = False
    try:
        # printed as judged: a run that raises keeps the lines before it
        for line in handler(_resolve_config(args, kind)):
            print(line)
            failed |= isinstance(line, Verdict) and not line.passed
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SevolabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyboardInterrupt:
        print("interrupted; outputs written so far are kept",
              file=sys.stderr)
        return USAGE_ERROR
    return VERDICT_FAILED if failed else PASS


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
