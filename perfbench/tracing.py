"""Outside-in tracing of one sevolab CLI call.

The program is not changed.  After import, `install` replaces each
listed entry point at every module attribute that binds it with a
wrapper that records one span per call: name, binding site, start,
end, parent span, whether it raised, and a size (elements for table
builds, bytes for transforms).  Spans stay in memory; `layer_metrics`
reduces them to the per-layer numbers once the call has returned.

A layer's self time is its spans' durations minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
import time

import numpy as np

# (span name, defining module, attribute, modules that call it through
# their own binding).  install() requires each of those bindings; the
# self-test requires at least one call through each.
ENTRY_POINTS = (
    ("solver.run", "sevolab.solver", "run",
     ("sevolab.harness", "sevolab.cli")),
    ("solver.step", "sevolab.solver", "step", ("sevolab.solver",)),
    ("solver.norms", "sevolab.solver", "norms", ("sevolab.solver",)),
    ("solver.make_initial_data", "sevolab.solver", "make_initial_data",
     ("sevolab.solver", "sevolab.harness")),
    ("kernels.propagator_arrays", "sevolab.kernels", "propagator_arrays",
     ("sevolab.solver",)),
    ("harness.decay_experiment", "sevolab.harness", "decay_experiment",
     ("sevolab.cli",)),
    ("harness.lifespan_sweep", "sevolab.harness", "lifespan_sweep",
     ("sevolab.cli",)),
    ("harness.convergence_study", "sevolab.harness", "convergence_study",
     ("sevolab.cli",)),
    ("harness.fit_power_law", "sevolab.harness", "fit_power_law",
     ("sevolab.harness",)),
    ("outputs.resolve_out_dir", "sevolab.outputs", "resolve_out_dir",
     ("sevolab.cli",)),
    ("outputs.write_config_echo", "sevolab.outputs", "write_config_echo",
     ("sevolab.cli",)),
    ("outputs.write_json", "sevolab.outputs", "write_json",
     ("sevolab.cli",)),
    ("outputs.write_norms_csv", "sevolab.outputs", "write_norms_csv",
     ("sevolab.cli",)),
    ("outputs.write_lifespan_csv", "sevolab.outputs", "write_lifespan_csv",
     ("sevolab.cli",)),
    ("outputs.plot_loglog", "sevolab.outputs", "plot_loglog",
     ("sevolab.cli",)),
)

# Every complex, real and Hermitian transform of both FFT namespaces.
FFT_NAMES = {
    "numpy.fft": ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                  "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                  "hfft", "ihfft"),
    "scipy.fft": ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                  "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                  "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn"),
}

CLI_SPAN = "cli"
FFT_SPAN = "fft"

NAME, SITE, START, END, PARENT, RAISED, SIZE = range(7)


class CoverageError(RuntimeError):
    """A listed entry point or binding is missing from the program."""


def _points(args, kwargs, out):
    t = args[0] if args else kwargs["t"]
    a = args[1] if len(args) > 1 else kwargs["a"]
    return int(np.broadcast(np.asarray(t), np.asarray(a)).size)


def _fft_bytes(args, kwargs, out):
    x = args[0] if args else kwargs.get("x", kwargs.get("a"))
    return int(getattr(x, "nbytes", 0)) + int(getattr(out, "nbytes", 0))


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, site, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, site, clock(), 0.0,
                   stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _bind_everywhere(self, orig, name, modules, size=None):
        """Replace `orig` at every attribute of `modules` that is it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr,
                            self.wrap(orig, name, mod.__name__, size))

    def install(self):
        """Wrap every entry point and transform; raise CoverageError
        when one the benchmark relies on is missing."""
        for mod in ("sevolab.cli", "numpy.fft", "scipy.fft"):
            importlib.import_module(mod)
        program = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == "sevolab" or n.startswith("sevolab."))]
        for name, home, attr, callers in ENTRY_POINTS:
            orig = getattr(sys.modules[home], attr, None)
            if orig is None:
                raise CoverageError(f"{home}.{attr} is missing")
            for mod in callers:
                if getattr(sys.modules[mod], attr, None) is not orig:
                    raise CoverageError(
                        f"{mod}.{attr} no longer binds {home}.{attr}")
            size = _points if name == "kernels.propagator_arrays" else None
            self._bind_everywhere(orig, name, program, size)
        for ns, names in FFT_NAMES.items():
            space = sys.modules[ns]
            for attr in names:
                orig = getattr(space, attr, None)
                if orig is None:
                    raise CoverageError(f"{ns}.{attr} is missing")
                self._bind_everywhere(orig, FFT_SPAN, program + [space],
                                      _fft_bytes)

    def write_spans(self, path):
        """Spans as gzipped CSV, one row per call, times in seconds
        from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,site,start_s,end_s,parent,raised,size\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[SITE]},{s[START] - t0:.9f},"
                         f"{s[END] - t0:.9f},{s[PARENT]},{int(s[RAISED])},"
                         f"{s[SIZE]}\n")


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans):
    """Per-layer counts and times of one traced CLI call.

    The tables hit ratio is 1 - builds / lookups, where every step()
    call looks the tables up once and a build is a propagator_arrays
    call made from the solver module (an lru_cache miss).
    """
    own = _self_times(spans)

    def pick(pred):
        return [(s, t) for s, t in zip(spans, own) if pred(s)]

    def named(name):
        return pick(lambda s: s[NAME] == name)

    def total(pairs):
        return sum(s[END] - s[START] for s, _ in pairs)

    def self_s(pairs):
        return sum(t for _, t in pairs)

    steps = named("solver.step")
    norms = named("solver.norms")
    builds = pick(lambda s: s[NAME] == "kernels.propagator_arrays"
                  and s[SITE] == "sevolab.solver")
    tables = named("kernels.propagator_arrays")
    ffts = named(FFT_SPAN)
    harness = pick(lambda s: s[NAME].startswith("harness."))
    outputs = pick(lambda s: s[NAME].startswith("outputs."))
    n_steps = len(steps)
    return {
        "solver.step.calls": n_steps,
        "solver.step.raised": sum(1 for s, _ in steps if s[RAISED]),
        "solver.step.self_s": self_s(steps),
        "solver.step.median_ms": (
            1e3 * statistics.median(t for _, t in steps) if steps else 0.0),
        "solver.norms.calls": len(norms),
        "solver.norms.self_s": self_s(norms),
        "solver.run.self_s": self_s(named("solver.run")),
        "solver.tables.builds": len(builds),
        "solver.tables.lookups": n_steps,
        "solver.tables.hit_ratio": (
            1.0 - len(builds) / n_steps if n_steps else 0.0),
        "kernels.propagator_arrays.total_s": total(tables),
        "kernels.propagator_arrays.points": sum(s[SIZE] for s, _ in tables),
        "fft.calls": len(ffts),
        "fft.per_step": len(ffts) / n_steps if n_steps else 0.0,
        "fft.total_s": total(ffts),
        "fft.bytes_computed": sum(s[SIZE] for s, _ in ffts),
        "harness.self_s": self_s(harness),
        "harness.fit_power_law.calls": len(named("harness.fit_power_law")),
        "outputs.total_s": total(outputs),
        "cli.self_s": self_s(named(CLI_SPAN)),
    }


def calls_by_binding(spans):
    """Call counts keyed by 'span name@binding module'."""
    counts = {}
    for s in spans:
        key = f"{s[NAME]}@{s[SITE]}"
        counts[key] = counts.get(key, 0) + 1
    return counts
