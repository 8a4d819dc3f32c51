"""Experiment configuration: one JSON document per experiment.

The document fully determines a run (system, grid, data, knobs,
tolerances), round-trips losslessly, and is hashed so every output
directory can name the exact configuration that produced it.  `resolve`
merges a document and dotted overrides over a kind's DEFAULTS, which
name every option and tolerance it reads and type each one.
"""

from __future__ import annotations

import copy
import inspect
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .exponents import SystemParams
from .harness import convergence_study, decay_experiment, lifespan_sweep
from .solver import ComponentData, GridSpec, InitialData, run
from .testfunc import verify_eta_condition

# CPython's own SHA-256 (the digest hashlib gives), imported without
# hashlib, whose OpenSSL backend maps libcrypto into the process: about
# 3.5 MiB resident and 5 ms of import, to hash one short config echo
if sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256


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


DEFAULTS = {
    "exponents": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
    },
    "kernels": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
        "tolerances": {"profile": 0.05},
    },
    "decay": {
        "params": {"n": 1, "sigma": 1.0, "p": [3.0, 4.0]},
        # sized by the A6 slopes against N = 512 and 1024: bit-identical,
        # as are the 18 steps, centred or off a node
        "grid": {"N": 256, "L": 40.0},
        "data": {"epsilon": 1e-3, "components": [
            {"amp0": 1.0}, {"amp0": 1.0}]},
        "options": _keyword_defaults(decay_experiment, "t_end", "dt",
                                     "dt_policy", "outputs", "linear_only"),
        "tolerances": _keyword_defaults(decay_experiment,
                                        fit="fit_tolerance"),
    },
    "blowup": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
        "grid": {"N": 256, "L": 40.0},
        "data": {"epsilon": 0.3, "components": [
            {"amp0": 1.0, "amp1": 1.0}, {"amp0": 1.0, "amp1": 1.0}]},
        "options": {"t_end": 200.0, "dt": 0.05, "dt_policy": "adaptive",
                    **_keyword_defaults(run, "outputs", "linear_only")},
    },
    "lifespan": {
        "params": {"n": 1, "sigma": 1.0, "p": [2.0, 2.0]},
        # sized by T's spatial error against N = 2048: 3e-8 relative for
        # these centred bumps, up to 1.1e-5 with both centres half a cell
        # off a node, against a step error of about 1.5e-4
        "grid": {"N": 1024, "L": 160.0},
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
KINDS = tuple(DEFAULTS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description.

    grid and data may be None for kinds that need neither (exponents,
    kernels, testfunc).  tolerances and options are free-form scalar
    maps.
    """

    kind: str
    params: SystemParams
    grid: GridSpec | None = None
    data: InitialData | None = None
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; pick one of "
                f"{', '.join(KINDS)}"
            )
        if self.grid is not None and self.grid.n != self.params.n:
            raise ValueError(
                f"grid dimension {self.grid.n} != system dimension "
                f"{self.params.n}"
            )
        if self.data is not None and len(self.data.components) != self.params.k:
            raise ValueError(
                f"{len(self.data.components)} data components for a "
                f"{self.params.k}-component system"
            )


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config's fields as JSON, so tuples become the lists that
    overrides index into, without the derived params.k and grid.n."""
    doc = json.loads(json.dumps(asdict(config)))
    del doc["params"]["k"]
    if config.grid is not None:
        del doc["grid"]["n"]
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Inverse of config_to_dict.  Each section goes to its dataclass
    as it is, so an unknown key is a TypeError and the dataclasses
    check and convert the values."""
    p = doc["params"]["p"]
    if not isinstance(p, (list, tuple)):
        raise ValueError(f"p must be a list of exponents, got {p!r}")
    params = SystemParams(k=len(p), **doc["params"])
    grid, data = doc.get("grid"), doc.get("data")
    if grid is not None:
        grid = GridSpec(n=params.n, **grid)
    if data is not None:
        data = InitialData(**data | {"components": tuple(
            ComponentData(**c) for c in data["components"])})
    return ExperimentConfig(**doc | {"params": params, "grid": grid,
                                     "data": data})


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def _parse_value(text: str):
    """JSON if it parses, else a comma list, else the bare string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if "," in text:
            return [_parse_value(item) for item in text.split(",")]
        return text


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply `dotted.path=value` assignments to a config document.

    Integer segments index into lists (data.components.0.amp0=2);
    missing dict levels are created on the way down.  A path that runs
    past the end of a list or into a scalar is a ValueError.
    """
    for assignment in assignments:
        if "=" not in assignment:
            raise ValueError(
                f"override {assignment!r} is not of the form path=value"
            )
        path, _, raw = assignment.partition("=")
        keys = path.split(".")
        value = _parse_value(raw)
        node = doc
        try:
            for key in keys[:-1]:
                if isinstance(node, list):
                    node = node[int(key)]
                else:
                    node = node.setdefault(key, {})
            last = keys[-1]
            node[int(last) if isinstance(node, list) else last] = value
        except (AttributeError, IndexError, TypeError, ValueError):
            raise ValueError(
                f"override {assignment!r}: no such path") from None
    return doc


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
        known = DEFAULTS[kind].get(section, {})
        given = doc.get(section, {})
        if not isinstance(given, dict):
            raise ValueError(f"{section} must be a JSON object")
        for key, value in given.items():
            if key not in known:
                raise ValueError(
                    f"unknown key {section}.{key}; {kind} knows "
                    f"{', '.join(sorted(known)) or 'none'}")
            if not _fits(value, known[key]):
                raise ValueError(
                    f"{section}.{key} = {value!r} does not match the "
                    f"type of its default {known[key]!r}")
            if value == []:
                raise ValueError(f"{section}.{key} must not be empty")
            if section == "tolerances" and not np.isfinite(value):
                raise ValueError(
                    f"tolerances.{key} must be finite, got {value!r}")


def _check_magnitudes(value, path: str = ""):
    """Refuse an int too large for a float anywhere in value, naming its
    dotted path.  The int is compared, not converted, so that the echo
    and the hash keep every other int as it was given."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            _check_magnitudes(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{path} is an integer too large for a float")


def resolve(kind: str, doc: dict, overrides=(),
            out: str | None = None) -> ExperimentConfig:
    """kind's defaults, then doc, the dotted overrides and out, checked
    against the defaults; kind wins over any kind they name.  Every
    refusal is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a config document must be a JSON object")
    merged = _deep_update(copy.deepcopy(DEFAULTS[kind]), doc)
    apply_overrides(merged, overrides)
    merged["kind"] = kind
    if out:
        merged["out"] = out
    _check_magnitudes(merged)
    _check_keys(merged, kind)
    try:
        return config_from_dict(merged)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad configuration: {exc}") from exc
