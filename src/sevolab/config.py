"""Experiment configuration: one JSON document per experiment.

The document fully determines a run (system, grid, data, knobs,
tolerances), round-trips losslessly, and is hashed so every output
directory can name the exact configuration that produced it.  Flags
override fields by dotted path into the JSON structure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .exponents import SystemParams
from .solver import ComponentData, GridSpec, InitialData

KINDS = ("exponents", "kernels", "decay", "blowup", "lifespan",
         "testfunc", "convergence")


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
    return {
        "kind": config.kind,
        "params": {
            "n": config.params.n,
            "sigma": config.params.sigma,
            "p": list(config.params.p),
        },
        "grid": None if config.grid is None else {
            "N": config.grid.N,
            "L": config.grid.L,
        },
        "data": None if config.data is None else {
            "epsilon": config.data.epsilon,
            "components": [asdict(c) | {"center": list(c.center)}
                           for c in config.data.components],
        },
        "tolerances": dict(config.tolerances),
        "options": dict(config.options),
        "out": config.out,
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Inverse of config_to_dict.  Each section goes to its dataclass
    as it is, so an unknown key is a TypeError and the dataclasses
    check and convert the values."""
    params = SystemParams(k=len(doc["params"]["p"]), **doc["params"])
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
    return hashlib.sha256(canonical.encode()).hexdigest()


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
