"""One benchmark sample: a sevolab CLI call in a fresh interpreter.

Usage: python3 perfbench/worker.py REQUEST.json

The request names the CLI argv, the monotonic time at which the parent
spawned this process, a mode and the path for the result JSON:

- "setup": import numpy and sevolab and parse argv, then stop;
- "run":   the same, then time `cli_main(argv)`;
- "trace": as "run" with every entry point wrapped (see tracing.py).

setup_s runs from the spawn to the point where the process is ready
to dispatch; wall_s runs from the `cli_main` call until it returns,
which covers config resolution, the solve, the fits and the output
files.  Exits non-zero when the sample could not be taken; the CLI's
own exit code is part of the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    argv = req["argv"]

    import numpy  # noqa: F401  (part of the set-up users pay)
    from sevolab import cli

    cli.build_parser().parse_args(argv)
    setup_s = time.monotonic() - req["spawn"]
    result = {"setup_s": setup_s}
    if req["mode"] != "setup":
        tracer = None
        entry = cli.cli_main
        if req["mode"] == "trace":
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            entry = tracer.wrap(cli.cli_main, tracing.CLI_SPAN, "perfbench")
        t0 = time.perf_counter()
        rc = entry(argv)
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            layers = tracing.layer_metrics(tracer.spans)
            layers["outputs.bytes_written"] = _bytes_under(Path(req["out"]))
            result["layers"] = layers
            result["calls"] = tracing.calls_by_binding(tracer.spans)
            if req["spans"]:
                tracer.write_spans(req["spans"])
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
