"""One benchmark run in a fresh interpreter: ``qdecay <cmd>``, then ``analyze``.

    python3 bench/child.py ROOT COMMAND CONFIG OUT_DIR TRACE RESULT

Imports ``qdecay`` from ``ROOT/src`` and calls ``qdecay.cli.main`` twice with
``--threads 1``.  Writes one JSON object to RESULT.  Its timestamps come from
``time.monotonic`` (the system-wide monotonic clock), so the parent can
subtract the time it spawned this process.  With TRACE 1 the layer entry
points are wrapped (see ``tracing.py``) and the per-layer figures are added.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time


def _first_call(fn, marks: dict):
    """Wrap ``fn`` so the time of its first call lands in ``marks["engine"]``."""

    def wrapper(*args, **kwargs):
        marks.setdefault("engine", time.monotonic())
        return fn(*args, **kwargs)

    return wrapper


def _count_rows_and_bytes(paths):
    rows = 0
    size = 0
    for path in paths:
        size += os.path.getsize(path)
        if path.endswith(".csv"):
            with open(path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows, size


def main(argv) -> int:
    root, command, config, out_dir, trace, result_path = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy as np
    from qdecay import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != os.path.abspath(src):
        print(f"qdecay imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1

    marks: dict = {}
    written: list = []
    tracer = None
    if trace == "1":
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(cli, tracer, written)
    owner, name = {
        "decay": (cli.models, "run_decay_ensemble"),
        "homodyne": (cli, "iter_homodyne_records"),
        "rabi": (cli.rabi, "run_driven_ensemble"),
    }[command]
    setattr(owner, name, _first_call(getattr(owner, name), marks))

    t_start = time.monotonic()
    rc_run = cli.main([command, "--config", config, "--out-dir", out_dir, "--threads", "1"])
    rc_analyze = cli.main(["analyze", "--out-dir", out_dir])
    t_end = time.monotonic()

    result = {
        "engine": marks.get("engine"),
        "wall_s": t_end - t_start,
        "exit_codes": [rc_run, rc_analyze],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer, *_count_rows_and_bytes(written))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
