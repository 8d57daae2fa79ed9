#!/usr/bin/env python3
"""qdecay benchmark: one workload, fresh single-threaded process per run.

    python3 bench/run.py --workload decay-qmop --seed 42 --seconds 40 --trace 0

Run from the root of a qdecay checkout; the program is imported from its
``src/``.  The benchmark writes the workload's JSON config (the seed is the
only field ``--seed`` changes) and then, until ``--seconds`` have passed,
spawns ``bench/child.py``, which calls ``qdecay.cli.main`` for the workload's
subcommand with ``--threads 1`` and then for ``analyze`` on the fresh run
directory.  Every run's outputs are checked (see ``gate``).

With ``--trace 0`` it reports the end-to-end metrics, medians over the runs:

* ``wall_s``: the two ``cli.main`` calls, set-up excluded;
* ``setup_s``: process spawn to the first engine call (interpreter start,
  ``import qdecay``, config load and validation);
* ``peak_rss_mb``: peak resident memory of the run's own process, from the
  rusage ``os.wait4`` returns for it.

With ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics of the traced ones (``tracing.py``), plus
``trace_overhead_s``, the traced ``wall_s`` median minus the untraced one.

Human-readable lines (medians, quartiles, sample counts, ``fail_frac`` and
every ``analyze`` check with its margin) come first; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = ROOT / ".bench_work"

# A run is killed after this long, so one invocation ends well within 180 s
# even when the program hangs.
CHILD_TIMEOUT_S = 120.0

# report.json echoes the run directory's path, so it is gated through its
# check values rather than its hash.
UNHASHED = {"report.json"}


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict  # holds the default seed
    why: str


WORKLOADS = {
    "decay-qmop": Workload(
        "decay",
        {"model": "qmop", "gamma": 1.0, "dt": 0.01, "t_max": 20.0, "n_traj": 100_000, "seed": 42},
        "headline target: 1e5 Philox streams, 2000 draws per trajectory, 7 MB of tables, "
        "analyze parses 1e5 rows",
    ),
    "homodyne-pp": Workload(
        "homodyne",
        {
            "noise": "nsm_point_process",
            "gamma": 0.01,
            "beta": 10.0,
            "dt": 0.01,
            "t_max": 5.0,
            "n_traj": 1500,
            "max_lag": 100,
            "seed": 7,
        },
        "the 750k-row signal table writer dominates; only 1500 RNG streams, so an RNG "
        "or engine change should not move it",
    ),
    "rabi-nsm": Workload(
        "rabi",
        {
            "model": "nsm",
            "gamma": 0.2,
            "beta": 0.5,
            "omega_rabi": 2.0,
            "dt": 0.0125,
            "t_max": 25.0,
            "n_traj": 40_000,
            "seed": 21,
        },
        "scalar per-trajectory event loop, 6 KB of output (a writer change should not move "
        "it), largest peak RSS",
    ),
}


def make_config(workload: str, seed: int) -> dict:
    """The workload's config with ``seed`` as its only change."""
    cfg = dict(WORKLOADS[workload].config)
    cfg["seed"] = seed
    return cfg


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_margins(report: dict) -> dict:
    """Each ``analyze`` check as value, limit, margin (limit - value) and pass flag."""
    out = {}
    for name, check in sorted(report["checks"].items()):
        if name == "decay_ks":
            value, limit = check["distance"], check["threshold"]
        elif name == "fluorescence_tail":
            value, limit = abs(check["mean_intensity"] - check["target"]), check["tolerance"]
        elif name == "autocorrelation":
            value, limit = check["dips_detected"], None
        else:
            value, limit = None, None
        out[name] = {
            "value": value,
            "limit": limit,
            "margin": None if limit is None or value is None else limit - value,
            "pass": check.get("pass"),
        }
    return out


def prepare(workload: str, seed: int) -> tuple:
    """Empty the workload's scratch directory and write its config there."""
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(make_config(workload, seed), sort_keys=True))
    return work, config_path


def run_once(command: str, config_path: Path, work: Path, trace: bool) -> dict:
    """Spawn one child run and collect its timings, rusage, hashes and checks."""
    out_dir = work / "run"
    result_path = work / "result.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(ROOT), command, str(config_path), str(out_dir)]
    argv += ["1" if trace else "0", str(result_path)]
    with open(work / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {"traced": trace, "problems": [], "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / "child.log").read_text(errors="replace").strip().splitlines()[-3:]
        run["problems"].append(f"child exited {proc.returncode}: {' | '.join(tail)}")
        return run
    result = json.loads(result_path.read_text())
    if result["exit_codes"] != [0, 0]:
        run["problems"].append(f"cli exit codes (run, analyze) {result['exit_codes']}")
        return run
    run["wall_s"] = result["wall_s"]
    run["setup_s"] = result["engine"] - t_spawn
    run["versions"] = {"python": result["python"], "numpy": result["numpy"]}
    run["layers"] = result.get("layers")
    run["sha256"] = {
        p.name: sha256(p) for p in sorted(out_dir.iterdir()) if p.name not in UNHASHED
    }
    run["checks"] = check_margins(json.loads((out_dir / "report.json").read_text()))
    return run


def gate(runs: list, reference: dict, versions: dict, default_seed: bool) -> str:
    """Add a problem to each run whose outputs are wrong; return the hash rule used.

    At the default seed, with the python and numpy versions the reference was
    recorded with, every file must hash as at the seed commit; otherwise every
    run must hash the same as the first.  In both cases the ``analyze`` checks
    that pass at the seed commit must pass.
    """
    done = [r for r in runs if "sha256" in r]
    if not done:
        return "none"
    if default_seed and all(r["versions"] == versions for r in done):
        expected, rule = reference["sha256"], "seed-commit hashes"
    else:
        expected = {name: done[0]["sha256"].get(name) for name in reference["sha256"]}
        rule = "hashes equal across runs"
    gated = [name for name, check in reference["checks"].items() if check["pass"]]
    for run in done:
        for name, digest in expected.items():
            if run["sha256"].get(name) != digest:
                run["problems"].append(f"{name}: sha256 differs ({rule})")
        for name in gated:
            if not run["checks"].get(name, {}).get("pass"):
                run["problems"].append(f"analyze check {name} failed; it passes at the seed commit")
    return rule


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summarise(name: str, values: list, unit: str) -> float:
    median = statistics.median(values)
    q1, q3 = _quartiles(values)
    print(f"  {name:24s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    return median


def _print_checks(checks: dict, reference: dict) -> None:
    for name, c in checks.items():
        status = "gated" if reference["checks"].get(name, {}).get("pass") else "recorded only"
        if c["margin"] is None:
            print(f"  check {name}: value {c['value']} ({status})")
        else:
            print(
                f"  check {name}: value {c['value']:.6g} limit {c['limit']:.6g} "
                f"margin {c['margin']:.6g} pass {c['pass']} ({status})"
            )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="the config's seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measure this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qdecay" / "cli.py").is_file():
        print(f"error: no qdecay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    recorded = json.loads(REFERENCE.read_text())
    reference = recorded["workloads"][args.workload]

    work, config_path = prepare(args.workload, args.seed)
    runs = []
    passes = []
    start = time.monotonic()
    try:
        # Start another pass only if one of median length still fits in
        # --seconds, so an invocation takes about --seconds, not up to a
        # pass more.
        while not passes or time.monotonic() + statistics.median(passes) <= start + args.seconds:
            t_pass = time.monotonic()
            runs.append(run_once(workload.command, config_path, work, trace=False))
            if args.trace:
                runs.append(run_once(workload.command, config_path, work, trace=True))
            passes.append(time.monotonic() - t_pass)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    default_seed = args.seed == workload.config["seed"]
    rule = gate(runs, reference, recorded["recorded_with"], default_seed)

    failed = sum(1 for r in runs if r["problems"])
    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    traced = [r for r in runs if r["traced"] and r.get("layers")]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(runs)} runs, "
        f"fail_frac {failed / len(runs):.6g} ({failed} of {len(runs)}), output gate: {rule}"
    )
    for run in runs:
        for problem in run["problems"]:
            print(f"  FAILED: {problem}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("error: no run produced timings", file=sys.stderr)
        return 1

    wall = _summarise("wall_s", [r["wall_s"] for r in plain], "s")
    if args.trace:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            value = _summarise(name, [r["layers"][name] for r in traced], unit)
            metrics[name] = {"value": value, "unit": unit}
        overhead = statistics.median(r["wall_s"] for r in traced) - wall
        print(f"  {'trace_overhead_s':24s} {overhead:.6g} s")
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        setup = _summarise("setup_s", [r["setup_s"] for r in plain], "s")
        rss = _summarise("peak_rss_mb", [r["peak_rss_mb"] for r in plain], "MB")
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    checked = next((r for r in runs if "checks" in r), None)
    if checked is not None:
        _print_checks(checked["checks"], reference)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
