#!/usr/bin/env python3
"""Compare the output files of two qdecay source trees, byte for byte.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each ROOT is a checkout whose ``src/`` holds the ``qdecay`` package.  Under
each tree, in a fresh interpreter, the script runs a fixed matrix of small
runs: ``decay`` qmop/swf/nsm with and without ``record_steps`` (and qmop
runs whose times print in exponent notation and whose tables hold no row,
at gamma 0), ``homodyne`` with white noise and the nsm point process (at
theta 0 and 0.7, with 0.1, 5 and about 200 pulses per step, and over three
engine blocks), and ``rabi`` qmop/swf/nsm, each in CSV and JSON.  The point
process below 10 pulses per step is read by Philox position, and from 10 on
drawn through ``numpy.random``, so both paths are covered.  Every case runs
at omega0 = omega1 = 0 but three, which run at omega0 0.3 and omega1 1.1:
homodyne white and point-process runs at theta 0.4, and a rabi qmop run.
Decay nsm with and without ``record_steps`` and rabi qmop/nsm also run over
two lock-step groups, rabi nsm over three, and decay qmop/swf with and
without ``record_steps`` over two blocks.  A library case then
calls ``models.run_decay_ensemble`` and ``rabi.run_driven_ensemble`` with
``bin_steps`` for qmop, swf and nsm, each over a full block or lock-step
group and a partial one, and saves every array of the returned summary (the
bin centers, means, variances and standard errors, the joined decay or
emission times and drops, and the decoded event columns) as ``.npy`` files.
Each driven model also runs without bins with an ``on_group`` consumer, as
``qdecay rabi`` does, and the ids, emission times and drops it was handed,
joined, are saved as ``streamed.*.npy``.  It then compares the sha256 of every file the runs wrote.  It exits 0 when
every file is identical, 1 naming each file that differs or that only one
tree wrote, and 2 when a run fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

_DECAY = {"gamma": 1.0, "dt": 0.01, "t_max": 5.0, "n_traj": 300, "seed": 42}
_HOMODYNE = {"gamma": 0.01, "dt": 0.01, "t_max": 1.0, "n_traj": 600, "max_lag": 20, "seed": 7}
_RABI = {"gamma": 0.2, "omega_rabi": 2.0, "dt": 0.0125, "t_max": 10.0, "n_traj": 200, "seed": 21}
_PHASE = {"omega0": 0.3, "omega1": 1.1}

# name -> (subcommand, config); homodyne's 600 trajectories span two engine blocks
CONFIGS = {
    **{
        f"decay-{model}{'-steps' if steps else ''}": (
            "decay",
            dict(_DECAY, model=model, record_steps=steps, **({"beta": 1.0} if model == "nsm" else {})),
        )
        for model in ("qmop", "swf", "nsm")
        for steps in (False, True)
    },
    # gamma 2e4 on a 1e-6 grid: decay times below 1e-4 print in exponent notation
    "decay-qmop-exponent": ("decay", dict(_DECAY, model="qmop", gamma=2e4, dt=1e-6, t_max=1e-3)),
    # gamma 0: no trajectory decays, so both tables hold no row (a header-only CSV, a `[]` JSON array)
    "decay-qmop-none": ("decay", dict(_DECAY, model="qmop", gamma=0.0)),
    "homodyne-white": ("homodyne", dict(_HOMODYNE, noise="white")),
    "homodyne-pp": ("homodyne", dict(_HOMODYNE, noise="nsm_point_process", beta=10.0)),
    # at theta 0.7 the current shares no cell with sigma_x
    "homodyne-pp-theta": ("homodyne", dict(_HOMODYNE, noise="nsm_point_process", beta=10.0, theta=0.7)),
    # 5 pulses per step: samples of several draws each, read by Philox position
    "homodyne-pp-five": ("homodyne", dict(_HOMODYNE, noise="nsm_point_process", beta=500.0)),
    # about 200 pulses per step: the engine's pulse counts do not fit int8, and
    # numpy's Poisson sampler is not the one read by position
    "homodyne-pp-dense": ("homodyne", dict(_HOMODYNE, noise="nsm_point_process", beta=2e4)),
    # 1100 trajectories: two full engine blocks of 512, then a partial one of 76
    "homodyne-pp-blocks": (
        "homodyne",
        dict(_HOMODYNE, noise="nsm_point_process", beta=10.0, t_max=0.2, n_traj=1100, max_lag=10),
    ),
    # omega0 != omega1: the drift's phase rotation, at theta 0.4, in one engine block
    "homodyne-white-phase": ("homodyne", dict(_HOMODYNE, noise="white", n_traj=100, theta=0.4, **_PHASE)),
    "homodyne-pp-phase": (
        "homodyne",
        dict(_HOMODYNE, noise="nsm_point_process", beta=10.0, n_traj=100, theta=0.4, **_PHASE),
    ),
    "rabi-qmop": ("rabi", dict(_RABI, model="qmop")),
    "rabi-swf": ("rabi", dict(_RABI, model="swf")),
    "rabi-nsm": ("rabi", dict(_RABI, model="nsm", beta=0.5)),
    # omega0 != omega1: the detuning phases of the driven no-jump rows
    "rabi-qmop-phase": ("rabi", dict(_RABI, model="qmop", **_PHASE)),
    # 2100 trajectories: a full lock-step group of 2048, then a partial one of 52
    "decay-nsm-steps-groups": (
        "decay",
        dict(_DECAY, model="nsm", beta=1.0, record_steps=True, t_max=1.0, n_traj=2100),
    ),
    "rabi-qmop-groups": ("rabi", dict(_RABI, model="qmop", t_max=2.0, n_traj=2100)),
    "rabi-nsm-groups": ("rabi", dict(_RABI, model="nsm", beta=0.5, t_max=2.0, n_traj=2100)),
    # 4100 trajectories: two full groups and a partial one of 4, whose drop counts add across two group bounds
    "rabi-nsm-three-groups": ("rabi", dict(_RABI, model="nsm", beta=0.5, t_max=2.0, n_traj=4100)),
    # decay writes a block at a time: 2100 nsm trajectories, and 8244 qmop/swf ones, a full
    # block of 8192 and a partial one of 52
    "decay-nsm-groups": ("decay", dict(_DECAY, model="nsm", beta=1.0, t_max=1.0, n_traj=2100)),
    **{
        f"decay-{model}{'-steps' if steps else ''}-blocks": (
            "decay",
            dict(_DECAY, model=model, record_steps=steps, t_max=0.2 if steps else 0.5, n_traj=8244),
        )
        for model in ("qmop", "swf")
        for steps in (False, True)
    },
}
FORMATS = ("csv", "json")

# name -> (ensemble, params, bin_steps) of the library case: 8244 qmop/swf decay trajectories are
# a full block of 8192 and a partial one of 52, 2100 nsm decay or driven ones a full lock-step
# group of 2048 and a partial one of 52; 7-step bins leave a longer last bin
LIBRARY = {
    "bins-decay-qmop": ("decay", dict(_DECAY, model="qmop", t_max=0.5, n_traj=8244), 7),
    "bins-decay-swf": ("decay", dict(_DECAY, model="swf", t_max=0.5, n_traj=8244), 7),
    "bins-decay-nsm": ("decay", dict(_DECAY, model="nsm", beta=1.0, t_max=1.0, n_traj=2100), 7),
    "bins-rabi-qmop": ("rabi", dict(_RABI, model="qmop", t_max=2.0, n_traj=2100), 7),
    "bins-rabi-swf": ("rabi", dict(_RABI, model="swf", t_max=2.0, n_traj=2100), 7),
    "bins-rabi-nsm": ("rabi", dict(_RABI, model="nsm", beta=0.5, t_max=2.0, n_traj=2100), 7),
}

# Runs every case of argv[3] and the library case argv[4] (JSON) with the qdecay of argv[1]/src, under argv[2].
_CHILD = """
import dataclasses, json, os, sys
import numpy as np
sys.dont_write_bytecode = True
root, out, cases, library = sys.argv[1], sys.argv[2], json.loads(sys.argv[3]), json.loads(sys.argv[4])
sys.path.insert(0, os.path.join(root, "src"))
from qdecay import cli, models, rabi
from qdecay.core import ModelParams
if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src", "")):
    sys.exit(f"qdecay imported from {cli.__file__}, not from {root}/src")
for run_dir, command, cfg, fmt in cases:
    path = os.path.join(out, run_dir + ".cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    rc = cli.main([command, "--config", path, "--out-dir", os.path.join(out, run_dir), "--format", fmt])
    if rc != 0:
        sys.exit(f"{run_dir}: qdecay {command} exited {rc}")
for run_dir, (ensemble, cfg, bin_steps) in library.items():
    p = ModelParams(**cfg)
    if ensemble == "decay":
        result = models.run_decay_ensemble(p, bin_steps=bin_steps)
    else:
        drive = rabi.DriveParams(omega_rabi=p.omega_rabi)
        result = rabi.run_driven_ensemble(p, drive, bin_steps=bin_steps)
        handed = []
        streamed = rabi.run_driven_ensemble(p, drive, bin_steps=None, on_group=handed.append)
        # a tree whose groups hand over no emission times joins them into the returned ensemble
        times = [g.emission_times for g in handed] if hasattr(handed[0], "emission_times") else [streamed.emission_times]
        joined = {
            "ids": np.array([(g.ids.start, g.ids.stop) for g in handed]),
            "emission_times": np.concatenate(times),
            "drop_emission": np.concatenate([g.drop_emission for g in handed]),
        }
        for name, value in joined.items():
            np.save(os.path.join(out, run_dir, f"streamed.{name}.npy"), value)
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, models.EventTable):
            for c in dataclasses.fields(value):
                np.save(os.path.join(out, run_dir, f"events.{c.name}.npy"), np.asarray(getattr(value, c.name)))
        elif isinstance(value, np.ndarray):
            np.save(os.path.join(out, run_dir, f"{field.name}.npy"), value)
"""


def cases() -> list:
    return [
        (f"{name}/{fmt}", command, cfg, fmt)
        for name, (command, cfg) in CONFIGS.items()
        for fmt in FORMATS
    ]


def run_dirs() -> list:
    """Every run directory: a CLI case's, then each library run's."""
    return [run_dir for run_dir, *_ in cases()] + list(LIBRARY)


def run_tree(root: str, out: str) -> None:
    """Run every case with the qdecay under ``root/src``, writing under ``out``."""
    for name in (*CONFIGS, *LIBRARY):
        os.makedirs(os.path.join(out, name))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "-c", _CHILD, os.path.abspath(root), out, json.dumps(cases()), json.dumps(LIBRARY)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise RuntimeError(f"{root}: {last[0]}")


def digests(out: str) -> dict:
    """sha256 of every file the runs wrote, keyed by its path under ``out``."""
    found = {}
    for run_dir in run_dirs():
        base = os.path.join(out, run_dir)
        for name in sorted(os.listdir(base)):
            with open(os.path.join(base, name), "rb") as fh:
                found[f"{run_dir}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return found


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="qdecay-compare-") as tmp:
        found = []
        for side, root in zip(("old", "new"), argv):
            out = os.path.join(tmp, side)
            try:
                run_tree(root, out)
            except RuntimeError as exc:
                print(f"error: run failed under {exc}", file=sys.stderr)
                return 2
            found.append(digests(out))
    old, new = found
    differ = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
    for path in differ:
        why = "differs" if path in old and path in new else f"only under {'OLD' if path in old else 'NEW'}"
        print(f"{why}: {path}")
    print(f"{len(old.keys() | new.keys())} files in {len(run_dirs())} run directories, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
