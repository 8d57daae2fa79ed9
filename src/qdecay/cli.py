"""Experiment orchestration: JSON config in, CSV/JSON tables and reports out.

Subcommands: ``decay | homodyne | rabi | analyze``.  A run validates its
whole config before touching the filesystem and runs its trajectories
serially (``--threads`` is accepted and ignored); ``decay`` always runs
``models.run_decay_ensemble``, whose ``record_steps`` adds the grid STEP rows,
and writes its ``decay_times`` and ``events`` rows from each block of
trajectories as the engine hands it over, so it holds one block, not the
ensemble (homodyne streams its engine blocks the same way, and ``rabi``
keeps only the counts of each lock-step group's drops).
The engines hand their tables over as column blocks: tuples of columns
(ndarrays or lists) in the order of ``SCHEMAS[name]``.  A column drawn from
a small set of values may come dictionary-encoded instead, as a
``core.EncodedColumn`` of integer codes into a values array (Apache Arrow's
dictionary encoding): homodyne ``t`` (every record's shared times),
homodyne ``traj_id`` (one value per record), homodyne ``current`` and
``sigma_x`` (one values array per record, which the two columns share),
decay ``kind`` (the engines' int8 codes), and the ``EventTable`` columns
the engines encode (qmop/swf occupations, nsm ``occupation_after``, and
with ``record_steps`` the STEP rows' ``t`` and ``traj_id``; see
``models.EventTable``).  ``tabletext.Table`` writes every table, a bounded
row slice at a time with whole columns formatted at once, as the bytes of
``str`` (CSV) or ``json.dumps`` (JSON) of each value; a values object is
formatted once while consecutive slices share it.  Identical (config,
seed) therefore produce byte-identical outputs.
``read_table`` parses a table back in bulk, one ndarray per column.

Exit codes: 0 ok, 2 config/schema error, 3 I/O error, 4 analysis thresholds
violated under ``--strict``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from enum import EnumMeta
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import models, rabi, stats
from .core import MAX_NSM_FLUCTUATIONS, EncodedColumn, Model, ModelParams
from .homodyne import (
    EnsembleAutocorrelation,
    NoiseModel,
    iter_homodyne_records,
    resolve_kick,
)
from .lockstep import EVENT_KIND_NAMES
from .tabletext import ROWS_PER_SLICE, Table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4

KS_HEADROOM = 2.5  # acceptance thresholds are 2.5 x the 1.36/sqrt(n) asymptotic
DIP_SIGMA = 5.0

SCHEMAS = {
    "decay_times": ["traj_id", "t_decay"],
    "events": ["traj_id", "t", "kind", "occupation_before", "occupation_after"],
    "signal": ["traj_id", "t", "current", "sigma_x"],
    "fluorescence": ["bin_center", "intensity", "se", "torrey"],
    "drop_histogram": ["a_center", "count", "density_analytic"],
    "autocorrelation": ["lag", "zeta"],
    "spectrum": ["freq", "power"],
}


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the field."""


class SchemaError(ValueError):
    """An input table does not match its declared schema."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# Every config key: (type, default, commands).  The type is float (a finite
# number), int, bool, str, an Enum (one of its values) or a tuple of allowed
# strings; JSON true/false is no number.  The default is a value (with None
# the key may be null), _REQUIRED, or _NO_DEFAULT (absent unless given).  A
# run names the first missing required key in table order.
_REQUIRED, _NO_DEFAULT = object(), object()
_ALL = ("decay", "homodyne", "rabi")
_KEYS = {
    "model": (Model, _REQUIRED, ("decay", "rabi")),
    "gamma": (float, _REQUIRED, _ALL),
    "omega_rabi": (float, _REQUIRED, ("rabi",)),
    "dt": (float, _REQUIRED, _ALL),
    "t_max": (float, _REQUIRED, _ALL),
    "n_traj": (int, _REQUIRED, _ALL),
    "noise": (NoiseModel, _REQUIRED, ("homodyne",)),
    "beta": (float, 0.0, _ALL),
    "omega0": (float, 0.0, _ALL),
    "omega1": (float, 0.0, _ALL),
    "record_steps": (bool, False, ("decay",)),
    "theta": (float, 0.0, ("homodyne",)),
    "alpha_mag": (float, 1.0, ("homodyne",)),
    "kick": (float, None, ("homodyne",)),
    "max_lag": (int, 100, ("homodyne",)),
    "bin_width": (float, 0.25, ("rabi",)),
    "drop_bins": (int, 20, ("rabi",)),
    "seed": (int, 0, _ALL),
    "threads": (int, 1, _ALL),
    "format": (("csv", "json"), "csv", _ALL),
    "out_dir": (str, _NO_DEFAULT, _ALL),
}
_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def load_config(path: str, command: str, overrides: Dict) -> Dict:
    """Read, merge and validate the JSON config for one subcommand.

    Unknown keys are rejected so typos cannot silently change a run; an
    invalid config never produces any output file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    keys = {key: spec for key, spec in _KEYS.items() if command in spec[2]}
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}; allowed keys are {sorted(keys)}")

    cfg = dict(raw)
    cfg.update((key, val) for key, val in overrides.items() if val is not None)
    for key, (_, default, _) in keys.items():
        if default is _REQUIRED and key not in cfg:
            raise ConfigError(f"{key}: required field is missing")
    for key, (kind, default, _) in keys.items():
        if key not in cfg and default is not _NO_DEFAULT:
            cfg[key] = default
        if key in cfg and not (cfg[key] is None and default is None):
            _check_type(key, cfg[key], kind)
    _check_rules(cfg, command)
    return cfg


def _check_type(key: str, value, kind) -> None:
    if isinstance(kind, EnumMeta):
        kind = tuple(member.value for member in kind)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key}: must be one of {'|'.join(kind)}, got {value!r}")
    elif isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{key}: must be {_TYPE_NAMES[kind]}, got {value!r}")
    elif kind is float and not abs(value) <= sys.float_info.max:  # NaN, infinity, or an int past every double
        raise ConfigError(f"{key}: must be finite, got {value!r}")


def _check_rules(cfg: Dict, command: str) -> None:
    """The rules that span keys or bound a value, after every key's type."""
    for key in ("threads", "max_lag", "drop_bins"):
        if cfg.get(key, 1) < 1:
            raise ConfigError(f"{key}: must be >= 1, got {cfg[key]}")
    if command == "rabi" and cfg["bin_width"] <= 0:
        raise ConfigError(f"bin_width: must be > 0, got {cfg['bin_width']}")
    # the fluorescence bins end at a whole number of widths: emissions past the last edge would be dropped
    if command == "rabi" and cfg["t_max"] > 0:
        bins = cfg["t_max"] / cfg["bin_width"]
        if not (math.isfinite(bins) and bins >= 0.5 and math.isclose(round(bins) * cfg["bin_width"], cfg["t_max"], rel_tol=1e-9)):
            raise ConfigError(f"bin_width: must divide t_max = {cfg['t_max']:g} into whole bins, got {cfg['bin_width']:g}")
    if command == "homodyne" and cfg["noise"] == "nsm_point_process":
        if cfg["kick"] is None and not cfg["beta"] > 0.0:
            raise ConfigError("beta: must be > 0 for nsm_point_process noise (or give kick)")
        if cfg["kick"] is not None and cfg["kick"] < 0:
            raise ConfigError(f"kick: must be >= 0, got {cfg['kick']}")
    # the nsm drop law takes r = beta/gamma: the decay drop moments (when
    # fluctuations occur) and the rabi drop histogram need gamma > 0
    if cfg.get("model") == "nsm" and cfg["gamma"] == 0 and (command == "rabi" or cfg["beta"] > 0):
        raise ConfigError("gamma: must be > 0 for the nsm drop law r = beta/gamma")
    # one engine step per fluctuation: a huge beta would run for hours, not fail
    if cfg.get("model") == "nsm" and cfg["beta"] * cfg["t_max"] > MAX_NSM_FLUCTUATIONS:
        raise ConfigError(
            f"beta: beta*t_max = {cfg['beta'] * cfg['t_max']:g} expected fluctuations per trajectory "
            f"exceeds {MAX_NSM_FLUCTUATIONS:g}"
        )


def _model_params(cfg: Dict, model: Optional[str] = None) -> ModelParams:
    try:
        return ModelParams(
            gamma=float(cfg["gamma"]),
            dt=float(cfg["dt"]),
            t_max=float(cfg["t_max"]),
            n_traj=int(cfg["n_traj"]),
            seed=int(cfg["seed"]),
            model=Model(model if model is not None else cfg["model"]),
            beta=float(cfg["beta"]),
            omega0=float(cfg["omega0"]),
            omega1=float(cfg["omega1"]),
            omega_rabi=float(cfg.get("omega_rabi", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _provenance(cfg: Dict, command: str) -> Dict:
    """Config echo for summary.json: the scientific parameters plus the seed.

    Execution details (threads, out_dir, format) are excluded so outputs are
    byte-identical across those settings and destinations.
    """
    skip = {"threads", "out_dir", "format"}
    out = {k: v for k, v in sorted(cfg.items()) if k not in skip}
    out["command"] = command
    return out


# ---------------------------------------------------------------------------
# table I/O
# ---------------------------------------------------------------------------


def _open_table(out_dir: str, name: str, fmt: str) -> Table:
    """The table ``name`` open for writing; its file in the other format, stale to ``read_table``, is deleted."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, f"{name}.{'csv' if fmt == 'json' else 'json'}"))
    return Table(os.path.join(out_dir, f"{name}.{fmt}"), SCHEMAS[name], json=fmt == "json")


def write_table(out_dir: str, name: str, blocks, fmt: str) -> str:
    """Write the table ``name`` from an iterable of column blocks (see ``tabletext.Table``); returns its path."""
    with _open_table(out_dir, name, fmt) as table:
        for cols in blocks:
            table.write(cols)
    return table.path


def _write_json(path: str, payload: Dict) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_summary(out_dir: str, payload: Dict) -> str:
    return _write_json(os.path.join(out_dir, "summary.json"), payload)


# Columns read as strings; every other column is read as float64.
_STRING_COLUMNS = {("events", "kind")}


def read_table(out_dir: str, name: str, columns: Optional[Sequence[str]] = None) -> Optional[Dict[str, np.ndarray]]:
    """Read a table written by this tool; returns None when absent.

    Returns one ndarray per column, or per column of ``columns`` in that
    order, parsed in bulk: float64 (each value equals ``float`` of its cell,
    bit for bit), or strings for ``events.kind``.  A header-only CSV or a
    ``[]`` JSON file gives empty columns.  The header (or JSON keys) must
    match the declared schema exactly; the first offending column is named
    in the error, and a row with the wrong number of cells or a cell that
    does not parse, in any column, raises ``SchemaError`` naming the table.
    A CSV is parsed ``ROWS_PER_SLICE`` rows at a time, keeping only the
    asked-for columns of each slice.
    """
    schema = SCHEMAS[name]
    dtypes = [str if (name, k) in _STRING_COLUMNS else np.float64 for k in schema]
    keep = range(len(schema)) if columns is None else [schema.index(k) for k in columns]
    csv_path = os.path.join(out_dir, f"{name}.csv")
    json_path = os.path.join(out_dir, f"{name}.json")
    if os.path.exists(csv_path):
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise SchemaError(f"{name}.csv: empty file, expected header {schema}")
            _check_schema(name, header.rstrip("\n").split(","), schema)
            # numpy parses the rest of the open file in C, a slice of rows at a time into one record array
            record = np.dtype([(k, object if t is str else t) for k, t in zip(schema, dtypes)])
            pieces, done = [], 0
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    while True:
                        rows = np.loadtxt(fh, dtype=record, delimiter=",", comments=None, ndmin=1, max_rows=ROWS_PER_SLICE)
                        pieces.append([rows[schema[i]].copy() for i in keep])
                        done += rows.size
                        if rows.size < ROWS_PER_SLICE:
                            break
            except ValueError as exc:  # numpy counts the rows of the slice
                raise SchemaError(f"{name}.csv: {exc}" + (f" (in the rows from data row {done + 1})" if done else "")) from exc
        joined = (np.concatenate(c) for c in zip(*pieces))
        return {schema[i]: c.astype(str) if dtypes[i] is str else c for i, c in zip(keep, joined)}
    if os.path.exists(json_path):

        def row_values(pairs):
            # a row object as the tuple of its values, so no dict per row is kept
            _check_schema(name, [key for key, _ in pairs], schema)
            return tuple(value for _, value in pairs)

        try:
            with open(json_path, "r", encoding="utf-8") as fh:
                rows = json.load(fh, object_pairs_hook=row_values)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{name}.json: {exc}") from exc
        if not isinstance(rows, list) or not all(isinstance(row, tuple) for row in rows):
            raise SchemaError(f"{name}.json: expected an array of row objects")
        try:
            return {schema[i]: np.asarray([row[i] for row in rows], dtype=dtypes[i]) for i in keep}
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{name}.json: {exc}") from exc
    return None


def _check_schema(name: str, header: List[str], schema: List[str]) -> None:
    if header == schema:
        return
    for i, want in enumerate(schema):
        got = header[i] if i < len(header) else "<missing>"
        if got != want:
            raise SchemaError(f"{name}: column {i + 1} expected {want!r}, got {got!r}")
    raise SchemaError(f"{name}: unexpected extra columns {header[len(schema):]!r}")


_GNUPLOT = {
    "decay": """# gnuplot convenience script
set datafile separator ','
set key autotitle columnhead
set logscale y
plot 'decay_times.csv' using 2:(1.0) smooth cumulative title 'decay-time ECDF'
pause -1
""",
    "homodyne": """# gnuplot convenience script
set datafile separator ','
set key autotitle columnhead
plot 'autocorrelation.csv' using 1:2 with lines title 'zeta'
pause -1
plot 'spectrum.csv' using 1:2 with lines title 'power'
pause -1
""",
    "rabi": """# gnuplot convenience script
set datafile separator ','
set key autotitle columnhead
plot 'fluorescence.csv' using 1:2 with errorbars title 'intensity', \\
     'fluorescence.csv' using 1:4 with lines title 'damped-oscillation law'
pause -1
""",
}


def _write_gnuplot(out_dir: str, command: str) -> None:
    with open(os.path.join(out_dir, "plots.gp"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_GNUPLOT[command])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_decay(cfg: Dict) -> int:
    params = _model_params(cfg)
    out_dir = cfg["out_dir"]
    fmt = cfg["format"]
    counts = {"n_censored": 0, "n_observed": 0, "n_events": 0}
    drops: List[np.ndarray] = []  # nsm: the moments' pairwise sums need every fluctuation's drop in one array

    with contextlib.ExitStack() as stack:
        tables: List[Table] = []

        def write(block: models.DecayBlock) -> None:
            # the first block opens the tables, once the plan and the start state are built
            if not tables:
                os.makedirs(out_dir, exist_ok=True)
                for name in ("decay_times", "events"):
                    tables.append(stack.enter_context(_open_table(out_dir, name, fmt)))
            observed = np.flatnonzero(~np.isnan(block.decay_times))
            tables[0].write((block.ids.start + observed, block.decay_times[observed]))
            ev = block.events
            kind = EncodedColumn(ev.kind, EVENT_KIND_NAMES)
            tables[1].write((ev.traj_id, ev.t, kind, ev.occupation_before, ev.occupation_after))
            counts["n_censored"] += block.decay_times.size - observed.size
            counts["n_observed"] += observed.size
            counts["n_events"] += len(ev)
            drops.append(block.drop_samples)

        # one call, looked up here: bench/child.py and bench/tracing.py time the engine through it
        flags = models.run_decay_ensemble(params, record_steps=cfg["record_steps"], on_block=write)

    payload = {"config": _provenance(cfg, "decay"), **counts, "flags": sorted(flags)}
    drop_samples = np.concatenate(drops) if params.model is Model.NSM else None
    if drop_samples is not None and drop_samples.size >= 2:
        mean_a, var_a, se_a = stats.mean_var_se(drop_samples)
        analytic = models.occupation_drop_moments(params.gamma, params.beta)
        payload["moments"] = {
            "empirical_mean_a": mean_a,
            "empirical_std_a": math.sqrt(var_a),
            "se_mean_a": se_a,
            "analytic_mean_a": analytic.mean_a,
            "analytic_std_a": analytic.std_a,
            "r": analytic.r,
            "n_drop_samples": int(drop_samples.size),
        }
    write_summary(out_dir, payload)
    _write_gnuplot(out_dir, "decay")
    return EXIT_OK


def _shared_values(current: np.ndarray, sigma_x: np.ndarray, steps: np.ndarray):
    """``current`` and ``sigma_x`` as two ``EncodedColumn``s over one values array.

    The current is the dipole plus the detector noise, so on a step without
    a detector kick it holds ``sigma_x``'s double and reuses its cell.  The
    values are ``sigma_x`` followed by the currents that differ from it bit
    for bit (``-0.0`` beside ``0.0`` or another NaN payload keeps its own
    cell); ``steps`` is ``arange(len(sigma_x))``, ``sigma_x``'s codes.
    """
    kicked = np.flatnonzero(current.view(np.int64) != sigma_x.view(np.int64))
    values = np.concatenate((sigma_x, current[kicked]))
    codes = steps.copy()
    codes[kicked] = sigma_x.size + np.arange(kicked.size)
    return EncodedColumn(codes, values), EncodedColumn(steps, values)


def cmd_homodyne(cfg: Dict) -> int:
    params = _model_params(cfg, model="nsm" if cfg["noise"] == "nsm_point_process" else "qmop")
    out_dir = cfg["out_dir"]
    fmt = cfg["format"]
    noise = NoiseModel(cfg["noise"])
    kick = resolve_kick(params, noise, cfg["kick"])
    if params.n_steps < 2:
        raise ConfigError(f"t_max: the spectrum needs at least 2 steps of dt, got {params.n_steps}")
    max_lag = min(int(cfg["max_lag"]), params.n_steps - 1)

    os.makedirs(out_dir, exist_ok=True)
    acc = EnsembleAutocorrelation(params.n_steps, max_lag)
    # one written block per group of records of an engine block, about a slice of rows
    group = max(1, ROWS_PER_SLICE // params.n_steps)
    steps = np.arange(group * params.n_steps)
    t_codes, id_codes = steps % params.n_steps, steps // params.n_steps

    def columns(rec):
        """The written block of the group that ``rec`` ends, else None."""
        block = rec.block
        j = rec.traj_id - block.traj_ids.start
        # the autocorrelation takes the engine's whole block, at its first record
        if j == 0:
            acc.add(block.current)
        if (j + 1) % group and rec.traj_id + 1 != block.traj_ids.stop:
            return None
        rows = slice(j - j % group, j + 1)
        n = (rows.stop - rows.start) * params.n_steps
        current, sigma_x = _shared_values(block.current[rows].ravel(), block.sigma_x[rows].ravel(), steps[:n])
        ids, t = EncodedColumn(id_codes[:n], block.traj_ids[rows]), EncodedColumn(t_codes[:n], rec.times)
        return ids, t, current, sigma_x

    # Records, not blocks: bench/child.py and bench/tracing.py time the engine
    # through ``iter_homodyne_records`` where this module looks it up.  map and
    # filter keep no record between items, so an engine block is freed before
    # the next one is computed; the written columns are copies, not views.
    records = iter_homodyne_records(
        params,
        noise,
        theta=float(cfg["theta"]),
        kick=kick,
    )
    write_table(out_dir, "signal", filter(None, map(columns, records)), fmt)
    zeta = acc.result()
    lags = np.arange(max_lag + 1) * params.dt
    write_table(out_dir, "autocorrelation", [(lags, zeta)], fmt)
    spec = stats.power_spectrum(zeta, params.dt)
    write_table(out_dir, "spectrum", [(spec.frequencies, spec.power)], fmt)

    write_summary(
        out_dir,
        {
            "config": _provenance(cfg, "homodyne"),
            "n_steps": params.n_steps,
            "max_lag": max_lag,
            "resolved_kick": kick if noise is NoiseModel.NSM_POINT_PROCESS else None,
            "zeta0": float(zeta[0]),
        },
    )
    _write_gnuplot(out_dir, "homodyne")
    return EXIT_OK


def cmd_rabi(cfg: Dict) -> int:
    params = _model_params(cfg)
    drive = rabi.DriveParams(omega_rabi=params.omega_rabi)
    out_dir = cfg["out_dir"]
    fmt = cfg["format"]

    # no occupation bins are written, and each group's emission times and drops are counted as they come
    emissions = rabi.EmissionCounts(float(cfg["bin_width"]), params.t_max)
    drops = rabi.DropCounts(1.0 / int(cfg["drop_bins"]))

    def count(group: rabi.DrivenGroup) -> None:
        emissions.add(group.emission_times)
        drops.add(group.drop_emission)

    ensemble = rabi.run_driven_ensemble(params, drive, bin_steps=None, on_group=count)
    series = emissions.series(ensemble.n_traj)
    os.makedirs(out_dir, exist_ok=True)
    torrey = (
        params.gamma * rabi.torrey_occupation(drive.omega_rabi, params.gamma, series.bin_centers)
        if drive.omega_rabi > 0.0
        else np.zeros_like(series.bin_centers)
    )
    write_table(
        out_dir, "fluorescence", [(series.bin_centers, series.intensity, series.se, torrey)], fmt
    )
    payload = {
        "config": _provenance(cfg, "rabi"),
        "n_emissions": emissions.n_emissions,
        "emission_rate_tail": _tail_rate(series),
    }
    if params.model is Model.NSM:
        hist = drops.histogram(params.gamma, params.beta)
        write_table(
            out_dir, "drop_histogram", [(hist.a_centers, hist.counts, hist.density_analytic)], fmt
        )
        payload["n_drop_samples"] = hist.n_samples
    write_summary(out_dir, payload)
    _write_gnuplot(out_dir, "rabi")
    return EXIT_OK


def _tail_rate(series: rabi.FluorescenceSeries) -> float:
    tail = series.intensity[int(0.8 * series.intensity.size) :]
    return float(tail.mean()) if tail.size else 0.0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(out_dir: str, strict: bool) -> int:
    """Check a run directory against the package's acceptance thresholds.

    Reads whatever tables are present, writes report.json, and under
    ``--strict`` exits nonzero when any threshold check fails.  A gated
    check reports its ``margin``, its limit minus its value, which is
    negative when it fails.
    """
    summary_path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(summary_path):
        raise SchemaError(f"{summary_path}: missing (not a run directory?)")
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    cfg = summary.get("config", {})
    checks: Dict[str, Dict] = {}

    # the decay times only: the ids would double what the table holds
    table = read_table(out_dir, "decay_times", ["t_decay"])
    if table is not None and table["t_decay"].size:
        times = table["t_decay"]
        model, gamma, dt, t_max = Model(cfg["model"]), float(cfg["gamma"]), float(cfg["dt"]), float(cfg["t_max"])
        law = models.decay_time_cdf(model, gamma, dt)
        # only the runs that decayed by the engine's horizon (n_steps * dt; t_max for nsm) are in the table
        horizon = t_max if model is Model.NSM else round(t_max / dt) * dt
        reached = law(np.array([horizon]))[0]
        dist = stats.ks_distance(times, lambda t: law(t) / reached)
        threshold = KS_HEADROOM * 1.36 / math.sqrt(times.size)
        checks["decay_ks"] = {
            "n": int(times.size),
            "distance": float(dist),
            "threshold": threshold,
            "margin": threshold - float(dist),
            "pass": bool(dist < threshold),
            # how far the law checked lies from the exponential law, without sampling
            "law_distance": models.law_distance(model, gamma, dt, horizon),
        }

    moments = summary.get("moments")
    if moments:
        dev_mean = abs(moments["empirical_mean_a"] - moments["analytic_mean_a"])
        tol = 3.0 * moments["se_mean_a"]
        checks["drop_moments"] = {
            "dev_mean_a": dev_mean,
            "tolerance": tol,
            "margin": tol - dev_mean,
            "pass": bool(dev_mean <= tol),
        }

    table = read_table(out_dir, "autocorrelation")
    if table is not None and summary.get("n_steps"):
        zeta = table["zeta"]
        n_steps = int(summary["n_steps"])
        n_traj = int(cfg.get("n_traj", 1))
        dips = _detect_dips(zeta, n_steps, n_traj)
        checks["autocorrelation"] = {
            "dips_detected": len(dips),
            "dip_lags": dips,
            "zeta0": float(zeta[0]),
        }

    table = read_table(out_dir, "fluorescence")
    if table is not None and table["intensity"].size:
        gamma = float(cfg["gamma"])
        intensity = table["intensity"]
        se = table["se"]
        tail = slice(int(0.8 * intensity.size), None)
        n_tail = intensity[tail].size
        if n_tail:
            mean_tail = float(intensity[tail].mean())
            se_tail = float(np.sqrt(np.sum(se[tail] ** 2)) / n_tail)
            dev = abs(mean_tail - gamma / 2.0)
            checks["fluorescence_tail"] = {
                "mean_intensity": mean_tail,
                "target": gamma / 2.0,
                "tolerance": 3.0 * se_tail,
                "margin": 3.0 * se_tail - dev,
                "pass": bool(dev <= 3.0 * se_tail),
            }

    gated = [c["pass"] for c in checks.values() if "pass" in c]
    report = {"checks": checks, "pass": bool(all(gated)) if gated else True}
    _write_json(os.path.join(out_dir, "report.json"), report)
    if strict and not report["pass"]:
        return EXIT_ANALYSIS
    return EXIT_OK


def _detect_dips(zeta: np.ndarray, n_steps: int, n_traj: int) -> List[int]:
    """Local minima of zeta dipping below the 5-SE white-noise band."""
    if zeta.size < 2 or zeta[0] <= 0.0:
        return []
    lags = np.arange(zeta.size)
    se = zeta[0] / np.sqrt(np.maximum(n_traj * (n_steps - lags), 1))
    dips = []
    for k in range(1, zeta.size):
        if zeta[k] >= -DIP_SIGMA * se[k]:
            continue
        left = zeta[k - 1]
        right = zeta[k + 1] if k + 1 < zeta.size else math.inf
        if zeta[k] <= left and zeta[k] <= right:
            dips.append(int(k))
    return dips


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdecay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("decay", "homodyne", "rabi"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; runs are serial")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    p = sub.add_parser("analyze")
    p.add_argument("--out-dir", required=True, help="run directory to analyze")
    p.add_argument("--strict", action="store_true", help="exit 4 when thresholds fail")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    try:
        if args.command == "analyze":
            return cmd_analyze(args.out_dir, args.strict)
        overrides = {
            "seed": args.seed,
            "out_dir": args.out_dir,
            "threads": args.threads,
            "format": args.format,
        }
        cfg = load_config(args.config, args.command, overrides)
        if "out_dir" not in cfg or not cfg["out_dir"]:
            raise ConfigError("out_dir: required (config key or --out-dir)")
        return {"decay": cmd_decay, "homodyne": cmd_homodyne, "rabi": cmd_rabi}[args.command](cfg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
