import itertools
import json
import os
import shutil
import threading
import tracemalloc
from enum import EnumMeta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_engines import spy_calls

from qdecay import lockstep, models, rabi, tabletext
from qdecay.cli import (
    _KEYS,
    _NO_DEFAULT,
    _REQUIRED,
    SCHEMAS,
    ConfigError,
    EncodedColumn,
    SchemaError,
    _shared_values,
    cmd_analyze,
    load_config,
    main,
    read_table,
    write_table,
)
from qdecay.core import ModelParams, derive_stream
from qdecay.homodyne import (
    EnsembleAutocorrelation,
    ensemble_autocorrelation,
    run_homodyne_ensemble,
)
from qdecay.lockstep import EVENT_KIND_NAMES
from qdecay.models import (
    run_decay_ensemble,
    run_nsm_trajectory,
    run_qmop_trajectory,
    run_swf_trajectory,
)

DECAY_CFG = {
    "model": "nsm",
    "gamma": 1.0,
    "beta": 1.0,
    "dt": 0.01,
    "t_max": 60.0,
    "n_traj": 400,
    "seed": 42,
}
HOMODYNE_CFG = {
    "gamma": 0.01,
    "beta": 8.0,
    "dt": 0.01,
    "t_max": 4.0,
    "n_traj": 40,
    "seed": 7,
    "noise": "nsm_point_process",
    "max_lag": 40,
}
RABI_CFG = {
    "model": "nsm",
    "gamma": 0.5,
    "beta": 0.5,
    "omega_rabi": 4.0,
    "dt": 0.01,
    "t_max": 20.0,
    "n_traj": 150,
    "seed": 21,
    "bin_width": 0.5,
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_bytes(d, name):
    with open(os.path.join(d, name), "rb") as fh:
        return fh.read()


class TestDecayCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, DECAY_CFG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["decay", "--config", cfg, "--out-dir", out1]) == 0
        assert main(["decay", "--config", cfg, "--out-dir", out2, "--threads", "4"]) == 0
        for name in ("decay_times.csv", "events.csv", "summary.json", "plots.gp"):
            assert read_bytes(out1, name) == read_bytes(out2, name)

    def test_summary_contains_moments(self, tmp_path):
        cfg = write_cfg(tmp_path, DECAY_CFG)
        out = str(tmp_path / "run")
        assert main(["decay", "--config", cfg, "--out-dir", out]) == 0
        summary = json.loads(read_bytes(out, "summary.json"))
        m = summary["moments"]
        assert m["analytic_mean_a"] == pytest.approx(0.5)
        assert m["analytic_std_a"] == pytest.approx(0.288675, abs=1e-6)
        assert abs(m["empirical_mean_a"] - 0.5) < 5 * m["se_mean_a"]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, DECAY_CFG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["decay", "--config", cfg, "--out-dir", out1])
        main(["decay", "--config", cfg, "--out-dir", out2, "--seed", "43"])
        assert read_bytes(out1, "decay_times.csv") != read_bytes(out2, "decay_times.csv")

    def test_record_steps_emits_step_rows(self, tmp_path):
        payload = dict(DECAY_CFG, model="qmop", n_traj=3, t_max=2.0, record_steps=True)
        cfg = write_cfg(tmp_path, payload)
        out = str(tmp_path / "run")
        assert main(["decay", "--config", cfg, "--out-dir", out]) == 0
        text = read_bytes(out, "events.csv").decode()
        assert ",step," in text

    def test_csv_schemas(self, tmp_path):
        cfg = write_cfg(tmp_path, DECAY_CFG)
        out = str(tmp_path / "run")
        main(["decay", "--config", cfg, "--out-dir", out])
        assert read_bytes(out, "decay_times.csv").splitlines()[0] == b"traj_id,t_decay"
        assert (
            read_bytes(out, "events.csv").splitlines()[0]
            == b"traj_id,t,kind,occupation_before,occupation_after"
        )

    def test_json_format(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, n_traj=20))
        out = str(tmp_path / "run")
        assert main(["decay", "--config", cfg, "--out-dir", out, "--format", "json"]) == 0
        rows = json.loads(read_bytes(out, "decay_times.json"))
        assert rows and set(rows[0]) == {"traj_id", "t_decay"}


class TestStreamedDecay:
    """``decay`` writes each engine block as it comes: block sizes change no byte, and memory stays bounded."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("record_steps", [False, True])
    @pytest.mark.parametrize("model", ["qmop", "swf", "nsm"])
    def test_block_sizes_change_no_byte(self, tmp_path, monkeypatch, model, record_steps, fmt):
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, model=model, n_traj=150, t_max=1.0, record_steps=record_steps))
        base, small = str(tmp_path / "base"), str(tmp_path / "small")
        assert main(["decay", "--config", cfg, "--out-dir", base, "--format", fmt]) == 0
        monkeypatch.setattr(models, "_LOCKSTEP_COUNTERS", 7)
        monkeypatch.setattr(lockstep, "GROUP_SIZE", 64)
        engine, size = ("_lockstep_nsm", 64) if model == "nsm" else ("_lockstep_step_decay", 7)
        blocks = spy_calls(monkeypatch, models, engine)
        assert main(["decay", "--config", cfg, "--out-dir", small, "--format", fmt]) == 0
        assert len(blocks) == -(-150 // size)
        names = sorted(os.listdir(base))
        assert names == sorted(os.listdir(small)) and f"events.{fmt}" in names
        for name in names:
            assert read_bytes(base, name) == read_bytes(small, name), name

    def test_peak_does_not_grow_with_n_traj(self, tmp_path, monkeypatch):
        # 4 blocks against 40: a run that held its ensemble would grow by ~46 bytes per trajectory
        monkeypatch.setattr(models, "_LOCKSTEP_COUNTERS", 1024)
        peaks = []
        for n in (4 * 1024, 4 * 1024, 40 * 1024):  # the first run builds the writer's lookup tables
            payload = {"model": "qmop", "gamma": 1.0, "dt": 0.01, "t_max": 20.0, "n_traj": n, "seed": 5}
            cfg = write_cfg(tmp_path, payload)
            tracemalloc.start()
            try:
                assert main(["decay", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 256 * 1024, peaks


class TestTableFormat:
    @pytest.mark.parametrize(
        "command, payload, tables",
        [
            ("decay", dict(DECAY_CFG, n_traj=50), ("decay_times", "events")),
            ("homodyne", dict(HOMODYNE_CFG, n_traj=3), ("signal", "autocorrelation", "spectrum")),
        ],
    )
    def test_json_rows_equal_csv_cells(self, tmp_path, command, payload, tables):
        cfg = write_cfg(tmp_path, payload)
        csv_out, json_out = str(tmp_path / "csv"), str(tmp_path / "json")
        assert main([command, "--config", cfg, "--out-dir", csv_out]) == 0
        assert main([command, "--config", cfg, "--out-dir", json_out, "--format", "json"]) == 0
        for name in tables:
            lines = read_bytes(csv_out, f"{name}.csv").decode().splitlines()
            rows = json.loads(read_bytes(json_out, f"{name}.json"))
            assert len(rows) == len(lines) - 1 > 0
            header = lines[0].split(",")
            for row, line in zip(rows, lines[1:]):
                assert list(row) == header
                assert [str(v) for v in row.values()] == line.split(",")
                if "traj_id" in row:
                    assert type(row["traj_id"]) is int and line.split(",")[0].isdigit()

    def test_empty_tables(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, model="qmop", gamma=0.0, n_traj=5, t_max=1.0))
        csv_out, json_out = str(tmp_path / "csv"), str(tmp_path / "json")
        assert main(["decay", "--config", cfg, "--out-dir", csv_out]) == 0
        assert main(["decay", "--config", cfg, "--out-dir", json_out, "--format", "json"]) == 0
        assert read_bytes(json_out, "events.json") == b"[]\n"
        assert read_bytes(csv_out, "events.csv") == b"traj_id,t,kind,occupation_before,occupation_after\n"

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize(
        "model, run",
        [("qmop", run_qmop_trajectory), ("swf", run_swf_trajectory), ("nsm", run_nsm_trajectory)],
    )
    def test_record_steps_rows_are_trajectory_events(self, tmp_path, model, run, threads):
        payload = dict(DECAY_CFG, model=model, n_traj=4, t_max=2.0, record_steps=True)
        cfg = write_cfg(tmp_path, payload)
        out = str(tmp_path / "run")
        assert main(["decay", "--config", cfg, "--out-dir", out, "--threads", threads]) == 0
        params = ModelParams(
            gamma=1.0, beta=1.0, dt=0.01, t_max=2.0, n_traj=4, seed=42, model=model
        )
        want = [
            f"{i},{ev.t!r},{ev.kind.value},{ev.occupation_before!r},{ev.occupation_after!r}"
            for i in range(params.n_traj)
            for ev in run(params, derive_stream(params.seed, i), record_steps=True).events
        ]
        assert any(",step," in row for row in want) and any(",step," not in row for row in want)
        assert read_bytes(out, "events.csv").decode().splitlines()[1:] == want


def decoded(col):
    """An encoded column written plainly: ``values[codes]`` as an ndarray or a list."""
    if not isinstance(col, EncodedColumn):
        return col
    if isinstance(col.values, np.ndarray):
        return col.values[col.codes]
    return [col.values[c] for c in col.codes.tolist()]


class TestEncodedColumns:
    """An encoded column writes the bytes of the same column decoded and written plainly."""

    T = np.array([0.0, 0.1, 1e-300, -2.5, 1e16, 1.0 / 3.0, 5e-324])

    def blocks(self):
        # t: one values array shared by every block; sigma_x: new values, in a new order, per block
        rng = np.random.default_rng(3)
        for i, n in enumerate([7, 0, 5000, 3, 4096 * 2 + 1]):
            codes = rng.integers(0, self.T.size, n)
            yield (
                EncodedColumn(np.zeros(n, dtype=np.int8), [i]),
                EncodedColumn(codes, self.T),
                rng.standard_normal(n),
                EncodedColumn(codes[::-1].astype(np.int8), np.roll(self.T, i).tolist()),
            )

    def write_both(self, tmp_path, name, blocks, fmt):
        blocks = list(blocks)
        enc, plain = tmp_path / "enc", tmp_path / "plain"
        enc.mkdir()
        plain.mkdir()
        write_table(str(enc), name, blocks, fmt)
        write_table(str(plain), name, [tuple(map(decoded, cols)) for cols in blocks], fmt)
        ext = f"{name}.{fmt}"
        return read_bytes(str(enc), ext), read_bytes(str(plain), ext)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signal_columns(self, tmp_path, fmt):
        enc, plain = self.write_both(tmp_path, "signal", self.blocks(), fmt)
        assert enc == plain
        assert len(enc.splitlines()) == (1 if fmt == "csv" else 2) + 7 + 5000 + 3 + 4096 * 2 + 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_int8_kind_codes(self, tmp_path, fmt):
        codes = np.arange(5000, dtype=np.int8) % len(EVENT_KIND_NAMES)
        n = codes.size
        kind = EncodedColumn(codes, EVENT_KIND_NAMES)
        cols = (np.arange(n), np.linspace(0.0, 1.0, n), kind, np.ones(n), np.zeros(n))
        enc, plain = self.write_both(tmp_path, "events", [cols], fmt)
        assert enc == plain
        assert b"quantum_jump" in enc

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_blocks", [0, 1])
    def test_empty_table(self, tmp_path, fmt, n_blocks):
        empty = np.empty(0)
        no_codes = np.empty(0, dtype=np.int8)
        cols = (EncodedColumn(no_codes, [0]), EncodedColumn(no_codes, self.T), empty, empty)
        enc, plain = self.write_both(tmp_path, "signal", [cols] * n_blocks, fmt)
        assert enc == plain == (b"traj_id,t,current,sigma_x\n" if fmt == "csv" else b"[]\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_sharing_one_values_object(self, tmp_path, fmt):
        # current and sigma_x read one values array, across a 4096-row slice boundary
        rng = np.random.default_rng(5)
        n = 4096 + 904
        values = rng.standard_normal(n)
        cols = (
            np.arange(n),
            rng.standard_normal(n),
            EncodedColumn(rng.integers(0, n, n), values),
            EncodedColumn(rng.integers(0, n, n), values),
        )
        enc, plain = self.write_both(tmp_path, "signal", [cols], fmt)
        assert enc == plain

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fresh_values_per_block(self, tmp_path, fmt):
        # every block brings new values objects and drops the old ones, so their ids recur
        ids = []

        def blocks(plain):
            for i in range(64):
                values = [i + k / 8 for k in range(5)]
                ids.append(id(values))
                codes = np.array([4, 0, 3, 3, 1, 2])
                cols = (
                    EncodedColumn(np.zeros(6, dtype=np.int8), [i]),
                    np.full(6, 0.5),
                    EncodedColumn(codes, values),
                    EncodedColumn(codes[::-1], values),
                )
                yield tuple(map(decoded, cols)) if plain else cols

        enc, plain = tmp_path / "enc", tmp_path / "plain"
        enc.mkdir()
        plain.mkdir()
        write_table(str(enc), "signal", blocks(plain=False), fmt)
        assert len(set(ids)) < len(ids)
        write_table(str(plain), "signal", blocks(plain=True), fmt)
        name = f"signal.{fmt}"
        assert read_bytes(str(enc), name) == read_bytes(str(plain), name)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shared_values_converted_once(self, tmp_path, fmt, monkeypatch):
        # three columns over one values object, in two blocks of two slices each
        n = 4096 + 7
        values = np.linspace(-1.0, 1.0, 11)
        codes = np.arange(n) % values.size
        cols = (
            np.arange(n),
            EncodedColumn(codes, values),
            EncodedColumn(codes[::-1], values),
            EncodedColumn(codes // 2, values),
        )
        converted = []
        format_values = tabletext.cells

        def spy(col, json):
            converted.append(col is values)
            return format_values(col, json)

        monkeypatch.setattr(tabletext, "cells", spy)
        enc, plain = self.write_both(tmp_path, "signal", [cols, cols], fmt)
        assert enc == plain
        assert converted.count(True) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad, dtype", [(-1, np.int8), (7, np.int64)])
    @pytest.mark.parametrize("column", ["t", "sigma_x"])
    def test_codes_outside_the_values_raise(self, tmp_path, fmt, bad, dtype, column):
        n = 5000
        good = np.zeros(n, dtype=dtype)
        codes = good.copy()
        codes[4500] = bad  # in the second slice
        t = EncodedColumn(codes if column == "t" else good, self.T)
        sigma_x = EncodedColumn(codes if column == "sigma_x" else good, self.T)
        with pytest.raises(ValueError, match=f"^{column}: codes span"):
            write_table(str(tmp_path), "signal", [(np.arange(n), t, np.zeros(n), sigma_x)], fmt)


def oracle_text(name, cols, fmt):
    """The table as the per-row formatter writes it: ``str`` cells, or ``json.dumps`` of each row object."""
    header = SCHEMAS[name]
    cols = [decoded(c) for c in cols]
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in cols)))
    if fmt == "csv":
        return "".join(line + "\n" for line in [",".join(header)] + [",".join(map(str, row)) for row in rows])
    if not rows:
        return "[]\n"
    return "[\n" + ",\n".join(json.dumps(dict(zip(header, row))) for row in rows) + "\n]\n"


SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-300, 1.0 / 3.0, 2.5]


class TestWriterMatchesRowFormatting:
    """``write_table`` writes what a per-row ``str``/``json.dumps`` formatter writes."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_floats_ints_codes_and_strings(self, tmp_path, fmt):
        rng = np.random.default_rng(11)
        n = 4096 + 904  # across the 4096-row slice
        floats = np.array(SPECIAL_FLOATS)[rng.integers(0, len(SPECIAL_FLOATS), n)]
        floats[::7] = rng.standard_normal(n)[::7]
        kinds = EncodedColumn(rng.integers(0, len(EVENT_KIND_NAMES), n).astype(np.int8), EVENT_KIND_NAMES)
        after = EncodedColumn(rng.integers(0, 2, n).astype(np.int8), (1.0, 0.0))
        cols = (np.arange(n), floats, kinds, floats[::-1].copy(), after)
        write_table(str(tmp_path), "events", [cols], fmt)
        assert read_bytes(str(tmp_path), f"events.{fmt}").decode() == oracle_text("events", cols, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shared_values_across_a_slice(self, tmp_path, fmt):
        rng = np.random.default_rng(12)
        n = 4096 + 17
        values = np.concatenate([SPECIAL_FLOATS, rng.standard_normal(40)])
        one = EncodedColumn(np.zeros(n, dtype=np.int8), [3])
        cur = EncodedColumn(rng.integers(0, values.size, n), values)
        sig = EncodedColumn(rng.integers(0, values.size, n), values)
        cols = (one, rng.standard_normal(n), cur, sig)
        blocks = [cols, tuple(c[:5] for c in cols)]
        write_table(str(tmp_path), "signal", blocks, fmt)
        want = oracle_text("signal", tuple(map(np.concatenate, zip(*(map(decoded, b) for b in blocks)))), fmt)
        assert read_bytes(str(tmp_path), f"signal.{fmt}").decode() == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, tmp_path, fmt):
        cols = (np.empty(0, dtype=np.int64), np.empty(0))
        write_table(str(tmp_path), "decay_times", [cols], fmt)
        assert read_bytes(str(tmp_path), f"decay_times.{fmt}").decode() == oracle_text("decay_times", cols, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_error_leaves_the_written_rows_unclosed(self, tmp_path, fmt):
        # the second block fails: the first block's two slices stay on disk, without the closing bytes
        n = 4096 + 9
        cols = (np.arange(n), np.linspace(0.0, 1.0, n))

        def blocks():
            yield cols
            raise RuntimeError("the engine failed")

        with pytest.raises(RuntimeError, match="the engine failed"):
            write_table(str(tmp_path), "decay_times", blocks(), fmt)
        text = read_bytes(str(tmp_path), f"decay_times.{fmt}").decode()
        if fmt == "csv":
            assert text == oracle_text("decay_times", cols, fmt)
            assert read_table(str(tmp_path), "decay_times")["t_decay"].tolist() == cols[1].tolist()
        else:
            assert text + "\n]\n" == oracle_text("decay_times", cols, fmt)
            with pytest.raises(SchemaError, match="^decay_times.json: "):
                read_table(str(tmp_path), "decay_times")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("record_steps", [False, True])
    @pytest.mark.parametrize("model", ["qmop", "swf", "nsm"])
    def test_decay_tables_are_the_engine_columns(self, tmp_path, model, record_steps, fmt):
        payload = dict(DECAY_CFG, model=model, n_traj=60, t_max=1.5, record_steps=record_steps)
        out = str(tmp_path / "run")
        assert main(["decay", "--config", write_cfg(tmp_path, payload), "--out-dir", out, "--format", fmt]) == 0
        p = ModelParams(gamma=1.0, beta=1.0, dt=0.01, t_max=1.5, n_traj=60, seed=42, model=model)
        summary = run_decay_ensemble(p, record_steps=record_steps)
        ev = summary.events
        kinds = [EVENT_KIND_NAMES[c] for c in ev.kind.tolist()]
        rows = (ev.traj_id.tolist(), ev.t.tolist(), kinds, ev.occupation_before.tolist(), ev.occupation_after.tolist())
        assert read_bytes(out, f"events.{fmt}").decode() == oracle_text("events", rows, fmt)
        observed = ~np.isnan(summary.decay_times)
        rows = (np.flatnonzero(observed).tolist(), summary.decay_times[observed].tolist())
        assert read_bytes(out, f"decay_times.{fmt}").decode() == oracle_text("decay_times", rows, fmt)


class TestReadTable:
    """``read_table`` parses whole columns into ndarrays equal to ``float(cell)`` bit for bit."""

    def values(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(-(2**63), 2**63 - 1, 3000, dtype=np.int64, endpoint=True)
        return np.concatenate([SPECIAL_FLOATS, bits.view(np.float64)])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_equal_float_of_each_cell(self, tmp_path, fmt):
        t = self.values()
        write_table(str(tmp_path), "decay_times", [(np.arange(t.size), t)], fmt)
        cols = read_table(str(tmp_path), "decay_times")
        assert list(cols) == ["traj_id", "t_decay"]
        assert all(c.dtype == np.float64 for c in cols.values())
        want = np.array([float(str(v)) for v in t.tolist()])
        assert cols["t_decay"].view(np.int64).tolist() == want.view(np.int64).tolist()
        assert cols["traj_id"].tolist() == list(range(t.size))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_event_kinds_are_strings(self, tmp_path, fmt):
        n = 9
        kind = EncodedColumn(np.arange(n, dtype=np.int8) % len(EVENT_KIND_NAMES), EVENT_KIND_NAMES)
        write_table(str(tmp_path), "events", [(np.arange(n), np.linspace(0, 1, n), kind, np.ones(n), np.zeros(n))], fmt)
        cols = read_table(str(tmp_path), "events")
        assert cols["kind"].dtype.kind == "U"
        assert cols["kind"].tolist() == kind.tolist()
        assert cols["occupation_before"].tolist() == [1.0] * n

    @pytest.mark.parametrize("text, fmt", [("traj_id,t_decay\n", "csv"), ("[]\n", "json")])
    def test_header_only_gives_empty_columns(self, tmp_path, text, fmt):
        (tmp_path / f"decay_times.{fmt}").write_text(text)
        cols = read_table(str(tmp_path), "decay_times")
        assert [(k, c.dtype, c.shape) for k, c in cols.items()] == [
            ("traj_id", np.float64, (0,)),
            ("t_decay", np.float64, (0,)),
        ]

    @pytest.mark.parametrize("columns", [None, ["t_decay"]])
    @pytest.mark.parametrize("rows_per_slice", [2, tabletext.ROWS_PER_SLICE])
    @pytest.mark.parametrize("row", ["3,0.5,7", "3", "3,zero", "three,0.5"])
    def test_bad_row_names_the_table(self, tmp_path, monkeypatch, row, rows_per_slice, columns):
        # a cell count or a cell in a column that is not kept, in a later slice, raises all the same
        monkeypatch.setattr("qdecay.cli.ROWS_PER_SLICE", rows_per_slice)
        (tmp_path / "decay_times.csv").write_text(f"traj_id,t_decay\n0,0.25\n1,0.5\n{row}\n")
        with pytest.raises(SchemaError, match="^decay_times.csv: "):
            read_table(str(tmp_path), "decay_times", columns)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_slices_and_kept_columns_change_no_value(self, tmp_path, monkeypatch, fmt):
        t = self.values()
        write_table(str(tmp_path), "decay_times", [(np.arange(t.size), t)], fmt)
        whole = read_table(str(tmp_path), "decay_times")
        monkeypatch.setattr("qdecay.cli.ROWS_PER_SLICE", 7)
        sliced = read_table(str(tmp_path), "decay_times")
        kept = read_table(str(tmp_path), "decay_times", ["t_decay"])
        assert list(kept) == ["t_decay"] and kept["t_decay"].base is None  # it holds no record array
        for k in ("traj_id", "t_decay"):
            assert sliced[k].tobytes() == whole[k].tobytes()
        assert kept["t_decay"].tobytes() == whole["t_decay"].tobytes()

    @pytest.mark.parametrize("fmt, bound", [("csv", 4e6), ("json", 20e6)], ids=["csv", "json"])
    def test_parse_peak_is_bounded(self, tmp_path, fmt, bound):
        rng = np.random.default_rng(5)
        n = 100_000
        write_table(str(tmp_path), "decay_times", [(np.arange(n), rng.exponential(size=n))], fmt)
        tracemalloc.start()
        try:
            cols = read_table(str(tmp_path), "decay_times")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cols["t_decay"].size == n
        assert peak < bound

    @pytest.mark.parametrize(
        "text, match",
        [
            ('[{"traj_id": 0, "t_decay": 0.5}, {"t_decay": 1.5, "traj_id": 1}]', "column 1 expected 'traj_id'"),
            ('[{"traj_id": 0}]', "column 2 expected 't_decay', got '<missing>'"),
            ('[{"traj_id": 0, "t_decay": 0.5, "kind": 1}]', "unexpected extra columns"),
            ('[{"traj_id": 0, "t_decay": "soon"}]', "^decay_times.json: "),
            ('[[0, 0.5]]', "^decay_times.json: "),
            ('{"traj_id": 0, "t_decay": 0.5}', "^decay_times.json: "),
        ],
    )
    def test_bad_json_names_the_column_or_table(self, tmp_path, text, match):
        (tmp_path / "decay_times.json").write_text(text)
        with pytest.raises(SchemaError, match=match):
            read_table(str(tmp_path), "decay_times")


def written_cells(tmp_path, col, fmt):
    """The text ``write_table`` gives each value of ``col``, written as a table's second column."""
    write_table(str(tmp_path), "decay_times", [(np.arange(len(col)), col)], fmt)
    lines = read_bytes(str(tmp_path), f"decay_times.{fmt}").decode().splitlines()
    if fmt == "csv":
        return [line.split(",", 1)[1] for line in lines[1:]]
    return [line[line.index('"t_decay": ') + len('"t_decay": ') : line.rindex("}")] for line in lines[1:-1]]


def reference_cells(col, fmt):
    values = col.tolist() if isinstance(col, np.ndarray) else col
    return [str(x) if fmt == "csv" else json.dumps(x) for x in values]


def special_doubles():
    """Powers of two and ten, the layout edges and their neighbours, zeros, NaN and infinities, both signs."""
    edges = np.array([1e-4, 1e-5, 1e15, 1e16, 2.0**53, 2.0**54])
    v = np.concatenate(
        [
            [2.0**k for k in range(-1074, 1024)],
            [float(f"1e{k}") for k in range(-323, 309)],
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            [0.0, float("nan"), float("inf"), 5e-324],
        ]
    )
    return np.concatenate([v, -v])


class TestCellText:
    """Each cell ``write_table`` writes is ``str`` (CSV) or ``json.dumps`` (JSON) of its value."""

    @settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_float_bit_patterns(self, tmp_path, bits):
        # repeated to 300 values: a short column is formatted by str, not by the kernel
        v = np.resize(np.array(bits, dtype=np.uint64), 300).view(np.float64)
        for fmt in ("csv", "json"):
            assert written_cells(tmp_path, v, fmt) == reference_cells(v, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_special_doubles(self, tmp_path, fmt):
        v = special_doubles()
        assert written_cells(tmp_path, v, fmt) == reference_cells(v, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_random_bit_patterns(self, tmp_path, fmt):
        bits = np.random.default_rng(2024).integers(0, 2**64 - 1, 10**6, dtype=np.uint64, endpoint=True)
        for part in np.array_split(bits.view(np.float64), 4):
            assert written_cells(tmp_path, part, fmt) == reference_cells(part, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "col",
        [
            np.array([-(2**63), 2**63 - 1, 0, -1, 9, 10, 10**18], dtype=np.int64),
            np.array([2**64 - 1, 0, 10**19 - 1, 10**19], dtype=np.uint64),
            np.array([-128, 0, 127], dtype=np.int8),
            np.random.default_rng(3).standard_normal(1000).astype(np.float32),
            np.array([True, False]),
            np.array(["quantum_jump", "", "\u00fc", 2.5, None], dtype=object),
            [1, 2.5, "x", None, float("nan")],
        ],
        ids=["int64", "uint64", "int8", "float32", "bool", "object", "list"],
    )
    @pytest.mark.parametrize("length", [5, 300], ids=["short", "long"])
    def test_other_columns(self, tmp_path, fmt, col, length):
        col = np.resize(col, length) if isinstance(col, np.ndarray) else col * length
        assert written_cells(tmp_path, col, fmt) == reference_cells(col, fmt)

    def test_nul_in_a_csv_cell_raises(self, tmp_path):
        # NUL pads the cells, so a CSV cell cannot hold one; JSON escapes it
        col = np.array(["a\0b"], dtype=object)
        with pytest.raises(ValueError, match="NUL"):
            write_table(str(tmp_path), "decay_times", [(np.arange(1), col)], "csv")
        assert written_cells(tmp_path, col, "json") == [json.dumps("a\0b")]


SIGN_BIT = -(2**63)
FLOAT_BITS = st.one_of(
    st.integers(SIGN_BIT, 2**63 - 1),
    st.sampled_from(
        [
            0,  # 0.0; with the sign bit, -0.0
            1,  # the smallest subnormal
            0x000FFFFFFFFFFFFF,  # the largest subnormal
            0x3FF0000000000000,  # 1.0
            0x7FF8000000000000,  # the quiet NaN
            0x7FF8000000000001,  # NaNs with payloads
            0x7FF0000000000001,
        ]
    ),
)


class TestSharedValues:
    """``current`` and ``sigma_x`` encoded over one values array decode to their own bits."""

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(FLOAT_BITS, st.sampled_from(["same", "sign", "other"]), FLOAT_BITS), max_size=300))
    def test_decodes_bit_for_bit(self, rows):
        sig = np.array([s for s, _, _ in rows], dtype=np.int64)
        pick = {"same": lambda s, o: s, "sign": lambda s, o: s ^ SIGN_BIT, "other": lambda s, o: o}
        cur = np.array([pick[how](s, o) for s, how, o in rows], dtype=np.int64)
        current, sigma_x = _shared_values(cur.view(np.float64), sig.view(np.float64), np.arange(sig.size))
        assert current.values is sigma_x.values
        assert decoded(current).view(np.int64).tolist() == cur.tolist()
        assert decoded(sigma_x).view(np.int64).tolist() == sig.tolist()
        assert len(current.values) == sig.size + int(np.count_nonzero(cur != sig))


class TestHomodyneCommand:
    def test_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, HOMODYNE_CFG)
        out = str(tmp_path / "run")
        assert main(["homodyne", "--config", cfg, "--out-dir", out]) == 0
        sig = read_bytes(out, "signal.csv").splitlines()
        assert sig[0] == b"traj_id,t,current,sigma_x"
        assert len(sig) == 1 + HOMODYNE_CFG["n_traj"] * 400
        assert read_bytes(out, "autocorrelation.csv").splitlines()[0] == b"lag,zeta"
        assert read_bytes(out, "spectrum.csv").splitlines()[0] == b"freq,power"

    def test_zero_kick_current_equals_sigma(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(HOMODYNE_CFG, kick=0.0, n_traj=5))
        out = str(tmp_path / "run")
        assert main(["homodyne", "--config", cfg, "--out-dir", out]) == 0
        lines = read_bytes(out, "signal.csv").decode().splitlines()[1:]
        for line in lines:
            _, _, cur, sig = line.split(",")
            assert cur == sig

    def test_thread_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, HOMODYNE_CFG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["homodyne", "--config", cfg, "--out-dir", out1, "--threads", "1"])
        main(["homodyne", "--config", cfg, "--out-dir", out2, "--threads", "8"])
        for name in ("signal.csv", "autocorrelation.csv", "spectrum.csv", "summary.json"):
            assert read_bytes(out1, name) == read_bytes(out2, name)

    def test_engine_blocks_feed_the_autocorrelation(self, tmp_path, monkeypatch):
        # 1030 trajectories: two full lock-step blocks of 512 and a partial one
        payload = dict(HOMODYNE_CFG, t_max=0.3, n_traj=1030, max_lag=29)
        cfg = write_cfg(tmp_path, payload)
        calls = []
        add = EnsembleAutocorrelation.add

        def spy(acc, series):
            calls.append(np.shape(series))
            add(acc, series)

        monkeypatch.setattr(EnsembleAutocorrelation, "add", spy)
        outs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for out, threads in zip(outs, ("1", "3")):
            assert main(["homodyne", "--config", cfg, "--out-dir", out, "--threads", threads]) == 0
        assert calls == [(512, 30), (512, 30), (6, 30)] * 2  # once per block, at each thread count
        for name in ("signal.csv", "autocorrelation.csv", "spectrum.csv", "summary.json"):
            assert read_bytes(outs[0], name) == read_bytes(outs[1], name)
        monkeypatch.undo()

        p = ModelParams(gamma=0.01, beta=8.0, dt=0.01, t_max=0.3, n_traj=1030, seed=7, model="nsm")
        records = run_homodyne_ensemble(p, "nsm_point_process")
        want = ensemble_autocorrelation(records, p.n_steps, 29)
        rows = read_bytes(outs[0], "autocorrelation.csv").decode().splitlines()[1:]
        zeta = np.array([float(row.split(",")[1]) for row in rows])
        assert zeta.tobytes() == want.tobytes()


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "noise, theta", [("nsm_point_process", 0.0), ("nsm_point_process", 0.7), ("white", 0.0)]
    )
    def test_signal_rows_are_the_records(self, tmp_path, noise, theta, fmt):
        # 1030 trajectories: two full lock-step blocks of 512 and a partial one
        payload = dict(HOMODYNE_CFG, t_max=0.2, n_traj=1030, max_lag=10, noise=noise, theta=theta)
        cfg = write_cfg(tmp_path, payload)
        model = "nsm" if noise == "nsm_point_process" else "qmop"
        p = ModelParams(gamma=0.01, beta=8.0, dt=0.01, t_max=0.2, n_traj=1030, seed=7, model=model)
        records = run_homodyne_ensemble(p, noise, theta=theta)
        shared = sum(np.count_nonzero(r.current.view(np.int64) == r.sigma_x.view(np.int64)) for r in records)
        assert (shared > 0) == (noise == "nsm_point_process" and theta == 0.0)
        rows = [
            (rec.traj_id, t, c, s)
            for rec in records
            for t, c, s in zip(rec.times.tolist(), rec.current.tolist(), rec.sigma_x.tolist())
        ]
        header = ["traj_id", "t", "current", "sigma_x"]
        if fmt == "csv":
            want = "\n".join([",".join(header)] + [",".join(map(str, row)) for row in rows]) + "\n"
        else:
            want = "[\n" + ",\n".join(json.dumps(dict(zip(header, row))) for row in rows) + "\n]\n"
        for threads in ("1", "3"):
            out = str(tmp_path / threads)
            argv = ["homodyne", "--config", cfg, "--out-dir", out, "--format", fmt, "--threads", threads]
            assert main(argv) == 0
            assert read_bytes(out, f"signal.{fmt}").decode() == want


class TestRabiCommand:
    def test_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, RABI_CFG)
        out = str(tmp_path / "run")
        assert main(["rabi", "--config", cfg, "--out-dir", out]) == 0
        assert (
            read_bytes(out, "fluorescence.csv").splitlines()[0]
            == b"bin_center,intensity,se,torrey"
        )
        assert (
            read_bytes(out, "drop_histogram.csv").splitlines()[0]
            == b"a_center,count,density_analytic"
        )

    def test_no_decay_no_emissions(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(RABI_CFG, model="qmop", gamma=0.0, n_traj=30))
        out = str(tmp_path / "run")
        assert main(["rabi", "--config", cfg, "--out-dir", out]) == 0
        rows = read_bytes(out, "fluorescence.csv").decode().splitlines()[1:]
        assert all(row.split(",")[1] == "0.0" for row in rows)

    def test_qmop_run_has_no_drop_histogram(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(RABI_CFG, model="qmop"))
        out = str(tmp_path / "run")
        assert main(["rabi", "--config", cfg, "--out-dir", out]) == 0
        assert not os.path.exists(os.path.join(out, "drop_histogram.csv"))


class TestStreamedRabi:
    """``rabi`` counts each lock-step group's drops as they come: group sizes change no byte, and memory stays bounded."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("model", ["qmop", "nsm"])
    def test_group_sizes_change_no_byte(self, tmp_path, monkeypatch, model, fmt):
        cfg = write_cfg(tmp_path, dict(RABI_CFG, model=model, t_max=5.0))
        base, small = str(tmp_path / "base"), str(tmp_path / "small")
        assert main(["rabi", "--config", cfg, "--out-dir", base, "--format", fmt]) == 0
        monkeypatch.setattr(lockstep, "GROUP_SIZE", 64)
        groups = spy_calls(monkeypatch, rabi, "_lockstep_driven_nsm" if model == "nsm" else "_driven_step_engine")
        assert main(["rabi", "--config", cfg, "--out-dir", small, "--format", fmt]) == 0
        assert len(groups) == -(-RABI_CFG["n_traj"] // 64)
        names = sorted(os.listdir(base))
        assert names == sorted(os.listdir(small)) and (f"drop_histogram.{fmt}" in names) == (model == "nsm")
        for name in names:
            assert read_bytes(base, name) == read_bytes(small, name), name

    def test_peak_does_not_grow_with_n_traj(self, tmp_path, monkeypatch):
        # 4 groups against 40, of ~20 fluctuations and ~0.1 emissions per trajectory: a run
        # that joined every fluctuation's drop would grow by ~300 bytes per trajectory
        monkeypatch.setattr(lockstep, "GROUP_SIZE", 256)
        peaks = []
        for n in (4 * 256, 4 * 256, 40 * 256):  # the first run builds the writer's lookup tables
            payload = dict(RABI_CFG, gamma=0.05, beta=5.0, omega_rabi=1.0, t_max=4.0, n_traj=n)
            cfg = write_cfg(tmp_path, payload)
            tracemalloc.start()
            try:
                assert main(["rabi", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 256 * 1024, peaks


class TestSerialRuns:
    """No run starts a worker thread, and ``--threads`` changes no byte."""

    CASES = {
        "decay-qmop": ("decay", dict(DECAY_CFG, model="qmop")),
        "decay-nsm": ("decay", DECAY_CFG),
        # 1100 trajectories: two full engine blocks of 512, then a partial one
        "homodyne-pp": ("homodyne", dict(HOMODYNE_CFG, t_max=0.2, n_traj=1100, max_lag=10)),
        "rabi-nsm": ("rabi", RABI_CFG),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_threads_flag_starts_no_thread(self, tmp_path, monkeypatch, case):
        def refuse(thread):
            raise RuntimeError(f"a run started the thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        command, payload = self.CASES[case]
        cfg = write_cfg(tmp_path, payload)
        outs = [str(tmp_path / f"t{threads}") for threads in ("1", "4")]
        for out, threads in zip(outs, ("1", "4")):
            assert main([command, "--config", cfg, "--out-dir", out, "--threads", threads]) == 0
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and len(names) >= 3
        for name in names:
            assert read_bytes(outs[0], name) == read_bytes(outs[1], name), name


class TestLongFluctuationGaps:
    """gamma*gap > ~37.4 rounds the nsm occupation drop to exactly 1.0."""

    CFG = {"model": "nsm", "gamma": 1.0, "beta": 0.1, "dt": 0.01, "t_max": 80.0, "n_traj": 50, "seed": 3}

    def test_rabi_run(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(self.CFG, omega_rabi=0.5))
        assert main(["rabi", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0

    def test_decay_record_steps_run(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(self.CFG, record_steps=True))
        assert main(["decay", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0


class TestAnalyze:
    def test_decay_report(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, n_traj=2000))
        out = str(tmp_path / "run")
        main(["decay", "--config", cfg, "--out-dir", out])
        assert main(["analyze", "--out-dir", out]) == 0
        report = json.loads(read_bytes(out, "report.json"))
        assert report["checks"]["decay_ks"]["pass"] is True
        assert report["checks"]["drop_moments"]["pass"] is True
        assert report["pass"] is True
        ks, drop = report["checks"]["decay_ks"], report["checks"]["drop_moments"]
        assert ks["margin"] == ks["threshold"] - ks["distance"] > 0
        assert 0.0 <= ks["law_distance"] < 1e-14  # nsm is checked against the exponential law itself
        assert drop["margin"] == drop["tolerance"] - drop["dev_mean_a"] > 0

    def test_censored_decay_passes_strict(self, tmp_path):
        # t_max 2 censors about 13% of the runs; the KS law is conditioned on t <= t_max
        cfg = write_cfg(tmp_path, {"model": "swf", "gamma": 1.0, "dt": 0.01, "t_max": 2.0, "n_traj": 20_000, "seed": 3})
        out = str(tmp_path / "run")
        assert main(["decay", "--config", cfg, "--out-dir", out]) == 0
        assert main(["analyze", "--out-dir", out, "--strict"]) == 0
        ks = json.loads(read_bytes(out, "report.json"))["checks"]["decay_ks"]
        assert ks["n"] < 20_000 and ks["pass"] is True

    @pytest.mark.parametrize("seed", [1, 2])
    def test_qmop_passes_strict_against_its_step_law(self, tmp_path, seed):
        # at gamma*dt 0.1 qmop's step law sits 0.019 from the exponential law, against a 0.011 limit
        cfg = write_cfg(tmp_path, {"model": "qmop", "gamma": 1.0, "dt": 0.1, "t_max": 20.0, "n_traj": 100_000, "seed": seed})
        out = str(tmp_path / "run")
        assert main(["decay", "--config", cfg, "--out-dir", out]) == 0
        assert main(["analyze", "--out-dir", out, "--strict"]) == 0
        ks = json.loads(read_bytes(out, "report.json"))["checks"]["decay_ks"]
        assert ks["distance"] < 0.005 < ks["threshold"]
        assert ks["law_distance"] == pytest.approx(0.0192, abs=5e-5)  # the law checked, off the exponential

    def test_step_law_is_conditioned_on_the_engine_horizon(self, tmp_path):
        # t_max 1.04 is not a whole number of steps: the engine stops at 10 steps, t = 1.0
        cfg = write_cfg(tmp_path, {"model": "qmop", "gamma": 1.0, "dt": 0.1, "t_max": 1.04, "n_traj": 100_000, "seed": 1})
        out = str(tmp_path / "run")
        assert main(["decay", "--config", cfg, "--out-dir", out]) == 0
        assert main(["analyze", "--out-dir", out, "--strict"]) == 0
        ks = json.loads(read_bytes(out, "report.json"))["checks"]["decay_ks"]
        assert ks["distance"] < 0.006 < ks["threshold"]

    def test_fluorescence_margin(self, tmp_path):
        cfg = write_cfg(tmp_path, RABI_CFG)
        out = str(tmp_path / "run")
        assert main(["rabi", "--config", cfg, "--out-dir", out]) == 0
        assert main(["analyze", "--out-dir", out]) == 0
        tail = json.loads(read_bytes(out, "report.json"))["checks"]["fluorescence_tail"]
        assert tail["margin"] == tail["tolerance"] - abs(tail["mean_intensity"] - tail["target"])
        assert (tail["margin"] >= 0) == tail["pass"]

    def test_white_noise_has_no_dips(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(HOMODYNE_CFG, noise="white", n_traj=100))
        out = str(tmp_path / "run")
        main(["homodyne", "--config", cfg, "--out-dir", out])
        assert main(["analyze", "--out-dir", out]) == 0
        report = json.loads(read_bytes(out, "report.json"))
        assert report["checks"]["autocorrelation"]["dips_detected"] == 0

    def test_schema_mismatch_names_column(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, n_traj=50))
        out = str(tmp_path / "run")
        main(["decay", "--config", cfg, "--out-dir", out])
        path = os.path.join(out, "decay_times.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[0] = "t_decay,traj_id"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["analyze", "--out-dir", out]) == 2
        assert "traj_id" in capsys.readouterr().err

    def test_strict_exit_code_on_failure(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, n_traj=200))
        out = str(tmp_path / "run")
        main(["decay", "--config", cfg, "--out-dir", out])
        # corrupt the decay times so the KS check fails
        path = os.path.join(out, "decay_times.csv")
        with open(path) as fh:
            header = fh.readline()
        with open(path, "w") as fh:
            fh.write(header)
            for i in range(200):
                fh.write(f"{i},0.5\n")
        assert main(["analyze", "--out-dir", out, "--strict"]) == 4

    def test_missing_run_dir(self, tmp_path):
        assert main(["analyze", "--out-dir", str(tmp_path / "nope")]) == 2

    def test_schema_error_prints_one_error_line(self, tmp_path, capsys):
        with pytest.raises(SchemaError):
            cmd_analyze(str(tmp_path), False)
        assert main(["analyze", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("summary.json: missing (not a run directory?)\n")

    def test_report_holds_no_path(self, tmp_path):
        # one run directory analyzed at two paths writes the same report bytes
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, n_traj=200, t_max=10.0))
        first, second = str(tmp_path / "run"), str(tmp_path / "moved" / "elsewhere")
        assert main(["decay", "--config", cfg, "--out-dir", first]) == 0
        shutil.copytree(first, second)
        assert main(["analyze", "--out-dir", first]) == 0 and main(["analyze", "--out-dir", second]) == 0
        report = read_bytes(first, "report.json")
        assert report == read_bytes(second, "report.json") and str(tmp_path).encode() not in report

    @pytest.mark.parametrize("first, second", [("csv", "json"), ("json", "csv")])
    def test_rerun_in_other_format_leaves_no_stale_table(self, tmp_path, first, second):
        out = str(tmp_path / "run")
        for fmt, gamma in ((first, 1.0), (second, 3.0)):
            cfg = write_cfg(tmp_path, dict(DECAY_CFG, model="qmop", gamma=gamma, n_traj=2000))
            assert main(["decay", "--config", cfg, "--out-dir", out, "--format", fmt]) == 0
        for name in ("decay_times", "events"):
            assert os.path.exists(os.path.join(out, f"{name}.{second}"))
            assert not os.path.exists(os.path.join(out, f"{name}.{first}"))
        assert main(["analyze", "--out-dir", out, "--strict"]) == 0

    def test_analyze_reads_json_format_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, n_traj=800))
        out = str(tmp_path / "run")
        main(["decay", "--config", cfg, "--out-dir", out, "--format", "json"])
        assert main(["analyze", "--out-dir", out]) == 0
        report = json.loads(read_bytes(out, "report.json"))
        assert report["checks"]["decay_ks"]["pass"] is True


MALFORMED_CONFIGS = [
    "not json at all {",
    json.dumps(["a", "list"]),
    json.dumps({}),
    json.dumps(dict(DECAY_CFG, gamma=None)),
    json.dumps(dict(DECAY_CFG, gamma="one")),
    json.dumps(dict(DECAY_CFG, gamma=-2.0)),
    json.dumps(dict(DECAY_CFG, model="wrong")),
    json.dumps(dict(DECAY_CFG, dt=0.0)),
    json.dumps(dict(DECAY_CFG, dt=100.0)),
    json.dumps(dict(DECAY_CFG, dt=0.2)),  # gamma*dt above the accuracy guard
    json.dumps(dict(DECAY_CFG, n_traj=0)),
    json.dumps(dict(DECAY_CFG, n_traj=2.5)),
    json.dumps(dict(DECAY_CFG, seed=-1)),
    json.dumps(dict(DECAY_CFG, unexpected="key")),
    json.dumps(dict(DECAY_CFG, record_steps="yes")),
    json.dumps(dict(DECAY_CFG, gamma=10**400)),  # an int past every double
    json.dumps(dict(DECAY_CFG, model="qmop", gamma=0.0, dt=1e-300, t_max=1e300)),  # t_max/dt overflows
    json.dumps({k: v for k, v in DECAY_CFG.items() if k != "gamma"}),
]


BASE_CFGS = {"decay": DECAY_CFG, "homodyne": HOMODYNE_CFG, "rabi": RABI_CFG}
COMMON_KEYS = ["seed", "threads", "format", "out_dir"]
DECAY_KEYS = ["model", "gamma", "beta", "omega0", "omega1", "dt", "t_max", "n_traj", "record_steps", *COMMON_KEYS]
HOMODYNE_KEYS = ["gamma", "beta", "omega0", "omega1", "dt", "t_max", "n_traj"]
HOMODYNE_KEYS += ["alpha_mag", "theta", "noise", "kick", "max_lag", *COMMON_KEYS]
RABI_KEYS = ["model", "gamma", "beta", "omega0", "omega1", "omega_rabi", "dt", "t_max", "n_traj"]
RABI_KEYS += ["bin_width", "drop_bins", *COMMON_KEYS]
# a value of the wrong type (or a non-finite number) for every config key
WRONG_TYPES = {
    "model": "wrong",
    "noise": "pink",
    "format": "xml",
    "gamma": "one",
    "beta": True,
    "omega0": [0.0],
    "omega1": None,
    "omega_rabi": "2",
    "dt": {"dt": 0.01},
    "t_max": float("inf"),
    "alpha_mag": None,
    "theta": False,
    "kick": "0.5",
    "bin_width": [0.25],
    "n_traj": 2.5,
    "seed": "0",
    "threads": True,
    "max_lag": 10.0,
    "drop_bins": None,
    "record_steps": 1,
    "out_dir": 5,
}


class TestResolvedConfig:
    """The exact dict each command resolves a minimal config to: defaults drift shows here."""

    COMMON = {"seed": 0, "threads": 1, "format": "csv", "beta": 0.0, "omega0": 0.0, "omega1": 0.0}
    MINIMAL = {
        "decay": {"model": "qmop", "gamma": 1.0, "dt": 0.01, "t_max": 1.0, "n_traj": 5},
        "homodyne": {"gamma": 1.0, "dt": 0.01, "t_max": 1.0, "n_traj": 5, "noise": "white"},
        "rabi": {"model": "qmop", "gamma": 1.0, "omega_rabi": 2.0, "dt": 0.01, "t_max": 1.0, "n_traj": 5},
    }
    DEFAULTS = {
        "decay": {"record_steps": False},
        "homodyne": {"theta": 0.0, "alpha_mag": 1.0, "kick": None, "max_lag": 100},
        "rabi": {"bin_width": 0.25, "drop_bins": 20},
    }

    @pytest.mark.parametrize("command", ["decay", "homodyne", "rabi"])
    @pytest.mark.parametrize("out_dir", [None, "run"])
    def test_minimal_config(self, tmp_path, command, out_dir):
        overrides = {"seed": None, "out_dir": out_dir, "threads": None, "format": None}
        cfg = load_config(write_cfg(tmp_path, self.MINIMAL[command]), command, overrides)
        want = dict(self.MINIMAL[command], **self.COMMON, **self.DEFAULTS[command])
        if out_dir is not None:
            want["out_dir"] = out_dir
        # JSON text tells 0 from 0.0 and false from 0, as summary.json does
        assert json.dumps(cfg, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_readme_lists_every_config_key():
    """The README's config key table has one row per ``_KEYS`` entry, in order."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | commands | type | default |") + 2
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    names = {float: "number", int: "integer", bool: "`true` or `false`", str: "string"}
    want = []
    for key, (kind, default, commands) in _KEYS.items():
        if isinstance(kind, EnumMeta):
            kind = tuple(member.value for member in kind)
        type_name = "one of " + ", ".join(f"`{v}`" for v in kind) if isinstance(kind, tuple) else names[kind]
        if default is _REQUIRED:
            shown = "required"
        elif default is _NO_DEFAULT:
            shown = "none"
        else:
            shown = f"`{json.dumps(default)}`"
            type_name += " or `null`" if default is None else ""
        want.append(f"| `{key}` | {', '.join(commands)} | {type_name} | {shown} |")
    assert rows == want


class TestConfigErrors:
    @pytest.mark.parametrize("payload", MALFORMED_CONFIGS)
    def test_fuzz_corpus_exits_2(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(payload)
        out = str(tmp_path / "run")
        assert main(["decay", "--config", str(path), "--out-dir", out]) == 2
        assert not os.path.exists(out)  # invalid config never produces output

    def test_missing_field_names_it(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: v for k, v in DECAY_CFG.items() if k != "gamma"}))
        assert main(["decay", "--config", str(path), "--out-dir", str(tmp_path / "x")]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_config_error_prints_one_error_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(DECAY_CFG, gamma="one"))
        with pytest.raises(ConfigError):
            load_config(cfg, "decay", {})
        assert main(["decay", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma: ") and err.count("\n") == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["decay", "--config", str(tmp_path / "none.json"), "--out-dir", "x"]) == 3

    def test_bad_flag_exits_2(self):
        assert main(["decay", "--config"]) == 2

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("decay", dict(DECAY_CFG, gamma=0.0, t_max=5.0, n_traj=20)),  # nsm drop moments need gamma > 0
            ("rabi", dict(RABI_CFG, gamma=0.0, n_traj=10)),  # nsm drop histogram needs gamma > 0
            ("homodyne", dict(HOMODYNE_CFG, kick=-1.0)),
            ("homodyne", dict(HOMODYNE_CFG, t_max=0.01)),  # one step: no spectrum
            # beta*t_max fluctuations per trajectory: hours of engine steps
            ("decay", dict(DECAY_CFG, beta=1e300, t_max=1.0, n_traj=2)),
            ("decay", dict(DECAY_CFG, beta=1e20, t_max=1.0, n_traj=2)),
            ("rabi", dict(RABI_CFG, beta=1e300, t_max=1.0, n_traj=2)),
            ("rabi", dict(RABI_CFG, beta=1e20, t_max=1.0, n_traj=2)),
        ],
        ids=[
            "decay-nsm-gamma0",
            "rabi-nsm-gamma0",
            "homodyne-negative-kick",
            "homodyne-one-step",
            "decay-nsm-beta1e300",
            "decay-nsm-beta1e20",
            "rabi-nsm-beta1e300",
            "rabi-nsm-beta1e20",
        ],
    )
    def test_invalid_run_leaves_no_output(self, tmp_path, command, payload):
        out = str(tmp_path / "run")
        assert main([command, "--config", write_cfg(tmp_path, payload), "--out-dir", out]) == 2
        assert not os.path.exists(out)

    def test_rabi_bin_width_must_divide_t_max(self, tmp_path, capsys):
        # 25 / 0.3 ends the last of 83 bins at 24.9: emissions after it would be dropped
        out = str(tmp_path / "run")
        cfg = write_cfg(tmp_path, dict(RABI_CFG, model="qmop", t_max=25.0, bin_width=0.3, n_traj=5))
        assert main(["rabi", "--config", cfg, "--out-dir", out]) == 2
        assert "bin_width" in capsys.readouterr().err
        assert not os.path.exists(out)
        cfg = write_cfg(tmp_path, dict(RABI_CFG, model="qmop", t_max=25.0, bin_width=0.25, n_traj=5), "whole.json")
        assert main(["rabi", "--config", cfg, "--out-dir", out]) == 0

    @pytest.mark.parametrize(
        "command,key",
        [("decay", key) for key in DECAY_KEYS] + [("homodyne", key) for key in HOMODYNE_KEYS]
        + [("rabi", key) for key in RABI_KEYS],
    )
    def test_wrongly_typed_key_is_named(self, tmp_path, monkeypatch, capsys, command, key):
        payload = dict(BASE_CFGS[command], out_dir=str(tmp_path / "run"))
        payload[key] = WRONG_TYPES[key]
        monkeypatch.chdir(tmp_path)  # a bad out_dir would be created relative to here
        assert main([command, "--config", write_cfg(tmp_path, payload)]) == 2
        assert f"{key}:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize(
        "command,key,value",
        [("rabi", "record_steps", True), ("decay", "noise", "white"), ("homodyne", "bin_width", 0.5)],
    )
    def test_key_of_another_command_is_unknown(self, tmp_path, capsys, command, key, value):
        out = str(tmp_path / "run")
        cfg = write_cfg(tmp_path, dict(BASE_CFGS[command], **{key: value}))
        assert main([command, "--config", cfg, "--out-dir", out]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_homodyne_nsm_needs_beta(self, tmp_path):
        payload = dict(HOMODYNE_CFG)
        del payload["beta"]
        cfg = write_cfg(tmp_path, payload)
        assert main(["homodyne", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2
