"""Tests for the benchmark itself; they are not part of the package's suite.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from qdecay import cli  # noqa: E402
from tracing import LAYER_UNITS, Tracer, timed, timed_iter  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    # write [0, 10] holds records [1, 4] (with streams [1.5, 2.5] and
    # [3, 3.5]), autocorr [5, 6] and records [7, 8].
    for t, label in [
        (0, "write"),
        (1, "records"),
        (1.5, "stream"),
        (2.5, None),
        (3, "stream"),
        (3.5, None),
        (4, None),
        (5, "autocorr"),
        (6, None),
        (7, "records"),
        (8, None),
        (10, None),
    ]:
        clock.now = t
        if label:
            tracer.enter(label)
        else:
            tracer.exit()

    assert tracer.total["write"] == pytest.approx(10.0)
    assert tracer.self_time("write") == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert tracer.total["records"] == pytest.approx(4.0)
    assert tracer.self_time("records") == pytest.approx(4.0 - 1.5)
    assert tracer.calls["records"] == 2
    assert tracer.total["stream"] == pytest.approx(1.5)
    assert tracer.self_time("stream") == pytest.approx(1.5)
    assert tracer.calls["stream"] == 2


def test_iterator_spans_exclude_the_consumer():
    clock = FakeClock()
    tracer = Tracer(clock)

    def produce():
        for i in range(3):
            clock.now += 2.0
            yield i

    def write(rows):
        for _ in rows:
            clock.now += 1.0

    records = timed_iter(tracer, "records", produce, on_item=lambda i: tracer.add("items", 1))
    timed(tracer, "write", write)(records())

    assert tracer.total["records"] == pytest.approx(6.0)
    assert tracer.calls["records"] == 4  # three items and the exhausting call
    assert tracer.self_time("write") == pytest.approx(3.0)
    assert tracer.counts["items"] == 3


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generated_config_passes_load_config(tmp_path, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(run.make_config(name, 123)))
    cfg = cli.load_config(str(path), run.WORKLOADS[name].command, {})
    assert cfg["seed"] == 123

    bad = dict(run.make_config(name, 123), unexpected_key=1)
    path.write_text(json.dumps(bad))
    with pytest.raises(cli.ConfigError, match="unknown keys"):
        cli.load_config(str(path), run.WORKLOADS[name].command, {})


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_argument_changes_only_the_seed(name):
    a, b = run.make_config(name, 1), run.make_config(name, 2)
    assert a.keys() == b.keys()
    assert {k for k in a if a[k] != b[k]} == {"seed"}
    default = run.WORKLOADS[name].config
    assert run.make_config(name, default["seed"]) == default


def _run(digest: str, passed: bool = True) -> dict:
    return {
        "problems": [],
        "versions": {"python": "3", "numpy": "2"},
        "sha256": {"a.csv": digest},
        "checks": {"ks": {"pass": passed}},
    }


def test_gate_uses_reference_hashes_only_at_the_default_seed():
    reference = {"sha256": {"a.csv": "ref"}, "checks": {"ks": {"pass": True}, "tail": {"pass": False}}}
    versions = {"python": "3", "numpy": "2"}

    runs = [_run("ref"), _run("other")]
    assert run.gate(runs, reference, versions, default_seed=True) == "seed-commit hashes"
    assert [bool(r["problems"]) for r in runs] == [False, True]

    runs = [_run("x"), _run("x"), _run("y"), _run("x", passed=False)]
    assert run.gate(runs, reference, versions, default_seed=False) == "hashes equal across runs"
    assert [bool(r["problems"]) for r in runs] == [False, False, True, True]

    runs = [_run("x")]
    run.gate(runs, reference, {"python": "3", "numpy": "1"}, default_seed=True)
    assert runs[0]["problems"] == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [*LAYER_UNITS, "trace_overhead_s"]
    reference = json.loads(run.REFERENCE.read_text())
    assert sorted(reference["workloads"]) == sorted(run.WORKLOADS)
