"""Layer spans for the traced benchmark run, recorded from outside qdecay.

``instrument`` replaces the public functions that ``qdecay.cli`` calls with
thin wrappers that open a span per call.  Spans nest on a stack and are
aggregated per label as they close (total time, time covered by child spans,
call count), so the 1e5 ``RngStream.generator`` spans of a decay run cost a
few counters, not 1e5 records.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """Nested spans aggregated per label.

    A span's self time is its duration minus the time its direct child spans
    cover.  Children of one span never overlap (they run on one thread, one
    after another), so that covered time is the sum of their durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    def enter(self, label: str) -> None:
        self._stack.append([label, self.clock(), 0.0])

    def exit(self) -> None:
        label, start, child = self._stack.pop()
        duration = self.clock() - start
        self.total[label] += duration
        self.child[label] += child
        self.calls[label] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def add(self, name: str, n: int) -> None:
        """Tally ``n`` units of work under the counter ``name``."""
        self.counts[name] += n

    def self_time(self, label: str) -> float:
        return self.total[label] - self.child[label]


def timed(tracer: Tracer, label: str, fn, on_result=None):
    """Wrap ``fn`` in a span; ``on_result`` sees each result after the span closes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def timed_iter(tracer: Tracer, label: str, fn, on_item):
    """Wrap an iterator-returning ``fn``: one span per ``next()`` on its result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            tracer.enter(label)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            on_item(item)
            yield item

    return wrapper


def instrument(cli, tracer: Tracer, written: list) -> None:
    """Wrap the layer entry points where ``cli`` looks them up.

    Paths returned by ``write_table``/``write_summary`` are appended to
    ``written`` so rows and bytes can be counted after the timed region.
    """
    from qdecay import core

    core.RngStream.generator = timed(tracer, "core.stream_setup", core.RngStream.generator)
    cli.models.run_decay_ensemble = timed(tracer, "models.ensemble", cli.models.run_decay_ensemble)
    cli.iter_homodyne_records = timed_iter(
        tracer,
        "homodyne.records",
        cli.iter_homodyne_records,
        on_item=lambda rec: tracer.add("homodyne.traj_steps", int(rec.current.size)),
    )
    acc = cli.EnsembleAutocorrelation
    acc.add = timed(tracer, "homodyne.autocorr", acc.add)
    acc.result = timed(tracer, "homodyne.autocorr", acc.result)
    cli.rabi.run_driven_ensemble = timed(
        tracer,
        "rabi.ensemble",
        cli.rabi.run_driven_ensemble,
        on_result=lambda ens: tracer.add("rabi.emissions", int(ens.emission_times.size)),
    )
    for name in ("fluorescence_from_times", "drop_histogram_from_samples"):
        setattr(cli.rabi, name, timed(tracer, "rabi.reduce", getattr(cli.rabi, name)))
    for name in ("ks_distance", "mean_var_se", "power_spectrum"):
        setattr(cli.stats, name, timed(tracer, "stats", getattr(cli.stats, name)))
    cli.write_table = timed(tracer, "cli.write", cli.write_table, on_result=written.append)
    cli.write_summary = timed(tracer, "cli.write", cli.write_summary, on_result=written.append)
    cli.read_table = timed(tracer, "cli.read_table", cli.read_table)
    cli.cmd_analyze = timed(tracer, "cli.analyze", cli.cmd_analyze)


LAYER_UNITS = {
    "core.stream_setup_s": "s",
    "core.streams": "count",
    "models.ensemble_self_s": "s",
    "homodyne.records_s": "s",
    "homodyne.autocorr_s": "s",
    "homodyne.traj_steps": "count",
    "rabi.ensemble_self_s": "s",
    "rabi.reduce_s": "s",
    "rabi.emissions": "count",
    "cli.write_self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "cli.analyze_s": "s",
    "cli.read_table_s": "s",
    "stats.s": "s",
}


def layer_metrics(tracer: Tracer, rows_written: int, bytes_written: int) -> dict:
    """Per-layer figures of one traced run, keyed as in ``LAYER_UNITS``."""
    return {
        "core.stream_setup_s": tracer.total["core.stream_setup"],
        "core.streams": tracer.calls["core.stream_setup"],
        "models.ensemble_self_s": tracer.self_time("models.ensemble"),
        "homodyne.records_s": tracer.self_time("homodyne.records"),
        "homodyne.autocorr_s": tracer.total["homodyne.autocorr"],
        "homodyne.traj_steps": tracer.counts["homodyne.traj_steps"],
        "rabi.ensemble_self_s": tracer.self_time("rabi.ensemble"),
        "rabi.reduce_s": tracer.total["rabi.reduce"],
        "rabi.emissions": tracer.counts["rabi.emissions"],
        "cli.write_self_s": tracer.self_time("cli.write"),
        "cli.rows_written": rows_written,
        "cli.bytes_written": bytes_written,
        "cli.analyze_s": tracer.total["cli.analyze"],
        "cli.read_table_s": tracer.total["cli.read_table"],
        "stats.s": tracer.total["stats"],
    }
