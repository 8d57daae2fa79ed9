"""The lock-step machinery shared by the decay engines (``models``) and the driven ones (``rabi``).

An engine advances a group of trajectories together in numpy, trajectory
``j`` reading the stream ``(seed, ids[j])``.  The interface:

* draws by position: ``StreamCursors``, the nsm loop ``fluctuation_rounds``
  built on it with ``occupation_drops`` and ``joined_rounds``, ``math_map``
  and ``truncated_exponential_times``;
* trajectory order, segments ``(traj, k_start, ...)`` (a trajectory's
  occupation from grid step ``k_start`` on) and bins: ``trajectory_order``,
  ``covering_segment``, ``segment_occupation``, ``ragged``,
  ``segment_bin_means`` and ``bin_statistics``;
* event rows ``([traj,] t, kind, before, after)``, ``kind`` an int8 code
  (``KIND_CODE``, ``EVENT_KIND_NAMES``): ``step_table``, ``merge_rows``,
  ``concatenate`` and ``trajectory_events``;
* groups: ``run_groups``, the one runner of decay and driven ensembles, a
  group of consecutive ids at a time, and ``stream_ids`` for a
  one-trajectory runner.

Draw order of the nsm fluctuation loop (part of the reproducibility
contract): per fluctuation, the gap uniform, redrawn while it is 0 or the
gap ``-ln(u)/beta`` is 0, then the draws of the engine's reduction
(``models._lockstep_nsm``, ``rabi._lockstep_driven_nsm``).  Draw ``p`` of a
stream is lane ``p % 4`` of its Philox counter ``p // 4 + 1``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .core import EncodedColumn, EventKind, ModelParams, RngStream, TrajectoryEvent, philox_uniforms

# Trajectories per nsm lock-step group (decay and driven), and per driven
# qmop/swf group: bounds the draw buffers, the per-fluctuation or emission
# columns and the binning temporaries.  On a streamed driven nsm run of 4e4
# trajectories of 12.5 fluctuations each (`qdecay rabi`, fresh processes),
# groups of 8192 took ~6% less time than 2048 but peaked ~4.3 MB higher
# (39.1 against 34.8 MB).
GROUP_SIZE = 2048
# Philox counters (four draws each) a trajectory's draw buffer holds.
_NSM_BUFFER_CTRS = 8
_NSM_BUFFER = 4 * _NSM_BUFFER_CTRS


def stream_ids(stream, runner: str) -> range:
    """The one id ``range(i, i + 1)`` of ``stream``, which ``runner`` needs to be an ``RngStream``."""
    if not isinstance(stream, RngStream):
        raise TypeError(f"{runner} takes an RngStream from derive_stream(), got {type(stream).__name__}")
    return range(stream.stream_id, stream.stream_id + 1)


def run_groups(group, n: int, size: int, n_bins: int):
    """``group(ids, vals)`` over consecutive groups of at most ``size`` ids of ``range(n)``.

    ``vals`` is the group's rows of one ``(n, n_bins)`` bin matrix for it to
    fill.  Returns the matrix, then each column ``group`` returns, joined in
    trajectory order by ``concatenate`` (a group returning ``()`` keeps none).
    """
    ids, vals = range(n), np.empty((n, n_bins))
    groups = [group(ids[lo : lo + size], vals[lo : lo + size]) for lo in range(0, n, size)]
    return (vals, *_joined_columns(groups))


def _joined_columns(tuples: list):
    """Each column of the equal-length column ``tuples``, joined by ``concatenate``; empties ``tuples``.

    One column at a time is joined and its pieces released, so the pieces
    of the columns already joined are not held beside their joins.
    """
    columns = [list(c) for c in zip(*tuples)]
    tuples.clear()
    for pieces in columns:
        yield concatenate(pieces)
        pieces.clear()


def math_map(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` over the 1-D ``x``: numpy's transcendentals may round differently.

    The buffer yields the same Python floats as ``x.tolist()`` without building the list.
    """
    return np.fromiter(map(fn, memoryview(x)), float, x.size)


def truncated_exponential_times(rate: float, width, v: np.ndarray) -> np.ndarray:
    """Inverse-CDF samples of Exp(rate) conditioned on (0, width], one per ``v`` in [0, 1).

    ``width`` is an array like ``v`` or one float; samples are clamped to
    [ulp(0), width] against rounding.  The arithmetic, ``min`` and ``max``
    run in numpy, ``expm1`` and ``log1p`` on ``math``.
    """
    if rate <= 0.0:
        return np.where(v > 0.0, v, 0.5) * width
    x = -rate * width
    q = -(math_map(math.expm1, x) if np.ndim(x) else math.expm1(x))
    s = -math_map(math.log1p, -v * q) / rate
    return np.minimum(np.maximum(s, math.ulp(0.0)), width)


class StreamCursors:
    """Draw ``pos[j]`` of the stream ``(seed, ids[j])``, read by position from Philox blocks.

    Each trajectory keeps its own position and a window of the
    ``_NSM_BUFFER`` draws from ``base[j]`` on.  When one of the rows asked
    for runs short, every one of them whose position is in the upper half
    of its window slides it by half: the upper half moves down and only the
    counters of the new upper half are evaluated, so no ``(id, counter)``
    pair is evaluated twice, and refills batch into few ``philox_uniforms``
    calls.
    """

    def __init__(self, seed: int, ids: range):
        m = len(ids)
        self.seed = seed
        self.ids = ids.start + np.arange(m, dtype=np.uint64)
        self.pos = np.zeros(m, dtype=np.int64)
        self.base = np.full(m, -_NSM_BUFFER, dtype=np.int64)  # empty windows, ending before draw 0
        self.buf = np.empty((m, _NSM_BUFFER))

    def take(self, rows: np.ndarray, need: int) -> np.ndarray:
        """The next draw of each of ``rows``, after making sure ``need`` of them are buffered."""
        half = _NSM_BUFFER // 2
        left = self.base[rows] + _NSM_BUFFER - self.pos[rows]
        if (left < need).any():
            r = rows[left < half]
            self.base[r] += half
            self.buf[r, :half] = self.buf[r, half:]
            # draw d is lane d % 4 of counter d // 4 + 1
            counters = (self.base[r] + half)[:, None] // 4 + np.arange(1, half // 4 + 1)
            self.buf[r, half:] = philox_uniforms(self.seed, self.ids[r][:, None], counters).reshape(r.size, half)
        p = self.pos[rows]
        self.pos[rows] = p + 1
        return self.buf[rows, p - self.base[rows]]


def _fluctuation_gaps(draws: StreamCursors, rows: np.ndarray, beta: float) -> np.ndarray:
    """One gap ``-ln(u)/beta`` per row, each redrawing u while the gap is not positive.

    The masked form of ``models._fluctuation_gap``: rows whose ``u`` is 0,
    or whose gap underflows to 0, draw again; the others are done.
    """
    gaps = np.empty(rows.size)
    todo = np.arange(rows.size)
    while todo.size:
        u = draws.take(rows[todo], 3)  # the gap, the reduction and the driven photon
        gap = np.zeros(todo.size)
        drawn = u > 0.0
        gap[drawn] = -math_map(math.log, u[drawn]) / beta
        done = gap > 0.0
        gaps[todo[done]] = gap[done]
        todo = todo[~done]
    return gaps


def fluctuation_rounds(params: ModelParams, seed: int, ids: range, live: np.ndarray, reduce, forced=None):
    """The nsm fluctuation loop over the streams ``(seed, i)``, ``i`` in ``ids``, yielded a round at a time.

    One round advances every trajectory in ``live`` by one fluctuation: the
    gap (redrawn while ``u == 0`` or the gap is 0), or the next ``forced``
    time whatever ``beta``, then ``reduce(draws, live, t, gap)``, which draws
    the rest and returns the fluctuations' columns, the columns of the
    segments they start and a mask of the trajectories that go on.  A
    trajectory also leaves when its next fluctuation falls past ``t_max``.
    Each round yields its fluctuations ``(traj, t, gap, ...)`` and segments
    ``(traj, k_start, ...)``, rows in trajectory order, and its caller keeps
    the rows it reads: ``joined_rounds`` keeps them all.
    """
    m = len(ids)
    draws = StreamCursors(seed, ids)
    t_prev = np.zeros(m)
    times = None if forced is None else iter(forced.tolist())
    while True:
        if times is None:
            gap = _fluctuation_gaps(draws, live, params.beta)
            t = t_prev[live] + gap
        else:  # past the last forced time every trajectory leaves
            t = np.full(live.size, next(times, math.inf))
            gap = t - t_prev[live]
        inside = t <= params.t_max
        live, gap, t = live[inside], gap[inside], t[inside]
        cols, seg, stay = reduce(draws, live, t, gap)
        yield (live, t, gap, *cols), (live, *seg)
        if not live.size:
            return
        live, t = live[stay], t[stay]
        t_prev[live] = t


def occupation_drops(gamma: float, gap: np.ndarray) -> np.ndarray:
    """The occupation drop ``1 - exp(-gamma * gap)`` at the fluctuation ending each gap, on ``math.expm1``."""
    return -math_map(math.expm1, -gamma * gap)


def joined_rounds(gamma: float, first, rounds):
    """Every fluctuation and segment of ``fluctuation_rounds``' ``rounds``, each in trajectory order.

    ``first`` holds the segments from step 0.  Returns the fluctuations
    ``(traj, t, gap, drop, ...)``, ``drop`` the ``occupation_drops`` of the
    gaps, and the segments ``(traj, k_start, ...)``.
    """
    fluct, segs = [], [first]
    for f, s in rounds:
        fluct.append(f)
        segs.append(s)
    traj, t, gap, *cols = trajectory_order(fluct)
    return (traj, t, gap, occupation_drops(gamma, gap), *cols), trajectory_order(segs)


def trajectory_order(rounds: list) -> Tuple[np.ndarray, ...]:
    """The rounds' column tuples joined and stably sorted on their first column.

    Empties ``rounds``: one column at a time is joined, its pieces released
    and the join gathered in order.
    """
    out = []
    for joined in _joined_columns(rounds):
        if not out:
            order = np.argsort(joined, kind="stable")
        out.append(joined[order])
    return tuple(out)


def covering_segment(segments, n: int, traj: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Index of the segment that holds step ``k`` of trajectory ``traj``, for queries sorted on (traj, k).

    It is the trajectory's last segment starting at or before ``k`` (an
    empty segment, from several fluctuations in one step, never is).  Each
    segment of the queried trajectories marks the first query at or after
    its start, and a running maximum over the marks carries it forward.
    """
    key = traj * (n + 2) + k
    lo, hi = np.searchsorted(segments[0], (traj[0], traj[-1] + 1)) if traj.size else (0, 0)
    seg_key = segments[0][lo:hi] * (n + 2) + segments[1][lo:hi]
    mark = np.zeros(key.size + 1, dtype=np.int64)
    np.maximum.at(mark, np.searchsorted(key, seg_key), np.arange(lo, hi))
    return np.maximum.accumulate(mark[:-1])


def segment_occupation(tables: np.ndarray, segments, n: int, traj: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Occupation of trajectory ``traj`` at step ``k``, row ``table`` of ``tables`` from its segment's start."""
    s = covering_segment(segments, n, traj, k)
    return tables[segments[2][s], k - segments[1][s]]


def ragged(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices ``start[i] .. start[i] + size[i] - 1`` of every window ``i``, in order."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())


# Elements materialised at once when summing bins.
_BIN_ELEMENTS = 1 << 16


def _window_sums(size: np.ndarray, elements) -> np.ndarray:
    """``np.add.reduceat`` sums of consecutive windows of the given sizes.

    ``elements(w)`` returns the elements of the windows in slice ``w``, in
    order; it is called for slices of about ``_BIN_ELEMENTS`` elements.
    """
    sums = np.empty(size.size)
    per = max(1, _BIN_ELEMENTS // int(size.max())) if size.size else 1
    for lo in range(0, size.size, per):
        w = slice(lo, lo + per)
        first = np.cumsum(size[w]) - size[w]
        sums[w] = np.add.reduceat(elements(w).reshape(-1), first)
    return sums


def segment_bin_means(segments, m: int, n: int, bin_steps: int, tables, seg_table, occupation) -> np.ndarray:
    """Per-trajectory occupation means over the bins of ``bin_steps`` steps, from segments.

    The values equal ``np.add.reduceat(series[:n], edges[:-1]) / bin_steps``
    of each trajectory's occupation series bit for bit, without building it:
    every bin sum is a reduceat over the bin's own elements, in order.  A
    segment ``s`` with ``seg_table[s] >= 0`` reads that row of ``tables``
    from its start, so the whole bins inside it are windows 0, 1, ... of the
    row from the phase of its first bin edge; each window of a (row, phase)
    pair is summed once, however many segments use it.  The other bins (cut
    by a segment start, in another segment, or the longer last bin when
    ``bin_steps`` does not divide ``n``) are summed over elements read by
    ``occupation(traj, k)``.  Trajectories go in blocks of about
    ``_BIN_ELEMENTS`` bins, which bounds the per-bin index arrays.  Returns
    an (m, n_bins) array.
    """
    n_bins = n // bin_steps
    means = np.empty((m, n_bins))
    if not n_bins:
        return means
    seg_traj, k_start = segments[0], segments[1]
    # a segment runs to the next one's start, the last of its trajectory to step n
    k_end = np.append(k_start[1:], n)
    k_end[np.flatnonzero(seg_traj[1:] != seg_traj[:-1])] = n
    b_lo = -(-k_start // bin_steps)
    whole = np.minimum(k_end // bin_steps, n_bins - (n % bin_steps > 0)) - b_lo
    count = np.where(seg_table >= 0, np.maximum(whole, 0), 0)
    pair = seg_table.clip(0) * bin_steps + b_lo * bin_steps - k_start
    longest = np.zeros(tables.shape[0] * bin_steps, dtype=np.int64)
    np.maximum.at(longest, pair, count)
    used = np.flatnonzero(longest)
    # window j of pair (row r, phase p) starts at element p + j * bin_steps of row r
    first = np.repeat(used // bin_steps * tables.shape[1] + used % bin_steps, longest[used])
    first += ragged(0 * used, longest[used]) * bin_steps
    width = np.full(first.size, bin_steps)
    windows = _window_sums(width, lambda w: tables.reshape(-1)[ragged(first[w], width[w])]) / bin_steps
    run_slot = (np.cumsum(longest) - longest)[pair]
    per = max(1, _BIN_ELEMENTS // n_bins)
    for lo in range(0, m, per):
        block = means[lo : lo + per].reshape(-1)
        seg = slice(*np.searchsorted(seg_traj, (lo, lo + per)))
        run = (seg_traj[seg] - lo) * n_bins + b_lo[seg]
        pos = ragged(run, count[seg])
        block[pos] = windows[pos - np.repeat(run - run_slot[seg], count[seg])]
        rest = np.ones(block.size, dtype=bool)
        rest[pos] = False
        traj, b = np.divmod(np.flatnonzero(rest), n_bins)
        k, size = b * bin_steps, np.where(b < n_bins - 1, bin_steps, n - b * bin_steps)
        sums = _window_sums(size, lambda w: occupation(np.repeat(lo + traj[w], size[w]), ragged(k[w], size[w])))
        block[rest] = sums / bin_steps
    return means


def bin_statistics(vals: np.ndarray, bin_steps: int, dt: float):
    """(centers, mean, var, se) over trajectories of per-bin occupation means.

    ``vals`` has one row per trajectory and one column per bin of
    ``bin_steps`` steps.  The reduction runs over the whole matrix, so it
    does not depend on how trajectories were grouped.
    """
    n = vals.shape[0]
    edges = np.arange(vals.shape[1] + 1) * bin_steps
    mean = vals.mean(axis=0)
    var = vals.var(axis=0, ddof=1) if n > 1 else np.zeros(vals.shape[1])
    return (edges[:-1] + edges[1:]) / 2.0 * dt, mean, var, np.sqrt(var / n)


# Event rows: columns (t, kind, before, after), kind an int8 index into _KINDS.
# A column may be an EncodedColumn; merge_rows and trajectory_events take both.
_KINDS = tuple(EventKind)
KIND_CODE = {kind: np.int8(code) for code, kind in enumerate(_KINDS)}
# The name of each kind code, as the events table spells it.
EVENT_KIND_NAMES = tuple(kind.value for kind in _KINDS)


def concatenate(pieces):
    """The columns ``pieces`` one after another, encoded when the first longest of them is.

    Encoded columns join their codes, each offset by the lengths of the
    values before its own unless all share one values object; a plain
    column joins as codes into itself, or decoded when the first longest is
    plain.
    """
    if not isinstance(max(pieces, key=len), EncodedColumn):
        return np.concatenate([np.asarray(c) for c in pieces])
    pieces = [c if isinstance(c, EncodedColumn) else EncodedColumn(np.arange(len(c)), c) for c in pieces]
    if all(c.values is pieces[0].values for c in pieces):
        return EncodedColumn(np.concatenate([c.codes for c in pieces]), pieces[0].values)
    codes = np.concatenate([c.codes for c in pieces]).astype(np.int64, copy=False)
    sizes = np.array([len(c.values) for c in pieces])
    codes += np.repeat(np.cumsum(sizes) - sizes, [len(c) for c in pieces])
    return EncodedColumn(codes, np.concatenate([np.asarray(c.values) for c in pieces]))


def merge_rows(first, second):
    """The rows of ``first`` then ``second``, stably sorted on their first column, then their second."""
    cols = list(map(concatenate, zip(first, second)))
    order = np.lexsort((np.asarray(cols[1]), np.asarray(cols[0])))
    for i, c in enumerate(cols):  # one at a time, so each joined column is freed once gathered
        cols[i] = EncodedColumn(c.codes[order], c.values) if isinstance(c, EncodedColumn) else c[order]
    return tuple(cols)


def trajectory_events(t, kind, before, after) -> Tuple[TrajectoryEvent, ...]:
    """The ``TrajectoryEvent``s of one trajectory's event rows."""
    kinds = [_KINDS[c] for c in kind.tolist()]
    return tuple(map(TrajectoryEvent, t.tolist(), kinds, before.tolist(), after.tolist()))


def step_table(occupation, grid: np.ndarray, n_rows: np.ndarray, taken_traj: np.ndarray, taken_t: np.ndarray):
    """STEP rows ``(traj, t, kind, before, after)`` of trajectories ``0 .. n_rows.size - 1``.

    Trajectory ``i`` has a row at the end of each of the grid steps ``1 ..
    n_rows[i]``, except at a grid time equal to one of its taken times
    ``taken_t[taken_traj == i]``: an event already logged there keeps the
    time.  ``before`` and ``after`` are the occupations ``occupation(traj,
    k)`` at the step's two grid points, read for queries sorted on (traj,
    k); ``t`` is an ``EncodedColumn`` of codes into ``grid``.
    """
    n = grid.size - 1
    size = n_rows + 1  # grid points 0 .. n_rows
    traj = np.repeat(np.arange(n_rows.size), size)
    k = ragged(0 * size, size)
    occ = occupation(traj, k)
    k_f = np.minimum(np.searchsorted(grid, taken_t), n)
    taken = (taken_traj * (n + 2) + k_f)[grid[k_f] == taken_t]
    row = np.flatnonzero((k < n_rows[traj]) & ~np.isin(traj * (n + 2) + k + 1, taken))
    t = EncodedColumn(k[row] + 1, grid)
    return traj[row], t, np.full(row.size, KIND_CODE[EventKind.STEP]), occ[row], occ[row + 1]
