"""Driven two-level dynamics: analytic occupation laws and Monte Carlo
fluorescence under each decay model.

The drive is resonant and treated in the rotating frame: each step applies
the rotation generated by (omega_rabi/2) * sigma_x for a duration dt, then
the selected model's decay step.  Emission is non-terminal here: after a
jump the atom restarts from the ground state and keeps being driven, and
every emission is logged as a photon-detection event.

Convention note: with this generator the undamped occupation from the ground
state is sin^2(omega_rabi*t/2) = (1 - cos(omega_rabi*t))/2, matching the
zero-damping limit of ``torrey_occupation``.  ``rabi_occupation_undamped``
exposes the sin^2(omega_rabi*t) form verbatim, which corresponds to doubling
the drive frequency; the two conventions differ by that factor of two and
``torrey_occupation``'s is the one the engines follow.

Draw order per trajectory (part of the reproducibility contract):

* nsm: per fluctuation, the gap uniform (redrawn while it is 0 or the gap
  ``-ln(u)/beta`` is 0), the reduction uniform and, on the to-ground branch
  only, the photon uniform.  One engine, ``_lockstep_driven_nsm``, reads
  them by position from the Philox4x64-10 streams in the fluctuation loop
  it shares with nsm decay (``models._fluctuation_rounds``);
  ``run_driven_ensemble`` runs it over groups of ids and
  ``run_driven_trajectory`` over the one id of its stream.
* qmop / swf: from each reset, one check uniform for every remaining step,
  drawn at once, then the attribution uniform if a check hit; read from
  ``stream.generator()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    EventKind,
    Model,
    ModelParams,
    QubitState,
    RngStream,
    TrajectoryRecord,
    rekeyed_generators,
    run_ensemble,
)
from .models import (
    _CODE,
    _NSM_GROUP,
    NsmEvent,
    NsmOutcome,
    _bin_statistics,
    _covering_segment,
    _fluctuation_rounds,
    _jump_strength,
    _merge_rows,
    _segment_bin_means,
    _step_rows,
    _trajectory_events,
    _trajectory_order,
    _truncated_exponential_time,
)

MAX_DRIVEN_STEP = 0.05  # guard on dt * max(gamma, omega_rabi)


@dataclass(frozen=True)
class DriveParams:
    """Resonant drive strength, given directly or via dipole and field vectors.

    With both vectors given, the Rabi frequency is their dot product (charge
    constant folded to one) and any explicit ``omega_rabi`` must agree.
    ``gamma`` is optional and, when set, must match the decay rate of the
    ``ModelParams`` it is used with.
    """

    omega_rabi: Optional[float] = None
    dipole: Optional[Tuple[float, float, float]] = None
    field: Optional[Tuple[float, float, float]] = None
    gamma: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.dipole is None) != (self.field is None):
            raise ValueError("dipole and field must be given together")
        if self.dipole is not None:
            dipole = tuple(float(x) for x in self.dipole)
            field = tuple(float(x) for x in self.field)
            if len(dipole) != 3 or len(field) != 3:
                raise ValueError("dipole and field must be 3-vectors")
            object.__setattr__(self, "dipole", dipole)
            object.__setattr__(self, "field", field)
            derived = rabi_frequency(dipole, field)
            if self.omega_rabi is None:
                object.__setattr__(self, "omega_rabi", derived)
            elif abs(derived - self.omega_rabi) > 1e-9 * max(1.0, abs(derived)):
                raise ValueError(
                    f"inconsistent drive: dipole.field = {derived:g} but "
                    f"omega_rabi = {self.omega_rabi:g}"
                )
        if self.omega_rabi is None:
            raise ValueError("omega_rabi is required (directly or via dipole and field)")
        object.__setattr__(self, "omega_rabi", float(self.omega_rabi))
        if self.omega_rabi < 0.0:
            raise ValueError(f"omega_rabi must be >= 0, got {self.omega_rabi}")
        if self.gamma is not None and self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def rabi_frequency(dipole: Sequence[float], field: Sequence[float]) -> float:
    """Dot product of the transition dipole and the field amplitude."""
    d = np.asarray(dipole, dtype=float)
    f = np.asarray(field, dtype=float)
    if d.shape != (3,) or f.shape != (3,):
        raise ValueError("dipole and field must be 3-vectors")
    return float(np.dot(d, f))


def rabi_occupation_undamped(omega_rabi: float, t):
    """Undamped driven occupation sin^2(omega_rabi * t), for n(0) = 0."""
    return np.square(np.sin(omega_rabi * np.asarray(t, dtype=float)))[()]


def torrey_occupation(omega_rabi: float, gamma: float, t):
    """Damped driven occupation, tending to 1/2 at long times.

    n(t) = (1/2) [1 - (cos(W t) + (gamma / 2W) sin(W t)) exp(-gamma t / 2)]
    with W = omega_rabi; clamped to [0, 1] against floating residue.
    """
    if not omega_rabi > 0.0:
        raise ValueError(f"omega_rabi must be > 0, got {omega_rabi}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("negative time")
    osc = np.cos(omega_rabi * tt) + (gamma / (2.0 * omega_rabi)) * np.sin(omega_rabi * tt)
    val = 0.5 * (1.0 - osc * np.exp(-0.5 * gamma * tt))
    return np.clip(val, 0.0, 1.0)[()]


# ---------------------------------------------------------------------------
# driven trajectory engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DrivenTable:
    """Deterministic between-jump evolution from one start state.

    ``amp_e``/``amp_g`` are the unnormalized amplitudes on the step grid
    (rotation then decay factor per step, which is linear); ``occ`` is the
    occupation at step starts, ``jump_prob`` the per-step emission check.
    For the nsm engine the amplitudes stay unitary-weighted, so ``occ`` is
    also the Born weight of the excited branch, and ``photon_w`` tracks the
    weight leaked to the continuum since the segment start.
    """

    occ: np.ndarray  # length n_steps + 1
    jump_prob: np.ndarray  # length n_steps (qmop/swf) or unused for nsm
    photon_w: np.ndarray  # continuum weight since segment start (nsm)


def _driven_table(params: ModelParams, omega: float, start: QubitState, model: Model) -> _DrivenTable:
    n = params.n_steps
    dt = params.dt
    half = 0.5 * omega * dt
    c, s = math.cos(half), math.sin(half)
    decay_e = math.exp(-0.5 * params.gamma * dt) * complex(
        math.cos(params.omega1 * dt), -math.sin(params.omega1 * dt)
    )
    decay_g = complex(math.cos(params.omega0 * dt), -math.sin(params.omega0 * dt))

    amp_e = np.empty(n + 1, dtype=complex)
    amp_g = np.empty(n + 1, dtype=complex)
    rot_e = np.empty(n, dtype=complex)  # excited amplitude right after the rotation
    ae, ag = start.c_excited, start.c_ground
    norm0 = abs(ae) ** 2 + abs(ag) ** 2
    amp_e[0], amp_g[0] = ae, ag
    for k in range(n):
        re_ = c * ae - 1j * s * ag
        rg_ = -1j * s * ae + c * ag
        rot_e[k] = re_
        ae, ag = re_ * decay_e, rg_ * decay_g
        amp_e[k + 1], amp_g[k + 1] = ae, ag

    w_e = np.abs(amp_e) ** 2
    w_g = np.abs(amp_g) ** 2
    w_rot = np.abs(rot_e) ** 2
    if model is Model.NSM:
        occ = w_e / norm0
        jump_prob = np.zeros(n)
        photon_w = (norm0 - w_e - w_g) / norm0
    else:
        total = w_e + w_g
        occ = w_e / total
        occ_rot = w_rot / total[:n]
        jump_prob = occ_rot * _jump_strength(model, params.gamma, dt)
        photon_w = np.zeros(n + 1)
    return _DrivenTable(occ=occ, jump_prob=jump_prob, photon_w=photon_w)


@dataclass
class _DrivenPlan:
    params: ModelParams
    from_initial: _DrivenTable
    from_excited: Optional[_DrivenTable]
    from_ground: _DrivenTable

    def nsm_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(occ, photon_w)``, rows 0, 1 and 2 from the initial, excited and ground tables."""
        tables = (self.from_initial, self.from_excited, self.from_ground)
        return np.stack([t.occ for t in tables]), np.stack([t.photon_w for t in tables])


def _driven_plan(params: ModelParams, drive: DriveParams, initial: QubitState) -> _DrivenPlan:
    if params.dt * max(params.gamma, drive.omega_rabi) > MAX_DRIVEN_STEP:
        raise ValueError(
            f"step too large: dt*max(gamma, omega_rabi) = "
            f"{params.dt * max(params.gamma, drive.omega_rabi):g} exceeds {MAX_DRIVEN_STEP}"
        )
    if drive.gamma is not None and abs(drive.gamma - params.gamma) > 1e-12:
        raise ValueError(
            f"inconsistent gamma: drive says {drive.gamma}, params say {params.gamma}"
        )
    omega = drive.omega_rabi
    model = params.model
    from_excited = None
    if model is Model.NSM:
        from_excited = _driven_table(params, omega, QubitState.excited(), model)
    return _DrivenPlan(
        params=params,
        from_initial=_driven_table(params, omega, initial, model),
        from_excited=from_excited,
        from_ground=_driven_table(params, omega, QubitState.ground(), model),
    )


def _single_driven_step_model(plan: _DrivenPlan, gen):
    """Driven qmop/swf trajectory: returns (emissions, occupation series).

    Emissions are (time, occupation_before) pairs; occupation is recorded at
    every step start, with segments riding the precomputed no-jump tables.
    """
    params = plan.params
    n = params.n_steps
    dt = params.dt
    series = np.empty(n + 1)
    emissions: List[Tuple[float, float]] = []
    table = plan.from_initial
    k0 = 0
    while k0 < n:
        rem = n - k0
        u = np.asarray(gen.random(rem))
        hits = u < table.jump_prob[:rem]
        if not hits.any():
            series[k0:] = table.occ[: rem + 1]
            return emissions, series
        j = int(np.argmax(hits))
        series[k0 : k0 + j + 1] = table.occ[: j + 1]
        v = float(gen.random())
        s = _truncated_exponential_time(params.gamma, dt, v)
        # occupation entering the jump check is the post-rotation value;
        # report the step-start occupation for the event log
        emissions.append(((k0 + j) * dt + s, float(table.occ[j])))
        k0 += j + 1
        table = plan.from_ground
    series[n] = table.occ[0]
    return emissions, series


def _lockstep_driven_nsm(plan: _DrivenPlan, seed: int, ids: range):
    """The driven nsm engine over the streams ``(seed, i)``, ``i`` in ``ids``.

    Fluctuation times stay continuous (gaps are exact exponential draws) but
    each reduction is applied at the end of the step containing it, an O(dt)
    approximation consistent with the step discretization.  A reduction onto
    the ground branch resolves the photon by the Born rule within the branch
    and only then counts as an emission.

    Each trajectory keeps its table (0 initial, 1 excited, 2 ground) and the
    step ``k0`` the table started at.  A fluctuation at ``t`` applies at step
    ``b = ceil(t/dt)``, clamped to ``k0 .. n_steps``: it draws the reduction
    against the table's occupation there and, on the to-ground branch only,
    the photon.

    Returns the rounds of ``models._fluctuation_rounds``, fluctuations
    ``(traj, t, gap, drop, to_ground, emitted, p_exc)`` and segments
    ``(traj, k_start, table)``, from whose step ``k_start`` on the occupation
    series reads ``occ[table][k - k_start]``; ``_trajectory_order`` joins them.
    """
    n, dt = plan.params.n_steps, plan.params.dt
    m = len(ids)
    occ, photon_w = plan.nsm_tables()
    table = np.zeros(m, dtype=np.int64)
    k0 = np.zeros(m, dtype=np.int64)

    def reduce(draws, live, t, gap):
        start = k0[live]
        cur = table[live]
        b = np.minimum(np.maximum(np.ceil(t / dt).astype(np.int64), start), n)
        p_exc = occ[cur, b - start]
        to_ground = ~(draws.take(live, 2) < p_exc)
        ground = np.flatnonzero(to_ground)
        ground_branch = 1.0 - p_exc[ground]
        p_photon = np.zeros(ground.size)
        np.divide(photon_w[cur[ground], (b - start)[ground]], ground_branch, out=p_photon, where=ground_branch > 0.0)
        emitted = np.zeros(live.size, dtype=bool)
        emitted[ground] = draws.take(live[ground], 1) < p_photon
        table[live] = np.where(to_ground, 2, 1)
        k0[live] = b
        return (to_ground, emitted, p_exc), (b, table[live]), np.ones(live.size, dtype=bool)

    live = np.arange(m if plan.params.beta > 0.0 else 0)
    return _fluctuation_rounds(plan.params, seed, ids, live, (table.copy(),), reduce)


def _segment_occupation(occ: np.ndarray, segments, n: int, traj: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Occupation of trajectory ``traj`` at step ``k``, read off its segments."""
    s = _covering_segment(segments, n, traj, k)
    return occ[segments[2][s], k - segments[1][s]]


def run_driven_trajectory(
    params: ModelParams,
    drive: DriveParams,
    stream: RngStream,
    initial_state: Optional[QubitState] = None,
    record_steps: bool = False,
) -> TrajectoryRecord:
    """One continuously driven trajectory under the selected decay model.

    Per step: rotating-frame drive rotation, then the model's decay step.
    Jumps reset the atom to the ground state and the drive continues, so a
    single trajectory can emit many photons; each one is a photon-detection
    event.  The default initial state is the ground state.  ``stream`` must
    be an ``RngStream`` (``derive_stream(seed, i)``); the result is
    trajectory ``i`` of the ensemble, and under nsm it is the lock-step
    engine run over that one id.
    """
    if not isinstance(stream, RngStream):
        name = type(stream).__name__
        raise TypeError(f"run_driven_trajectory takes an RngStream from derive_stream(), got {name}")
    initial = QubitState.ground() if initial_state is None else initial_state
    if initial.w_photon != 0.0:
        raise ValueError("photon component present: driven runs start two-level")
    plan = _driven_plan(params, drive, initial)

    nsm_events: tuple = ()
    if params.model is Model.NSM:
        i = stream.stream_id
        fluct, segments = map(_trajectory_order, _lockstep_driven_nsm(plan, stream.root_seed, range(i, i + 1)))
        _, t_c, gap, drop, to_ground, emitted, p_exc = fluct
        outcomes = [(NsmOutcome.RESET_TO_EXCITED, NsmOutcome.JUMP_TO_GROUND)[b] for b in to_ground.tolist()]
        nsm_events = tuple(map(NsmEvent, t_c.tolist(), gap.tolist(), drop.tolist(), outcomes))
        t, occ_before = t_c[emitted], p_exc[emitted]
        k = np.arange(params.n_steps + 1)
        series = _segment_occupation(plan.nsm_tables()[0], segments, params.n_steps, np.zeros_like(k), k)
    else:
        emissions, series = _single_driven_step_model(plan, stream.generator())
        t, occ_before = np.array(emissions, dtype=float).reshape(-1, 2).T
    rows = (t, np.full(t.size, _CODE[EventKind.PHOTON_DETECTION]), occ_before, np.zeros(t.size))
    if record_steps:
        rows = _merge_rows(rows, _step_rows(series, params.dt, params.n_steps, t))

    return TrajectoryRecord(
        traj_id=stream.stream_id,
        events=_trajectory_events(*rows),
        decay_time=None,
        nsm_events=nsm_events,
        occupation_series=series if record_steps else None,
    )


# ---------------------------------------------------------------------------
# driven ensembles and fluorescence statistics
# ---------------------------------------------------------------------------


@dataclass
class DrivenEnsemble:
    """Aggregated driven run: binned occupation plus the raw emission log.

    ``drop_all`` / ``drop_emission`` hold the nsm occupation-drop values at
    every fluctuation and at emissions only; both are empty for qmop/swf.
    The bin fields are None for a run without bins.
    """

    n_traj: int
    dt: float
    t_max: float
    bin_centers: Optional[np.ndarray]
    occupation_mean: Optional[np.ndarray]
    occupation_se: Optional[np.ndarray]
    emission_times: np.ndarray
    drop_all: np.ndarray
    drop_emission: np.ndarray


def run_driven_ensemble(
    params: ModelParams,
    drive: DriveParams,
    initial_state: Optional[QubitState] = None,
    bin_steps: Optional[int] = 20,
    threads: int = 1,
) -> DrivenEnsemble:
    """Run ``params.n_traj`` driven trajectories and aggregate statistics.

    The per-bin occupation is the mean over trajectories of each
    trajectory's average occupation within the bin; the quoted error is the
    standard error over trajectories.  ``bin_steps=None`` skips the bins,
    leaving only the emission times and drops.  Trajectory i uses substream
    (seed, i) and merges happen in trajectory order, independent of
    ``threads``.  Under nsm the lock-step engine runs over groups of at most
    ``_NSM_GROUP`` trajectories.
    """
    initial = QubitState.ground() if initial_state is None else initial_state
    plan = _driven_plan(params, drive, initial)
    n = params.n_traj
    n_steps = params.n_steps
    n_bins = n_steps // bin_steps if bin_steps else 0
    edges = np.arange(n_bins + 1) * (bin_steps or 1)

    def nsm_group(group: range, vals: np.ndarray):
        fluct, segments = _lockstep_driven_nsm(plan, params.seed, group)
        if bin_steps:
            occ = plan.nsm_tables()[0]
            segments = _trajectory_order(segments)
            occupation = partial(_segment_occupation, occ, segments, n_steps)
            vals[:] = _segment_bin_means(segments, len(group), n_steps, bin_steps, occ, segments[2], occupation)
        # the emissions and drops only: the other columns, and without bins the segments, are never joined
        fluct = [(traj, t, drop, emitted) for traj, t, _, drop, _, emitted, _ in fluct]
        _, t, drop, emitted = _trajectory_order(fluct)
        return t[emitted], drop, drop[emitted]

    def nsm_work(ids: range):
        vals = np.empty((len(ids), n_bins))
        starts = range(0, len(ids), _NSM_GROUP)
        parts = [nsm_group(ids[lo : lo + _NSM_GROUP], vals[lo : lo + _NSM_GROUP]) for lo in starts]
        return (*map(np.concatenate, zip(*parts)), vals)

    def step_model_work(ids: range):
        vals = np.empty((len(ids), n_bins))
        em_times: List[float] = []
        for j, (_, gen) in enumerate(rekeyed_generators(params.seed, ids)):
            emissions, series = _single_driven_step_model(plan, gen)
            if bin_steps:
                vals[j] = np.add.reduceat(series[:n_steps], edges[:-1]) / bin_steps
            em_times.extend(t for t, _ in emissions)
        return np.array(em_times, dtype=float), np.empty(0), np.empty(0), vals

    work = nsm_work if params.model is Model.NSM else step_model_work
    em_times, drop_all, drop_em, vals = run_ensemble(work, n, threads)
    centers = mean = se = None
    if bin_steps:
        centers, mean, _, se = _bin_statistics(vals, edges, params.dt)
    return DrivenEnsemble(
        n_traj=n,
        dt=params.dt,
        t_max=params.t_max,
        bin_centers=centers,
        occupation_mean=mean,
        occupation_se=se,
        emission_times=em_times,
        drop_all=drop_all,
        drop_emission=drop_em,
    )


@dataclass(frozen=True)
class FluorescenceSeries:
    """Emission rate per atom per unit time, binned, with Poisson errors."""

    bin_centers: np.ndarray
    intensity: np.ndarray
    se: np.ndarray


def fluorescence_from_times(
    emission_times: np.ndarray, n_traj: int, bin_width: float, t_max: float
) -> FluorescenceSeries:
    if not bin_width > 0.0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    if n_traj < 1:
        raise ValueError("empty ensemble")
    n_bins = max(1, int(round(t_max / bin_width)))
    edges = np.linspace(0.0, n_bins * bin_width, n_bins + 1)
    counts, _ = np.histogram(emission_times, bins=edges)
    scale = n_traj * bin_width
    return FluorescenceSeries(
        bin_centers=(edges[:-1] + edges[1:]) / 2.0,
        intensity=counts / scale,
        se=np.sqrt(counts) / scale,
    )


def _emission_times_of(record: TrajectoryRecord) -> List[float]:
    return [ev.t for ev in record.events if ev.kind is EventKind.PHOTON_DETECTION]


def fluorescence_intensity(
    ensemble: Sequence[TrajectoryRecord], gamma: float, bin_width: float
) -> FluorescenceSeries:
    """Binned emission rate of a driven ensemble of trajectory records.

    The intensity in a bin is (emissions in bin) / (n_traj * bin_width); in
    the stationary driven regime it approaches gamma times the mean
    occupation.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    records = list(ensemble)
    if not records:
        raise ValueError("empty ensemble")
    times: List[float] = []
    t_last = 0.0
    for rec in records:
        for ev in rec.events:
            t_last = max(t_last, ev.t)
        times.extend(_emission_times_of(rec))
    t_max = max(t_last, bin_width)
    return fluorescence_from_times(np.asarray(times), len(records), bin_width, t_max)


@dataclass(frozen=True)
class DropHistogram:
    """Histogram of occupation drops at emissions, with the analytic overlay."""

    a_centers: np.ndarray
    counts: np.ndarray
    density_analytic: np.ndarray
    n_samples: int

    @property
    def density_empirical(self) -> np.ndarray:
        width = 1.0 / self.counts.size
        return self.counts / (self.n_samples * width) if self.n_samples else self.counts * 0.0


def drop_histogram_from_samples(samples: np.ndarray, gamma: float, beta: float, bin_width: float) -> DropHistogram:
    from .models import occupation_drop_density

    if not 0.0 < bin_width <= 1.0:
        raise ValueError(f"bin_width must lie in (0, 1], got {bin_width}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    n_bins = max(1, int(round(1.0 / bin_width)))
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    analytic = np.array([occupation_drop_density(beta / gamma, a) for a in centers])
    return DropHistogram(
        a_centers=centers,
        counts=counts.astype(np.int64),
        density_analytic=analytic,
        n_samples=int(counts.sum()),
    )


def fluorescence_fluctuation_histogram(
    ensemble: Sequence[TrajectoryRecord],
    gamma: float,
    beta: float,
    bin_width: float = 0.05,
    events: str = "emission",
) -> DropHistogram:
    """Occupation drops collected across a driven nsm ensemble.

    ``events="emission"`` keeps only the drops at photon emissions; note
    that the chance a fluctuation emits grows with its gap, so this
    collection is size-biased toward large drops relative to the analytic
    overlay.  ``events="all"`` collects every fluctuation, the set the
    analytic density describes exactly.

    Raises on an empty ensemble, and on records that carry no fluctuation
    log (wrong model).
    """
    if events not in ("emission", "all"):
        raise ValueError(f"events must be 'emission' or 'all', got {events!r}")
    records = list(ensemble)
    if not records:
        raise ValueError("empty ensemble")
    if all(not rec.nsm_events for rec in records):
        raise ValueError("wrong model: records carry no fluctuation log (need model=nsm)")
    samples: List[float] = []
    for rec in records:
        if events == "all":
            samples.extend(ev.a_before for ev in rec.nsm_events)
        else:
            emitted_at = set(_emission_times_of(rec))
            samples.extend(ev.a_before for ev in rec.nsm_events if ev.t in emitted_at)
    return drop_histogram_from_samples(np.asarray(samples), gamma, beta, bin_width)
