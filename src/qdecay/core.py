"""Shared domain types, state algebra and seeded random-stream derivation.

Time is dimensionless throughout the package: the caller picks a unit and
expresses every rate and angular frequency in the inverse unit, so only
products such as ``gamma * t`` are ever meaningful.  All types defined here
are immutable values.

Per-trajectory randomness comes from numpy's counter-based Philox4x64-10
generator keyed by ``(root_seed, stream_id)`` (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  Distinct stream ids give
statistically independent substreams, and a fixed key reproduces the same bit
stream on every platform.  Trajectory ``i`` reads only stream ``(seed, i)``,
which is what makes full ensembles byte-reproducible however the engines
group their trajectories.

Because the generator is counter-based, draw ``p`` of stream ``(seed, i)``
is a pure function of ``(seed, i, p)``: lane ``p % 4`` of the block for
counter ``(p // 4 + 1, 0, 0, 0)``.  ``philox_uniforms`` evaluates those
blocks for many ``(key, counter)`` pairs at once in numpy and returns the
same doubles as ``RngStream.generator().random()``, bit for bit, so an
engine reads any position of any stream without a ``Generator``; the
qmop/swf decay engine, both nsm engines (decay and driven) and the homodyne
point process below 10 pulses per step read every draw this way, for a
whole ensemble or for the one stream of a single-trajectory runner.
``rekeyed_generators`` serves the readers that still need a real
``Generator``: the driven qmop/swf hit reader, homodyne white noise, and
the homodyne point process where numpy's samplers do not multiply or
invert uniforms (from 10 pulses per step on, or a step count past the
binomial inversion limit).  It re-keys one bit generator per trajectory
instead of building a new one.  Only these load ``numpy.random``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

# Renormalisation is skipped when total weight is already this close to one;
# this short-circuit is what makes normalize() exactly idempotent.
NORM_TOLERANCE = 1e-12

# Below this total weight a state counts as vanished rather than rescalable.
ZERO_WEIGHT = 1e-300

# Upper bound on gamma*dt accepted by step-based engines (accuracy guard).
MAX_GAMMA_DT = 0.1

# Upper bound on beta*t_max, the expected fluctuations per nsm trajectory,
# that the CLI accepts: the nsm engines take one step per fluctuation.
MAX_NSM_FLUCTUATIONS = 1e7

_U64_MAX = 2**64 - 1


class Model(str, Enum):
    """Decay-dynamics engine selector."""

    QMOP = "qmop"
    SWF = "swf"
    NSM = "nsm"


class EventKind(str, Enum):
    FLUCTUATION_NO_JUMP = "fluctuation_no_jump"
    QUANTUM_JUMP = "quantum_jump"
    PHOTON_DETECTION = "photon_detection"
    STEP = "step"


def _require_finite_complex(name: str, z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")


def _require_finite_real(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class QubitState:
    """Two-level amplitudes plus the total weight leaked into the photon continuum.

    ``w_photon`` is a probability weight (not an amplitude): the integrated
    strength of the ground-plus-photon continuum component.  The photon
    spectral shape itself is never tracked; no observable in this package
    depends on it.
    """

    c_excited: complex
    c_ground: complex
    w_photon: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_excited", complex(self.c_excited))
        object.__setattr__(self, "c_ground", complex(self.c_ground))
        object.__setattr__(self, "w_photon", float(self.w_photon))
        _require_finite_complex("c_excited", self.c_excited)
        _require_finite_complex("c_ground", self.c_ground)
        _require_finite_real("w_photon", self.w_photon)
        if self.w_photon < 0.0:
            raise ValueError(f"w_photon must be >= 0, got {self.w_photon}")

    @property
    def total_weight(self) -> float:
        e, g = self.c_excited, self.c_ground
        return (e.real * e.real + e.imag * e.imag) + (g.real * g.real + g.imag * g.imag) + self.w_photon

    @classmethod
    def excited(cls) -> "QubitState":
        return cls(1.0 + 0.0j, 0.0j, 0.0)

    @classmethod
    def ground(cls) -> "QubitState":
        return cls(0.0j, 1.0 + 0.0j, 0.0)

    @classmethod
    def superposition(cls, c_excited: complex, c_ground: complex) -> "QubitState":
        """Normalized two-level state with the given (unnormalized) amplitudes."""
        return normalize(cls(c_excited, c_ground, 0.0))


def normalize(state: QubitState) -> QubitState:
    """Rescale a state to unit total weight, preserving component ratios.

    States already normalized within ``NORM_TOLERANCE`` are returned
    unchanged, so the operation is exactly idempotent.

    Raises ``ValueError`` (zero norm) when the total weight is below
    ``ZERO_WEIGHT``.
    """
    total = state.total_weight
    if not math.isfinite(total):
        raise ValueError("total weight overflows; rescale the amplitudes first")
    if total < ZERO_WEIGHT:
        raise ValueError(f"zero norm: total weight {total} cannot be normalized")
    if abs(total - 1.0) <= NORM_TOLERANCE:
        return state
    root = math.sqrt(total)
    return QubitState(state.c_excited / root, state.c_ground / root, state.w_photon / total)


def occupation(state: QubitState) -> float:
    """Excited-state occupation |c_excited|^2 of a normalized state."""
    return abs(state.c_excited) ** 2


def sigma_x_expectation(state: QubitState) -> float:
    """Dipole quadrature 2 Re(c_ground* c_excited) on the two-level subspace.

    The photon component is excluded: the expectation is renormalized to the
    two-level weight.  Raises ``ValueError`` (empty two-level subspace) when
    that weight vanishes.
    """
    two_level = abs(state.c_excited) ** 2 + abs(state.c_ground) ** 2
    if two_level < ZERO_WEIGHT:
        raise ValueError("empty two-level subspace: no dipole is defined")
    return 2.0 * (state.c_ground.conjugate() * state.c_excited).real / two_level


def photon_packet_length(gamma: float, c_light: float) -> float:
    """Spatial extent of the emitted photon wave packet, c_light / gamma."""
    if not gamma > 0.0:
        raise ValueError(f"non-positive rate: gamma must be > 0, got {gamma}")
    if not c_light > 0.0:
        raise ValueError(f"non-positive speed: c_light must be > 0, got {c_light}")
    return c_light / gamma


@dataclass(frozen=True)
class RngStream:
    """Handle for one reproducible substream of the root-seeded generator.

    ``generator()`` builds a fresh ``numpy.random.Generator`` each call, so a
    stream value can be replayed any number of times.
    """

    root_seed: int
    stream_id: int

    def __post_init__(self) -> None:
        if not 0 <= int(self.root_seed) <= _U64_MAX:
            raise ValueError(f"root_seed must fit in 64 bits, got {self.root_seed}")
        if not 0 <= int(self.stream_id) <= _U64_MAX:
            raise ValueError(f"stream_id must fit in 64 bits, got {self.stream_id}")
        object.__setattr__(self, "root_seed", int(self.root_seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    def generator(self) -> np.random.Generator:
        key = np.array([self.root_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def derive_stream(root_seed: int, traj_id: int) -> RngStream:
    """Derive the independent, bit-reproducible substream for one trajectory."""
    return RngStream(root_seed, traj_id)


def as_generator(stream) -> np.random.Generator:
    """Accept an RngStream, a numpy Generator, or a duck-typed test double."""
    if isinstance(stream, np.random.Generator):
        return stream
    if isinstance(stream, RngStream):
        return stream.generator()
    if hasattr(stream, "random"):
        return stream
    raise TypeError(f"cannot interpret {type(stream).__name__} as a random stream")


def rekeyed_generators(root_seed: int, stream_ids: Iterable[int]) -> Iterator[Tuple[int, np.random.Generator]]:
    """Yield ``(i, generator)`` for each id, drawing what ``derive_stream(root_seed, i)`` would.

    One Philox bit generator is re-keyed per id through its ``state`` dict
    (key ``[root_seed, i]``, counter 0, empty output buffer, no cached half
    word), which skips the entropy gathering of a fresh construction.  The
    same ``Generator`` object is yielded every time, so it is only valid
    until the next item is requested.
    """
    key = np.array([root_seed, 0], dtype=np.uint64)
    bit_gen = np.random.Philox(key=key)
    gen = np.random.Generator(bit_gen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in stream_ids:
        key[1] = i
        bit_gen.state = state
        yield i, gen


# Philox4x64-10 constants (Random123): round multipliers and Weyl key bumps.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
# (key, counter) pairs per kernel pass: the ten uint64 work rows stay in L2.
_PHILOX_CHUNK = 8192
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


def _split_multiplier(m: int) -> Tuple[np.uint64, np.uint64, np.uint64]:
    return np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)


_MUL0 = _split_multiplier(_PHILOX_M0)
_MUL1 = _split_multiplier(_PHILOX_M1)


def mulhilo(x: np.ndarray, mul, hi: np.ndarray, t0: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> None:
    """In place: ``hi`` <- high word and ``x`` <- low word of the 128-bit ``x * m``.

    numpy has no 128-bit multiply, so the high word is assembled from the
    four 32x32-bit partial products; no intermediate sum can overflow 64 bits.
    """
    m, m_lo, m_hi = mul
    np.bitwise_and(x, _LO32, out=t0)  # x_lo
    np.right_shift(x, _SHIFT32, out=t1)  # x_hi
    np.multiply(t1, m_hi, out=hi)  # x_hi * m_hi
    np.multiply(t1, m_lo, out=t1)  # x_hi * m_lo
    np.multiply(t0, m_hi, out=t2)  # x_lo * m_hi
    np.multiply(t0, m_lo, out=t0)  # x_lo * m_lo
    np.right_shift(t0, _SHIFT32, out=t0)
    np.add(t1, t0, out=t1)  # x_hi*m_lo + carry-in from the low product
    np.bitwise_and(t1, _LO32, out=t0)
    np.add(t2, t0, out=t2)  # x_lo*m_hi + low half of the above
    np.right_shift(t1, _SHIFT32, out=t1)
    np.add(hi, t1, out=hi)
    np.right_shift(t2, _SHIFT32, out=t2)
    np.add(hi, t2, out=hi)
    np.multiply(x, m, out=x)


def philox_uniforms(root_seed: int, stream_ids, counters) -> np.ndarray:
    """Doubles of the Philox4x64-10 blocks at many ``(key, counter)`` pairs.

    ``stream_ids`` and ``counters`` broadcast together to a shape ``S``; the
    result has shape ``S + (4,)`` and entry ``[..., lane]`` is draw
    ``4 * (counter - 1) + lane`` of ``derive_stream(root_seed, stream_id)``,
    i.e. lane ``lane`` of counter ``(counter, 0, 0, 0)`` under key
    ``(root_seed, stream_id)`` mapped to ``(x >> 11) * 2**-53``, exactly as
    ``Generator.random()`` maps it.  Pairs are processed in cache-sized
    chunks with in-place ufuncs, each read straight from the broadcast:
    whole rows of its last axis, or slices of one row longer than a chunk.
    Every caller passes a scalar, 1-D or 2-D broadcast; one of more
    dimensions is reshaped to ``(rows, row)`` too, which may copy it.
    """
    if not 0 <= int(root_seed) <= _U64_MAX:
        raise ValueError(f"root_seed must fit in 64 bits, got {root_seed}")
    ids, ctrs = np.broadcast_arrays(np.asarray(stream_ids, dtype=np.uint64), np.asarray(counters, dtype=np.uint64))
    shape = ids.shape
    out = np.empty(shape + (4,))
    if ids.size == 0:
        return out
    # (rows, row) views of a 2-D broadcast; a scalar or 1-D one is one row
    row = shape[-1] if shape else 1
    ids, ctrs, out = ids.reshape(-1, row), ctrs.reshape(-1, row), out.reshape(-1, row, 4)
    n_rows = ids.shape[0]
    rows_per_chunk, cols_per_chunk = max(1, _PHILOX_CHUNK // row), min(row, _PHILOX_CHUNK)
    keys0 = [np.uint64((int(root_seed) + r * _PHILOX_W0) & _U64_MAX) for r in range(_PHILOX_ROUNDS)]
    bump1 = np.uint64(_PHILOX_W1)
    # Round 0 multiplies v2 = 0, which leaves v1 = k0 for round 1 to multiply:
    # both products are per-call constants, so round 1's low word and the
    # high word it folds into v3 come from Python ints.
    key_product = int(keys0[0]) * _PHILOX_M0
    key_lo, key_hi = np.uint64(key_product & _U64_MAX), np.uint64(key_product >> 64)
    work = np.empty((10, min(ids.size, _PHILOX_CHUNK)), dtype=np.uint64)
    for r0, c0 in itertools.product(range(0, n_rows, rows_per_chunk), range(0, row, cols_per_chunk)):
        pairs = np.s_[r0 : r0 + rows_per_chunk, c0 : c0 + cols_per_chunk]
        block = ids[pairs].shape
        v0, v1, v2, v3, k1, h0, h1, t0, t1, t2 = (w[: block[0] * block[1]] for w in work)
        # round 0 on (ctr, 0, 0, 0) gives (k0, 0, hi(ctr*M0) ^ k1, lo(ctr*M0))
        v3.reshape(block)[...] = ctrs[pairs]
        mulhilo(v3, _MUL0, h0, t0, t1, t2)
        k1.reshape(block)[...] = ids[pairs]
        np.bitwise_xor(h0, k1, out=v2)
        # round 1 on (k0, 0, v2, v3)
        np.add(k1, bump1, out=k1)
        mulhilo(v2, _MUL1, h1, t0, t1, t2)
        np.bitwise_xor(h1, keys0[1], out=v0)
        np.bitwise_xor(v3, key_hi, out=v3)
        np.bitwise_xor(v3, k1, out=v3)
        v1.fill(key_lo)
        v0, v1, v2, v3 = v0, v2, v3, v1
        for r in range(2, _PHILOX_ROUNDS):
            np.add(k1, bump1, out=k1)
            mulhilo(v0, _MUL0, h0, t0, t1, t2)
            mulhilo(v2, _MUL1, h1, t0, t1, t2)
            # (v0, v1, v2, v3) <- (hi1 ^ v1 ^ k0, lo1, hi0 ^ v3 ^ k1, lo0)
            np.bitwise_xor(v1, h1, out=v1)
            np.bitwise_xor(v1, keys0[r], out=v1)
            np.bitwise_xor(v3, h0, out=v3)
            np.bitwise_xor(v3, k1, out=v3)
            v0, v1, v2, v3 = v1, v2, v3, v0
        for lane, x in enumerate((v0, v1, v2, v3)):
            np.right_shift(x, _SHIFT11, out=x)
            np.multiply(x.reshape(block), 2.0**-53, out=out[pairs + (lane,)])
    return out.reshape(shape + (4,))


@dataclass(frozen=True)
class EncodedColumn:
    """A dictionary-encoded column, after Apache Arrow's dictionary encoding.

    Row ``r`` holds ``values[codes[r]]``.  ``codes`` is an integer ndarray
    of indices into ``values`` (an ndarray or a sequence), which must not
    change while the column is in use.  Several columns may share one values
    object; the table writer converts each values object once per table, not
    once per column.  ``tolist()`` and ``numpy.asarray`` give the decoded
    column.
    """

    codes: np.ndarray
    values: Sequence

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> "EncodedColumn":
        return EncodedColumn(self.codes[rows], self.values)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.values, dtype=dtype)[self.codes]

    def tolist(self) -> list:
        return np.asarray(self).tolist()


@dataclass(frozen=True)
class ModelParams:
    """Simulation parameters shared by every engine.

    All rates and angular frequencies are in the inverse of the (arbitrary)
    time unit.  ``beta`` is the vacuum-fluctuation rate, read by the NSM
    engines and by the homodyne point-process noise.  No engine reads
    ``omega_rabi``: the driven engines take the drive from
    ``rabi.DriveParams.omega_rabi``, which a caller may build from it, and
    the driven runners reject a nonzero ``omega_rabi`` that differs from it.
    """

    gamma: float
    dt: float
    t_max: float
    n_traj: int = 1
    seed: int = 0
    model: Model = Model.QMOP
    beta: float = 0.0
    omega0: float = 0.0
    omega1: float = 0.0
    omega_rabi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", Model(self.model))
        for name in ("gamma", "dt", "t_max", "beta", "omega0", "omega1", "omega_rabi"):
            _require_finite_real(name, float(getattr(self, name)))
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.omega_rabi < 0.0:
            raise ValueError(f"omega_rabi must be >= 0, got {self.omega_rabi}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if self.dt > self.t_max:
            raise ValueError(f"dt={self.dt} must not exceed t_max={self.t_max}")
        if not math.isfinite(self.t_max / self.dt):
            raise ValueError(f"t_max/dt={self.t_max / self.dt} steps must be finite")
        if self.gamma * self.dt > MAX_GAMMA_DT:
            raise ValueError(
                f"gamma*dt={self.gamma * self.dt:g} exceeds the accuracy guard {MAX_GAMMA_DT}"
            )
        if not 1 <= int(self.n_traj):
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= int(self.seed) <= _U64_MAX:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


@dataclass(frozen=True)
class TrajectoryEvent:
    t: float
    kind: EventKind
    occupation_before: float
    occupation_after: float


@dataclass(frozen=True)
class TrajectoryRecord:
    """Ordered event log of a single trajectory.

    ``decay_time`` is the emission time for terminal single-decay runs and
    None for censored or driven trajectories.  ``occupation_series`` holds
    the occupation sampled on the step grid when the caller asked for it
    (kept as an array rather than step events so large runs stay cheap).
    """

    traj_id: int
    events: Tuple[TrajectoryEvent, ...]
    decay_time: Optional[float] = None
    nsm_events: tuple = ()
    occupation_series: Optional[np.ndarray] = None
    flags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        last = -math.inf
        jumped = False
        for ev in events:
            if jumped:
                raise ValueError("events recorded after a quantum jump")
            if not ev.t > last:
                raise ValueError("event times must be strictly increasing")
            last = ev.t
            if ev.kind is EventKind.QUANTUM_JUMP:
                jumped = True
