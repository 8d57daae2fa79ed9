import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecay.core import (
    EventKind,
    ModelParams,
    QubitState,
    RngStream,
    TrajectoryEvent,
    TrajectoryRecord,
    derive_stream,
    normalize,
    occupation,
    philox_uniforms,
    photon_packet_length,
    rekeyed_generators,
    sigma_x_expectation,
)

amp = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
weight = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def states(draw_nonzero=True):
    def build(re_e, im_e, re_g, im_g, w):
        return QubitState(complex(re_e, im_e), complex(re_g, im_g), w)

    base = st.builds(build, amp, amp, amp, amp, weight)
    if draw_nonzero:
        return base.filter(lambda s: s.total_weight > 1e-6)
    return base


class TestNormalize:
    def test_pure_excited_unchanged(self):
        s = QubitState.excited()
        assert normalize(s) is s

    def test_equal_amplitudes(self):
        s = normalize(QubitState(1.0, 1.0))
        r = 1.0 / math.sqrt(2.0)
        assert s.c_excited == pytest.approx(r)
        assert s.c_ground == pytest.approx(r)

    def test_photon_weight_sum(self):
        # weight-sum oracle: 0.25 + 0.75 = 1, so nothing changes
        s = QubitState(0.5, 0.0, 0.75)
        assert s.total_weight == pytest.approx(1.0, abs=1e-15)
        out = normalize(s)
        assert out.c_excited == 0.5 + 0.0j
        assert out.w_photon == 0.75

    def test_zero_norm_raises(self):
        with pytest.raises(ValueError, match="zero norm"):
            normalize(QubitState(0.0, 0.0, 0.0))

    @given(states())
    def test_unit_total_weight(self, s):
        assert abs(normalize(s).total_weight - 1.0) <= 1e-12

    @given(states())
    def test_exactly_idempotent(self, s):
        once = normalize(s)
        assert normalize(once) is once

    @given(states())
    def test_ratios_preserved(self, s):
        out = normalize(s)
        # cross ratios of the two amplitudes are unchanged by a real rescale
        lhs = out.c_excited * s.c_ground
        rhs = s.c_excited * out.c_ground
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            QubitState(complex(math.nan, 0.0), 0.0)

    def test_rejects_overflowing_weight(self):
        with pytest.raises(ValueError, match="overflow"):
            normalize(QubitState(1e200, 1e200))


class TestOccupation:
    def test_pure_excited(self):
        assert occupation(QubitState.excited()) == 1.0

    def test_pure_ground(self):
        assert occupation(QubitState.ground()) == 0.0

    def test_no_jump_unitary_state_at_half_life(self):
        # after gamma*t = ln 2 the unitary weights are (1/2, 1/2)
        s = QubitState(math.sqrt(0.5), 0.0, 0.5)
        assert s.total_weight == pytest.approx(1.0, abs=1e-15)
        assert occupation(s) == pytest.approx(0.5, abs=1e-12)

    @given(states())
    def test_weights_sum_to_one_when_normalized(self, s):
        n = normalize(s)
        total = occupation(n) + abs(n.c_ground) ** 2 + n.w_photon
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSigmaX:
    def test_pure_excited_has_no_dipole(self):
        assert sigma_x_expectation(QubitState.excited()) == 0.0

    def test_equal_real_superposition_is_maximal(self):
        assert sigma_x_expectation(QubitState.superposition(1.0, 1.0)) == pytest.approx(1.0)

    def test_orthogonal_quadrature(self):
        s = QubitState(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
        # 2 Re(conj(i/sqrt2) * 1/sqrt2) = 2 Re(-i/2) = 0
        assert sigma_x_expectation(s) == pytest.approx(0.0, abs=1e-15)

    def test_photon_weight_excluded(self):
        bare = QubitState.superposition(1.0, 1.0)
        mixed = QubitState(bare.c_excited / 2, bare.c_ground / 2, 0.75)
        assert sigma_x_expectation(mixed) == pytest.approx(sigma_x_expectation(bare))

    def test_empty_subspace(self):
        with pytest.raises(ValueError, match="two-level subspace"):
            sigma_x_expectation(QubitState(0.0, 0.0, 1.0))


class TestStreams:
    def test_same_key_same_samples(self):
        a = derive_stream(42, 0).generator().random(1000)
        b = derive_stream(42, 0).generator().random(1000)
        assert np.array_equal(a, b)

    def test_different_ids_differ(self):
        a = derive_stream(42, 0).generator().random(1000)
        b = derive_stream(42, 1).generator().random(1000)
        assert not np.array_equal(a, b)

    def test_chi_square_uniformity_across_streams(self):
        # first draw from each of 1000 sibling streams, 10 bins, 1% level
        samples = np.array([derive_stream(42, k).generator().random() for k in range(1000)])
        counts, _ = np.histogram(samples, bins=10, range=(0.0, 1.0))
        expected = len(samples) / 10.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        from scipy.stats import chi2 as chi2_dist

        assert chi2 < chi2_dist.ppf(0.99, 9)

    def test_validation(self):
        with pytest.raises(ValueError, match="64 bits"):
            RngStream(-1, 0)
        with pytest.raises(ValueError, match="64 bits"):
            RngStream(2**64, 0)


u64 = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 2, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestPhiloxKernel:
    @settings(max_examples=60, deadline=None)
    @given(u64, st.lists(u64, min_size=1, max_size=4), st.integers(0, 2100))
    def test_matches_numpy_philox_draws(self, seed, ids, n_steps):
        # every position up to n_steps (any residue mod 4), read from the
        # blocks of counters 1 .. n_steps // 4 + 1, equals Generator.random()
        n_ctr = n_steps // 4 + 1
        u = philox_uniforms(seed, np.array(ids, dtype=np.uint64)[:, None], np.arange(1, n_ctr + 1))
        assert u.shape == (len(ids), n_ctr, 4)
        for row, i in zip(u, ids):
            gen = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
            expected = gen.random(n_steps + 1)
            assert np.array_equal(row.reshape(-1)[: n_steps + 1], expected)

    @settings(max_examples=30, deadline=None)
    @given(u64, st.lists(u64, min_size=1, max_size=50), st.integers(0, 2**40))
    def test_any_counter_matches_a_skipped_stream(self, seed, ids, counter):
        # counter c holds draws 4(c-1) .. 4(c-1)+3; advance numpy's counter to c-1
        u = philox_uniforms(seed, ids, counter + 1)
        for row, i in zip(u, ids):
            bit_gen = np.random.Philox(key=np.array([seed, i], dtype=np.uint64), counter=counter)
            assert np.array_equal(row, np.random.Generator(bit_gen).random(4))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_folded_key_rounds_match_generator(self, seed):
        # rounds 0 and 1 run on per-call constants; counters past 2**32 fill the whole first word
        ids = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        counters = np.array([1, 2**32, 2**32 + 1, 2**33 + 7, 2**63, 2**64 - 1], dtype=np.uint64)
        u = philox_uniforms(seed, ids[:, None], counters)
        for i, row in zip(ids.tolist(), u):
            for c, block in zip(counters.tolist(), row):
                bit_gen = np.random.Philox(key=np.array([seed, i], dtype=np.uint64), counter=c - 1)
                assert np.array_equal(block, np.random.Generator(bit_gen).random(4))
        assert np.array_equal(u[2, 0], derive_stream(seed, 2**64 - 1).generator().random(4))

    def test_chunk_boundaries(self):
        n = 3 * 8192 + 5
        u = philox_uniforms(7, np.arange(n), 1)
        for i in (0, 8191, 8192, 2 * 8192 + 1, n - 1):
            assert np.array_equal(u[i], derive_stream(7, i).generator().random(4))

    @pytest.mark.parametrize(
        "ids, counters",
        [
            (np.arange(3)[:, None, None], np.arange(1, 6)[None, :, None] + np.arange(0, 40, 10)),  # 3-D
            (np.array([[5]]), np.arange(1, 20_001)),  # one id, a row longer than a chunk
            (np.arange(20_000)[:, None], np.array([3])),  # many rows of one pair
            (np.arange(20_000), 2),  # 1-D
        ],
        ids=["3d", "one-id", "one-counter", "1d"],
    )
    def test_broadcast_shapes(self, ids, counters):
        u = philox_uniforms(11, ids, counters)
        flat_ids, flat_ctrs = (a.reshape(-1) for a in np.broadcast_arrays(ids, counters))
        assert u.shape == np.broadcast(ids, counters).shape + (4,)
        flat = u.reshape(-1, 4)
        for j in {0, 1, 8191, 8192, 8193, flat_ids.size // 2, flat_ids.size - 1} & set(range(flat_ids.size)):
            bit_gen = np.random.Philox(key=np.array([11, flat_ids[j]], dtype=np.uint64), counter=flat_ctrs[j] - 1)
            assert np.array_equal(flat[j], np.random.Generator(bit_gen).random(4))

    @pytest.mark.parametrize(
        "ids, counters",
        [
            (np.arange(1000, dtype=np.uint64)[:, None], np.arange(1, 101, dtype=np.uint64)),
            (np.arange(100_000, dtype=np.uint64), 1),
        ],
        ids=["2d", "1d"],
    )
    def test_no_copy_of_the_broadcast(self, ids, counters):
        tracemalloc.start()
        try:
            u = philox_uniforms(1, ids, counters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and ten work rows of one chunk each, with 100 kB to spare
        assert peak < u.nbytes + 10 * 8 * 8192 + 100_000

    def test_empty_and_scalar(self):
        assert philox_uniforms(1, np.array([], dtype=np.uint64), 1).shape == (0, 4)
        assert philox_uniforms(1, np.arange(4)[:, None], np.array([], dtype=np.uint64)).shape == (4, 0, 4)
        assert np.array_equal(philox_uniforms(1, 2, 1), derive_stream(1, 2).generator().random(4))

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="64 bits"):
            philox_uniforms(2**64, 0, 1)


class TestRekeyedGenerators:
    def test_same_draws_as_fresh_generators(self):
        ids = [5, 0, 2**64 - 1, 5]
        for i, gen in rekeyed_generators(11, ids):
            fresh = derive_stream(11, i).generator()
            # a 32-bit integer draw leaves a cached half word behind, which
            # the next re-key must clear
            assert np.array_equal(gen.integers(0, 7, 3, dtype=np.int32), fresh.integers(0, 7, 3, dtype=np.int32))
            assert np.array_equal(gen.random(9), fresh.random(9))
            assert gen.standard_normal() == fresh.standard_normal()

    def test_yields_in_order(self):
        assert [i for i, _ in rekeyed_generators(0, range(3, 7))] == [3, 4, 5, 6]


class TestPacketLength:
    def test_unit(self):
        assert photon_packet_length(1.0, 1.0) == 1.0

    def test_half(self):
        assert photon_packet_length(2.0, 1.0) == 0.5

    def test_physical_units(self):
        assert photon_packet_length(3e8, 3e8) == pytest.approx(1.0)

    def test_non_positive_rate(self):
        with pytest.raises(ValueError, match="non-positive rate"):
            photon_packet_length(0.0, 1.0)


class TestModelParams:
    def test_accuracy_guard(self):
        with pytest.raises(ValueError, match="accuracy guard"):
            ModelParams(gamma=100.0, dt=0.01, t_max=1.0)

    def test_dt_vs_t_max(self):
        with pytest.raises(ValueError, match="t_max"):
            ModelParams(gamma=1.0, dt=2.0, t_max=1.0)

    def test_step_count_must_be_finite(self):
        # 1e300 / 1e-300 overflows to inf: n_steps would raise OverflowError
        with pytest.raises(ValueError, match="t_max/dt"):
            ModelParams(gamma=0.0, dt=1e-300, t_max=1e300)

    def test_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=-1.0, dt=0.01, t_max=1.0)

    def test_model_coerced_from_string(self):
        p = ModelParams(gamma=1.0, dt=0.01, t_max=1.0, model="nsm")
        assert p.model.value == "nsm"


class TestTrajectoryRecord:
    def _ev(self, t, kind=EventKind.STEP):
        return TrajectoryEvent(t, kind, 1.0, 1.0)

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TrajectoryRecord(0, (self._ev(1.0), self._ev(1.0)))

    def test_nothing_after_jump(self):
        jump = TrajectoryEvent(1.0, EventKind.QUANTUM_JUMP, 1.0, 0.0)
        with pytest.raises(ValueError, match="after a quantum jump"):
            TrajectoryRecord(0, (jump, self._ev(2.0)))

    def test_single_jump_ok(self):
        jump = TrajectoryEvent(2.0, EventKind.QUANTUM_JUMP, 1.0, 0.0)
        rec = TrajectoryRecord(0, (self._ev(1.0), jump), decay_time=1.7)
        assert rec.decay_time == 1.7
