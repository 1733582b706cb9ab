"""Tests for the seeded random source and trial-seed derivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.random_source import DrawStream, RandomSource, draw_streams, trial_seeds
from repro.exceptions import InvalidParameterError


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert a.uniform(5).tolist() == b.uniform(5).tolist()

    def test_different_seed_different_stream(self):
        assert RandomSource(1).uniform(10).tolist() != RandomSource(2).uniform(10).tolist()

    def test_scalar_uniform_in_unit_interval(self):
        source = RandomSource(0)
        for _ in range(100):
            value = source.uniform()
            assert 0.0 <= value < 1.0

    def test_integers_in_range(self):
        source = RandomSource(0)
        draws = source.integers(7, size=200)
        assert draws.min() >= 0
        assert draws.max() < 7

    def test_scalar_integer(self):
        assert isinstance(RandomSource(0).integers(10), int)

    def test_permutation_is_permutation(self):
        perm = RandomSource(3).permutation(20)
        assert sorted(perm.tolist()) == list(range(20))

    def test_spawn_children_are_independent_and_deterministic(self):
        children_a = RandomSource(7).spawn(3)
        children_b = RandomSource(7).spawn(3)
        for child_a, child_b in zip(children_a, children_b):
            assert child_a.uniform(4).tolist() == child_b.uniform(4).tolist()
        streams = [tuple(np.round(child.uniform(4), 12)) for child in RandomSource(7).spawn(3)]
        assert len(set(streams)) == 3

    @pytest.mark.parametrize(
        ("seed", "named"),
        [
            (-1, "-1"),
            (np.int64(-2), "-2"),
            (1.5, "1.5"),
            (True, "True"),
            ("3", "str"),
            (None, "NoneType"),
            (np.random.default_rng(0), "Generator"),
            (RandomSource(4), "RandomSource"),
        ],
    )
    def test_negative_seed_rejected(self, seed, named):
        # Nothing is truncated or coerced: a float, bool or string seed would
        # otherwise silently run some other integer seed's stream.
        with pytest.raises(InvalidParameterError, match=named):
            RandomSource(seed)

    def test_numpy_integer_seed_is_the_int_stream(self):
        assert RandomSource(np.int64(5)).uniform(4).tolist() == RandomSource(5).uniform(4).tolist()
        assert RandomSource(np.uint8(0)).uniform(4).tolist() == RandomSource().uniform(4).tolist()

    def test_generator_exposed(self):
        assert isinstance(RandomSource(0).generator, np.random.Generator)


def _twins(seed, *, buffered=False):
    """A stream over one generator and a second generator in the same state."""
    generator, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # both enter holding the high half of a 32-bit draw's word
        generator.integers(34)
        twin.integers(34)
        assert generator.bit_generator.state["has_uint32"] == 1
    return DrawStream(generator), generator, twin


def _closed_like(stream, generator, twin):
    stream.close()
    assert generator.bit_generator.state == twin.bit_generator.state
    assert generator.random() == twin.random()
    assert int(generator.integers(7)) == int(twin.integers(7))


def _generator_whose_next_word_is(word):
    """A PCG64 generator whose next 64-bit word is ``word``.

    PCG64 steps its 128-bit LCG state ``s`` to ``s * M + inc`` and outputs
    ``rotr64(high(s) ^ low(s), s >> 122)``; pick a stepped state with that
    output and step it back once.
    """
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    generator = np.random.default_rng(0)
    state = generator.bit_generator.state
    rotation = 5
    high = (rotation << 58) | 0x0123456789AB
    xored = ((word << rotation) | (word >> (64 - rotation))) & (2**64 - 1)
    stepped = (high << 64) | (high ^ xored)
    back = (stepped - state["state"]["inc"]) * pow(multiplier, -1, 2**128) % 2**128
    state["state"]["state"] = back
    generator.bit_generator.state = state
    return generator


def _reserved(stream, count):
    draws = stream.reserve(count)
    return [next(draws) for _ in range(count)]


class TestDrawStream:
    """Every stream draw equals the twin generator's numpy call, state dict included."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_doubles_across_block_refills(self, seed, buffered):
        stream, generator, twin = _twins(seed, buffered=buffered)
        # 64 words fill the first block; these runs cross it and later ones.
        for count in (5, 50, 9, 1, 70, 300, 17, 5000, 3):
            assert _reserved(stream, count) == twin.random(count).tolist()
        for count in (2, 40, 9000, 6):
            assert stream.array(count).tolist() == twin.random(count).tolist()
        _closed_like(stream, generator, twin)

    @pytest.mark.parametrize("upper", [1, 2, 3, 34, 2500, 2**31 + 1, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_integers_interleaved_with_doubles(self, upper, buffered):
        # 2**31 + 1 rejects about half its draws; 2**32 takes a whole half.
        for seed in range(4):
            stream, generator, twin = _twins(seed, buffered=buffered)
            for step in range(60):
                assert stream.integers(upper) == int(twin.integers(upper))
                if step % 3 == 0:
                    assert _reserved(stream, step % 7) == twin.random(step % 7).tolist()
                if step % 5 == 0:
                    assert stream.array(step % 11).tolist() == twin.random(step % 11).tolist()
            _closed_like(stream, generator, twin)

    def test_integers_where_the_low_bits_decide(self):
        # A double carries all but a word's lowest 11 bits.  With this upper
        # (2**32 % upper == upper - 4) those bits often move the Lemire draw
        # across an output or into a rejection, so the exact word is needed;
        # 40 000 draws also cross many block refills.
        upper = 1047553
        stream, generator, twin = _twins(12)
        for _ in range(40_000):
            assert stream.integers(upper) == int(twin.integers(upper))
        _closed_like(stream, generator, twin)

    def test_rejection_decided_by_the_low_bits(self):
        # Low half 0x200800 (its lowest 11 bits zero) scales to leftover 2048,
        # below the threshold, so numpy rejects it; any set low bit would
        # have accepted.  Only the exact word gets this draw right.
        upper = 1047553
        generator = _generator_whose_next_word_is(0x9E3779B9_00200800)
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = generator.bit_generator.state
        stream = DrawStream(generator)
        assert [stream.integers(upper) for _ in range(3)] == [
            int(twin.integers(upper)) for _ in range(3)
        ]
        _closed_like(stream, generator, twin)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_close_without_draws_leaves_the_generator(self, buffered):
        stream, generator, twin = _twins(5, buffered=buffered)
        _closed_like(stream, generator, twin)

    def test_stream_is_reusable_after_close(self):
        stream, generator, twin = _twins(6)
        assert stream.integers(10) == int(twin.integers(10))
        stream.close()
        assert _reserved(stream, 3) == twin.random(3).tolist()
        assert generator.bit_generator.state != twin.bit_generator.state  # still open
        _closed_like(stream, generator, twin)

    def test_with_block_closes(self):
        generator, twin = np.random.default_rng(8), np.random.default_rng(8)
        with DrawStream(generator) as stream:
            assert stream.integers(34) == int(twin.integers(34))
        assert generator.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("upper", [0, -3, 2**32 + 1])
    def test_upper_outside_the_32_bit_range_rejected(self, upper):
        with pytest.raises(InvalidParameterError, match=str(upper)):
            DrawStream(np.random.default_rng(0)).integers(upper)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM]
    )
    def test_rejects_other_bit_generators_by_name(self, bit_generator):
        with pytest.raises(InvalidParameterError, match=bit_generator.__name__):
            DrawStream(np.random.Generator(bit_generator(0)))

    def test_draw_streams_shares_one_stream_per_generator(self):
        shared, twin = np.random.default_rng(3), np.random.default_rng(3)
        units = [np.random.default_rng(seed) for seed in (4, 5)]
        streams = list(draw_streams([shared, shared, *units]))
        assert streams[0] is streams[1] and len({id(s) for s in streams}) == 3
        # Every stream is closed once the iteration ends.
        assert shared.bit_generator.state == twin.bit_generator.state
        for unit, seed in zip(units, (4, 5)):
            assert unit.bit_generator.state == np.random.default_rng(seed).bit_generator.state


class TestTrialSeeds:
    def test_count_and_determinism(self):
        seeds_a = trial_seeds(5, 10)
        seeds_b = trial_seeds(5, 10)
        assert len(seeds_a) == 10
        assert seeds_a == seeds_b

    def test_distinct_within_experiment(self):
        seeds = trial_seeds(0, 200)
        assert len(set(seeds)) == 200

    def test_different_experiments_differ(self):
        assert trial_seeds(1, 5) != trial_seeds(2, 5)

    def test_zero_trials(self):
        assert trial_seeds(0, 0) == []
