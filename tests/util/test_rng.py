"""Tests for repro.util.rng."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import derive_node_rng, ensure_rng, part_sample_hash


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_passthrough_of_existing_generator(self):
        generator = random.Random(1)
        assert ensure_rng(generator) is generator

    def test_none_gives_a_generator(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()


class TestPartSampleHash:
    def test_deterministic(self):
        assert part_sample_hash(5, 99, 0.5) == part_sample_hash(5, 99, 0.5)

    def test_probability_zero_never_samples(self):
        assert not any(part_sample_hash(i, 3, 0.0) for i in range(100))

    def test_probability_one_always_samples(self):
        assert all(part_sample_hash(i, 3, 1.0) for i in range(100))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            part_sample_hash(0, 0, 1.5)
        with pytest.raises(ValueError):
            part_sample_hash(0, 0, -0.1)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_seed_changes_decisions_eventually(self, part_id):
        # Across many seeds the decision at p=0.5 must not be constant.
        decisions = {part_sample_hash(part_id, seed, 0.5) for seed in range(64)}
        assert decisions == {True, False}

    def test_empirical_rate_close_to_probability(self):
        hits = sum(part_sample_hash(i, 42, 0.3) for i in range(5000))
        assert 0.25 < hits / 5000 < 0.35


class TestDeriveNodeRng:
    def test_pure_function_of_seed_and_index(self):
        first = derive_node_rng(12345, 7)
        second = derive_node_rng(12345, 7)
        assert first is not second
        assert first.getstate() == second.getstate()
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_differs_across_indices_and_seeds(self):
        firsts = {derive_node_rng(12345, i).randrange(2**62) for i in range(64)}
        assert len(firsts) == 64
        assert derive_node_rng(1, 0).random() != derive_node_rng(2, 0).random()

    def test_pinned_first_draw(self):
        # Pins the derivation itself (SHA-256 of "node:<seed>:<index>"): a
        # change here would silently reshuffle every node's stream.
        assert derive_node_rng(12345, 7).randrange(2**32) == 254166994
