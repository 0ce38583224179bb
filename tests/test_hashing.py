"""Unit tests for the universal hash family and the pair layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (MERSENNE_P, PairHash, UniversalHash,
                                fold_to_31_bits, make_table_hashes)
from repro.errors import InvalidConfigError


class TestFoldTo31Bits:
    def test_matches_python_modulo(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 63, 1000, dtype=np.int64).astype(np.uint64)
        folded = fold_to_31_bits(values)
        expected = np.array([int(v) % int(MERSENNE_P) for v in values],
                            dtype=np.uint64)
        assert np.array_equal(folded, expected)

    def test_extreme_values(self):
        values = np.array([0, 1, int(MERSENNE_P) - 1, int(MERSENNE_P),
                           int(MERSENNE_P) + 1, 2 ** 64 - 1], dtype=np.uint64)
        folded = fold_to_31_bits(values)
        expected = np.array([int(v) % int(MERSENNE_P) for v in values],
                            dtype=np.uint64)
        assert np.array_equal(folded, expected)

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=200)
    def test_always_below_p(self, value):
        folded = fold_to_31_bits(np.array([value], dtype=np.uint64))
        assert int(folded[0]) == value % int(MERSENNE_P)


def _limb_fold(codes):
    """The three-limb Mersenne fold, written out step by step."""
    mask = np.uint64((1 << 31) - 1)
    codes = np.asarray(codes, dtype=np.uint64)
    total = (codes & mask) + ((codes >> np.uint64(31)) & mask) + (
        codes >> np.uint64(62))
    total = (total & mask) + (total >> np.uint64(31))
    return np.where(total >= MERSENNE_P, total - MERSENNE_P, total)


class TestFoldMatchesLimbFormula:
    P = int(MERSENNE_P)
    EDGES = [0, 1, P - 2, P - 1, P, P + 1, 2 * P, 3 * P - 1, (1 << 62) - 1,
             1 << 62, 2 ** 64 - 2, 2 ** 64 - 1]

    def test_random_inputs(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2 ** 64 - 1, 200_000, dtype=np.uint64,
                              endpoint=True)
        assert np.array_equal(fold_to_31_bits(values), _limb_fold(values))

    def test_edges(self):
        values = np.array(self.EDGES, dtype=np.uint64)
        assert np.array_equal(fold_to_31_bits(values), _limb_fold(values))
        assert fold_to_31_bits(values).tolist() == [v % self.P
                                                    for v in self.EDGES]

    def test_in_place(self):
        values = np.array(self.EDGES, dtype=np.uint64)
        work = values.copy()
        out = fold_to_31_bits(work, out=work)
        assert out is work
        assert np.array_equal(work, _limb_fold(values))

    def test_raw_leaves_input_untouched(self):
        h = UniversalHash.random(np.random.default_rng(2))
        codes = np.array(self.EDGES, dtype=np.uint64)
        before = codes.copy()
        raw = h.raw(codes)
        assert np.array_equal(codes, before)
        expected = _limb_fold(h.a * _limb_fold(codes ^ h.premix) + h.b)
        assert np.array_equal(raw, expected)


class TestUniversalHash:
    def test_rejects_out_of_range_constants(self):
        with pytest.raises(InvalidConfigError):
            UniversalHash(a=0, b=0, premix=0)
        with pytest.raises(InvalidConfigError):
            UniversalHash(a=int(MERSENNE_P), b=0, premix=0)
        with pytest.raises(InvalidConfigError):
            UniversalHash(a=1, b=int(MERSENNE_P), premix=0)

    def test_raw_matches_definition(self):
        h = UniversalHash(a=12345, b=678, premix=0xDEADBEEF)
        keys = np.array([0, 1, 99999, 2 ** 40], dtype=np.uint64)
        raw = h.raw(keys)
        p = int(MERSENNE_P)
        for key, value in zip(keys, raw):
            folded = (int(key) ^ 0xDEADBEEF) % p
            assert int(value) == (12345 * folded + 678) % p

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        h = UniversalHash.random(rng)
        keys = np.arange(100, dtype=np.uint64)
        assert np.array_equal(h.raw(keys), h.raw(keys))

    def test_distinct_functions_disagree(self):
        rng = np.random.default_rng(7)
        h1, h2 = UniversalHash.random(rng), UniversalHash.random(rng)
        keys = np.arange(1000, dtype=np.uint64)
        assert not np.array_equal(h1.raw(keys), h2.raw(keys))

    def test_bucket_requires_power_of_two(self):
        h = UniversalHash(a=3, b=5, premix=1)
        with pytest.raises(InvalidConfigError):
            h.bucket(np.array([1], dtype=np.uint64), 100)

    def test_bucket_range(self):
        rng = np.random.default_rng(1)
        h = UniversalHash.random(rng)
        keys = rng.integers(0, 1 << 62, 5000).astype(np.uint64)
        buckets = h.bucket(keys, 256)
        assert buckets.min() >= 0
        assert buckets.max() < 256

    def test_bucket_doubling_property(self):
        """Entry in bucket loc moves to loc or loc + n when n doubles.

        This is the conflict-free upsize property of Section IV-D.
        """
        rng = np.random.default_rng(2)
        h = UniversalHash.random(rng)
        keys = rng.integers(0, 1 << 62, 10_000).astype(np.uint64)
        small = h.bucket(keys, 512)
        large = h.bucket(keys, 1024)
        assert bool(np.all((large == small) | (large == small + 512)))

    def test_distribution_roughly_uniform(self):
        rng = np.random.default_rng(3)
        h = UniversalHash.random(rng)
        keys = rng.integers(0, 1 << 62, 64_000).astype(np.uint64)
        buckets = h.bucket(keys, 64)
        counts = np.bincount(buckets, minlength=64)
        # Each bucket expects 1000; allow generous 5-sigma slack.
        assert counts.min() > 1000 - 5 * np.sqrt(1000)
        assert counts.max() < 1000 + 5 * np.sqrt(1000)


class TestPairHash:
    def test_pair_enumeration(self):
        rng = np.random.default_rng(0)
        ph = PairHash(4, rng)
        expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert [tuple(p) for p in ph.pairs] == expected
        assert ph.num_pairs == 6

    def test_rejects_single_table(self):
        with pytest.raises(InvalidConfigError):
            PairHash(1, np.random.default_rng(0))

    def test_partition_in_range(self):
        rng = np.random.default_rng(1)
        ph = PairHash(5, rng)
        codes = rng.integers(1, 1 << 62, 2000).astype(np.uint64)
        parts = ph.partition(codes)
        assert parts.min() >= 0
        assert parts.max() < 10

    def test_tables_for_are_pair_members(self):
        rng = np.random.default_rng(2)
        ph = PairHash(4, rng)
        codes = rng.integers(1, 1 << 62, 500).astype(np.uint64)
        first, second = ph.tables_for(codes)
        assert bool(np.all(first < second))
        assert first.min() >= 0
        assert second.max() < 4

    def test_alternate_table_roundtrip(self):
        rng = np.random.default_rng(3)
        ph = PairHash(4, rng)
        codes = rng.integers(1, 1 << 62, 500).astype(np.uint64)
        first, second = ph.tables_for(codes)
        assert np.array_equal(ph.alternate_table(codes, first), second)
        assert np.array_equal(ph.alternate_table(codes, second), first)

    def test_alternate_table_rejects_foreign_table(self):
        rng = np.random.default_rng(4)
        ph = PairHash(3, rng)
        codes = np.array([123], dtype=np.uint64)
        first, second = ph.tables_for(codes)
        foreign = np.array([3 - int(first[0]) - int(second[0])], dtype=np.int64)
        with pytest.raises(AssertionError):
            ph.alternate_table(codes, foreign)

    @pytest.mark.parametrize("outside", [-1, 3, 4])
    def test_alternate_table_rejects_out_of_range_table(self, outside):
        ph = PairHash(3, np.random.default_rng(4))
        codes = np.array([123, 456], dtype=np.uint64)
        first, _ = ph.tables_for(codes)
        current = np.array([int(first[0]), outside], dtype=np.int64)
        with pytest.raises(AssertionError):
            ph.alternate_table(codes, current)

    def test_alternate_table_empty(self):
        ph = PairHash(4, np.random.default_rng(4))
        empty = np.zeros(0, dtype=np.uint64)
        assert len(ph.alternate_table(empty, np.zeros(0, np.int64))) == 0

    def test_partitions_roughly_balanced(self):
        rng = np.random.default_rng(5)
        ph = PairHash(4, rng)
        codes = rng.integers(1, 1 << 62, 60_000).astype(np.uint64)
        counts = np.bincount(ph.partition(codes), minlength=6)
        assert counts.min() > 10_000 - 5 * np.sqrt(10_000)
        assert counts.max() < 10_000 + 5 * np.sqrt(10_000)


def test_make_table_hashes_distinct():
    hashes = make_table_hashes(4, np.random.default_rng(0))
    assert len(hashes) == 4
    keys = np.arange(1000, dtype=np.uint64)
    raws = [h.raw(keys) for h in hashes]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(raws[i], raws[j])
