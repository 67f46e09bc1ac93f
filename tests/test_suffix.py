import random

import numpy as np
import pytest

from memtax import DigestParams, GenomeCollection, digest_collection, suffix
from memtax.collection import encode_bases
from memtax.suffix import (ALL_LEVELS, DoublingLevels, IndexedSequence, RangeExtremes,
                           build_suffix_array, derive_bwt, prefix_doubling_ranks, sort_keys)

import oracles


def sa_of(text: str):
    return build_suffix_array(encode_bases(text))[0]


def lcp_of(text: str):
    return build_suffix_array(encode_bases(text))[1]


def test_suffix_array_examples():
    assert list(sa_of("GATA")) == [4, 3, 1, 0, 2]
    assert list(sa_of("A")) == [1, 0]


def test_lcp_examples():
    assert list(lcp_of("GATA")) == [0, 0, 1, 0, 0]
    assert list(lcp_of("AAAA")) == [0, 0, 1, 2, 3]
    assert list(lcp_of("A")) == [0, 0]


def test_suffix_array_rejects_reserved_codes():
    with pytest.raises(ValueError):
        build_suffix_array([])
    with pytest.raises(ValueError):
        build_suffix_array([3, 0, 4])


def test_bwt_examples():
    # bwt of GATA: A T G <eof> A
    codes = encode_bases("GATA")
    bwt = derive_bwt(codes, sa_of("GATA"))
    rendered = ["ACGT"[c - 3] if c >= 3 else "." for c in bwt]
    assert rendered == ["A", "T", "G", ".", "A"]
    codes = encode_bases("A")
    assert list(derive_bwt(codes, sa_of("A"))) == [3, 0]


def _check_sa_lcp_bwt(codes):
    sa, lcp = build_suffix_array(codes)
    assert sorted(sa) == list(range(len(codes) + 1))  # permutation
    assert list(sa) == oracles.naive_suffix_array(codes)
    assert list(lcp) == oracles.naive_lcp(codes, sa)
    assert list(derive_bwt(codes, sa)) == oracles.naive_bwt(codes, sa)


def test_sa_lcp_bwt_against_oracle_random():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 512)
        alpha = rng.choice(["AC", "ACGT", "AG"])
        _check_sa_lcp_bwt(encode_bases("".join(rng.choice(alpha) for _ in range(n))))


def test_sa_lcp_unary_and_periodic_texts():
    # every doubling round stays ambiguous until the prefix length passes n
    for n in (1, 2, 3, 31, 32, 33, 64, 65, 300):
        _check_sa_lcp_bwt(encode_bases("A" * n))
        _check_sa_lcp_bwt(encode_bases("AC" * n))
        _check_sa_lcp_bwt(encode_bases("AAC" * (n // 3 + 1)))


def test_sa_lcp_digest_alphabet_text():
    rng = random.Random(13)
    for k, w in ((3, 2), (5, 1)):
        genomes = ["".join(rng.choice("ACGT") for _ in range(rng.randint(5, 150)))
                   for _ in range(6)]
        genomes.append(genomes[0] * 2)  # long repeats across genomes
        codes = digest_collection(GenomeCollection(genomes=genomes),
                                  DigestParams(k=k, w=w)).codes
        assert codes.max() > 8  # beyond the base alphabet
        _check_sa_lcp_bwt(codes)


def _check_doubling_levels(codes):
    levels = list(prefix_doubling_ranks(codes))
    assert all(rank.dtype == np.int32 for rank in levels)  # fewer than 2**31 rows
    levels = [rank.tolist() for rank in levels]
    for j, rank in enumerate(levels):
        assert rank == oracles.naive_prefix_ranks(codes, 1 << j)
    # the generator stops at the first all-distinct level, and only there
    assert [len(set(rank)) == len(rank) for rank in levels] == \
        [False] * (len(levels) - 1) + [True]


def test_doubling_levels_against_oracle():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 200)
        alpha = rng.choice(["AC", "ACGT"])
        _check_doubling_levels(encode_bases("".join(rng.choice(alpha) for _ in range(n))))
    for n in (1, 2, 3, 31, 32, 33, 100):
        _check_doubling_levels(encode_bases("A" * n))
        _check_doubling_levels(encode_bases("ACG" * n))
    genomes = ["".join(rng.choice("ACGT") for _ in range(rng.randint(20, 120)))
               for _ in range(4)]
    genomes.append(genomes[0] * 2)
    codes = digest_collection(GenomeCollection(genomes=genomes), DigestParams(k=3, w=2)).codes
    assert codes.max() > 8
    _check_doubling_levels(codes)


def test_doubling_levels_shared_kept_and_restarted(monkeypatch):
    passes = []

    def counted(codes):
        passes.append(len(codes))
        yield from prefix_doubling_ranks(codes)

    monkeypatch.setattr(suffix, "prefix_doubling_ranks", counted)
    rng = random.Random(23)
    codes = encode_bases("".join(rng.choice("ACGT") for _ in range(300)) * 2)
    want = list(prefix_doubling_ranks(codes))
    last = len(want) - 1

    levels = DoublingLevels(codes)
    assert np.array_equal(levels[3], want[3]) and levels.last is None
    assert np.array_equal(levels[63], want[last]) and levels.last == last
    assert passes == [len(codes)]  # one pass served both, and all levels below
    assert np.array_equal(levels[1], want[1]) and len(passes) == 2  # let go: again

    # kept levels serve later consumers; the rest are let go by trim
    levels = DoublingLevels(codes)
    levels.keep = ALL_LEVELS
    assert np.array_equal(levels[2], want[2])
    sa, lcp = build_suffix_array(levels)
    assert [r.tolist() for r in levels.all()] == [r.tolist() for r in want]
    assert len(passes) == 3
    expected = build_suffix_array(codes)
    assert np.array_equal(sa, expected[0]) and np.array_equal(lcp, expected[1])
    levels.keep = {2, 40}  # 40 is past the last level, which serves it
    levels.trim()
    assert np.array_equal(levels[40], want[last]) and np.array_equal(levels[2], want[2])
    assert len(passes) == 4  # build_suffix_array(codes) made its own
    assert np.array_equal(levels[1], want[1]) and len(passes) == 5  # trimmed away


@pytest.mark.parametrize("bound", [1, 7, 1 << 20, (1 << 62) - 3])
def test_sort_keys_orders_keys(bound):
    # bound near 2**62 leaves no room for a row index: the argsort branch
    rng = np.random.default_rng(bound % 1000)
    keys = rng.integers(0, bound, 300, dtype=np.int64)
    keys[::7] = keys[0]  # runs of equal keys
    order, ordered = sort_keys(keys.copy(), bound)  # the packed sort overwrites its keys
    assert np.array_equal(ordered, np.sort(keys))
    assert np.array_equal(keys[order], ordered)
    assert sorted(order) == list(range(len(keys)))


def test_rank_select_inverse_laws():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 300)
        sigma = rng.randint(2, 8)
        symbols = np.array([rng.randrange(sigma) for _ in range(n)])
        seq = IndexedSequence(symbols, sigma)
        for c in range(sigma + 1):  # absent and one-past symbols included
            smaller = int(np.sum(symbols < c))
            for i in range(n + 1):
                assert seq.lf(c, i) == smaller + seq.rank(c, i) == \
                    smaller + int(np.sum(symbols[:i] == c))
        for c in range(sigma):
            total = seq.count(c)
            assert seq.rank(c, n) == total == sum(1 for s in symbols if s == c)
            for k in range(total):
                p = seq.select(c, k)
                assert symbols[p] == c
                assert seq.rank(c, p) == k
                assert seq.rank(c, p + 1) == k + 1


@pytest.mark.parametrize("sigma", [5, 70, 1 << 52])
def test_lf_batched_against_per_key(sigma):
    # a batch of 64 or more keys is searched in packed-sorted order; codes
    # -1 (no query symbol) and sigma (one past the alphabet) fall outside
    # K and find its bounds; at sigma = 2**52, (sigma + 1) * R leaves no
    # room for the row bits and the keys take the argsort
    rng = np.random.default_rng(sigma % 1000)
    rows = 300
    symbols = rng.integers(0, min(sigma, 4), rows)
    symbols[::5] = rng.integers(0, sigma, len(symbols[::5]))  # the top of the alphabet too
    seq = IndexedSequence(symbols, sigma)
    for count in (64, 200, 2048):
        c = rng.choice([-1, 0, 1, 2, int(symbols.max()), sigma - 1, sigma], count)
        i = rng.integers(0, rows + 1, count)
        c[:2], i[:2] = -1, (0, rows)
        c[2:4], i[2:4] = sigma, (0, rows)
        want = [int(seq.lf(int(cc), int(ii))) for cc, ii in zip(c, i)]
        assert seq.lf(c, i).tolist() == want
        assert seq.lf(np.array([c, c]), np.array([i, i])).tolist() == [want, want]
        assert want[:4] == [0, 0, rows, rows]
        stepped = seq.lf(c, np.array([i, np.minimum(i + 7, rows)]))
        assert np.all(stepped[0][c == -1] == stepped[1][c == -1])  # an empty step


def test_rmq_examples():
    r = RangeExtremes([5, 2, 7, 2])
    assert r.position(0, 3, "min") == 1  # leftmost tie
    assert r.position(1, 3, "max") == 2
    with pytest.raises(ValueError):
        r.position(2, 1)


def test_rmq_against_scan():
    rng = random.Random(17)
    pairs = 0
    while pairs < 10_000:
        n = rng.randint(1, 120)
        values = [rng.randrange(10) for _ in range(n)]
        r = RangeExtremes(values)
        for _ in range(min(120, 10_000 - pairs)):
            lo = rng.randrange(n)
            hi = rng.randrange(lo, n)
            assert r.argmin(lo, hi) == oracles.naive_rmq(values, lo, hi, "min")
            assert r.argmax(lo, hi) == oracles.naive_rmq(values, lo, hi, "max")
            pairs += 1
