import random

import numpy as np
import pytest

from memtax import (DigestParams, GenomeCollection, KernelParams, build_katka_kernel,
                    digest_collection, kernel, separate, suffix)
from memtax.collection import encode_bases
from memtax.kernel import doubling_level
from memtax.suffix import (ALL_LEVELS, DoublingLevels, IndexedSequence, RangeExtremes,
                           build_suffix_array, derive_bwt, prefix_doubling_ranks, seed_level,
                           sort_keys, symbol_bits)

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


def _digest_codes(rng, k, w):
    genomes = ["".join(rng.choice("ACGT") for _ in range(rng.randint(5, 150)))
               for _ in range(6)]
    genomes.append(genomes[0] * 2)  # long repeats across genomes
    return digest_collection(GenomeCollection(genomes=genomes), DigestParams(k=k, w=w)).codes


def _seed(codes):
    return seed_level(symbol_bits(codes), len(codes) + 1)


def test_sa_lcp_digest_alphabet_text():
    # 4**3 values + 3 codes take 7 bits (4 per 31-bit word), 4**5 take 11
    # (2 per word); 4**8 take 17, so no two fit and the pass starts at level 0
    rng = random.Random(13)
    for k, w, seed in ((3, 2, 2), (3, 10, 2), (5, 1, 1), (8, 2, 0)):
        codes = _digest_codes(rng, k, w)
        assert codes.max() > 8  # beyond the base alphabet
        assert _seed(codes) == seed
        _check_sa_lcp_bwt(codes)


def test_sa_lcp_short_texts_and_sentinel_in_first_word():
    # 8 base symbols share a word; the sentinel falls inside the first word
    # of the last 7 suffixes, and of every suffix of a text below 8 symbols
    rng = random.Random(31)
    lengths = list(range(1, 10)) + [8 * m + d for m in (2, 3, 4, 9) for d in (-1, 0, 1)]
    for n in lengths:
        for alpha in ("A", "AC", "ACGT"):
            codes = encode_bases("".join(rng.choice(alpha) for _ in range(n)))
            _check_sa_lcp_bwt(codes)
            _check_doubling_levels(codes, 3)


def test_lcp_every_residue_of_the_word():
    # the low bits come from one XOR of packed words: every residue mod
    # 2**seed, 0 included, must occur and match the naive LCP
    rng = random.Random(37)
    codes = encode_bases("".join(rng.choice("AC") for _ in range(400)))
    digest = _digest_codes(rng, 3, 2)
    for codes, width in ((codes, 8), (digest, 4)):
        assert 1 << _seed(codes) == width
        sa, lcp = build_suffix_array(codes)
        assert list(lcp) == oracles.naive_lcp(codes, sa)
        assert set((lcp[1:] % width).tolist()) == set(range(width))


def _check_doubling_levels(codes, seed):
    assert _seed(codes) == seed
    levels = list(prefix_doubling_ranks(codes))
    assert all(rank.dtype == np.int32 for rank in levels)  # fewer than 2**31 rows
    levels = [rank.tolist() for rank in levels]
    for j, rank in enumerate(levels, start=seed):
        assert rank == oracles.naive_prefix_ranks(codes, 1 << j)
    # the pass starts at the seed and stops at the first all-distinct level
    # at or past it, and only there
    assert [len(set(rank)) == len(rank) for rank in levels] == \
        [False] * (len(levels) - 1) + [True]
    # a level below the seed comes from its own packed sort
    on_demand = DoublingLevels(codes)
    for j in range(seed):
        assert on_demand[j].tolist() == oracles.naive_prefix_ranks(codes, 1 << j)


def test_doubling_levels_against_oracle():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 200)
        alpha = rng.choice(["AC", "ACGT"])
        _check_doubling_levels(encode_bases("".join(rng.choice(alpha) for _ in range(n))), 3)
    for n in (1, 2, 3, 31, 32, 33, 100):
        _check_doubling_levels(encode_bases("A" * n), 3)
        _check_doubling_levels(encode_bases("ACG" * n), 3)
    genomes = ["".join(rng.choice("ACGT") for _ in range(rng.randint(20, 120)))
               for _ in range(4)]
    genomes.append(genomes[0] * 2)
    for k, seed in ((3, 2), (8, 0)):
        codes = digest_collection(GenomeCollection(genomes=genomes), DigestParams(k=k, w=2)).codes
        assert codes.max() > 8
        _check_doubling_levels(codes, seed)


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_doubling_levels_shared_kept_and_restarted(monkeypatch):
    rng = random.Random(23)
    codes = encode_bases("".join(rng.choice("ACGT") for _ in range(300)) * 2)
    want = [np.array(oracles.naive_prefix_ranks(codes, 1 << j)) for j in range(3)]
    want += list(prefix_doubling_ranks(codes))
    last = len(want) - 1
    passes = _counted(monkeypatch, suffix, "prefix_doubling_ranks")
    sorts = _counted(monkeypatch, suffix, "sort_keys")

    levels = DoublingLevels(codes)
    assert levels.seed == 3
    assert np.array_equal(levels[4], want[4]) and levels.last is None
    assert np.array_equal(levels[63], want[last]) and levels.last == last
    assert passes == [len(codes)]  # one pass served both, and all levels between
    assert len(sorts) == last - 2  # one sort per level from the seed
    assert np.array_equal(levels[3], want[3]) and len(passes) == 2  # let go: again
    # below the seed: one packed sort of its own, no pass
    assert np.array_equal(levels[1], want[1]) and len(passes) == 2
    assert len(sorts) == last - 2 + 2

    # kept levels serve later consumers; the rest are let go by trim
    levels = DoublingLevels(codes)
    levels.keep = ALL_LEVELS
    assert np.array_equal(levels[2], want[2])
    sa, lcp = build_suffix_array(levels)
    assert [r.tolist() for r in levels.from_seed()] == [r.tolist() for r in want[3:]]
    assert len(passes) == 3
    expected = build_suffix_array(codes)
    assert np.array_equal(sa, expected[0]) and np.array_equal(lcp, expected[1])
    levels.keep = {2, 5, 40}  # 40 is past the last level, which serves it
    levels.trim()
    sorts.clear()
    assert np.array_equal(levels[40], want[last]) and np.array_equal(levels[2], want[2])
    assert np.array_equal(levels[5], want[5]) and not sorts  # all three kept
    assert len(passes) == 4  # build_suffix_array(codes) made its own
    assert np.array_equal(levels[4], want[4]) and len(passes) == 5  # trimmed away
    assert np.array_equal(levels[1], want[1]) and len(passes) == 5


def test_seeded_pass_sort_count(monkeypatch):
    # levels 0-2 of a base text take no sort of their own: its suffix array
    # takes one sort per level from the seed, level 3, to the last
    sorts = _counted(monkeypatch, suffix, "sort_keys")
    window_sorts = _counted(monkeypatch, kernel, "sort_keys")
    rng = random.Random(41)
    genomes = ["".join(rng.choice("ACGT") for _ in range(200)) * 3 for _ in range(4)]
    st = separate(GenomeCollection(genomes=genomes))
    levels = st.levels
    assert levels.seed == 3
    levels.keep = {doubling_level(8)}
    build_suffix_array(levels)
    assert len(sorts) == levels.last - levels.seed + 1 and levels.last > 8
    # a kernel of order 8 or more shares the kept level: its window ids only
    build_katka_kernel(st, KernelParams(8))
    assert len(sorts) == levels.last - levels.seed + 1 and len(window_sorts) == 1
    # below 2**seed a kernel's level takes one packed sort of its own
    build_katka_kernel(st, KernelParams(5))
    assert len(sorts) == levels.last - levels.seed + 2 and len(window_sorts) == 2


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
