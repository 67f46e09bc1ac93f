import random
import tracemalloc

import numpy as np
import pytest

from memtax import (DigestParams, GenomeCollection, KernelParams, build_katka_kernel,
                    digest_collection, kernel, separate, suffix)
from memtax.collection import Alphabet, encode_bases
from memtax.index import _layout
from memtax.kernel import doubling_level
from memtax.suffix import (LAST_LEVEL, IndexedSequence, build_suffix_array, doubling_levels,
                           first_below, lcp_dtype, prefix_doubling_ranks, seed_level, sort_keys,
                           symbol_bits)

import oracles
from conftest import construction_peak_per_row


def sa_of(text: str):
    return build_suffix_array(encode_bases(text))[0]


def lcp_of(text: str):
    return build_suffix_array(encode_bases(text))[1]


def bwt_of(text: str):
    return build_suffix_array(encode_bases(text))[2]


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
    rendered = ["ACGT"[c - 3] if c >= 3 else "." for c in bwt_of("GATA")]
    assert rendered == ["A", "T", "G", ".", "A"]
    assert list(bwt_of("A")) == [3, 0]


def _check_sa_lcp_bwt(codes):
    sa, lcp, bwt = build_suffix_array(codes)
    assert sorted(sa) == list(range(len(codes) + 1))  # permutation
    assert list(sa) == oracles.naive_suffix_array(codes)
    assert list(lcp) == oracles.naive_lcp(codes, sa)
    assert lcp.dtype == np.dtype(lcp_dtype(int(lcp.max())))  # the narrowest that holds it
    assert list(bwt) == oracles.naive_bwt(codes, sa.tolist())  # Python ints: 0 - 1 is -1


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
        sa, lcp, _ = build_suffix_array(codes)
        assert list(lcp) == oracles.naive_lcp(codes, sa)
        assert set((lcp[1:] % width).tolist()) == set(range(width))


def test_lcp_of_unary_periodic_and_repeated_texts():
    # a unary or periodic text has few irreducible rows (BWT run heads) and
    # long prefixes: every other row's LCP comes from the running maximum
    for unit in ("A", "AC", "ACG", "ACGTTGCA"):
        for n in list(range(1, 18)) + [63, 64, 65, 511, 512, 513]:
            _check_sa_lcp_bwt(encode_bases((unit * n)[:n]))
    for text in ("A" * 5000, "AC" * 2500):
        codes = encode_bases(text)
        sa, lcp, _ = build_suffix_array(codes)
        assert list(lcp) == oracles.naive_lcp(codes, sa)
    # repeats across separators: the shared prefixes run through '$'
    rng = random.Random(43)
    core = "".join(rng.choice("ACGT") for _ in range(70))
    genomes = [core, core, core[:30], core * 3, core[5:] + core, "A" * 40, "A" * 41]
    _check_sa_lcp_bwt(separate(GenomeCollection(genomes=genomes)).codes)


def test_lcp_of_digest_texts_of_every_seed():
    # seeds 2, 1 and 0: 4, 2 and 1 symbols per word; with its largest code,
    # 4**15 + 2, a k = 15 digest takes 31 bits, the whole int32 word
    rng = random.Random(47)
    for k, w, seed in ((3, 2, 2), (5, 1, 1), (8, 2, 0), (15, 2, 0)):
        codes = _digest_codes(rng, k, w)
        assert _seed(codes) == seed
        _check_sa_lcp_bwt(codes)
    codes[::50] = 4 ** 15 + 2
    assert symbol_bits(codes) == 31
    _check_sa_lcp_bwt(codes)


def test_lcp_compare_rounds_grow_with_the_log(monkeypatch):
    # the one irreducible row of a unary text shares 199 999 symbols (25 000
    # words) with the row before: windows widening 8 times a round reach
    # them in a few rounds, not one round per word
    rounds = _counted(monkeypatch, suffix, "_equal_words")
    sa, lcp, _ = build_suffix_array(encode_bases("A" * 200_000))
    assert np.array_equal(lcp[1:], np.arange(200_000))
    assert 1 <= len(rounds) <= 10


def test_suffix_array_construction_peak():
    # the pass holds one level at a time and the LCP takes none, and the
    # arrays come out in their stored dtypes: 25.0 bytes per row, where
    # int64 arrays took 36.1 and holding every level of the pass 66.5
    assert construction_peak_per_row(lambda st: build_suffix_array(st.codes)) <= 45


def test_text_is_one_array_of_the_dtype_asked_for():
    # np.append of the sentinel used to promote int32 codes to int64
    for dtype in (np.int32, np.int64):
        text = suffix._text(np.array([3, 4, 5], np.int32), dtype)
        assert text.dtype == dtype and text.tolist() == [3, 4, 5, 0]


@pytest.mark.parametrize("length, lcp", [(256, "u1"), (257, "<u2")])
def test_suffix_arrays_come_in_the_stored_dtypes(length, lcp):
    # a unary text of length n has LCP maximum n - 1: 255 is the last a
    # byte holds
    codes = encode_bases("A" * length)
    for alphabet in (Alphabet("bases"), Alphabet("digest", 4)):  # u1 and <u4 BWTs
        arrays = dict(zip(("sa", "lcp", "bwt"), build_suffix_array(codes, alphabet.size)))
        assert int(arrays["lcp"].max()) == length - 1
        assert {name: arrays[name].dtype for name in arrays} == \
            {name: np.dtype(dtype) for name, dtype, _ in _layout(length, alphabet, lcp)}
    # by default the BWT's dtype holds the largest code
    assert build_suffix_array(codes)[2].dtype == np.uint8


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
    below = doubling_levels(codes, set(range(seed)))
    for j in range(seed):
        assert below[j].tolist() == oracles.naive_prefix_ranks(codes, 1 << j)


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


def test_doubling_levels_one_pass_to_the_highest_wanted_then_nothing_held(monkeypatch):
    rng = random.Random(23)
    codes = encode_bases("".join(rng.choice("ACGT") for _ in range(300)) * 2)
    last = 3 + len(list(prefix_doubling_ranks(codes))) - 1
    passes = _counted(monkeypatch, suffix, "prefix_doubling_ranks")
    sorts = _counted(monkeypatch, suffix, "sort_keys")

    # below the seed (3), the seed, one between, the last and one past it
    wanted = {1, 2, 3, 5, LAST_LEVEL, 40}
    levels = doubling_levels(codes, wanted)
    assert set(levels) == wanted and 5 < last < 40
    for j in wanted:
        assert levels[j].tolist() == oracles.naive_prefix_ranks(codes, 1 << j), j
    assert levels[LAST_LEVEL] is levels[40]  # the last level serves both
    assert passes == [len(codes)]
    # one packed sort for each level below the seed, one per level of the pass
    assert len(sorts) == 2 + last - 3 + 1

    # a wanted set below the last level stops the pass at its highest
    passes.clear()
    sorts.clear()
    levels = doubling_levels(codes, {4})
    assert levels[4].tolist() == oracles.naive_prefix_ranks(codes, 1 << 4)
    assert passes == [len(codes)] and len(sorts) == 2
    assert doubling_levels(codes, set()) == {} and len(passes) == 1
    del levels

    # once the dict is dropped no level stays alive, not even in a pass
    # stopped short of its last level: 100 011 rows, 400 KB a level
    genomes = ["".join(rng.choice("ACGT") for _ in range(2500)) * 4 for _ in range(10)]
    codes = separate(GenomeCollection(genomes=genomes)).codes
    doubling_levels(codes, {4})  # warm up
    for wanted in ({4}, {1, 4}, {4, LAST_LEVEL}):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            levels = doubling_levels(codes, wanted)
            assert set(levels) == wanted
            del levels
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held < 64 << 10, (wanted, held)


def test_seeded_pass_sort_count(monkeypatch):
    # levels 0-2 of a base text take no sort of their own: its suffix array
    # takes one sort per level from the seed, level 3, to the last
    rng = random.Random(41)
    genomes = ["".join(rng.choice("ACGT") for _ in range(200)) * 3 for _ in range(4)]
    st = separate(GenomeCollection(genomes=genomes))
    assert _seed(st.codes) == 3
    last = 3 + len(list(prefix_doubling_ranks(st.codes))) - 1
    sorts = _counted(monkeypatch, suffix, "sort_keys")
    window_sorts = _counted(monkeypatch, kernel, "sort_keys")
    held = doubling_levels(st.codes, {LAST_LEVEL, doubling_level(8)})
    assert len(sorts) == last - 3 + 1 and last > 8
    # handed over, the levels take no sort in the builds
    st.levels = {LAST_LEVEL: held.pop(LAST_LEVEL)}
    build_suffix_array(st.codes, None, st.levels)
    assert len(sorts) == last - 3 + 1 and st.levels == {}
    # a kernel of order 8 or more pops the handed level: its window ids only
    st.levels = {doubling_level(8): held.pop(doubling_level(8))}
    build_katka_kernel(st, KernelParams(8))
    assert len(sorts) == last - 3 + 1 and len(window_sorts) == 1 and st.levels == {}
    # below 2**seed a kernel's level takes one packed sort of its own
    build_katka_kernel(st, KernelParams(5))
    assert len(sorts) == last - 3 + 2 and len(window_sorts) == 2


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


@pytest.mark.parametrize("bound", [50, (1 << 62) - 3])
def test_sort_keys_carries_tags(bound):
    # tags in place of the row index come out in the tags' dtype, each
    # beside its key; near 2**62 the tags' bits leave no room: the argsort
    rng = np.random.default_rng(bound % 1000)
    keys = rng.integers(0, bound, 300, dtype=np.int64)
    keys[::7] = keys[0]
    tags = (3 * np.arange(300) + 7).astype(np.int32)
    got, ordered = sort_keys(keys.copy(), bound, tags)
    assert got.dtype == np.int32 and np.array_equal(ordered, np.sort(keys))
    assert sorted(zip(ordered.tolist(), got.tolist())) == sorted(zip(keys.tolist(), tags.tolist()))


@pytest.mark.parametrize("dtype", ["u1", "<u2"])
def test_first_below_narrow_values(dtype):
    # bounds past the dtype's maximum hold every value, as on a <u4 copy of
    # the values: the first row at or past the origin; the rows reversed
    # (the upward scan of a widening) too
    rng = np.random.default_rng(7)
    top = np.iinfo(dtype).max
    values = rng.integers(top - 40, top, size=3000, endpoint=True).astype(dtype)
    values[rng.integers(0, len(values), size=8)] = 0
    origins = rng.integers(0, len(values) + 1, size=400)
    bounds = np.concatenate([rng.integers(1, top + 1, size=200),
                             rng.choice([top + 1, top + 2, 70_000, 2**40], size=200)])
    rng.shuffle(bounds)
    for rows in (values, values[::-1]):
        got = first_below(rows, origins, bounds)
        assert np.array_equal(got, first_below(rows.astype("<u4"), origins, bounds))
        want = [next((x for x in range(o, len(rows)) if rows[x] < b), len(rows))
                for o, b in zip(origins.tolist(), bounds.tolist())]
        assert got.tolist() == want
    past = bounds > top
    assert np.array_equal(got[past], np.minimum(origins[past], len(values)))


def assert_rank_select_laws(seq, symbols, c):
    """Rank and select as the index reads them: LF steps by one at each
    occurrence of c and by none elsewhere, so that LF(c, n) - LF(c, 0)
    counts c; c's run of keys, less c*R, is its position list (which the
    shrink reads)."""
    symbols = np.asarray(symbols)
    n = len(symbols)
    assert np.array_equal(np.diff(seq.lf(c, np.arange(n + 1))), symbols == c)
    where = np.flatnonzero(symbols == c)
    assert seq.lf(c, n) - seq.lf(c, 0) == len(where)
    run = seq.keys[seq.lf(c, 0): seq.lf(c, n)].astype(np.int64) - c * n
    assert run.tolist() == where.tolist()


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
                assert seq.lf(c, i) == smaller + int(np.sum(symbols[:i] == c))
            assert_rank_select_laws(seq, symbols, c)


# sigma: rows.  At 256 rows K is uint32 up to sigma = 2**24 - 1; at 2**24,
# sigma * R = 2**32, and the key one past K's last would wrap in uint32
_LF_ROWS = {5: 300, 70: 300, 1 << 52: 300, (1 << 24) - 1: 256, 1 << 24: 256}


@pytest.mark.parametrize("sigma", _LF_ROWS)
def test_lf_batched_against_per_key(sigma):
    # a batch of 64 or more keys is searched in packed-sorted order; codes
    # -1 (no query symbol) and sigma (one past the alphabet) fall outside
    # K and find its bounds; at sigma = 2**52, (sigma + 1) * R leaves no
    # room for the row bits and the keys take the argsort; at 2**24 - 1 the
    # uint32 symbols are in K's dtype and become K, so the oracle reads values
    rng = np.random.default_rng(sigma % 1000)
    rows = _LF_ROWS[sigma]
    symbols = rng.integers(0, min(sigma, 4), rows)
    symbols[::5] = rng.integers(0, sigma, len(symbols[::5]))  # the top of the alphabet too
    symbols[-1] = sigma - 1  # K's last key is sigma * R - 1
    values, symbols = symbols, symbols.astype(np.min_scalar_type(sigma - 1))
    seq = IndexedSequence(symbols, sigma)
    assert seq.keys.dtype == (np.uint32 if sigma * rows < 1 << 32 else np.int64)

    def lf(c, i):
        return int(np.count_nonzero(values < c) + np.count_nonzero(values[:i] == c))

    for count in (64, 200, 2048):
        c = rng.choice([-1, 0, 1, 2, int(values.max()), sigma - 1, sigma], count)
        i = rng.integers(0, rows + 1, count)
        c[:2], i[:2] = -1, (0, rows)
        c[2:4], i[2:4] = sigma, (0, rows)
        want = [lf(cc, ii) for cc, ii in zip(c.tolist(), i.tolist())]
        assert [int(seq.lf(int(cc), int(ii))) for cc, ii in zip(c, i)] == want
        assert seq.lf(c, i).tolist() == want
        assert seq.lf(np.array([c, c]), np.array([i, i])).tolist() == [want, want]
        assert want[:4] == [0, 0, rows, rows]
        stepped = seq.lf(c, np.array([i, np.minimum(i + 7, rows)]))
        assert np.all(stepped[0][c == -1] == stepped[1][c == -1])  # an empty step
    for c in {-1, *values.tolist(), sigma}:
        assert_rank_select_laws(seq, values, c)
