import random

import numpy as np
import pytest

from memtax import DigestParams, GenomeCollection, digest_collection
from memtax.collection import encode_bases
from memtax.suffix import (IndexedSequence, RangeExtremes, build_suffix_array,
                           derive_bwt)

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


def test_rank_select_inverse_laws():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 300)
        sigma = rng.randint(2, 8)
        symbols = np.array([rng.randrange(sigma) for _ in range(n)])
        seq = IndexedSequence(symbols, sigma)
        for c in range(sigma):
            total = seq.count(c)
            assert seq.rank(c, n) == total == sum(1 for s in symbols if s == c)
            for k in range(total):
                p = seq.select(c, k)
                assert symbols[p] == c
                assert seq.rank(c, p) == k
                assert seq.rank(c, p + 1) == k + 1


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
