import math
import random

import pytest

from memtax import (DigestParams, GenomeCollection, ValidationError,
                    digest_collection, digest_sequence, hash_value,
                    kmer_value, render_ascii)
from memtax.collection import FIRST_SYMBOL_CODE, Alphabet
from memtax.digest import digest_with_positions
from memtax.mems import render_symbols

from conftest import P

import oracles


def test_kmer_value_examples():
    assert kmer_value("AGC") == 24
    assert kmer_value("AAA") == 0
    assert kmer_value("GTT") == 62
    # exact past the widths of int32 and int64
    assert kmer_value("T" * 16) == 4**16 - 1
    assert kmer_value("T" * 33) == 4**33 - 1
    with pytest.raises(ValidationError):
        kmer_value("ANA")


def test_hash_examples():
    p = DigestParams()
    assert hash_value(p, 24) == 2952
    assert hash_value(p, 0) == 3937
    assert hash_value(p, 62) == 2131


def test_default_hash_injective_on_3mers():
    p = DigestParams()
    assert math.gcd(p.a, p.m) == 1
    assert p.is_injective_on_kmers
    seen = {hash_value(p, x) for x in range(64)}
    assert len(seen) == 64


def test_digest_first_genome(golden_genomes):
    d = digest_sequence(golden_genomes[0], DigestParams())
    assert len(d) == 21
    assert render_ascii(d) == "=c<J_cA\\2X<G2@'cKNJX5"
    assert render_ascii(d[:3]) == "=c<"


def test_digest_too_short_is_empty():
    p = DigestParams()  # needs k + w - 1 = 12 bases
    assert digest_sequence("ACGTACGTACG", p) == []
    assert digest_sequence("ACGTACGTACGT", p) != []


def test_digest_of_read_renders_Q_dot():
    assert render_ascii(digest_sequence(P, DigestParams())) == "Q."


def test_collection_digest_matches_rendering(golden_collection, golden_digest_text):
    d = digest_collection(golden_collection, DigestParams())
    assert render_ascii(d) == golden_digest_text
    assert d.genome_count == 16
    non_sep = sum(len(v) for v in d.values())
    assert non_sep == 287


def test_collection_digest_short_genome():
    d = digest_collection(GenomeCollection(genomes=["ACGT"]), DigestParams())
    assert render_ascii(d) == "$"


def test_render_ascii_bounds_and_guard():
    assert render_ascii([0]) == "%"
    assert render_ascii([63]) == "d"
    with pytest.raises(ValidationError):
        render_ascii([64])
    d = digest_collection(GenomeCollection(genomes=["A" * 30]), DigestParams(k=4))
    with pytest.raises(ValidationError):
        render_ascii(d)
    # k != 3 shows values as numbers joined by '-'
    k4 = Alphabet(kind="digest", k=4)
    assert render_symbols([5, 255], 0, 2, k4) == "5-255"
    assert k4.decode(FIRST_SYMBOL_CODE + 255) == "255"


def test_window_soundness_random():
    rng = random.Random(4242)
    for _ in range(50):
        k = rng.randint(1, 4)
        w = rng.randint(1, 8)
        params = DigestParams(k=k, w=w)
        s = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 120)))
        pairs = digest_with_positions(s, params)
        nk = len(s) - k + 1
        if nk < w:
            assert pairs == []
            continue
        hashes = [hash_value(params, kmer_value(s[j:j + k])) for j in range(nk)]
        marked = {pos for _, pos in pairs}
        window_minima = set()
        for i in range(nk - w + 1):
            window = hashes[i:i + w]
            j = i + min(range(w), key=lambda t: (window[t], t))
            window_minima.add(j)
        assert marked == window_minima
        # order and value agreement
        assert [pos for _, pos in pairs] == sorted(marked)
        for value, pos in pairs:
            assert value == kmer_value(s[pos:pos + k])


def test_digest_equals_naive_digest_random():
    rng = random.Random(777)
    for case in range(400):
        k, w = rng.randint(1, 5), rng.randint(1, 10)
        # m = 7 makes ties common: the leftmost least hash must win
        a, b, m = rng.randint(1, 9000), rng.randint(0, 9000), rng.choice([7, 64, 8863])
        s = "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 150)))
        params = DigestParams(k=k, w=w, a=a, b=b, m=m)
        want = oracles.naive_digest(s, k, w, a, b, m)
        assert digest_with_positions(s, params) == want
        assert digest_sequence(s, params) == [v for v, _ in want]


def test_digest_rejects_non_base_symbols():
    for bad in ("N", "x", "\u00e9", "\u20ac"):
        s = "ACGTACGTACGT" + bad + "ACGTACGTACGT"
        with pytest.raises(ValidationError, match=repr(bad)):
            digest_sequence(s, DigestParams())


def test_containment_direction_random(golden_collection, golden_digest_index):
    # exact substrings whose digest occurs must bracket the true genomes
    rng = random.Random(99)
    params = DigestParams()
    for _ in range(60):
        g = rng.randrange(16)
        genome = golden_collection.genomes[g]
        ln = rng.randint(14, 40)
        start = rng.randrange(len(genome) - ln + 1)
        q = digest_sequence(genome[start:start + ln], params)
        if not q:
            continue
        iv = golden_digest_index.find_interval(q)
        if iv.is_empty:
            continue
        first, last = golden_digest_index.genome_range(iv)
        assert first <= g <= last


def test_general_k_digest_queryable():
    rng = random.Random(5)
    genomes = ["".join(rng.choice("ACGT") for _ in range(400)) for _ in range(3)]
    coll = GenomeCollection(genomes=genomes)
    params = DigestParams(k=5, w=4)
    d = digest_collection(coll, params)
    assert d.alphabet.size == 3 + 4**5
    from memtax import build_index, compute_mem_table
    ix = build_index(d)
    q = digest_sequence(genomes[1][50:200], params)
    table = compute_mem_table(ix, q)
    assert table.records
    from memtax import longest_mems
    top = longest_mems(table)
    assert all(r.first_genome <= 1 <= r.last_genome for r in top)


def test_digest_params_bounds():
    for bad in (dict(k=16), dict(k=0), dict(w=0), dict(m=0), dict(k=15, m=2**34),
                dict(k="3"), dict(w=True), dict(a=1.5)):
        with pytest.raises(ValidationError):
            DigestParams(**bad)
    assert DigestParams(k=15, m=2**33).m == 2**33
    # a and b act modulo m: huge or negative ones digest like their residues
    s = "ACGTTGCAACGGTACCATGA" * 3
    assert digest_sequence(s, DigestParams(a=2544 + 8863 * 10**20, b=3937 - 8863 * 10**15)) \
        == digest_sequence(s, DigestParams())
