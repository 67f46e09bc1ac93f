import math
import random
import tracemalloc

import numpy as np
import pytest

from memtax import (DigestParams, GenomeCollection, SeparatedText, ValidationError,
                    digest_collection, digest_sequence, hash_value,
                    kmer_value, render_ascii)
from memtax import digest
from memtax.collection import FIRST_SYMBOL_CODE, HASH_CODE, SEP_CODE, Alphabet
from memtax.digest import digest_reads, digest_with_positions
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


def _random_reads(rng, k, w, long):
    """Reads of every awkward length: empty, shorter than, exactly and just
    over one window's k + w - 1 bases, random ones, one of long bases; some
    with a non-base symbol."""
    lengths = [0, 1, k + w - 2, k + w - 1, k + w, long] + \
        [rng.randint(0, 3 * (k + w)) for _ in range(rng.randint(0, 8))]
    reads = ["".join(rng.choice("ACGT") for _ in range(n)) for n in lengths]
    for i in rng.sample(range(len(reads)), 3):
        if reads[i]:
            at = rng.randrange(len(reads[i]))
            reads[i] = reads[i][:at] + rng.choice("NÄ$#") + reads[i][at + 1:]
    rng.shuffle(reads)
    return reads


def test_chunk_digest_equals_naive_digest_read_by_read(monkeypatch):
    # small blocks: reads straddle their boundaries and the long read spans
    # several of them
    monkeypatch.setattr(digest, "BLOCK_SYMBOLS", 48)
    rng = random.Random(31)
    for case in range(240):
        k, w = rng.choice([1, 3, 12, 15]), rng.choice([1, 1, 2, 5, 10])
        # m = 7 makes ties common: the leftmost least hash must win
        m = 7 if case % 3 == 0 else 2**63 // 4**k
        params = DigestParams(k=k, w=w, a=rng.randint(-10**20, 10**20),
                              b=rng.randint(-10**20, 10**20), m=m)
        reads = _random_reads(rng, k, w, long=rng.randint(49, 200))
        codes, counts = digest_reads(reads, params)
        assert len(counts) == len(reads) and counts.sum() == len(codes)
        assert codes.dtype == np.int32
        at = 0
        for read, count in zip(reads, counts.tolist()):
            want = [] if set(read) - set("ACGT") else \
                oracles.naive_digest(read, k, w, params.a, params.b, m)
            assert (codes[at: at + count] - FIRST_SYMBOL_CODE).tolist() == [v for v, _ in want]
            at += count
            if not set(read) - set("ACGT"):  # the one-sequence call of the same routine
                assert digest_with_positions(read, params) == want


def test_index_encodes_reads_as_one_read_each(golden_digest_index, monkeypatch):
    # blocks of read strings and of windows both split the chunk; every
    # read gets the codes it gets when encoded alone, an N, Ä, $ or # read
    # none
    rng = random.Random(32)
    reads = _random_reads(rng, 3, 10, long=300) + ["ACGT" * 5 + s + "ACGT" * 5 for s in "NÄ$#"]
    alone = [golden_digest_index.alphabet.symbols(golden_digest_index.encode_reads([(0, read)])[1])
             for read in reads]
    assert all(not symbols for symbols in alone[-4:])
    for block in (16, 100, 1 << 13):
        monkeypatch.setattr(digest, "BLOCK_SYMBOLS", block)
        monkeypatch.setattr("memtax.index.BLOCK_SYMBOLS", block)
        ids, codes, offsets = golden_digest_index.encode_reads(enumerate(reads))
        assert ids == list(range(len(reads)))
        assert [golden_digest_index.alphabet.symbols(codes[s:e])
                for s, e in zip(offsets[:-1], offsets[1:])] == alone
        assert alone == [digest_sequence(read, DigestParams()) if not set(read) - set("ACGT")
                         else [] for read in reads]


def test_chunk_encoding_memory(golden_digest_index):
    # a chunk of 2048 reads of 200 bases: 1.088 MB is the tracemalloc peak
    # of digesting each read into a list of values and converting the lists
    # to one code array (one digest call per read, then
    # Alphabet.query_codes), which the block-wise encoding stays under; a
    # 2**14-window block whose window argmins come from a (windows x w)
    # view copies 1.3 MB of int64 and would not
    rng = random.Random(33)
    reads = ["".join(rng.choices("ACGT", k=200)) for _ in range(2048)]
    golden_digest_index.encode_reads(enumerate(reads[:10]))  # warm up
    tracemalloc.start()
    try:
        ids, codes, offsets = golden_digest_index.encode_reads(enumerate(reads))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) == len(offsets) - 1 == 2048 and len(codes) > 2048 * 30
    assert peak < 1_088_000


def test_collection_digest_rejects_n_genome():
    # eval reports carry this text as the error of every digest variant
    coll = GenomeCollection(genomes=["ACGTACGTACGTAC", "ACGTNACGT", "ACGTXACGT"])
    with pytest.raises(ValidationError) as e:
        digest_collection(coll, DigestParams())
    assert str(e.value) == "non-base symbol 'N' in sequence"


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
    # the text reads back: every symbol is delimited by '-', separators and
    # gap markers verbatim (the values used to run together)
    tokens = d.text().split("-")
    assert tokens.count("$") == 3
    assert [SEP_CODE if t == "$" else FIRST_SYMBOL_CODE + int(t)
            for t in tokens] == d.codes.tolist()
    codes = [FIRST_SYMBOL_CODE + 313, FIRST_SYMBOL_CODE + 915, HASH_CODE,
             FIRST_SYMBOL_CODE + 996, SEP_CODE]
    assert SeparatedText(codes, d.alphabet).text() == "313-915-#-996-$"


def test_digest_params_bounds():
    # a window's k + w - 1 symbols must fit int64
    for bad in (dict(k=16), dict(k=0), dict(w=0), dict(m=0), dict(k=15, m=2**34),
                dict(k="3"), dict(w=True), dict(a=1.5), dict(w=10**20), dict(k=3, w=2**63 - 2)):
        with pytest.raises(ValidationError):
            DigestParams(**bad)
    assert DigestParams(k=3, w=2**63 - 3).w == 2**63 - 3
    assert DigestParams(k=15, m=2**33).m == 2**33
    # a and b act modulo m: huge or negative ones digest like their residues
    s = "ACGTTGCAACGGTACCATGA" * 3
    assert digest_sequence(s, DigestParams(a=2544 + 8863 * 10**20, b=3937 - 8863 * 10**15)) \
        == digest_sequence(s, DigestParams())
