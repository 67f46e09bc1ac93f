"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3 carries one expected failure, kept faithful to the
stated target value; see the assertion message there for the measured
numbers.
"""
import random
import time

import pytest

from memtax import (DigestParams, GenomeCollection, IndexVariant,
                    KernelParams, RangeClass, ReadSimConfig, build_index,
                    build_katka_kernel, classify_range, classify_read,
                    compute_mem_table, compute_mem_tables, digest_sequence,
                    deserialize, run_experiment, separate)
from memtax.collection import encode_bases
from memtax.kernel import kernel_size_report
from memtax.mems import render_symbols
from memtax.suffix import IndexedSequence, build_suffix_array
from memtax.taxonomy import LcaStructure, RangeMin

import oracles
from conftest import P


def _report(n: int, message: str) -> None:
    print(f"\n[acceptance] criterion {n}: PASS - {message}")


def _mem_rows(index, query):
    table = compute_mem_table(index, query)
    return [(render_symbols(query, r.read_start, r.length, index.alphabet),
             r.first_genome, r.last_genome) for r in table]


# ----------------------------------------------------------------- 1
def test_criterion_1_golden_mem_tables(golden_raw_index, golden_kernel4_index,
                                       golden_digest_index):
    t0 = time.perf_counter()
    raw = _mem_rows(golden_raw_index, P)
    kern = _mem_rows(golden_kernel4_index, P)
    dig = _mem_rows(golden_digest_index, digest_sequence(P, DigestParams()))
    elapsed = time.perf_counter() - t0
    assert raw == [
        ("GGATGGGCTAG", 13, 13),
        ("TAGACGATCTTCTGT", 9, 9),
        ("TGTG", 0, 1),
    ]
    assert kern == [
        ("GGATGGG", 13, 13), ("GGGC", 6, 15), ("GGCT", 12, 14),
        ("GCTAG", 15, 15), ("TAGA", 0, 15), ("AGACG", 15, 15),
        ("GACGATC", 11, 11), ("ATCTTCT", 0, 15), ("TCTGT", 8, 8),
        ("TGTG", 0, 1),
    ]
    assert dig == [("Q", 8, 15), (".", 4, 11)]
    assert elapsed < 1.0
    _report(1, f"raw/kernel/digest MEM tables match exactly ({elapsed*1e3:.0f} ms)")


# ----------------------------------------------------------------- 2
def test_criterion_2_worked_example(toy_index):
    table = compute_mem_table(toy_index, "ACATA")
    got = [(render_symbols("ACATA", r.read_start, r.length, toy_index.alphabet),
            r.first_pos, r.last_pos, r.first_genome, r.last_genome)
           for r in table]
    assert got == [("ACAT", 4, 21, 0, 2), ("ATA", 11, 41, 1, 4)]
    _report(2, "ACATA yields ATA (11/41, genomes 1/4) and ACAT (4/21, genomes 0/2)")


# ----------------------------------------------------------------- 3
def test_criterion_3_size_ledger(golden_collection, golden_kernel4, golden_digest,
                                 golden_digest_kernel_text):
    raw_symbols = sum(len(g) for g in golden_collection.genomes)
    assert raw_symbols == 1600

    digest_symbols = len(golden_digest) - golden_digest.genome_count
    assert digest_symbols == 287

    dk = build_katka_kernel(golden_digest, KernelParams(2))
    kept, hashes, seps = kernel_size_report(dk)
    assert dk.text() == golden_digest_kernel_text
    # the 220 six-bit-symbol count only matches when '#' markers are counted
    # (205 minimizer values + 15 markers); recorded interpretation: including
    assert kept + hashes == 220 and seps == 16

    k5 = build_katka_kernel(separate(golden_collection), KernelParams(5))
    kept5, hashes5, _ = kernel_size_report(k5)
    ratio = (kept5 + hashes5) / raw_symbols
    assert 0.68 <= ratio <= 0.72  # "about 70%", again counting '#'

    kept4, hashes4, _ = kernel_size_report(golden_kernel4)
    _report(3, "sizes 1600/287/220(including '#')/5th-order at "
               f"{ratio:.3f}; 4th-order kernel measured {kept4} bases + "
               f"{hashes4} markers (the stated 798 is covered by the "
               "companion expected-failure test)")


@pytest.mark.xfail(
    strict=True,
    reason="the inherited target of 798 contradicts the golden kernel text "
           "itself: the 4th-order kernel, reproduced byte-for-byte, holds "
           "737 base symbols and 62 '#' markers (799 including '#'); no "
           "'#'-counting interpretation yields 798")
def test_criterion_3_fourth_order_kernel_798_as_stated(golden_kernel4):
    kept, hashes, _ = kernel_size_report(golden_kernel4)
    assert 798 in (kept, kept + hashes), (
        f"4th-order kernel keeps {kept} base symbols, {kept + hashes} "
        "including '#' markers; neither equals the stated 798")


# ----------------------------------------------------------------- 4
def test_criterion_4_digest_fidelity(golden_collection, golden_digest,
                                     golden_digest_text):
    from memtax import render_ascii
    assert render_ascii(golden_digest) == golden_digest_text
    first = digest_sequence(golden_collection.genomes[0], DigestParams())
    assert len(first) == 21
    assert render_ascii(digest_sequence(P, DigestParams())) == "Q."
    _report(4, "full ASCII digest equals the reference text; first genome "
               "digests to 21 symbols; digest(P) renders as 'Q.'")


# ----------------------------------------------------------------- 5
def _check_kernel_preservation(genomes, k_max):
    coll = GenomeCollection(genomes=genomes)
    kernel = build_katka_kernel(separate(coll), KernelParams(k_max))
    runs = oracles.kernel_runs(kernel.text())
    for symbols, genome in runs:
        assert "".join(symbols) in genomes[genome]
    for k in range(1, k_max + 1):
        want = oracles.kmer_genome_map(oracles.genome_runs(genomes), k)
        got = oracles.kmer_genome_map(runs, k)
        assert got == want, (genomes, k_max, k)


def test_criterion_5_kernel_property_suite():
    rng = random.Random(20250)
    cases = 0
    while cases < 210:
        genomes = oracles.random_collection(
            rng, max_genomes=8, max_len=200,
            alphabet=rng.choice(["AC", "ACG", "ACGT"]))
        _check_kernel_preservation(genomes, rng.randint(1, 6))
        cases += 1
    _report(5, f"k-mer sets and first/last genome indices preserved on "
               f"{cases} random collections (100% pass)")


# ----------------------------------------------------------------- 6
def _random_case(rng):
    count = rng.randint(1, 5)
    alpha = rng.choice(["AC", "ACG", "ACGT", "AG"])
    core = "".join(rng.choice(alpha) for _ in range(rng.randint(4, 60)))
    genomes = []
    for _ in range(count):
        if rng.random() < 0.6:
            g = [rng.choice(alpha) if rng.random() < 0.15 else c for c in core]
            genomes.append("".join(g[: rng.randint(1, len(g))]))
        else:
            genomes.append("".join(rng.choice(alpha)
                                   for _ in range(rng.randint(1, 60))))
    text = "$".join(genomes) + "$"
    if len(text) > 256:
        genomes = [g[:40] for g in genomes]
    return genomes


def _random_oracle_read(rng, genomes):
    style = rng.random()
    if style < 0.35:
        return "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 64)))
    src = rng.choice(genomes)
    ln = rng.randint(1, min(64, len(src)))
    start = rng.randrange(len(src) - ln + 1)
    read = list(src[start:start + ln])
    if style < 0.8:
        for i in range(len(read)):
            if rng.random() < 0.12:
                read[i] = rng.choice("ACGT")
    return "".join(read)


def test_criterion_6_mem_oracle_equivalence():
    rng = random.Random(60660)
    cases = 0
    texts = 0
    while cases < 10_000:
        genomes = _random_case(rng)
        st = separate(GenomeCollection(genomes=genomes))
        ix = build_index(st)
        text = st.text()
        texts += 1
        reads = [_random_oracle_read(rng, genomes) for _ in range(4)]
        for read, table in zip(reads, compute_mem_tables(ix, reads)):
            got = [(r.read_start, r.length, r.first_pos, r.last_pos,
                    r.first_genome, r.last_genome)
                   for r in table if not r.empty]
            want = oracles.naive_mem_table(text, read)
            assert got == want, (genomes, read)
            cases += 1
    _report(6, f"{cases} random (text, read) cases match the quadratic "
               f"definitional oracle across {texts} texts (100% pass)")


# ----------------------------------------------------------------- 7
def test_criterion_7_kernel_fidelity():
    rng = random.Random(70770)
    cases = 0
    while cases < 50:
        genomes = oracles.random_collection(rng, max_genomes=4, max_len=200,
                                            alphabet=rng.choice(["AC", "ACGT"]))
        read_len = rng.randint(4, 40)
        if min(len(g) for g in genomes) < read_len:
            continue
        coll = GenomeCollection(genomes=genomes)
        k_max = read_len + rng.randint(0, 8)
        raw_ix = build_index(separate(coll))
        kern_ix = build_index(build_katka_kernel(separate(coll),
                                                 KernelParams(k_max)))
        reads = []
        for genome in genomes:
            start = rng.randrange(len(genome) - read_len + 1)
            read = list(genome[start:start + read_len])
            for i in range(len(read)):
                if rng.random() < 0.05:
                    read[i] = rng.choice("ACGT")
            reads.append("".join(read))
        for read, raw_table, kern_table in zip(reads, compute_mem_tables(raw_ix, reads),
                                               compute_mem_tables(kern_ix, reads)):
            raw_rows = [(r.read_start, r.length, r.first_genome, r.last_genome)
                        for r in raw_table]
            kern_rows = [(r.read_start, r.length, r.first_genome, r.last_genome)
                         for r in kern_table]
            assert raw_rows == kern_rows, (genomes, read, k_max)
        cfg = ReadSimConfig(read_length=read_len, mutation_rate=0.03,
                            reads_per_genome=2, seed=cases)
        report = run_experiment(coll, [IndexVariant("raw"),
                                       IndexVariant("kernel", k_max=k_max)], cfg)
        assert report.variants[0].tp_rate == report.variants[1].tp_rate
        cases += 1
    _report(7, f"kernel (k_max >= read length) MEM tables and eval TP rates "
               f"equal raw results on {cases} random cases")


# ----------------------------------------------------------------- 8
def test_criterion_8_classification(golden_raw_index, golden_kernel4_index,
                                    golden_digest_index):
    tp = [(9, 9)]
    fp = [(0, 1), (8, 8), (11, 11), (12, 14), (13, 13), (15, 15)]
    vp = [(0, 15), (4, 11), (6, 15), (8, 15)]
    for r in tp:
        assert classify_range(r, 9) is RangeClass.TRUE_POSITIVE
    for r in fp:
        assert classify_range(r, 9) is RangeClass.FALSE_POSITIVE
    for r in vp:
        assert classify_range(r, 9) is RangeClass.VAGUE_POSITIVE
    assert classify_range(None, 9) is RangeClass.FALSE_NEGATIVE

    assert classify_read(compute_mem_table(golden_raw_index, P), 9) is True
    assert classify_read(compute_mem_table(golden_kernel4_index, P), 9) is False
    dig_q = digest_sequence(P, DigestParams())
    assert classify_read(compute_mem_table(golden_digest_index, dig_q), 9) is False
    _report(8, "1 TP / 6 FP / 4 VP ranges classify as stated, empty maps to "
               "FN, and the three reference tables classify true/false/false")


# ----------------------------------------------------------------- 9
def _tandem_collection(seed: int) -> GenomeCollection:
    rng = random.Random(seed)
    genomes = []
    for _ in range(50):
        core = "".join(rng.choice("ACGT") for _ in range(2500))
        genomes.append((core * 4)[:10_000])
    return GenomeCollection(genomes=genomes)


@pytest.mark.slow
def test_criterion_9_desk_scale_experiment():
    t0 = time.perf_counter()
    coll = _tandem_collection(20250810)
    cfg = ReadSimConfig(read_length=200, mutation_rate=0.01,
                        reads_per_genome=100, seed=99)
    variants = [IndexVariant("raw"), IndexVariant("kernel", k_max=100),
                IndexVariant("kernel", k_max=50), IndexVariant("kernel", k_max=20)]
    report = run_experiment(coll, variants, cfg)
    raw, k100, k50, k20 = report.variants
    assert raw.reads_evaluated == 5000
    assert raw.tp_rate >= 0.95
    assert k100.size_bytes < raw.size_bytes
    assert k100.size_bytes >= k50.size_bytes >= k20.size_bytes
    report2 = run_experiment(coll, variants, cfg)
    assert report.to_dict(include_timing=False) == report2.to_dict(include_timing=False)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report(9, f"raw TP {raw.tp_rate:.3f} >= 0.95; sizes "
               f"{raw.size_bytes} > {k100.size_bytes} >= {k50.size_bytes} "
               f">= {k20.size_bytes}; two runs identical; {elapsed:.0f}s")


# ----------------------------------------------------------------- 10
def test_criterion_10_structure_property_suites(toy_index):
    rng = random.Random(101010)
    # suffix array / LCP / BWT against naive oracles
    for _ in range(150):
        n = rng.randint(1, 512)
        text = "".join(rng.choice(rng.choice(["AC", "ACGT"])) for _ in range(n))
        codes = encode_bases(text)
        sa, lcp, bwt = build_suffix_array(codes)
        assert list(sa) == oracles.naive_suffix_array(codes)
        assert list(lcp) == oracles.naive_lcp(codes, sa)
        assert list(bwt) == oracles.naive_bwt(codes, sa.tolist())

    # rank/select laws, as LF steps and key runs
    from test_suffix import assert_rank_select_laws
    for _ in range(25):
        n = rng.randint(1, 250)
        sigma = rng.randint(2, 9)
        symbols = [rng.randrange(sigma) for _ in range(n)]
        seq = IndexedSequence(symbols, sigma)
        for c in range(sigma):
            assert_rank_select_laws(seq, symbols, c)

    # range minimum against linear scan, 10^4 (array, range) pairs
    pairs = 0
    while pairs < 10_000:
        values = [rng.randrange(12) for _ in range(rng.randint(1, 100))]
        r = RangeMin(values)
        for _ in range(min(100, 10_000 - pairs)):
            lo = rng.randrange(len(values))
            hi = rng.randrange(lo, len(values))
            assert r.argmin(lo, hi) == oracles.naive_rmq(values, lo, hi, "min")
            pairs += 1

    # LCA against naive ancestor intersection on trees up to 64 leaves
    from test_taxonomy import _random_tree
    for _ in range(20):
        tree = _random_tree(rng, max_leaves=64)
        s = LcaStructure(tree)
        for _ in range(150):
            a = rng.randrange(tree.node_count)
            b = rng.randrange(tree.node_count)
            assert s.lca(a, b) == oracles.naive_lca(tree.parent, a, b)

    # serialization round trip: identical answers on 10^3 random queries
    blob = toy_index.to_bytes()
    ix2 = deserialize(blob)
    for _ in range(1000):
        pattern = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 10)))
        a = toy_index.find_interval(pattern)
        b = ix2.find_interval(pattern)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        if not a.is_empty:
            assert toy_index.first_last_positions(a) == ix2.first_last_positions(b)

    _report(10, "suffix structures, rank/select, RMQ, LCA and serialization "
                "round-trip all agree with naive oracles")
