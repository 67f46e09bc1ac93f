import random
import tracemalloc

import pytest

from memtax import (DigestParams, GenomeCollection, ValidationError, build_index,
                    compute_mem_table, deserialize, digest_collection, digest_sequence,
                    longest_mems, separate)
from memtax import mems
from memtax.collection import SEP_CODE
from memtax.mems import compute_mem_tables, render_symbols, tsv_rows

import oracles
from conftest import P


def table_tuples(table):
    return [(r.read_start, r.length, r.first_pos, r.last_pos,
             r.first_genome, r.last_genome) for r in table if not r.empty]


def test_worked_example_acata(toy_index):
    table = compute_mem_table(toy_index, "ACATA")
    assert table_tuples(table) == [
        (0, 4, 4, 21, 0, 2),   # ACAT
        (2, 3, 11, 41, 1, 4),  # ATA
    ]
    strings = [render_symbols("ACATA", r.read_start, r.length, toy_index.alphabet)
               for r in table]
    assert strings == ["ACAT", "ATA"]


def test_golden_tables_raw_and_kernel(golden_raw_index, golden_kernel4_index):
    raw = compute_mem_table(golden_raw_index, P)
    assert [(render_symbols(P, r.read_start, r.length, golden_raw_index.alphabet),
             r.first_genome, r.last_genome) for r in raw] == [
        ("GGATGGGCTAG", 13, 13),
        ("TAGACGATCTTCTGT", 9, 9),
        ("TGTG", 0, 1),
    ]
    kern = compute_mem_table(golden_kernel4_index, P)
    assert [(render_symbols(P, r.read_start, r.length, golden_kernel4_index.alphabet),
             r.first_genome, r.last_genome) for r in kern] == [
        ("GGATGGG", 13, 13), ("GGGC", 6, 15), ("GGCT", 12, 14),
        ("GCTAG", 15, 15), ("TAGA", 0, 15), ("AGACG", 15, 15),
        ("GACGATC", 11, 11), ("ATCTTCT", 0, 15), ("TCTGT", 8, 8),
        ("TGTG", 0, 1),
    ]


def test_read_equal_to_unique_genome():
    coll = GenomeCollection(genomes=["ACGTACGGT", "TTTTCTTT", "GAGAGAGG"])
    ix = build_index(separate(coll))
    table = compute_mem_table(ix, "TTTTCTTT")
    assert len(table) == 1
    rec = table.records[0]
    assert (rec.read_start, rec.length) == (0, 8)
    assert rec.first_genome == rec.last_genome == 1


def test_empty_read_rejected(toy_index):
    with pytest.raises(ValidationError):
        compute_mem_table(toy_index, "")
    # a read holding a reserved symbol is not empty: it is unclassifiable
    for read in ("AC$AT", "AC#AT", list("AC$AT")):
        assert compute_mem_table(toy_index, read).records == []


def test_absent_symbol_resets_without_record(toy_index):
    # no C..C? pattern contains; reads with symbols missing from the text
    # split the matching but produce no empty records on base indexes
    coll = GenomeCollection(genomes=["AAAC", "CCCA"])
    ix = build_index(separate(coll))
    table = compute_mem_table(ix, "AATAA")  # T absent from the text
    assert all(not r.empty for r in table)
    spans = [(r.read_start, r.length) for r in table]
    assert spans == [(0, 2), (3, 2)]


def test_absent_digest_symbol_gives_empty_record(golden_digest_index):
    # value 63 ('d') never occurs in the toy digest
    q = [24, 63, 62]
    table = compute_mem_table(golden_digest_index, q)
    empties = [r for r in table if r.empty]
    assert len(empties) == 1
    assert empties[0].read_start == 1 and empties[0].length == 1
    assert empties[0].genome_range is None


def test_unqueryable_digest_symbols_act_as_absent_values(golden_digest_index):
    # one symbol rule: find_interval and compute_mem_table both take only an
    # integer in [0, 4^k) as a digest value; anything else is queried like
    # 63, a value that never occurs, and raises nothing
    ix = golden_digest_index
    absent = 63
    assert ix.find_interval([absent]).is_empty
    for bad in ("A", None, 2.5, -1, 64, 10**30, -10**30):
        assert ix.alphabet.query_codes([[bad]]).tolist() == [-1]
        assert ix.find_interval([bad]).is_empty
        assert ix.find_interval([24, bad]).is_empty and ix.find_interval([bad, 62]).is_empty
        for read in ([24, bad, 62], [bad], [24, 62, 23, bad], [bad, bad, 62, 23]):
            want = [absent if v is bad else v for v in read]
            assert compute_mem_table(ix, read).records == compute_mem_table(ix, want).records
    assert not ix.find_interval([24, 62, 23]).is_empty


def test_min_mem_filter(golden_raw_index, golden_digest_index):
    table = compute_mem_table(golden_raw_index, P, min_length=5)
    lengths = [r.length for r in table]
    assert lengths == [11, 15]
    # empty records are one symbol long, so min_length 2 drops them too
    table = compute_mem_table(golden_digest_index, [24, 63, 62], min_length=2)
    assert not any(r.empty for r in table)
    # a minimum length below 1 is an error, not a minimum of 1
    for min_length in (0, -4):
        with pytest.raises(ValidationError, match="at least 1"):
            compute_mem_table(golden_raw_index, P, min_length=min_length)
        with pytest.raises(ValidationError, match="at least 1"):
            list(compute_mem_tables(golden_raw_index, [], min_length))


def test_longest_mems_examples(golden_raw_index, golden_kernel4_index):
    raw = compute_mem_table(golden_raw_index, P)
    top = longest_mems(raw)
    assert len(top) == 1 and top[0].length == 15
    kern = compute_mem_table(golden_kernel4_index, P)
    top = longest_mems(kern)
    assert [r.length for r in top] == [7, 7, 7]
    assert [render_symbols(P, r.read_start, r.length, golden_kernel4_index.alphabet)
            for r in top] == ["GGATGGG", "GACGATC", "ATCTTCT"]
    one = compute_mem_table(golden_raw_index, "GGATGGGCTAG")
    assert longest_mems(one) == one.records


def test_longest_mems_empty_table():
    from memtax.mems import MemTable
    with pytest.raises(ValidationError):
        longest_mems(MemTable([]))


def test_coverage_and_no_separator_spans(toy_index):
    rng = random.Random(3)
    text = "GATTACAT$AGATACAT$GATACAT$GATTAGAT$GATTAGATA$"
    for _ in range(200):
        read = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 30)))
        table = compute_mem_table(toy_index, read)
        covered = set()
        for r in table:
            s = read[r.read_start:r.read_start + r.length]
            assert "$" not in s and "#" not in s
            assert s in text
            covered.update(range(r.read_start, r.read_start + r.length))
        present = set(text) - {"$"}
        for i, c in enumerate(read):
            if c in present:
                assert i in covered


def test_mem_oracle_equivalence_quick():
    rng = random.Random(97)
    for _ in range(300):
        genomes = oracles.random_collection(rng, max_genomes=4, max_len=60,
                                            alphabet=rng.choice(["AC", "ACG", "ACGT"]))
        coll = GenomeCollection(genomes=genomes)
        st = separate(coll)
        ix = build_index(st)
        text_syms = list(st.text())
        for _ in range(3):
            read = _random_read(rng, genomes)
            got = table_tuples(compute_mem_table(ix, read))
            want = oracles.naive_mem_table(text_syms, list(read))
            assert got == want


def _random_read(rng, genomes):
    choice = rng.random()
    if choice < 0.4:
        return "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 64)))
    src = rng.choice(genomes)
    ln = rng.randint(1, min(64, len(src)))
    start = rng.randrange(len(src) - ln + 1)
    read = list(src[start:start + ln])
    for i in range(len(read)):
        if rng.random() < 0.1:
            read[i] = rng.choice("ACGT")
    return "".join(read)


def test_tsv_rows(golden_digest_index):
    q = [24, 63]
    table = compute_mem_table(golden_digest_index, q)
    codes = golden_digest_index.alphabet.query_codes([q])
    rows = list(tsv_rows("r0", codes, table, golden_digest_index.alphabet))
    assert rows[0][0] == "r0"
    assert rows[0][3] == "="          # value 24 renders at ASCII 37+24
    assert rows[-1][-1] == 1          # the absent symbol row is flagged empty
    assert rows[-1][4:8] == ("-", "-", "-", "-")
    # the rows of a value-list read with an absent value (63) and one that
    # cannot be queried (999), rendered from the read's codes as query
    # renders them: the unqueryable value shows as code -1, chr(34 - 1)
    q = [24, 999, 63]
    codes = golden_digest_index.alphabet.query_codes([q])
    table = compute_mem_table(golden_digest_index, q)
    assert list(tsv_rows("r0", codes, table, golden_digest_index.alphabet)) == [
        ("r0", 0, 1, "=", 0, 221, 0, 11, 0), ("r0", 1, 1, "!", "-", "-", "-", "-", 1),
        ("r0", 2, 1, "d", "-", "-", "-", "-", 1)]
    assert [render_symbols(q, r.read_start, r.length, golden_digest_index.alphabet)
            for r in table] == ["=", "!", "d"]


@pytest.mark.parametrize("mode", ["raw", "digest"])
def test_lowercase_reads_give_the_uppercase_tables(mode, golden_collection, golden_raw_index,
                                                   golden_digest_index):
    # the read -> code rule folds ASCII case, for strings and for symbols,
    # as reading a reads file does; N stays unqueryable in either case
    ix = golden_raw_index if mode == "raw" else golden_digest_index
    reads = [P, P[:60] + "N" + P[61:], "ACATA", "GATTACA" * 9]
    upper = [record_tuples(t) for t in compute_mem_tables(ix, reads)]
    assert [record_tuples(t) for t in compute_mem_tables(ix, [r.lower() for r in reads])] == upper
    assert [record_tuples(compute_mem_table(ix, r.swapcase())) for r in reads] == upper
    assert [record_tuples(compute_mem_table(ix, list(r.lower()))) for r in reads] == \
        [record_tuples(compute_mem_table(ix, list(r))) for r in reads]
    assert sum(map(len, upper)) > len(reads)
    pattern = golden_collection.genomes[3][5:65]
    assert ix.find_interval(pattern.lower()) == ix.find_interval(pattern)
    assert not ix.find_interval(pattern).is_empty


def record_tuples(table):
    return [(r.read_start, r.length, r.first_pos, r.last_pos, r.first_genome,
             r.last_genome, r.empty) for r in table]


def _batch_tables(ix, reads, chunk, monkeypatch, min_length=1):
    monkeypatch.setattr(mems, "CHUNK_READS", chunk)
    return [record_tuples(t) for t in compute_mem_tables(ix, reads, min_length)]


def test_mem_tables_batches_against_oracle(monkeypatch):
    # mixed batches: one-symbol reads, reads of unequal length, symbols
    # absent from the text, the N wildcard and characters outside ASCII
    rng = random.Random(8)
    odd = ["A", "C", "N", "AÄC", "ÄÄ", "NACGN", "ACGTÄACGT", "é" * 5 + "GATTACA"]
    for _ in range(40):
        genomes = oracles.random_collection(rng, max_genomes=4, max_len=60,
                                            alphabet=rng.choice(["AC", "ACG", "ACGT"]))
        st = separate(GenomeCollection(genomes=genomes))
        ix = build_index(st)
        reads = [_random_read(rng, genomes) for _ in range(rng.randint(1, 12))]
        reads += rng.sample(odd, 3)
        rng.shuffle(reads)
        whole = _batch_tables(ix, reads, 1000, monkeypatch)
        assert [[t[:6] for t in table] for table in whole] == \
            [oracles.naive_mem_table(st.text(), read) for read in reads]
        assert not any(t[6] for table in whole for t in table)  # no empties on bases
        for chunk in (1, 2, 5):
            assert _batch_tables(ix, reads, chunk, monkeypatch) == whole
        assert [record_tuples(compute_mem_table(ix, read)) for read in reads] == whole
    # one call over more reads than a default chunk holds
    monkeypatch.undo()
    copies = mems.CHUNK_READS // len(reads) + 2
    assert len(reads) * copies > mems.CHUNK_READS + len(reads)
    assert [record_tuples(t) for t in compute_mem_tables(ix, reads * copies)] == whole * copies


def test_mem_tables_digest_empties(golden_digest, golden_digest_index, monkeypatch):
    # text symbols as the oracle's list path takes them: values, '$' separators
    values = [c - 3 for c in golden_digest.codes.tolist()]
    text = ["$" if c == SEP_CODE - 3 else c for c in values]
    present = set(values) - {SEP_CODE - 3}
    rng = random.Random(9)
    # absent values: 64 = 4**k, 2**40, negative ones; absent first, last
    # and everywhere
    reads = [[24, 63, 62], [63], [64], [-1, 24], [24] * 7, [24, 2**40, 63], [-7, 62],
             [64, 24, 63], [24, 63, 2**40], [64, 2**40, -7]]
    for _ in range(30):
        start = rng.randrange(len(values) - 20)
        read = [v for v in values[start: start + rng.randint(1, 20)] if v != SEP_CODE - 3]
        reads.append([rng.randrange(-1, 66) if rng.random() < 0.2 else v for v in read] or [5])
    for min_length in (1, 3):
        tables = _batch_tables(golden_digest_index, reads, 7, monkeypatch, min_length)
        assert tables == _batch_tables(golden_digest_index, reads, 1000, monkeypatch,
                                       min_length)
        assert tables == _batch_tables(golden_digest_index, reads, 1, monkeypatch, min_length)
        for read, table in zip(reads, tables):
            want = [(*t, False) for t in oracles.naive_mem_table(text, read)]
            want += [(i, 1, None, None, None, None, True)
                     for i, v in enumerate(read) if v not in present]
            want = sorted(t for t in want if t[1] >= min_length)
            assert table == want
    assert any(t[6] for table in _batch_tables(golden_digest_index, reads, 7, monkeypatch)
               for t in table)


def test_mem_tables_empty_and_reserved_reads(toy_index, golden_collection,
                                             golden_digest_index, monkeypatch):
    # a read holding a reserved symbol gets an empty table and leaves its
    # neighbours' tables as they are alone, also across chunk boundaries
    assert [len(t) for t in compute_mem_tables(toy_index, ["", "ACATA", ""])] == [0, 2, 0]
    reads = ["ACATA", "AC#AT", "GAT", "$", "TACAT"]
    alone = [record_tuples(compute_mem_table(toy_index, read)) for read in reads]
    assert alone[1] == alone[3] == [] and all(alone[::2])
    for chunk in (2, mems.CHUNK_READS):
        assert _batch_tables(toy_index, reads, chunk, monkeypatch) == alone
    # against a digest index a string read is digested with the index's
    # parameters, a value list is queried as it is, and one holding a
    # reserved symbol gets an empty table; a batch mixing the kinds gives
    # every read the table it gets alone
    ix = golden_digest_index
    strings = [golden_collection.genomes[g][5:40] for g in (2, 7, 11)] + ["ACGTN" * 6]
    for read in strings:
        want = digest_sequence(read, DigestParams()) if "N" not in read else []
        assert record_tuples(compute_mem_table(ix, read)) == \
            (record_tuples(compute_mem_table(ix, want)) if want else [])
    assert any(compute_mem_table(ix, read).records for read in strings)
    for read in ([24, "$", 62], ["#"], ["$", 63]):
        assert compute_mem_table(ix, read).records == []
    reads = [strings[0], [24, 63, 62], strings[1], [24, "$"], [24, 62, 23], strings[3], strings[2]]
    alone = [record_tuples(compute_mem_table(ix, read)) for read in reads]
    for chunk in (1, 2, 3, mems.CHUNK_READS):
        assert _batch_tables(ix, reads, chunk, monkeypatch) == alone


def test_non_string_base_reads_take_one_symbol_per_item(monkeypatch):
    # each item of a non-string read is one symbol, whatever its neighbours;
    # one that is not a one-character base, in either case, matches nowhere,
    # like N
    ix = build_index(separate(GenomeCollection(genomes=["GATTACAT", "AGATACAT", "GATACAT"])))
    gatta = record_tuples(compute_mem_table(ix, "GATTA"))
    assert [r[:2] for r in gatta] == [(0, 5)]
    for chunk in (1, mems.CHUNK_READS):
        assert _batch_tables(ix, [["AC", "A"], "GATTA"], chunk, monkeypatch) == \
            [record_tuples(compute_mem_table(ix, "NA")), gatta]
    for read, same in (([3, 4], "NN"), (b"ACA", "NNN"), (["A", None, "ß", "a"], "ANNA"),
                       (list("ACA"), "ACA"), (tuple("GATTA"), "GATTA")):
        assert record_tuples(compute_mem_table(ix, read)) == \
            record_tuples(compute_mem_table(ix, same))
    assert ix.find_interval([3]).is_empty and ix.find_interval(["AC"]).is_empty
    assert ix.find_interval(["A", "T"]) == ix.find_interval("AT")
    assert not ix.find_interval("AT").is_empty


def _assert_memory_is_one_chunk(monkeypatch, text_of):
    """Reads stream through in chunks: four chunks peak no higher than one,
    and a chunk copies no row-sized array.  The index over text_of(the
    genomes) is loaded from its file, whose packed arrays decode into
    aligned ones (numpy copies unaligned arrays whole for reduceat)."""
    rng = random.Random(10)
    genomes = ["".join(rng.choice("ACGT") for _ in range(20_000)) for _ in range(5)]
    ix = deserialize(build_index(text_of(GenomeCollection(genomes=genomes))).to_bytes())
    assert ix.sa.flags.aligned and ix.lcp.flags.aligned
    chunk = [_random_read(rng, genomes) for _ in range(32)]
    assert ix.rows > 100 * len(ix.encode_reads(enumerate(chunk))[1])
    monkeypatch.setattr(mems, "CHUNK_READS", len(chunk))

    def peak(reads):
        tracemalloc.start()
        try:
            for _ in compute_mem_tables(ix, reads):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(chunk)  # warm up
    one = peak(chunk)
    assert one < ix.sa.nbytes
    assert peak(chunk * 4) <= 1.25 * one


def test_mem_tables_memory_is_one_chunk(monkeypatch):
    _assert_memory_is_one_chunk(monkeypatch, separate)


def test_digest_mem_tables_memory_is_one_chunk(monkeypatch):
    # the digest walk digests each chunk's reads as well
    _assert_memory_is_one_chunk(monkeypatch, lambda c: digest_collection(c, DigestParams()))
