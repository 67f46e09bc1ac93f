import io
import json
import os
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from memtax import (DigestParams, EmptyIntervalError,
                    FormatError, GenomeCollection, MemtaxError, SaInterval,
                    ValidationError, build_index, compute_mem_table,
                    deserialize, digest_collection, digest_sequence, separate)
from memtax.index import EMPTY_INTERVAL
from memtax.suffix import BLOCK_ROWS, _SCAN_ROWS

import oracles
from conftest import P, TOY_GENOMES, moved_separator, rewritten_index, rewritten_rows


def _code(ix, symbol):
    """The query code of one symbol."""
    return int(ix.alphabet.query_codes([[symbol]])[0])


def _step(ix, iv, code):
    """The backward step of the walk (bwt.lf) with one lane, from and to
    inclusive intervals."""
    lo, end = ix.bwt.lf(code, np.array([iv.lo, iv.hi + 1])).tolist()
    return SaInterval(lo, end - 1)


def _shrink(ix, iv, length, code):
    """The shrink of the walk with one lane, whose step by code from the
    inclusive interval iv of a length-symbol match failed: (the kept
    prefix's inclusive interval, kept)."""
    codes, rows = np.array([code]), np.array([[iv.lo], [iv.hi + 1]])
    rows, kept = ix.shrink(codes, rows, np.array([length]), ix.bwt.lf(codes, rows))
    return SaInterval(int(rows[0, 0]), int(rows[1, 0]) - 1), int(kept[0])


def test_empty_pattern_full_interval(toy_index):
    iv = toy_index.find_interval("")
    assert (iv.lo, iv.hi) == (0, toy_index.rows - 1)
    # the full interval holds every position, the sentinel's n included
    assert toy_index.first_last_positions(iv) == (0, toy_index.n)


def test_backward_steps_worked_example(toy_index):
    ix = toy_index
    iv = ix.find_interval("ATA")
    assert len(iv) == 3
    assert ix.first_last_positions(iv) == (11, 41)
    assert ix.genome_range(iv) == (1, 4)
    # no C precedes ATA anywhere
    assert _step(ix, iv, _code(ix, "C")).is_empty
    assert ix.find_interval("CATA") == EMPTY_INTERVAL

    iv = ix.find_interval("ACAT")
    assert ix.first_last_positions(iv) == (4, 21)
    assert ix.genome_range(iv) == (0, 2)


def test_backward_step_absent_and_illegal(toy_index):
    ix = toy_index
    # '$' and '#' are alphabet symbols but never legal queries, nor are the
    # wildcard and symbols outside the alphabet: their code is -1, which
    # precedes no row
    assert ix.alphabet.query_codes(["$#NxÄ"]).tolist() == [-1] * 5
    for illegal in ("$", "#", "N", "x", "Ä", "A$", "$A", "ATA#"):
        assert ix.find_interval(illegal) == EMPTY_INTERVAL
    assert _step(ix, ix.find_interval(""), -1).is_empty
    # G is present, so stepping is defined from any interval; a pattern that
    # does not occur gives an empty interval
    assert ix.find_interval("GG").is_empty


def test_singleton_interval(toy_index):
    iv = toy_index.find_interval("GATTAGATA")
    assert len(iv) == 1
    pmin, pmax = toy_index.first_last_positions(iv)
    assert pmin == pmax == 35
    g = toy_index.genome_range(iv)
    assert g == (4, 4)


def test_genome_range_empty_marker(toy_index):
    assert toy_index.genome_range(EMPTY_INTERVAL) is None
    with pytest.raises(EmptyIntervalError):
        toy_index.first_last_positions(EMPTY_INTERVAL)


def test_interval_matches_naive_scan():
    rng = random.Random(31)
    for _ in range(60):
        genomes = oracles.random_collection(rng, max_genomes=4, max_len=120)
        coll = GenomeCollection(genomes=genomes)
        st = separate(coll)
        ix = build_index(st)
        text = st.text()
        for _ in range(20):
            plen = rng.randint(1, 8)
            if rng.random() < 0.5:
                src = rng.choice(genomes)
                if len(src) >= plen:
                    start = rng.randrange(len(src) - plen + 1)
                    pattern = src[start:start + plen]
                else:
                    continue
            else:
                pattern = "".join(rng.choice("ACGT") for _ in range(plen))
            iv = ix.find_interval(pattern)
            starts = [j for j in range(len(text) - len(pattern) + 1)
                      if text[j:j + len(pattern)] == pattern]
            assert len(iv) == len(starts)
            if starts:
                assert ix.first_last_positions(iv) == (min(starts), max(starts))
                fg = text[:min(starts)].count("$")
                lg = text[:max(starts)].count("$")
                assert ix.genome_range(iv) == (fg, lg)


def test_shrink_worked_example(toy_index):
    ix = toy_index
    iv = ix.find_interval("ATA")
    code_c = _code(ix, "C")
    new_iv, kept = _shrink(ix, iv, 3, code_c)
    assert kept == 2  # longest prefix of ATA preceded by C is AT
    expected = ix.find_interval("AT")
    assert (new_iv.lo, new_iv.hi) == (expected.lo, expected.hi)
    assert len(new_iv) == 10
    stepped = _step(ix, new_iv, code_c)
    assert not stepped.is_empty


def test_shrink_widens_subinterval(toy_index):
    # shrinking from a strict sub-interval may keep the full length and only
    # widen to the pattern's whole interval
    ix = toy_index
    full_at = ix.find_interval("AT")
    code_c = _code(ix, "C")
    # rows of "AT" whose BWT is not C: drop the C-preceded rows from the front
    sub = None
    for lo in range(full_at.lo, full_at.hi + 1):
        if all(ix.bwt.access(r) != code_c for r in range(lo, full_at.hi + 1)):
            sub = SaInterval(lo, full_at.hi)
            break
    assert sub is not None
    new_iv, kept = _shrink(ix, sub, 2, code_c)
    assert kept == 2
    assert (new_iv.lo, new_iv.hi) == (full_at.lo, full_at.hi)


def test_shrink_absent_symbol():
    ix = build_index(separate(GenomeCollection(genomes=["AAAA"])))
    iv = ix.find_interval("AA")
    # the lockstep kernel: an absent code keeps -1 symbols and gives all rows
    codes, rows = np.array([_code(ix, "G")]), np.array([[iv.lo], [iv.hi + 1]])
    new_rows, kept = ix.shrink(codes, rows, np.array([2]), ix.bwt.lf(codes, rows))
    assert kept.tolist() == [-1]
    assert new_rows.tolist() == [[0], [ix.rows]]


def _check_shrinks(rng, ix, text, genomes, symbols, trials, query=str):
    """Shrink a random occurring pattern by every symbol that fails to
    extend it and check against brute force on the rendered text; returns
    (interval before, interval after) of each shrink.  query maps rendered
    symbols to what find_interval takes."""
    shrinks = []
    for _ in range(trials):
        src = rng.choice([g for g in genomes if g])
        plen = rng.randint(1, min(10, len(src)))
        start = rng.randrange(len(src) - plen + 1)
        pattern = src[start:start + plen]
        for c in symbols:
            if c + pattern in text or c not in text:
                continue
            code = _code(ix, query(c)[0])
            iv = ix.find_interval(query(pattern))
            new_iv, kept = _shrink(ix, iv, plen, code)
            # brute force: longest prefix of pattern preceded by c
            want = 0
            for l in range(plen, -1, -1):
                if c + pattern[:l] in text:
                    want = l
                    break
            assert kept == want
            expected = ix.find_interval(query(pattern[:kept]))
            assert (new_iv.lo, new_iv.hi) == (expected.lo, expected.hi)
            stepped = _step(ix, new_iv, code)
            assert not stepped.is_empty
            shrinks.append((iv, new_iv))
    return shrinks


def _runs(rng, length):
    """A genome of AA and runs of 2..5 Cs in turn: AAA, ACA and CAC never
    occur, so shrinking AA.. or CA.. by A, or AC.. by C, keeps one symbol
    and widens to the whole A or C block."""
    out = []
    while len(out) < length:
        out += "AA" + "C" * rng.randint(2, 5)
    return "".join(out[:length])


def test_shrink_randomized_against_bruteforce():
    rng = random.Random(41)
    checked = 0
    while checked < 400:
        genomes = oracles.random_collection(rng, max_genomes=3, max_len=80,
                                            alphabet="ACG")
        st = separate(GenomeCollection(genomes=genomes))
        checked += len(_check_shrinks(rng, build_index(st), st.text(), genomes,
                                      "ACG", trials=1))

    # A widening scan reads _SCAN_ROWS rows, then 8 * _SCAN_ROWS, on each
    # side.  Below 9 * _SCAN_ROWS rows every second window is cut at row 0
    # (upwards) or at the last row (downwards); a few thousand rows let
    # widened intervals cross the second window too.  Both sizes widen
    # across the first window upwards and downwards.
    for length, second in ((150, "cut"), (2400, "crossed")):
        shrinks = []
        for _ in range(2):
            genomes = [_runs(rng, rng.randint(length, length * 7 // 6)) for _ in range(3)]
            st = separate(GenomeCollection(genomes=genomes))
            ix = build_index(st)
            assert (ix.rows < 9 * _SCAN_ROWS) == (second == "cut")
            for iv, new_iv in _check_shrinks(rng, ix, st.text(), genomes, "AC", trials=40):
                shrinks.append((iv.lo - new_iv.lo, new_iv.hi - iv.hi,
                                new_iv.hi == ix.rows - 1))
        scan = _SCAN_ROWS if second == "cut" else 9 * _SCAN_ROWS
        assert any(up > scan for up, _, _ in shrinks)
        assert any(down > scan and not last for _, down, last in shrinks)
        assert any(last for _, _, last in shrinks)
        # LCP values only a hand-edited file holds (no row below p): the
        # scan still ends, at row 0 and at the last row
        ix.lcp[:] = ix.rows
        new_iv, kept = _shrink(ix, ix.find_interval("AAC"), 3, _code(ix, "C"))
        assert (new_iv.lo, new_iv.hi, kept) == (0, ix.rows - 1, 3)

    # a digest text of a few thousand symbols over the 64 3-mer values
    genomes = ["".join(rng.choice("ACGT") for _ in range(3000)) for _ in range(3)]
    st = digest_collection(GenomeCollection(genomes=genomes), DigestParams(w=4))
    text = st.text()
    assert len(text) > 2000
    checked = _check_shrinks(rng, build_index(st), text, text.split("$"),
                             sorted(set(text) - {"$"}), trials=40,
                             query=lambda s: [ord(ch) - 37 for ch in s])
    assert len(checked) >= 40


def test_serialize_round_trip_random_queries(toy_index):
    blob = toy_index.to_bytes()
    ix2 = deserialize(blob)
    assert ix2.provenance == toy_index.provenance
    rng = random.Random(53)
    for _ in range(1000):
        pattern = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 9)))
        a = toy_index.find_interval(pattern)
        b = ix2.find_interval(pattern)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        if not a.is_empty:
            assert toy_index.first_last_positions(a) == ix2.first_last_positions(b)
            assert toy_index.genome_range(a) == ix2.genome_range(b)


def test_serialize_deterministic(toy_index):
    assert toy_index.to_bytes() == toy_index.to_bytes()
    rebuilt = build_index(separate(GenomeCollection(genomes=list(TOY_GENOMES))))
    assert rebuilt.to_bytes() == toy_index.to_bytes()


def test_loaded_arrays_aligned(tmp_path):
    # the payload is read into a buffer offset so that the arrays after the
    # BWT are aligned for every row count mod 4 (a one-byte BWT) and for a
    # four-byte BWT (k = 4 digest), loaded from bytes, a file and a pipe
    indexes = [build_index(separate(GenomeCollection(genomes=["GATTACAGAT"[:length]])))
               for length in range(6, 10)]
    assert sorted(ix.rows % 4 for ix in indexes) == [0, 1, 2, 3]
    rng = random.Random(4)
    genome = "".join(rng.choice("ACGT") for _ in range(300))
    for w in (3, 4):  # an odd row count puts the SA 4 bytes off an 8-byte boundary
        indexes.append(build_index(digest_collection(GenomeCollection(genomes=[genome]),
                                                     DigestParams(k=4, w=w))))
        assert indexes[-1].bwt.symbols.dtype == np.dtype("<u4")
    assert sorted(ix.rows % 2 for ix in indexes[-2:]) == [0, 1]
    for k, ix in enumerate(indexes):
        blob = ix.to_bytes()
        path = tmp_path / f"{k}.ktk2"
        path.write_bytes(blob)
        read_end, write_end = os.pipe()
        os.write(write_end, blob)
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            assert not pipe.seekable()
            loaded = [deserialize(blob), deserialize(str(path)), deserialize(pipe)]
        for got in loaded:
            assert got.sa.flags.aligned and got.lcp.flags.aligned
            assert got.bwt.symbols.flags.aligned
            assert got.to_bytes() == blob


def _load_peak_over_resident(monkeypatch, block_rows: int) -> tuple[int, int]:
    """(rows, tracemalloc peak minus resident bytes) of loading a 100 006-row
    index with `BLOCK_ROWS` patched to block_rows in `index` and `suffix`."""
    rng = random.Random(11)
    genomes = ["".join(rng.choice("ACGT") for _ in range(20_000)) for _ in range(5)]
    blob = build_index(separate(GenomeCollection(genomes=genomes))).to_bytes()
    monkeypatch.setattr("memtax.index.BLOCK_ROWS", block_rows)
    monkeypatch.setattr("memtax.suffix.BLOCK_ROWS", block_rows)
    deserialize(blob)  # warm up
    tracemalloc.start()
    try:
        ix = deserialize(blob)
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ix.rows >= max(100_000, block_rows)
    return ix.rows, peak - resident


def test_load_peak_over_resident_bytes(monkeypatch):
    # with small blocks the load's checks add no row-sized temporary: its
    # peak stays within one byte per row of what the loaded index keeps
    rows, over = _load_peak_over_resident(monkeypatch, 1 << 12)
    assert over < rows


def test_load_peak_at_default_block_rows(monkeypatch):
    # each block of the load's checks (and of the key array's) holds two
    # blocks of the suffix array's four-byte dtype and a few narrower ones at
    # most: within 10 bytes per block row (12 with an int64 block)
    _, over = _load_peak_over_resident(monkeypatch, BLOCK_ROWS)
    assert over < 10 * BLOCK_ROWS


def _with_header(blob: bytes, old: bytes, new: bytes, fix_crc: bool,
                 payload_cut: tuple[int, int] = (0, 0)) -> bytes:
    """The index file with `old` replaced by the same-length `new` in its
    JSON header and payload bytes [start, end) of payload_cut removed; with
    fix_crc, as a writer would have checksummed it."""
    (meta_len,) = struct.unpack("<I", blob[8:12])
    meta = blob[12: 12 + meta_len]
    assert meta.count(old) == 1 and len(old) == len(new)
    head = blob[:12] + meta.replace(old, new)
    payload = blob[16 + meta_len:]
    payload = payload[:payload_cut[0]] + payload[payload_cut[1]:]
    crc = zlib.crc32(payload, zlib.crc32(head)) if fix_crc else \
        struct.unpack("<I", blob[12 + meta_len: 16 + meta_len])[0]
    return head + struct.pack("<I", crc) + payload


def _setter(section, key, value):
    """edit for rewritten_index: sets meta[section][key] = value."""
    def edit(meta):
        meta[section][key] = value
    return edit


def test_deserialize_errors(toy_index, golden_digest_index):
    blob = bytearray(toy_index.to_bytes())
    with pytest.raises(FormatError, match="magic"):
        deserialize(b"NOPE" + bytes(blob[4:]))
    bad_version = bytearray(blob)
    bad_version[4] = 99
    with pytest.raises(FormatError, match="version"):
        deserialize(bytes(bad_version))
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    with pytest.raises(FormatError, match="checksum"):
        deserialize(bytes(corrupt))
    with pytest.raises(FormatError):
        deserialize(bytes(blob[:len(blob) // 2]))  # truncation
    # the checksum covers the header: a renamed key or an edited digest
    # parameter no longer loads
    blob = bytes(blob)
    with pytest.raises(FormatError, match="checksum"):
        deserialize(_with_header(blob, b'"text_length"', b'"text_lengtX"', False))
    digest_blob = golden_digest_index.to_bytes()
    assert b'"mode":"digest"' in digest_blob
    with pytest.raises(FormatError, match="checksum"):
        deserialize(_with_header(digest_blob, b'"k":3,"mode"', b'"k":9,"mode"', False))
    # a checksummed header missing a key, holding a wrong type or no JSON
    for old, new in ((b'"text_length"', b'"text_lengtX"'),
                     (b'"text_length":45', b'"text_length":[]'),
                     (b'"provenance":{"mode":"raw"}', b'"provenance":["mode","raw"]'),
                     (b'"alphabet":{', b'"alphabet":[')):
        with pytest.raises(FormatError, match="malformed index header"):
            deserialize(_with_header(blob, old, new, True))
    # checksummed arrays that disagree with text_length: a suffix array two
    # entries short (46 one-byte BWT symbols precede its 46 four-byte rows),
    # and a text length raised by 5
    assert b'["sa","<u4",46]' in blob
    for bad in (_with_header(blob, b'["sa","<u4",46]', b'["sa","<u4",44]', True,
                             payload_cut=(46 + 44 * 4, 46 + 46 * 4)),
                _with_header(blob, b'"text_length":45', b'"text_length":50', True)):
        with pytest.raises(FormatError, match="text length"):
            deserialize(bad)
    # the layout fixes the dtypes too: a same-width signed suffix array
    with pytest.raises(FormatError, match="text length"):
        deserialize(_with_header(blob, b'["sa","<u4",46]', b'["sa","<i4",46]', True))
    # checksummed alphabets and provenances that no writer produces: digest
    # parameters missing, ill-typed or out of range, a provenance k other
    # than the alphabet's, a mode that disagrees with the alphabet, and an
    # unknown alphabet
    assert golden_digest_index.provenance == \
        {"hash": [2544, 3937, 8863], "k": 3, "mode": "digest", "w": 10}
    digest_edits = [lambda meta, key=key: meta["provenance"].pop(key) for key in ("hash", "k", "w")]
    digest_edits += [_setter("provenance", "hash", bad)
                     for bad in ("2544", None, [2544, 3937], [2544, 3937, "8863"],
                                 [2544, 3937, 0], [2544, 3937, 2**58], {"a": 1, "b": 2, "m": 3})]
    digest_edits += [_setter("provenance", "k", bad) for bad in ("3", 3.0, True, 4, 0, 16)]
    digest_edits += [_setter("provenance", "w", bad) for bad in (None, 0, -1, "10")]
    digest_edits += [_setter("provenance", "mode", "raw"), _setter("alphabet", "kind", "protein"),
                     _setter("alphabet", "k", 16)]
    raw_edits = [_setter("provenance", "mode", "digest"), _setter("alphabet", "kind", "digest"),
                 _setter("alphabet", "kind", None), _setter("alphabet", "k", 3)]
    for source, edits in ((digest_blob, digest_edits), (blob, raw_edits)):
        for edit in edits:
            with pytest.raises(FormatError, match="malformed index header"):
                deserialize(rewritten_index(source, edit))
    # a 4-mer alphabet needs a four-byte BWT
    with pytest.raises(FormatError, match="alphabet"):
        deserialize(rewritten_index(digest_blob, _setter("alphabet", "k", 4)))
    # an edit that keeps the header valid still loads
    moved = deserialize(rewritten_index(digest_blob, _setter("provenance", "w", 12)))
    assert moved.digest_params == DigestParams(k=3, w=12)
    # checksummed payloads whose SA is no permutation of 0..n or whose LCP
    # exceeds the suffix lengths: every SA or LCP row but the first set to
    # 4 000 000 000, an SA row repeated, and an LCP one past its bound
    sa = toy_index.sa
    lcp_bound = 45 - max(int(sa[20]), int(sa[21]))
    for array, rows, value, match in (("sa", slice(1, None), 4_000_000_000, "permutation"),
                                      ("sa", 5, int(sa[6]), "permutation"),
                                      ("lcp", slice(1, None), 4_000_000_000, "LCP"),
                                      ("lcp", 0, 1, "LCP"),
                                      ("lcp", 21, lcp_bound + 1, "LCP")):
        with pytest.raises(FormatError, match=match):
            deserialize(rewritten_rows(blob, array, rows, value))
    assert deserialize(rewritten_rows(blob, "lcp", 21, lcp_bound)).n == 45  # at the bound
    # checksummed payloads whose BWT or separator bits disagree with the SA:
    # every single A -> C edit of the BWT, and the separator at 8 moved to 7
    a, c = toy_index.alphabet.query_codes(["AC"]).tolist()
    a_rows = np.flatnonzero(toy_index.bwt.symbols == a)
    assert len(a_rows) == 17
    for row in a_rows:
        with pytest.raises(FormatError, match="BWT disagrees"):
            deserialize(rewritten_rows(blob, "bwt", int(row), c))
    assert toy_index.sep_positions[0] == 8
    with pytest.raises(FormatError, match="separator bits"):
        deserialize(rewritten_rows(blob, "sep_bits", slice(None), moved_separator(toy_index)))


def test_reported_size_equals_file_bytes(tmp_path, toy_index, golden_raw_index,
                                         golden_kernel4_index, golden_digest_index):
    path = tmp_path / "toy.ktk2"
    with open(path, "wb") as f:
        written = toy_index.serialize(f)
    assert written == path.stat().st_size == len(toy_index.to_bytes()) == toy_index.size_bytes()
    for ix in (golden_raw_index, golden_kernel4_index, golden_digest_index):
        assert ix.size_bytes() == len(ix.to_bytes())


def test_alphabet_overflow_rejected():
    import numpy as np
    from memtax.collection import Alphabet, SeparatedText
    st = SeparatedText(np.array([3, 70, 2], dtype=np.int32),
                       Alphabet(kind="digest", k=3), {"mode": "digest"})
    with pytest.raises(ValidationError, match="alphabet"):
        build_index(st)


def test_digest_index_round_trip_keeps_params(golden_digest_index):
    blob = golden_digest_index.to_bytes()
    ix2 = deserialize(blob)
    assert ix2.provenance == golden_digest_index.provenance
    assert ix2.alphabet.kind == "digest" and ix2.alphabet.k == 3
    q = [24, 62, 23]
    a = golden_digest_index.find_interval(q)
    b = ix2.find_interval(q)
    assert (a.lo, a.hi) == (b.lo, b.hi)


# substitute values for the fuzzed header: ints from tiny to huge, strings,
# lists, null, dicts, booleans and floats
_HEADER_VALUES = hs.one_of(
    hs.integers(), hs.sampled_from([-1, 0, 1, 45, 46, 2**32, 2**64, 10**30, -10**30]),
    hs.text(max_size=6), hs.sampled_from(["u1", "<u4", "<i4", "bases", "digest", "raw"]),
    hs.none(), hs.booleans(), hs.floats(allow_nan=False, allow_infinity=False),
    hs.lists(hs.integers(-3, 50), max_size=4),
    hs.dictionaries(hs.text(max_size=3), hs.integers(), max_size=2))


def _header_paths(node, path=()):
    """Paths to every value below the header root, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _header_paths(child, path + (key,))


@pytest.mark.parametrize("kind", ["raw", "digest"])
def test_fuzz_index_header(kind, toy_index, golden_digest_index):
    """A checksummed file with any substituted header values either loads
    or raises FormatError; a file that loads answers a read or raises a
    MemtaxError, never another exception."""
    blob = (toy_index if kind == "raw" else golden_digest_index).to_bytes()
    (meta_len,) = struct.unpack("<I", blob[8:12])
    paths = sorted(_header_paths(json.loads(blob[12: 12 + meta_len])), key=str)
    read = P * 3

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(hs.lists(hs.tuples(hs.sampled_from(paths), _HEADER_VALUES), min_size=1, max_size=3))
    def check(substitutions):
        def edit(meta):
            for path, value in substitutions:
                node = meta
                try:
                    for step in path:  # the whole path must still exist
                        parent, node = node, node[step]
                    parent[path[-1]] = value
                except (KeyError, IndexError, TypeError):
                    pass  # an earlier substitution replaced this branch
        try:
            ix = deserialize(rewritten_index(blob, edit))
        except FormatError:
            return
        try:
            codes = ix.encode_reads([(0, read)])[1]
            if len(codes):
                compute_mem_table(ix, ix.alphabet.symbols(codes))
        except MemtaxError:
            pass

    check()


def test_digest_k12_index_against_oracles():
    """A 12-mer digest: 4^12 + 3 symbol codes, none of them tabulated."""
    rng = random.Random(12)
    params = DigestParams(k=12, w=4)
    genomes = ["".join(rng.choice("ACGT") for _ in range(200)) for _ in range(3)]
    st = digest_collection(GenomeCollection(genomes=genomes), params)
    text = []
    for g in genomes:
        text += [v for v, _ in oracles.naive_digest(g, 12, 4, params.a, params.b, params.m)]
        text.append(oracles.SEP)
    assert st.codes.max() > 256 and len(text) == len(st)
    ix = build_index(st)
    blob = ix.to_bytes()
    loaded = deserialize(blob)
    assert loaded.to_bytes() == blob and loaded.digest_params == params
    for _ in range(20):
        g = rng.choice(genomes)
        start = rng.randrange(len(g) - 60)
        read = list(g[start: start + rng.randint(30, 60)])
        for i in range(len(read)):
            if rng.random() < 0.03:
                read[i] = rng.choice("ACGT")
        symbols = loaded.alphabet.symbols(loaded.encode_reads([(0, "".join(read))])[1])
        assert symbols == digest_sequence("".join(read), params)
        want = oracles.naive_mem_table(text, symbols)
        for index in (ix, loaded):
            got = [(r.read_start, r.length, r.first_pos, r.last_pos, r.first_genome,
                    r.last_genome) for r in compute_mem_table(index, symbols) if not r.empty]
            assert got == want
