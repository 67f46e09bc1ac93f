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

from memtax import (AugmentedFmIndex, DigestParams, EmptyIntervalError,
                    FormatError, GenomeCollection, MemtaxError, SaInterval,
                    ValidationError, build_index, compute_mem_table,
                    compute_mem_tables, deserialize, digest_collection,
                    digest_sequence, separate)
from memtax.collection import FIRST_SYMBOL_CODE
from memtax.index import EMPTY_INTERVAL, _pack, _unpack
from memtax.evaluate import build_variant_text, expand_variant_specs
from memtax.suffix import BLOCK_ROWS, _SCAN_ROWS, build_suffix_array, symbol_dtype

import oracles
from conftest import (P, TOY_GENOMES, construction_peak_per_row, rewritten_bits, rewritten_index,
                      rewritten_rows, stored_bits)


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
    assert ix.find_interval("acat") == ix.find_interval("aCaT") == iv
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
    sub, bwt = None, ix.bwt.symbols(np.int64)
    for lo in range(full_at.lo, full_at.hi + 1):
        if all(bwt[r] != code_c for r in range(lo, full_at.hi + 1)):
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
        # LCP values only a hand-edited file holds (no row below p, every
        # row at the LCP dtype's maximum): the scan still ends, at row 0 and
        # at the last row
        ix.lcp[:] = np.iinfo(ix.lcp.dtype).max
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


def test_serialize_round_trip_pathlike(toy_index, tmp_path):
    # a pathlib.Path used to end in AttributeError ('PosixPath' object has no
    # attribute 'write' / 'read')
    path = tmp_path / "x.ktk2"
    blob = toy_index.to_bytes()
    assert toy_index.serialize(path) == len(blob) == path.stat().st_size
    assert path.read_bytes() == blob
    assert deserialize(path).to_bytes() == blob


def test_serialize_deterministic(toy_index):
    assert toy_index.to_bytes() == toy_index.to_bytes()
    rebuilt = build_index(separate(GenomeCollection(genomes=list(TOY_GENOMES))))
    assert rebuilt.to_bytes() == toy_index.to_bytes()


def _assert_round_trip(ix) -> bytes:
    """ix's file, which size_bytes counts, loads into arrays equal to ix's
    in its dtypes (the BWT's as K and as recovered at the width the header
    records) and is written back byte for byte."""
    blob = ix.to_bytes()
    assert ix.size_bytes() == len(blob)
    loaded = deserialize(blob)
    width = ix.layout()[0][1]
    for got, want in ((loaded.bwt.keys, ix.bwt.keys),
                      (loaded.bwt.symbols(width), ix.bwt.symbols(width)),
                      (loaded.sa, ix.sa), (loaded.lcp, ix.lcp)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert loaded.names == ix.names
    assert loaded.to_bytes() == blob
    return blob


def _stored_widths(ix) -> dict:
    return {a["name"]: a["bits"] for a in ix.summary()["arrays"]}


def test_loaded_arrays_aligned(tmp_path):
    # the packed arrays decode into arrays of their own, aligned (numpy's
    # reduceat copies an unaligned array whole), K among them, for every row
    # count mod 8, which sets the packed arrays' padding, and for a BWT the
    # header records at four bytes, packed at 9 bits (k = 4 digest), loaded
    # from bytes, a file and a pipe
    indexes = [build_index(separate(GenomeCollection(genomes=["GATTACAGATTACA"[:length]])))
               for length in range(6, 14)]
    assert sorted(ix.rows % 8 for ix in indexes) == list(range(8))
    rng = random.Random(4)
    genome = "".join(rng.choice("ACGT") for _ in range(300))
    for w in (3, 4):
        indexes.append(build_index(digest_collection(GenomeCollection(genomes=[genome]),
                                                     DigestParams(k=4, w=w))))
        assert indexes[-1].layout()[0][:2] == ["bwt", "<u4"]
        assert _stored_widths(indexes[-1])["bwt"] == 9
    for k, ix in enumerate(indexes):
        blob = _assert_round_trip(ix)
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
            assert got.bwt.keys.flags.aligned
            assert got.to_bytes() == blob


def test_symbols_recovered_from_the_keys():
    # the BWT an index recovers from K, at the width the file stores, is the
    # one the construction produced: raw, kernel and 3-mer digest texts (one
    # byte) and a 4-mer digest (four bytes), at every row count mod 8, with
    # blocks of 8 rows so that a block's rows fall anywhere in the BWT
    rng = random.Random(8)
    genome = "".join(rng.choice("ACGT") for _ in range(200))
    for spec, dtype in (("raw", "u1"), ("kernel:3", "u1"), ("digest:3:10", "u1"),
                        ("digest:4:3", "<u4")):
        (variant,), seen = expand_variant_specs([spec]), set()
        for length in range(40, 200, 3):
            text = build_variant_text(GenomeCollection(genomes=[genome[:length], genome[::-2]]),
                                      variant)
            _, _, bwt = build_suffix_array(text.codes, text.alphabet.size)
            ix = build_index(text)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("memtax.suffix.BLOCK_ROWS", 8)
                got = ix.bwt.symbols(symbol_dtype(ix.alphabet.size))
            assert got.dtype == bwt.dtype == np.dtype(dtype) and np.array_equal(got, bwt)
            seen.add(ix.rows % 8)
        assert seen == set(range(8)), spec


@pytest.mark.parametrize("rows, sa_bits", [(1 << 16, 16), ((1 << 16) + 1, 17)])
def test_round_trip_at_the_suffix_array_width_boundary(rows, sa_bits):
    # R - 1 = 2^16 - 1 is the largest row 16 bits hold; a genome of R - 2
    # bases is R rows with its separator and the sentinel
    rng = random.Random(rows)
    genome = "".join(rng.choice("ACGT") for _ in range(rows - 2))
    ix = build_index(separate(GenomeCollection(genomes=[genome])))
    assert ix.rows == rows and _stored_widths(ix) == {"bwt": 3, "sa": sa_bits, "lcp": 2}
    _assert_round_trip(ix)


def test_pack_round_trip_at_every_width(monkeypatch):
    # values of 1 to 64 bits, in partial groups and across blocks of 64
    # rows, pack as the file describes them (value i at bits i * bits up,
    # least significant bit first) and unpack to themselves
    monkeypatch.setattr("memtax.index.BLOCK_ROWS", 64)
    rng = np.random.default_rng(6)
    for bits in range(1, 65):
        for count in (0, 1, 7, 8, 9, 63, 64, 65, 200):
            values = rng.integers(0, (1 << min(bits, 63)) - 1, count, dtype=np.uint64, endpoint=True)
            if bits == 64:
                values |= np.uint64(1 << 63)
            packed = _pack(values, bits)
            assert len(packed) == -(-count // 8) * bits
            number = int.from_bytes(packed.tobytes(), "little")
            assert number == sum(int(v) << (i * bits) for i, v in enumerate(values))
            assert np.array_equal(_unpack(packed, bits, count, "<u8"), values)


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


def test_index_build_construction_peak():
    # the suffix array, LCP and BWT come out of one pass in the dtypes the
    # index stores, with no text copy beside them: 25.0 bytes per row,
    # where int64 arrays, a separate BWT and their narrowing copies took 36.1
    assert construction_peak_per_row(AugmentedFmIndex.build) <= 33


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
    # version 2 stored the LCP as <u4 whatever its maximum, version 3 the
    # separator positions as a bitvector, version 4 the BWT first, version 5
    # the arrays unpacked, widest first
    for version in (99, 2, 3, 4, 5):
        bad_version[4] = version
        with pytest.raises(FormatError, match=f"unsupported index version {version}"):
            deserialize(bytes(bad_version))
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    with pytest.raises(FormatError, match="checksum"):
        deserialize(bytes(corrupt))
    with pytest.raises(FormatError):
        deserialize(bytes(blob[:len(blob) // 2]))  # truncation
    # a file cut inside its JSON header or its checksum
    (meta_len,) = struct.unpack("<I", blob[8:12])
    for cut in (13, 12 + meta_len, 12 + meta_len + 3):
        with pytest.raises(FormatError, match="truncated index header"):
            deserialize(bytes(blob[:cut]))
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
    # entries short (44 values at 6 bits take the 36 bytes of 46), one whose
    # last 8 values are cut from the payload (18 packed BWT bytes precede
    # its 36), and a text length raised by 5
    assert b'["sa","<u4",46]' in blob
    for bad in (_with_header(blob, b'["sa","<u4",46]', b'["sa","<u4",44]', True),
                _with_header(blob, b'["sa","<u4",46]', b'["sa","<u4",38]', True,
                             payload_cut=(18 + 30, 18 + 36)),
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
                 _setter("alphabet", "kind", None), _setter("alphabet", "k", 3),
                 # a float equal to the text length matches the layout's counts
                 lambda meta: meta.update(text_length=45.0)]
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
    # exceeds the suffix lengths, each at a value the encoding can hold:
    # every SA row but the first set to 63, the largest of 6 bits, one SA
    # row set to 46, the first past the rows, an SA row repeated, every LCP
    # row but the first set to 1 (a larger one puts two of the PLCP's ones
    # at one bit), the first LCP row set to 1, and an LCP one past its bound
    sa = toy_index.sa
    assert toy_index.lcp.dtype == np.uint8 and toy_index.rows == 46
    lcp_bound = 45 - max(int(sa[17]), int(sa[18]))
    assert lcp_bound > toy_index.lcp[18]
    for array, rows, value, match in (("sa", slice(1, 46), 63, "permutation"),
                                      ("sa", 5, 46, "permutation"),
                                      ("sa", 5, int(sa[6]), "permutation"),
                                      ("lcp", slice(1, None), 1, "LCP"),
                                      ("lcp", 0, 1, "LCP"),
                                      ("lcp", 18, lcp_bound + 1, "LCP")):
        with pytest.raises(FormatError, match=match):
            deserialize(rewritten_rows(blob, array, rows, value))
    assert deserialize(rewritten_rows(blob, "lcp", 18, lcp_bound)).n == 45  # at the bound
    # a set padding bit: a BWT or SA value past the 46 rows of their 48
    # packed values, or one of the 4 bits past the LCP bit vector's 92
    for bad in (rewritten_rows(blob, "bwt", 46, 1), rewritten_rows(blob, "sa", 47, 1),
                rewritten_bits(blob, "lcp", lambda bits: bits.__setitem__(92, 1))):
        with pytest.raises(FormatError, match="padding bits"):
            deserialize(bad)
    # an LCP bit vector without one one per row: its last one (at 2 * 45,
    # the sentinel's PLCP of 0) cleared, or a one added after it; and one
    # whose 46 ones fill its first 46 bits, all but the first before 2p
    assert stored_bits(blob, "lcp")[90] == 1 and not stored_bits(blob, "lcp")[91:].any()
    for bad, match in ((lambda bits: bits.__setitem__(90, 0), "one one per row"),
                       (lambda bits: bits.__setitem__(91, 1), "one one per row"),
                       (lambda bits: bits.__setitem__(slice(None), np.arange(96) < 46),
                        "before position 2p")):
        with pytest.raises(FormatError, match=match):
            deserialize(rewritten_bits(blob, "lcp", bad))
    # a digest BWT symbol past the alphabet's 67 codes, which 7 bits hold
    digest_rows = golden_digest_index.rows
    assert golden_digest_index.alphabet.size == 67
    for value in (67, 127):
        with pytest.raises(FormatError, match="outside the alphabet"):
            deserialize(rewritten_rows(digest_blob, "bwt", digest_rows // 2, value))
    # checksummed payloads whose BWT disagrees with the SA: every single
    # A -> C edit of the BWT
    a, c = toy_index.alphabet.query_codes(["AC"]).tolist()
    a_rows = np.flatnonzero(toy_index.bwt.symbols("u1") == a)
    assert len(a_rows) == 17
    for row in a_rows:
        with pytest.raises(FormatError, match="BWT disagrees"):
            deserialize(rewritten_rows(blob, "bwt", int(row), c))
    # a checksummed genome count one off the separators of the BWT
    assert list(toy_index.sep_positions) == [8, 17, 25, 34, 44]
    for count in (4, 6):
        with pytest.raises(FormatError, match="genome count"):
            deserialize(rewritten_index(blob, lambda meta: meta.update(genome_count=count)))
    # the genome names: one string per genome, in a list
    names = ["g0", "g1", "g2", "g3", "g4"]
    for bad in (names[:4], names + ["g5"], names[:4] + [4], dict.fromkeys(names), "g0g1g2"):
        with pytest.raises(FormatError, match="genome names disagree with the genome count"):
            deserialize(rewritten_index(blob, lambda meta: meta.update(names=bad)))
    with pytest.raises(FormatError, match="KeyError: 'names'"):
        deserialize(rewritten_index(blob, lambda meta: meta.pop("names")))
    renamed = deserialize(rewritten_index(blob, lambda meta: meta.update(names=list("abcde"))))
    assert renamed.names == tuple("abcde") == renamed.summary()["names"]


def _with_lcp(ix, dtype):
    """ix with its LCP cast to dtype, every other array shared."""
    return AugmentedFmIndex(ix.bwt, ix.sa, ix.lcp.astype(dtype), ix.alphabet, ix.provenance,
                            ix.names)


@pytest.mark.parametrize("length, maximum, dtype", [(256, 255, "u1"), (257, 256, "<u2"),
                                                    (65_536, 65_535, "<u2"),
                                                    (65_537, 65_536, "<u4")])
def test_lcp_stored_at_its_measured_width(length, maximum, dtype):
    # a genome of one repeated base: its two longest suffixes share all but
    # one base, so the LCP maximum is length - 1
    ix = build_index(separate(GenomeCollection(genomes=["A" * length])))
    assert int(ix.lcp.max()) == maximum and ix.lcp.dtype == np.dtype(dtype)
    assert ["lcp", dtype, ix.rows] in ix.layout()
    _assert_round_trip(ix)


def test_lcp_wider_than_its_maximum_rejected(toy_index):
    # the writer stores the LCP it holds: a toy index cast wider writes a
    # checksummed file that the loader refuses, one index having one file
    assert toy_index.lcp.dtype == np.uint8
    for dtype in ("<u2", "<u4", "<u8"):
        blob = _with_lcp(toy_index, dtype).to_bytes()
        assert f'["lcp","{dtype}",46]'.encode() in blob
        with pytest.raises(FormatError, match="wider than its maximum"):
            deserialize(blob)
    # a dtype that is none of the widths is a layout mismatch
    with pytest.raises(FormatError, match="text length"):
        deserialize(_with_header(toy_index.to_bytes(), b'["lcp","u1",46]', b'["lcp","i1",46]',
                                 True))


def test_lcp_past_its_recorded_width_rejected():
    # an LCP maximum of 256 recorded as one byte wide: the PLCP bit vector
    # holds it, the header's width does not
    ix = build_index(separate(GenomeCollection(genomes=["A" * 257])))
    assert int(ix.lcp.max()) == 256 and ["lcp", "<u2", ix.rows] in ix.layout()
    narrow = rewritten_index(ix.to_bytes(), lambda meta: meta["arrays"][2].__setitem__(1, "u1"))
    with pytest.raises(FormatError, match="exceeds the width its header records"):
        deserialize(narrow)


def test_narrow_lcp_mem_tables_equal_four_byte_lcp(golden_genomes, golden_raw_index,
                                                   golden_digest_index):
    # one-byte LCPs (raw and digest) and a two-byte one (genomes sharing a
    # 300-base block) give the walk the records that the same index with a
    # <u4 LCP gives
    rng = random.Random(19)
    block = "".join(rng.choice("ACGT") for _ in range(300))
    genomes = ["".join(rng.choice("ACGT") for _ in range(500)) + block for _ in range(4)]
    repeats = build_index(separate(GenomeCollection(genomes=genomes)))
    assert repeats.lcp.dtype == np.dtype("<u2")
    for ix, source in ((golden_raw_index, golden_genomes), (repeats, genomes),
                       (golden_digest_index, golden_genomes)):
        reads = []
        for _ in range(300):
            genome = rng.choice(source)
            start = rng.randrange(len(genome))
            read = list(genome[start: start + rng.randint(1, 120)])
            for i in range(len(read)):
                if rng.random() < 0.05:
                    read[i] = rng.choice("ACGT")
            reads.append("".join(read))
        wide = _with_lcp(ix, "<u4")
        assert ix.lcp.itemsize < 4
        assert [t.records for t in compute_mem_tables(ix, reads)] == \
            [t.records for t in compute_mem_tables(wide, reads)]


def test_reported_size_equals_file_bytes(tmp_path, toy_index, golden_raw_index,
                                         golden_kernel4_index, golden_digest_index):
    # the arrays are written one by one, straight from the index, into a file and a pipe
    path = tmp_path / "toy.ktk2"
    read_end, write_end = os.pipe()
    for sink_path, source_path in ((path, path), (write_end, read_end)):
        with open(sink_path, "wb") as sink:
            written = toy_index.serialize(sink)
        with open(source_path, "rb") as source:
            got = source.read()
        assert written == len(got) == toy_index.size_bytes()
        assert got == toy_index.to_bytes()
    for ix in (golden_raw_index, golden_kernel4_index, golden_digest_index):
        assert ix.size_bytes() == len(ix.to_bytes())


def test_pattern_on_digest_index_is_coded_as_a_read(golden_collection, golden_digest_index):
    # a pattern takes the read rule (encode_reads): on a digest index a base
    # string is digested with the stored parameters (it used to be coded as
    # bases, and matched nothing); a non-empty pattern that gets no codes is
    # empty, and the empty pattern is the full interval
    ix, params = golden_digest_index, DigestParams()
    window = params.k + params.w - 1
    rng = random.Random(24)
    for _ in range(200):
        genome = golden_collection.genomes[rng.randrange(16)]
        length = rng.randint(window, 60)
        start = rng.randrange(len(genome) - length + 1)
        s = genome[start:start + length]
        assert ix.find_interval(s) == ix.find_interval(digest_sequence(s, params)), s
    s = golden_collection.genomes[3][:60]
    assert ix.find_interval(s) == ix.find_interval(digest_sequence(s, params)) != EMPTY_INTERVAL
    assert ix.genome_range(ix.find_interval(s)) == (3, 3)
    for s in (s[:30] + "$" + s[30:], s[:30] + "N" + s[30:], s + "#", s[:window - 1], "A"):
        assert ix.find_interval(s) == EMPTY_INTERVAL, s
    assert ix.find_interval("") == SaInterval(0, ix.rows - 1)


def test_alphabet_overflow_rejected():
    import numpy as np
    from memtax.collection import Alphabet, SeparatedText
    st = SeparatedText(np.array([3, 70, 2], dtype=np.int32),
                       Alphabet(kind="digest", k=3), {"mode": "digest"})
    with pytest.raises(ValidationError, match="alphabet"):
        build_index(st)
    empty = SeparatedText(np.array([], dtype=np.int32), Alphabet(kind="bases"))
    with pytest.raises(ValidationError, match="empty text"):
        AugmentedFmIndex.build(empty)


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
                compute_mem_table(ix, read if ix.digest_params is None
                                  else (codes - FIRST_SYMBOL_CODE).tolist())
        except MemtaxError:
            pass

    check()


@pytest.mark.parametrize("kind", ["raw", "digest"])
def test_fuzz_index_payload(kind, toy_index, golden_digest_index):
    """A file with any one payload byte XORed, checksummed again, either
    raises FormatError or loads and writes itself back byte for byte."""
    blob = (toy_index if kind == "raw" else golden_digest_index).to_bytes()
    (meta_len,) = struct.unpack("<I", blob[8:12])
    head, start = blob[:12 + meta_len], 16 + meta_len

    @settings(derandomize=True, deadline=None, max_examples=500, database=None)
    @given(hs.integers(start, len(blob) - 1), hs.integers(1, 255))
    def check(at, mask):
        payload = bytearray(blob[start:])
        payload[at - start] ^= mask
        bad = head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + bytes(payload)
        try:
            ix = deserialize(bad)
        except FormatError:
            return
        assert ix.to_bytes() == bad

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
        symbols = (loaded.encode_reads([(0, "".join(read))])[1] - FIRST_SYMBOL_CODE).tolist()
        assert symbols == digest_sequence("".join(read), params)
        want = oracles.naive_mem_table(text, symbols)
        for index in (ix, loaded):
            got = [(r.read_start, r.length, r.first_pos, r.last_pos, r.first_genome,
                    r.last_genome) for r in compute_mem_table(index, symbols) if not r.empty]
            assert got == want
