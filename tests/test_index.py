import io
import random
import struct
import zlib

import pytest

from memtax import (AbsentSymbolError, DigestParams, EmptyIntervalError,
                    FormatError, GenomeCollection, SaInterval, ValidationError,
                    build_index, deserialize, digest_collection, separate)
from memtax.collection import SEP_CODE
from memtax.index import _SCAN_ROWS, EMPTY_INTERVAL

import oracles
from conftest import TOY_GENOMES


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
    code_c = ix.alphabet.encode_query("C")
    stepped = ix.backward_step(iv, code_c)
    assert stepped.is_empty

    iv = ix.find_interval("ACAT")
    assert ix.first_last_positions(iv) == (4, 21)
    assert ix.genome_range(iv) == (0, 2)


def test_backward_step_absent_and_illegal(toy_index):
    ix = toy_index
    full = ix.full_interval()
    # '$' and '#' are alphabet symbols but never legal queries
    assert ix.backward_step(full, SEP_CODE) is None
    assert ix.backward_step(full, 999) is None
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
    code_c = ix.alphabet.encode_query("C")
    new_iv, kept = ix.shrink_to_extendable(iv, 3, code_c)
    assert kept == 2  # longest prefix of ATA preceded by C is AT
    expected = ix.find_interval("AT")
    assert (new_iv.lo, new_iv.hi) == (expected.lo, expected.hi)
    assert len(new_iv) == 10
    stepped = ix.backward_step(new_iv, code_c)
    assert not stepped.is_empty


def test_shrink_widens_subinterval(toy_index):
    # shrinking from a strict sub-interval may keep the full length and only
    # widen to the pattern's whole interval
    ix = toy_index
    full_at = ix.find_interval("AT")
    code_c = ix.alphabet.encode_query("C")
    # rows of "AT" whose BWT is not C: drop the C-preceded rows from the front
    sub = None
    for lo in range(full_at.lo, full_at.hi + 1):
        if all(ix.bwt.access(r) != code_c for r in range(lo, full_at.hi + 1)):
            sub = SaInterval(lo, full_at.hi)
            break
    assert sub is not None
    new_iv, kept = ix.shrink_to_extendable(sub, 2, code_c)
    assert kept == 2
    assert (new_iv.lo, new_iv.hi) == (full_at.lo, full_at.hi)


def test_shrink_absent_symbol():
    ix = build_index(separate(GenomeCollection(genomes=["AAAA"])))
    iv = ix.find_interval("AA")
    with pytest.raises(AbsentSymbolError):
        ix.shrink_to_extendable(iv, 2, ix.alphabet.encode_query("G"))


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
            code = ix.alphabet.encode_query(query(c)[0])
            iv = ix.find_interval(query(pattern))
            new_iv, kept = ix.shrink_to_extendable(iv, plen, code)
            # brute force: longest prefix of pattern preceded by c
            want = 0
            for l in range(plen, -1, -1):
                if c + pattern[:l] in text:
                    want = l
                    break
            assert kept == want
            expected = ix.find_interval(query(pattern[:kept]))
            assert (new_iv.lo, new_iv.hi) == (expected.lo, expected.hi)
            stepped = ix.backward_step(new_iv, code)
            assert stepped is not None and not stepped.is_empty
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

    # a few thousand rows: widened intervals cross more than one scan
    # window upwards and downwards, and the second windows are cut at row 0
    # and at the last row
    shrinks = []
    for _ in range(2):
        genomes = [_runs(rng, rng.randint(2400, 2800)) for _ in range(3)]
        st = separate(GenomeCollection(genomes=genomes))
        ix = build_index(st)
        assert ix.rows < 9 * _SCAN_ROWS
        for iv, new_iv in _check_shrinks(rng, ix, st.text(), genomes, "AC", trials=40):
            shrinks.append((iv.lo - new_iv.lo, new_iv.hi - iv.hi,
                            new_iv.hi == ix.rows - 1))
    assert any(up > _SCAN_ROWS for up, _, _ in shrinks)
    assert any(down > _SCAN_ROWS and not last for _, down, last in shrinks)
    assert any(last for _, _, last in shrinks)
    # LCP values only a hand-edited file holds (no row below p): the scan
    # still ends, at row 0 and at the last row
    ix.lcp[:] = ix.rows
    new_iv, kept = ix.shrink_to_extendable(ix.find_interval("AAC"), 3,
                                           ix.alphabet.encode_query("C"))
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


def test_reported_size_equals_file_bytes(tmp_path, toy_index):
    path = tmp_path / "toy.ktk2"
    with open(path, "wb") as f:
        written = toy_index.serialize(f)
    assert written == path.stat().st_size == len(toy_index.to_bytes())


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
