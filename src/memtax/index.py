"""The augmented FM-index: backward search, suffix-array interval arithmetic,
first/last occurrence extraction and genome ranges.

An index, built or loaded alike, holds the BWT only as its sorted key array
K (key_dtype, from one in-place sort), searched for every backward step and
for the shrink's nearest rows preceded by a symbol, beside the suffix array
(row_dtype) and the LCP (the narrowest unsigned width that holds its
maximum: the byte-LCP of enhanced suffix arrays, without an exception table,
which the walk's kernels scan at that width); the separator positions, the
suffix-array rows of K's `$` run, give each text position its genome.  The
`KTK2` file (VERSION 7) packs the BWT, recovered from K, the suffix array
and the LCP; its header records the BWT at symbol_dtype, the width a decoded
BWT takes.  The BWT and the suffix array take the bits of their largest
possible value, ceil(log2 sigma) and ceil(log2 R) for R rows, every 8 values
that many bytes, least significant bit first.  The LCP is stored as the bit
vector of its permuted LCP (Sadakane 2007): PLCP[p], the LCP of the suffix
at text position p, drops by at most one from p to p + 1, so its R values
are R ones, at PLCP[p] + 2p, in 2R bits.  The load decodes the arrays a
BLOCK_ROWS block at a time, gathers the LCP as PLCP[SA] at the width the
header records and decodes the BWT last, into K's dtype, for K to take over.

The MEM walk's kernels take arrays with one entry per lane (one read's
walk) and answer every lane with a few whole-array operations: a backward
step is one search of the key array, the LCP minima of a shrink and the
first/last positions of intervals are each one `reduceat` over the LCP or
suffix array, and a shrink's prefix interval is widened by a scan over
LCP windows gathered for many lanes at once (suffix.first_below; its
first window, within which most widenings end, is small enough that one
gather serves hundreds of lanes).  A shrink by a symbol that occurs
nowhere keeps -1 symbols and all rows.  `find_interval` and
`first_last_positions` answer one pattern or interval by calling the
kernels with one lane.
"""
from __future__ import annotations

import io
import json
import os
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .collection import RESERVED, SEP_CODE, Alphabet, SeparatedText
from .digest import BLOCK_SYMBOLS, DigestParams, digest_reads
from .errors import EmptyIntervalError, FormatError, ValidationError
from .suffix import (BLOCK_ROWS, LCP_DTYPES, IndexedSequence, build_suffix_array, first_below,
                     key_dtype, lcp_dtype, reduce_ranges, row_dtype, symbol_dtype)

# what a checksummed header that no writer produced raises on decoding
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, ValidationError)
MAGIC = b"KTK2"
VERSION = 7


@dataclass(frozen=True)
class SaInterval:
    """Inclusive row interval [lo, hi] of the suffix array; empty when hi < lo."""

    lo: int
    hi: int

    @property
    def is_empty(self) -> bool:
        return self.hi < self.lo

    def __len__(self) -> int:
        return max(0, self.hi - self.lo + 1)


EMPTY_INTERVAL = SaInterval(0, -1)


def _layout(text_length: int, alphabet: Alphabet, lcp: str) -> list[list]:
    """[name, dtype, count] of each array the file stores, in file order,
    with the dtype it is held in, the LCP at dtype lcp."""
    rows = text_length + 1
    return [["bwt", symbol_dtype(alphabet.size), rows], ["sa", row_dtype(rows), rows],
            ["lcp", lcp, rows]]


def _packing(rows: int, alphabet: Alphabet) -> list[tuple[int, int]]:
    """(values, bits) of each array of the layout as the file packs it: the
    BWT and the suffix array one value per row, at the bits of their largest
    possible value (sigma - 1 and R - 1), and the LCP as its PLCP bit
    vector, 2R values of one bit."""
    return [(rows, (alphabet.size - 1).bit_length()), (rows, (rows - 1).bit_length()),
            (2 * rows, 1)]


def _packed_bytes(values: int, bits: int) -> int:
    """Bytes of values packed at bits bits each: every 8 values take bits bytes."""
    return -(-values // 8) * bits


def _pack(values: np.ndarray, bits: int) -> np.ndarray:
    """values, each below 2**bits, packed at bits bits each: value i takes
    bits i * bits to (i + 1) * bits - 1 of the bytes, least significant bit
    first, so every 8 values take bits bytes; a last, partial group is
    padded with zeros.  A BLOCK_ROWS block of values at a time, each group
    is assembled in ceil(bits / 8) little-endian 64-bit words."""
    groups = np.zeros((-(-len(values) // 8), bits), dtype=np.uint8)
    step = BLOCK_ROWS // 8
    for first in range(0, len(groups), step):
        block, out = values[8 * first: 8 * (first + step)], groups[first: first + step]
        words = np.zeros((len(out), -(-bits // 8)), dtype="<u8")
        for k in range(8):
            word, shift = divmod(k * bits, 64)
            value = block[k::8].astype("<u8")
            words[:len(value), word] |= value << shift
            if shift + bits > 64:
                words[:len(value), word + 1] |= value >> (64 - shift)
        out[:] = words.view(np.uint8)[:, :bits]
    return groups.ravel()


def _unpack(packed: np.ndarray, bits: int, count: int, dtype: str) -> np.ndarray:
    """The count values _pack packed at bits bits each, in dtype, decoded
    as _pack encodes them; FormatError where the padding is not zero."""
    groups = packed.reshape(-1, bits)
    values = np.empty(count, dtype=dtype)
    mask = np.uint64((1 << bits) - 1)
    step = BLOCK_ROWS // 8
    for first in range(0, len(groups), step):
        block = groups[first: first + step]
        words = np.zeros((len(block), 8 * -(-bits // 8)), dtype=np.uint8)
        words[:, :bits] = block
        words = words.view("<u8")
        for k in range(8):
            word, shift = divmod(k * bits, 64)
            value = words[:, word] >> shift
            if shift + bits > 64:
                value |= words[:, word + 1] << (64 - shift)
            value &= mask
            out = values[8 * first + k: 8 * (first + len(block)): 8]
            out[:] = value[:len(out)]
            if value[len(out):].any():
                raise FormatError("index padding bits are not zero")
    return values


def _plcp_bits(plcp: np.ndarray) -> np.ndarray:
    """The bit vector of a PLCP array of R values, packed as _pack packs
    one-bit values: 2R bits, with a one at PLCP[p] + 2p for every p.  A
    BLOCK_ROWS block of rows at a time, the ones increasing, each block's
    ones are flagged from the byte of its first one to its last."""
    rows = len(plcp)
    bits = np.zeros(_packed_bytes(2 * rows, 1), dtype=np.uint8)
    for start in range(0, rows, BLOCK_ROWS):
        ones = plcp[start: start + BLOCK_ROWS].astype(np.int64)
        ones += np.arange(2 * start, 2 * (start + len(ones)), 2)
        first = int(ones[0]) >> 3
        ones -= 8 * first
        flags = np.zeros(8 * (int(ones[-1]) // 8 + 1), dtype=bool)
        flags[ones] = True
        packed = np.packbits(flags, bitorder="little")
        bits[first: first + len(packed)] |= packed
    return bits


def _plcp_from_bits(bits: np.ndarray, rows: int, dtype: str) -> np.ndarray:
    """The PLCP of rows rows in dtype, decoded from its bit vector
    BLOCK_ROWS / 2 bits (about BLOCK_ROWS / 4 rows) at a time: PLCP[p] is
    the position of the p-th one less 2p.  FormatError unless the vector
    holds one one per row, none before 2p and none that puts PLCP[p] past
    dtype's range, and no pad bit."""
    if (pad := 2 * rows % 8) and bits[-1] >> pad:
        raise FormatError("index padding bits are not zero")
    miscount = FormatError("LCP bit vector does not hold one one per row")
    plcp, top, found = np.empty(rows, dtype=dtype), np.iinfo(dtype).max, 0
    step = BLOCK_ROWS // 16
    for start in range(0, len(bits), step):
        ones = np.flatnonzero(np.unpackbits(bits[start: start + step],
                                            bitorder="little").view(bool))
        if found + len(ones) > rows:
            raise miscount
        ones += 8 * start
        ones -= np.arange(2 * found, 2 * (found + len(ones)), 2)
        if len(ones) and ones.min() < 0:
            raise FormatError("LCP bit vector has a one before position 2p")
        if len(ones) and ones.max() > top:
            raise FormatError("LCP array exceeds the width its header records")
        plcp[found: found + len(ones)] = ones
        found += len(ones)
    if found < rows:
        raise miscount
    return plcp


def _digest_params(provenance: dict, alphabet: Alphabet) -> DigestParams | None:
    """Digest parameters of a digest index, None for a base index."""
    is_digest = provenance.get("mode") in ("digest", "digest-kernel")
    if is_digest != (alphabet.kind == "digest"):
        raise ValidationError("provenance mode disagrees with the alphabet")
    if not is_digest:
        return None
    a, b, m = provenance["hash"]
    params = DigestParams(k=provenance["k"], w=provenance["w"], a=a, b=b, m=m)
    if params.k != alphabet.k:
        raise ValidationError("provenance k disagrees with the alphabet")
    return params


class AugmentedFmIndex:
    def __init__(self, bwt: IndexedSequence, sa: np.ndarray, lcp: np.ndarray,
                 alphabet: Alphabet, provenance: dict, names: list[str]):
        self.bwt = bwt
        self.sa = sa
        self.lcp = lcp
        # the suffixes that start with a separator: the SA rows of K's `$` run
        self.sep_positions = np.sort(sa[bwt.lf(SEP_CODE, 0): bwt.lf(SEP_CODE + 1, 0)])
        self.alphabet = alphabet
        self.provenance = dict(provenance)
        self.digest_params = _digest_params(self.provenance, alphabet)
        self.names = tuple(names)  # of the genomes, in text order
        self.n = len(sa) - 1  # text length, excluding the EOF sentinel

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, st: SeparatedText) -> "AugmentedFmIndex":
        codes = st.codes
        if codes.size == 0:
            raise ValidationError("cannot index an empty text")
        if int(codes.max()) >= st.alphabet.size:
            raise ValidationError("text symbol exceeds the declared alphabet width")
        sa, lcp, bwt = build_suffix_array(codes, st.alphabet.size, st.levels)
        return cls(IndexedSequence(bwt, st.alphabet.size), sa, lcp, st.alphabet, st.provenance,
                   st.names)

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of suffix-array rows (text length + 1 for the sentinel)."""
        return len(self.sa)

    def layout(self) -> list[list]:
        """[name, dtype, count] of each array the file stores, the LCP at
        the width this index holds it in."""
        return _layout(self.n, self.alphabet, lcp_dtype(np.iinfo(self.lcp.dtype).max))

    def encode_reads(self, reads) -> tuple[list, np.ndarray, np.ndarray]:
        """(ids, codes, offsets) of an iterable of (id, read) pairs: the
        reads' query codes laid end to end, read i's at
        codes[offsets[i]:offsets[i + 1]].  This is the one rule that turns a
        read into query codes, by the read's kind alone.  A string against a
        digest index is digested with the index's stored parameters (int32
        codes of its minimizer values), against a raw/kernel index its bases
        are coded (int8, -1 for a symbol that cannot be queried); any other
        sequence holds query symbols, coded by Alphabet.query_codes.  A read
        holding a reserved symbol, or a string holding any non-ACGT symbol
        against a digest index, has no codes and is unclassifiable, like a
        string shorter than one digest window.  The reads are encoded about
        BLOCK_SYMBOLS symbols of one kind at a time and let go."""
        ids, parts, block, size = [], [], [], 0
        for read_id, read in reads:
            text = isinstance(read, str)
            if block and (size >= BLOCK_SYMBOLS or text != isinstance(block[0], str)):
                parts.append(self._encode(block))
                block, size = [], 0
            ids.append(read_id)
            block.append(read)
            size += len(read)
        parts.append(self._encode(block))
        codes, counts = (np.concatenate(arrays) for arrays in zip(*parts))
        return ids, codes, np.concatenate([[0], np.add.accumulate(counts)])

    def _encode(self, reads: list) -> tuple[np.ndarray, np.ndarray]:
        """The query codes of reads of one kind laid end to end, and each
        read's count of them."""
        if self.digest_params is not None and reads and isinstance(reads[0], str):
            return digest_reads(reads, self.digest_params)
        lengths = np.array([len(read) for read in reads], dtype=np.int64)
        codes = self.alphabet.query_codes(reads)
        keep = np.array([not any(symbol in read for symbol in RESERVED) if isinstance(read, str)
                         else all(symbol not in RESERVED for symbol in read) for read in reads],
                        dtype=bool)
        if not keep.all():
            codes = codes[np.repeat(keep, lengths)]
        return codes, lengths * keep

    def find_interval(self, symbols) -> SaInterval:
        """Interval of a pattern, coded as encode_reads codes a read (a digest
        index digests a string): the walk's backward step with one lane from
        all rows, right to left over the codes.  The empty pattern gives the
        full interval, a non-empty one without codes or with a -1 code none."""
        _, codes, _ = self.encode_reads([(0, symbols)])
        if len(symbols) and not codes.size:
            return EMPTY_INTERVAL
        rows = np.array([0, self.rows])
        for code in reversed(codes.tolist()):
            rows = self.bwt.lf(code, rows)
        lo, end = rows.tolist()
        return SaInterval(lo, end - 1) if lo < end else EMPTY_INTERVAL

    def first_last_positions(self, iv: SaInterval) -> tuple[int, int]:
        """Smallest and largest text position in SA[iv], i.e. the first and
        last occurrence of the interval's pattern."""
        if iv.is_empty:
            raise EmptyIntervalError("first_last_positions on an empty interval")
        pmin, pmax = self.first_last(np.array([[iv.lo], [iv.hi + 1]]))
        return int(pmin[0]), int(pmax[0])

    def rank_separators(self, p):
        """Genome holding text position p: the separators before it.
        Elementwise over an array of positions."""
        return self.sep_positions.searchsorted(p)

    def genome_range(self, iv: SaInterval) -> tuple[int, int] | None:
        """(first genome, last genome) of the interval's pattern; None is the
        empty-range marker for an empty interval."""
        if iv.is_empty:
            return None
        pmin, pmax = self.first_last_positions(iv)
        return int(self.rank_separators(pmin)), int(self.rank_separators(pmax))

    # ------------------------------------------------------------------
    # The kernels of the lockstep MEM walk.  Each takes int64 arrays with
    # one column per lane, a lane being one read's walk, and holds a lane's
    # interval as the half-open row range [lo, end), a column of a (2, n)
    # array.  A backward step by codes is then bwt.lf(codes, rows), which
    # is empty where the two rows it gives are equal.
    def shrink(self, codes, rows, length, stepped):
        """The shrink step of lanes whose backward step by codes from their
        rows failed, stepped being that step's rows: per lane, the longest
        prefix of the match (length symbols long) that the code precedes
        somewhere in the text, as (its rows, kept); all rows where kept is
        0, or -1 because the code occurs nowhere in the text.

        The nearest code-rows above and below the rows are the keys before
        and at the two searches of the step, less code * R, if in code's
        run; the LCP minimum between such a row and the rows bounds the
        prefix, whose rows the LCP scan of _widen then finds."""
        (lo, end), (g1, g2), keys, n = rows, stepped, self.bwt.keys, self.rows
        base = codes * n
        above = keys[np.maximum(g1 - 1, 0)] - base
        below = keys[np.minimum(g2, n - 1)] - base
        up = (g1 > 0) & (above >= 0)
        down = (g2 < n) & (below < n)
        minima = reduce_ranges(np.minimum, self.lcp,
                               np.concatenate([above[up] + 1, end[down]]),
                               np.concatenate([lo[up] + 1, below[down] + 1]))
        kept, above_minima = np.full(len(codes), -1), np.count_nonzero(up)
        kept[up] = minima[:above_minima]
        kept[down] = np.maximum(kept[down], minima[above_minima:])
        kept = np.minimum(kept, length)
        rows = rows.copy()
        rows[:, kept <= 0] = [[0], [n]]
        rows[:, kept > 0] = self._widen(rows[:, kept > 0], kept[kept > 0])
        return rows, kept

    def _widen(self, rows, p):
        """Rows of the length-p prefix (p >= 1) shared by the rows [lo, end):
        lo moves to the last row at or above it whose LCP is below p, else
        row 0, and end to the first row at or past it whose LCP is below p,
        else the row count."""
        last = self.rows - 1
        top = last - first_below(self.lcp[::-1], last - rows[0], p)
        return np.maximum(top, 0), first_below(self.lcp, rows[1], p)

    def first_last(self, rows):
        """Smallest and largest text position in SA[lo:end] (non-empty)."""
        return (reduce_ranges(np.minimum, self.sa, *rows),
                reduce_ranges(np.maximum, self.sa, *rows))

    def summary(self) -> dict:
        """The file's header fields; each array's dtype and count as held,
        and its bits per row and bytes as stored; the LCP maximum, the bytes
        of the BWT's key array K (held beside the arrays, not stored) and
        the bytes of the file."""
        packing = _packing(self.rows, self.alphabet)
        return {"version": VERSION, "text_length": self.n,
                "genome_count": len(self.sep_positions), "names": self.names,
                "alphabet": self.alphabet.to_dict(), "provenance": self.provenance,
                "arrays": [{"name": name, "dtype": dtype, "count": count,
                            "bits": values * bits // count, "bytes": _packed_bytes(values, bits)}
                           for (name, dtype, count), (values, bits) in zip(self.layout(), packing)],
                "lcp_max": int(self.lcp.max()), "key_bytes": self.bwt.keys.nbytes,
                "file_bytes": self.size_bytes()}

    # ------------------------------------------------------------------
    def serialize(self, sink) -> int:
        """Write the index to a path (str or os.PathLike) or a binary file:
        the header, its checksum and the packed arrays in the layout's
        order; returns the number of bytes written."""
        if isinstance(sink, (str, os.PathLike)):
            with open(sink, "wb") as f:
                return self.serialize(f)
        head = self._head()
        payload = self._payload()
        crc = zlib.crc32(head)
        for part in payload:
            crc = zlib.crc32(part, crc)
        for part in (head + struct.pack("<I", crc), *payload):
            sink.write(part)
        return len(head) + 4 + sum(part.nbytes for part in payload)

    def _payload(self) -> list[np.ndarray]:
        """The arrays packed as the file stores them: the BWT (from K) and
        the suffix array at their bits, then the PLCP's bit vector, the PLCP
        scattered from the LCP at its width, a block of rows at a time."""
        (_, bwt_bits), (_, sa_bits), _ = _packing(self.rows, self.alphabet)
        payload = [_pack(self.bwt.symbols(symbol_dtype(self.alphabet.size)), bwt_bits),
                   _pack(self.sa, sa_bits)]
        plcp = np.empty_like(self.lcp)
        for start in range(0, self.rows, BLOCK_ROWS):
            plcp[self.sa[start: start + BLOCK_ROWS]] = self.lcp[start: start + BLOCK_ROWS]
        return payload + [_plcp_bits(plcp)]

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self.serialize(buf)
        return buf.getvalue()

    def size_bytes(self) -> int:
        """Bytes serialize() writes, counted without building the payload."""
        return len(self._head()) + 4 + sum(
            _packed_bytes(values, bits) for values, bits in _packing(self.rows, self.alphabet))

    def _head(self) -> bytes:
        """Every byte of the file before the checksum: magic, version,
        header length and the JSON header."""
        meta = {
            "alphabet": self.alphabet.to_dict(),
            "arrays": self.layout(),
            "genome_count": len(self.sep_positions),
            "names": self.names,
            "provenance": self.provenance,
            "text_length": self.n,
        }
        meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        return MAGIC + struct.pack("<II", VERSION, len(meta_bytes)) + meta_bytes


def deserialize(source) -> AugmentedFmIndex:
    """Read an index written by AugmentedFmIndex.serialize() from a path
    (str or os.PathLike), bytes or a binary file; the payload is read into
    one buffer, that of a non-seekable source after reading it whole, and
    let go once the suffix array and the PLCP are decoded from it (the
    packed BWT, copied out, is decoded last, into K's dtype).
    Raises FormatError on bad magic/version, truncation, a checksum
    mismatch over header and payload, a header missing a key, holding a
    wrong type or invalid digest parameters, arrays other than the layout
    that text_length and the alphabet determine (the LCP at one of
    LCP_DTYPES) or a payload of another size, a padding bit set, a BWT
    symbol outside the alphabet, a suffix array that is not a permutation
    of 0..text_length, an LCP bit vector that does not hold one one per row
    or holds one before position 2p, an LCP past the width the header
    records, an LCP entry longer than either of its two suffixes, an LCP
    wider than its maximum needs, a BWT whose LF mapping does not step
    every suffix-array row one text position back, a genome count other
    than the number of the BWT's separators or genome names other than a
    list of that many strings."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            return deserialize(f)
    if isinstance(source, (bytes, bytearray)):
        return deserialize(io.BytesIO(bytes(source)))

    head = source.read(len(MAGIC) + 8)
    if len(head) < len(MAGIC) + 8 or head[: len(MAGIC)] != MAGIC:
        raise FormatError("not a KTK2 index file (bad magic)")
    version, meta_len = struct.unpack("<II", head[len(MAGIC):])
    if version != VERSION:
        raise FormatError(f"unsupported index version {version}")
    meta_bytes = source.read(meta_len)
    crc_bytes = source.read(4)
    if len(meta_bytes) < meta_len or len(crc_bytes) < 4:
        raise FormatError("truncated index header")
    (crc,) = struct.unpack("<I", crc_bytes)
    payload = _read_payload(source)
    if zlib.crc32(payload, zlib.crc32(head + meta_bytes)) != crc:
        raise FormatError("index checksum mismatch")
    try:
        meta = json.loads(meta_bytes)
        # the PLCP is decoded while the payload is held: glibc raises its
        # mmap threshold to the size of a mapping let go, so allocated after
        # the payload's release it would come from the heap and stay
        # resident once let go itself (0.9 MB more peak RSS on raw desk)
        alphabet, packed_bwt, sa, plcp = _unpacked(meta, payload)
        del payload  # before the LCP and K are built
        lcp = np.empty_like(plcp)
        for start in range(0, len(sa), BLOCK_ROWS):
            np.take(plcp, sa[start: start + BLOCK_ROWS], out=lcp[start: start + BLOCK_ROWS])
        del plcp
        # the BWT in K's dtype, which K takes over: no BWT array beside K
        bwt = _unpack(packed_bwt, _packing(len(sa), alphabet)[0][1], len(sa),
                      key_dtype(alphabet.size, len(sa)))
        del packed_bwt
        if bwt.max() >= alphabet.size:
            raise FormatError("BWT holds a symbol outside the alphabet")
        return _decode(meta, alphabet, bwt, sa, lcp)
    except _MALFORMED as e:
        raise FormatError(f"malformed index header: {type(e).__name__}: {e}") from None


def _read_payload(source) -> memoryview:
    """The rest of source, read into one buffer by readinto.  read() would
    join a BufferedReader's buffered bytes with the rest of the file, two
    payload-sized buffers at once (a 3.00 MB tracemalloc peak for the 1.50 MB
    raw desk payload, against 1.50 MB).  A non-seekable source is read
    whole, then copied into the buffer."""
    if not getattr(source, "seekable", lambda: False)():
        source = io.BytesIO(source.read())
    here = source.tell()
    size = source.seek(0, io.SEEK_END) - here
    source.seek(here)
    buf = memoryview(bytearray(size))
    filled = 0
    while filled < size and (got := source.readinto(buf[filled:])):
        filled += got
    return buf[:filled]


def _unpacked(meta: dict, payload) -> tuple:
    """(alphabet, a copy of the packed BWT, suffix array, PLCP at the LCP's
    width) of a payload holding exactly the arrays of _layout at one LCP
    width, packed at the bits of _packing, whose suffix array permutes the rows."""
    n = meta["text_length"]
    if not isinstance(n, int):
        raise ValidationError("text_length is not an integer")
    alphabet = Alphabet.from_dict(meta["alphabet"])
    layout, packing = meta["arrays"], _packing(n + 1, alphabet)
    sizes = [_packed_bytes(values, bits) for values, bits in packing]
    if layout not in [_layout(n, alphabet, width) for width in LCP_DTYPES] \
            or sum(sizes) != len(payload):
        raise FormatError("index arrays disagree with the header's text length and alphabet")
    bwt, sa, bits = (np.frombuffer(payload, dtype=np.uint8, count=size, offset=offset)
                     for size, offset in zip(sizes, accumulate(sizes, initial=0)))
    _, (_, sa_dtype, rows), (_, lcp_width, _) = layout
    sa = _unpack(sa, packing[1][1], rows, sa_dtype)
    # the SA first, so that the LCP's gather and n - SA cannot leave the rows
    seen = np.zeros(rows, dtype=bool)
    if sa.max() <= n:
        seen[sa] = True
    if not seen.all():
        raise FormatError("suffix array is not a permutation of the text positions")
    del seen
    return alphabet, bwt.copy(), sa, _plcp_from_bits(bits, rows, lcp_width)


def _decode(meta: dict, alphabet: Alphabet, bwt, sa, lcp) -> AugmentedFmIndex:
    """The index over the decoded arrays, which must hold LCP values
    bounded by their suffixes and stored at the width lcp_dtype gives their
    maximum, a BWT (in K's dtype, taken over by K) that agrees with the
    suffix array and the header's genome count."""
    if not _lcp_in_bounds(sa, lcp):
        raise FormatError("LCP array exceeds the suffix lengths")
    if np.dtype(lcp_dtype(int(lcp.max()))) != lcp.dtype:
        raise FormatError("LCP array is stored wider than its maximum needs")
    bwt = IndexedSequence(bwt, alphabet.size)
    if not _lf_agrees(sa, bwt.keys):
        raise FormatError("BWT disagrees with the suffix array")
    if not (type(names := meta["names"]) is list and len(names) == meta["genome_count"]
            and all(type(name) is str for name in names)):
        raise FormatError("genome names disagree with the genome count")
    # with LF intact, the SA rows of K's `$` run are the separator positions
    index = AugmentedFmIndex(bwt, sa, lcp, alphabet, meta["provenance"], names)
    if len(index.sep_positions) != meta["genome_count"]:
        raise FormatError("genome count disagrees with the BWT's separators")
    return index


# The load's blocked checks: a block's temporaries are one buffer of the
# suffix array's dtype, reused by every block and computed into in place,
# and, for the BWT, one gather by it; nothing outlives the check.
def _lcp_in_bounds(sa, lcp) -> bool:
    """lcp[0] = 0 and no LCP entry exceeds the shorter of its two suffixes."""
    n = len(sa) - 1
    buffer = np.empty(min(BLOCK_ROWS, n), dtype=sa.dtype)
    for start in range(1, n + 1, BLOCK_ROWS):
        room = buffer[:min(BLOCK_ROWS, n + 1 - start)]
        np.maximum(sa[start - 1: start - 1 + len(room)], sa[start: start + len(room)], out=room)
        if np.any(lcp[start: start + len(room)] > np.subtract(n, room, out=room)):
            return False
    return lcp[0] == 0


def _lf_agrees(sa, keys) -> bool:
    """LF maps row keys[g] mod R to row g, whose suffix starts one earlier:
    sa[keys[g] mod R] = sa[g] + 1 mod R for every row g.  The rows mod R
    are cast down to the suffix array's dtype as they are computed."""
    rows = len(sa)
    buffer = np.empty(min(BLOCK_ROWS, rows), dtype=sa.dtype)
    for start in range(0, rows, BLOCK_ROWS):
        row = buffer[:min(BLOCK_ROWS, rows - start)]
        stepped = sa[np.remainder(keys[start: start + len(row)], rows, out=row, casting="unsafe")]
        np.add(sa[start: start + len(row)], 1, out=row)
        if np.any(stepped != np.remainder(row, rows, out=row)):
            return False
        del stepped  # before the next block's gather
    return True
