"""The augmented FM-index: backward search, suffix-array interval arithmetic,
first/last occurrence extraction and genome ranges.

The index keeps the BWT (with rank/select), the suffix array, the LCP array
and the separator bit sequence of the underlying text; the text itself is
not retained.  The arrays are held as the `KTK2` file stores them: a loaded
index keeps views into the file's payload, read into a buffer that aligns
the arrays after the BWT, and a built one holds the same dtypes.  The only
structure derived on load is the BWT's sorted key array, searched for
every backward step and for the shrink's nearest rows preceded by a symbol.

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
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .collection import RESERVED, SEP_CODE, Alphabet, SeparatedText
from .digest import BLOCK_SYMBOLS, DigestParams, digest_reads
from .errors import EmptyIntervalError, FormatError, ValidationError
from .suffix import (BLOCK_ROWS, IndexedSequence, build_suffix_array, derive_bwt,
                     first_below, reduce_ranges)

# what a checksummed header that no writer produced raises on decoding
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, ValidationError)
MAGIC = b"KTK2"
VERSION = 2


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


def _layout(text_length: int, alphabet: Alphabet) -> list[list]:
    """[name, dtype, count] of each payload array, in file order."""
    rows = text_length + 1
    row_dtype = "<u4" if rows < 2**32 else "<u8"
    bwt_dtype = "u1" if alphabet.size <= 256 else "<u4"
    return [["bwt", bwt_dtype, rows], ["sa", row_dtype, rows],
            ["lcp", row_dtype, rows], ["sep_bits", "u1", (text_length + 7) // 8]]


def _sizes(layout: list[list]) -> list[int]:
    """Bytes of each payload array of a layout."""
    return [count * np.dtype(dtype).itemsize for _, dtype, count in layout]


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
                 sep_positions: np.ndarray, alphabet: Alphabet, provenance: dict):
        self.bwt = bwt
        self.sa = sa
        self.lcp = lcp
        self.sep_positions = np.asarray(sep_positions, dtype=np.int64)
        self.alphabet = alphabet
        self.provenance = dict(provenance)
        self.digest_params = _digest_params(self.provenance, alphabet)
        self.n = len(sa) - 1  # text length, excluding the EOF sentinel

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, st: SeparatedText) -> "AugmentedFmIndex":
        codes = st.codes
        if codes.size == 0:
            raise ValidationError("cannot index an empty text")
        if int(codes.max()) >= st.alphabet.size:
            raise ValidationError("text symbol exceeds the declared alphabet width")
        sa, lcp = build_suffix_array(st.levels)
        dtype = {name: dt for name, dt, _ in _layout(len(codes), st.alphabet)}
        bwt = IndexedSequence(derive_bwt(codes, sa).astype(dtype["bwt"]), st.alphabet.size)
        return cls(bwt, sa.astype(dtype["sa"]), lcp.astype(dtype["lcp"]),
                   st.sep_positions, st.alphabet, st.provenance)

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of suffix-array rows (text length + 1 for the sentinel)."""
        return len(self.sa)

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
        """Interval of a pattern given as a base string or digest values:
        the walk's backward step with one lane, from all rows, right to left
        over the pattern's query codes.  The empty pattern maps to the full
        interval; a symbol outside the query alphabet, whose code of -1
        precedes no row, makes the result empty."""
        rows = np.array([0, self.rows])
        for code in reversed(self.alphabet.query_codes([symbols]).tolist()):
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

    # ------------------------------------------------------------------
    def serialize(self, sink) -> int:
        """Write the index; returns the number of bytes written."""
        if isinstance(sink, str):
            with open(sink, "wb") as f:
                return self.serialize(f)
        head = self._head()
        payload = self._payload()
        head += struct.pack("<I", zlib.crc32(payload, zlib.crc32(head)))
        sink.write(head)
        sink.write(payload)
        return len(head) + len(payload)

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self.serialize(buf)
        return buf.getvalue()

    def size_bytes(self) -> int:
        """Bytes serialize() writes, counted without building the payload."""
        return len(self._head()) + 4 + sum(_sizes(_layout(self.n, self.alphabet)))

    def _head(self) -> bytes:
        """Every byte of the file before the checksum: magic, version,
        header length and the JSON header."""
        meta = {
            "alphabet": self.alphabet.to_dict(),
            "arrays": _layout(self.n, self.alphabet),
            "genome_count": len(self.sep_positions),
            "provenance": self.provenance,
            "text_length": self.n,
        }
        meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        return MAGIC + struct.pack("<II", VERSION, len(meta_bytes)) + meta_bytes

    def _payload(self) -> bytes:
        sep_bits = np.zeros(self.n, dtype=np.uint8)
        sep_bits[self.sep_positions] = 1
        arrays = (self.bwt.symbols, self.sa, self.lcp, np.packbits(sep_bits, bitorder="little"))
        return b"".join(np.asarray(a, dtype=dtype).tobytes()
                        for a, (_, dtype, _) in zip(arrays, _layout(self.n, self.alphabet)))


def deserialize(source) -> AugmentedFmIndex:
    """Read an index written by AugmentedFmIndex.serialize(); raises
    FormatError on bad magic/version, truncation, a checksum mismatch over
    header and payload, a header missing a key, holding a wrong type or
    invalid digest parameters, arrays other than the layout that
    text_length and the alphabet determine, a suffix array that is not a
    permutation of 0..text_length, an LCP entry longer than either of its
    two suffixes, a BWT whose LF mapping does not step every suffix-array
    row one text position back, or separator bits other than the text
    positions of the BWT's separators."""
    if isinstance(source, str):
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
    payload = _read_payload(source, _payload_pad(meta_bytes))
    if zlib.crc32(payload, zlib.crc32(head + meta_bytes)) != crc:
        raise FormatError("index checksum mismatch")
    try:
        return _decode(json.loads(meta_bytes), payload)
    except _MALFORMED as e:
        raise FormatError(f"malformed index header: {type(e).__name__}: {e}") from None


def _payload_pad(meta_bytes: bytes) -> int:
    """Bytes before the payload in its buffer that align the arrays after
    the BWT; 0 for a header that does not parse, which the checks after
    the checksum then reject."""
    try:
        meta = json.loads(meta_bytes)
        n, alphabet = meta["text_length"], Alphabet.from_dict(meta["alphabet"])
    except _MALFORMED:
        return 0
    return -_sizes(_layout(n, alphabet))[0] % 8 if type(n) is int else 0


def _read_payload(source, pad: int) -> memoryview:
    """The rest of source, read into one buffer from byte pad on.  A
    seekable source is read in place; another is read whole, then copied."""
    seekable = getattr(source, "seekable", None)
    if seekable is None or not seekable():
        data = source.read()
        buf = bytearray(pad + len(data))
        buf[pad:] = data
        return memoryview(buf)[pad:]
    here = source.tell()
    size = source.seek(0, io.SEEK_END) - here
    source.seek(here)
    buf = memoryview(bytearray(pad + size))[pad:]
    filled = 0
    while filled < size and (got := source.readinto(buf[filled:])):
        filled += got
    return buf[:filled]


def _decode(meta: dict, payload) -> AugmentedFmIndex:
    """The index over views into payload, which must hold exactly the
    arrays of _layout, with a valid suffix array, bounded LCP values and a
    BWT and separator bits that agree with the suffix array."""
    n = meta["text_length"]
    alphabet = Alphabet.from_dict(meta["alphabet"])
    layout = _layout(n, alphabet)
    sizes = _sizes(layout)
    if meta["arrays"] != layout or sum(sizes) != len(payload):
        raise FormatError("index arrays disagree with the header's text length and alphabet")
    offsets = accumulate(sizes, initial=0)
    bwt, sa, lcp, sep_bits = (np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
                              for (_, dtype, count), offset in zip(layout, offsets))
    sep_positions = np.flatnonzero(np.unpackbits(sep_bits, bitorder="little")[:n])
    if len(sep_positions) != meta["genome_count"]:
        raise FormatError("separator bit count disagrees with header")
    # the SA first, so that n - SA cannot wrap below
    seen = np.zeros(n + 1, dtype=bool)
    if sa.max() <= n:
        seen[sa] = True
    if not seen.all():
        raise FormatError("suffix array is not a permutation of the text positions")
    del seen
    if not _lcp_in_bounds(sa, lcp):
        raise FormatError("LCP array exceeds the suffix lengths")
    bwt = IndexedSequence(bwt, alphabet.size)
    if not _lf_agrees(sa, bwt.keys):
        raise FormatError("BWT disagrees with the suffix array")
    # with LF intact, the SA rows of K's `$` run are the separator positions
    seps = sa[bwt.lf(SEP_CODE, 0): bwt.lf(SEP_CODE + 1, 0)]
    if not np.array_equal(np.sort(seps), sep_positions):
        raise FormatError("separator bits disagree with the BWT")
    return AugmentedFmIndex(bwt, sa, lcp, sep_positions, alphabet, meta["provenance"])


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
