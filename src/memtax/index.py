"""The augmented FM-index: backward search, suffix-array interval arithmetic,
first/last occurrence extraction and genome ranges.

The index keeps the BWT (with rank/select), the suffix array, the LCP array
and the separator bit sequence of the underlying text; the text itself is
not retained.  Interval queries (first/last occurrence, the shrink step of
the MEM walk) read slices of the suffix array and LCP array directly, so
no structure beyond the arrays of the file is derived on load except the
BWT posting lists and the C table.
"""
from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .collection import FIRST_SYMBOL_CODE, Alphabet, SeparatedText
from .digest import DigestParams, digest_sequence
from .errors import (AbsentSymbolError, EmptyIntervalError, FormatError,
                     ValidationError)
from .suffix import IndexedSequence, build_suffix_array, derive_bwt

MAGIC = b"KTK2"
VERSION = 2
# rows of the first LCP window a prefix-interval scan reads on each side;
# every further window is 8 times larger
_SCAN_ROWS = 1024


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


class AugmentedFmIndex:
    def __init__(self, bwt: IndexedSequence, sa: np.ndarray, lcp: np.ndarray,
                 sep_positions: np.ndarray, alphabet: Alphabet, provenance: dict):
        self.bwt = bwt
        self.sa = np.asarray(sa, dtype=np.int64)
        self.lcp = np.asarray(lcp, dtype=np.int64)
        self.sep_positions = np.asarray(sep_positions, dtype=np.int64)
        self.alphabet = alphabet
        self.provenance = dict(provenance)
        self.n = len(sa) - 1  # text length, excluding the EOF sentinel
        counts = bwt.symbol_counts()
        # C[c] = number of symbols in text+EOF strictly smaller than c
        self.c_table = tuple(np.concatenate(([0], np.cumsum(counts)[:-1])).tolist())
        self._counts = tuple(counts.tolist())

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, st: SeparatedText) -> "AugmentedFmIndex":
        codes = st.codes
        if codes.size == 0:
            raise ValidationError("cannot index an empty text")
        if int(codes.max()) >= st.alphabet.size:
            raise ValidationError("text symbol exceeds the declared alphabet width")
        sa, lcp = build_suffix_array(codes)
        bwt = IndexedSequence(derive_bwt(codes, sa), st.alphabet.size)
        return cls(bwt, sa, lcp, st.sep_positions, st.alphabet, st.provenance)

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of suffix-array rows (text length + 1 for the sentinel)."""
        return len(self.sa)

    def full_interval(self) -> SaInterval:
        return SaInterval(0, self.rows - 1)

    def symbol_count(self, code: int) -> int:
        if 0 <= code < self.bwt.alphabet_size:
            return self._counts[code]
        return 0

    def is_query_code(self, code: int) -> bool:
        """Separators, EOF and the wildcard are never legal query symbols."""
        if not FIRST_SYMBOL_CODE <= code < self.bwt.alphabet_size:
            return False
        if self.alphabet.kind == "bases" and code == self.bwt.alphabet_size - 1:
            return False  # wildcard
        return True

    def query_symbols(self, sequence: str):
        """The symbols a read is queried with: the base string itself against
        raw/kernel indexes, its minimizer values (digested with the index's
        stored parameters) against digest indexes.  A read holding a reserved
        symbol, or one that cannot be digested because it holds a non-ACGT
        symbol, gives no symbols and is unclassifiable, like a read shorter
        than one digest window."""
        if "$" in sequence or "#" in sequence:
            return []
        prov = self.provenance
        if prov.get("mode") not in ("digest", "digest-kernel"):
            return sequence
        a, b, m = prov["hash"]
        try:
            return digest_sequence(sequence, DigestParams(k=prov["k"], w=prov["w"],
                                                          a=a, b=b, m=m))
        except ValidationError:
            return []

    def backward_step(self, iv: SaInterval, code: int) -> SaInterval | None:
        """Interval of code-prefixed extensions; None when code is not a
        legal query symbol (distinct from the empty interval)."""
        if not self.is_query_code(code):
            return None
        lo = self.c_table[code] + self.bwt.rank(code, iv.lo)
        hi = self.c_table[code] + self.bwt.rank(code, iv.hi + 1) - 1
        if hi < lo:
            return EMPTY_INTERVAL
        return SaInterval(lo, hi)

    def find_interval(self, symbols) -> SaInterval:
        """Interval of a pattern given as a base string or digest values.
        The empty pattern maps to the full interval; symbols outside the
        query alphabet make the result empty."""
        iv = self.full_interval()
        for sym in reversed(list(symbols)):
            code = self.alphabet.encode_query(sym)
            if code is None:
                return EMPTY_INTERVAL
            iv = self.backward_step(iv, code)
            if iv is None or iv.is_empty:
                return EMPTY_INTERVAL
        return iv

    def first_last_positions(self, iv: SaInterval) -> tuple[int, int]:
        """Smallest and largest text position in SA[iv], i.e. the first and
        last occurrence of the interval's pattern."""
        if iv.is_empty:
            raise EmptyIntervalError("first_last_positions on an empty interval")
        rows = self.sa[iv.lo: iv.hi + 1]
        return int(rows.min()), int(rows.max())

    def rank_separators(self, p: int) -> int:
        return int(np.searchsorted(self.sep_positions, p, side="left"))

    def genome_range(self, iv: SaInterval) -> tuple[int, int] | None:
        """(first genome, last genome) of the interval's pattern; None is the
        empty-range marker for an empty interval."""
        if iv.is_empty:
            return None
        pmin, pmax = self.first_last_positions(iv)
        return self.rank_separators(pmin), self.rank_separators(pmax)

    # ------------------------------------------------------------------
    def _prefix_interval(self, lo: int, hi: int, p: int) -> SaInterval:
        """Interval of the length-p prefix shared by rows lo..hi: widened to
        the nearest rows outside whose LCP is below p.  Each side is scanned
        in windows growing 8-fold, so the cost follows the interval's size;
        the scan ends at row 0 and at the last row by its own bounds."""
        if p == 0:
            return self.full_interval()
        lcp = self.lcp
        # lo: the last row at or above lo whose LCP is below p, else row 0
        end, width, lo = lo + 1, _SCAN_ROWS, 0
        while end > 0:
            start = max(0, end - width)
            below = (lcp[start:end] < p)[::-1]
            i = int(below.argmax())
            if below[i]:
                lo = end - 1 - i
                break
            end, width = start, width * 8
        # hi: the row before the first row below hi whose LCP is below p,
        # else the last row
        nrows = self.rows
        start, width, hi = hi + 1, _SCAN_ROWS, nrows - 1
        while start < nrows:
            stop = min(nrows, start + width)
            below = lcp[start:stop] < p
            i = int(below.argmax())
            if below[i]:
                hi = start + i - 1
                break
            start, width = stop, width * 8
        return SaInterval(lo, hi)

    def shrink_to_extendable(self, iv: SaInterval, length: int, code: int
                             ) -> tuple[SaInterval, int]:
        """Longest prefix of the current match that is preceded by `code`
        somewhere in the text, with its interval.

        Preconditions: iv is a non-empty interval of suffixes sharing the
        current match of the given length, and backward_step(iv, code) was
        empty.  Raises AbsentSymbolError when the symbol occurs nowhere in
        the text, which tells the caller to reset instead.
        """
        if iv.is_empty:
            raise EmptyIntervalError("shrink_to_extendable on an empty interval")
        pos = self.bwt.positions(code)
        if len(pos) == 0:
            raise AbsentSymbolError(f"symbol code {code} does not occur in the text")
        best = -1
        r = int(np.searchsorted(pos, iv.lo, side="left"))
        if r > 0:
            j1 = int(pos[r - 1])  # nearest code-row above the interval
            shared = int(self.lcp[j1 + 1: iv.lo + 1].min())
            best = max(best, min(length, shared))
        idx = int(np.searchsorted(pos, iv.hi + 1, side="left"))
        if idx < len(pos):
            j2 = int(pos[idx])  # nearest code-row below the interval
            shared = int(self.lcp[iv.hi + 1: j2 + 1].min())
            best = max(best, min(length, shared))
        if best < 0:
            # unreachable when the precondition holds: code occurs in the
            # BWT but only inside iv, contradicting the failed backward step
            raise AbsentSymbolError(f"symbol code {code} not extendable")
        return self._prefix_interval(iv.lo, iv.hi, best), best

    # ------------------------------------------------------------------
    def separator_bits(self) -> np.ndarray:
        bits = np.zeros(self.n, dtype=np.uint8)
        bits[self.sep_positions] = 1
        return bits

    def serialize(self, sink) -> int:
        """Write the index; returns the number of bytes written."""
        if isinstance(sink, str):
            with open(sink, "wb") as f:
                return self.serialize(f)
        payload, arrays_meta = self._payload()
        meta = {
            "alphabet": self.alphabet.to_dict(),
            "arrays": arrays_meta,
            "genome_count": len(self.sep_positions),
            "provenance": self.provenance,
            "text_length": self.n,
        }
        meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        head = MAGIC + struct.pack("<II", VERSION, len(meta_bytes)) + meta_bytes
        head += struct.pack("<I", zlib.crc32(payload, zlib.crc32(head)))
        sink.write(head)
        sink.write(payload)
        return len(head) + len(payload)

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self.serialize(buf)
        return buf.getvalue()

    def _payload(self) -> tuple[bytes, list]:
        sa_dtype = "<u4" if self.rows < 2**32 else "<u8"
        bwt_dtype = "u1" if self.bwt.alphabet_size <= 256 else "<u4"
        bits = np.packbits(self.separator_bits(), bitorder="little")
        arrays = [
            ("bwt", bwt_dtype, self.bwt.symbols.astype(bwt_dtype)),
            ("sa", sa_dtype, self.sa.astype(sa_dtype)),
            ("lcp", sa_dtype, self.lcp.astype(sa_dtype)),
            ("sep_bits", "u1", bits),
        ]
        payload = b"".join(a.tobytes() for _, _, a in arrays)
        meta = [[name, dtype, len(a)] for name, dtype, a in arrays]
        return payload, meta


def deserialize(source) -> AugmentedFmIndex:
    """Read an index written by AugmentedFmIndex.serialize(); raises
    FormatError on bad magic/version, truncation, a checksum mismatch over
    header and payload, a header missing a key or holding a wrong type, or
    arrays other than bwt, sa and lcp of text_length + 1 entries each plus
    the packed separator bits."""
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
    payload = source.read()
    if zlib.crc32(payload, zlib.crc32(head + meta_bytes)) != crc:
        raise FormatError("index checksum mismatch")
    try:
        return _decode(json.loads(meta_bytes), payload)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise FormatError(f"malformed index header: {type(e).__name__}: {e}") from None


def _decode(meta: dict, payload: bytes) -> AugmentedFmIndex:
    arrays = {}
    offset = 0
    for name, dtype, count in meta["arrays"]:
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(payload):
            raise FormatError("truncated index payload")
        arrays[name] = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        offset += nbytes
    if offset != len(payload):
        raise FormatError("trailing bytes in index payload")

    n = meta["text_length"]
    layout = {"bwt": n + 1, "sa": n + 1, "lcp": n + 1, "sep_bits": (n + 7) // 8}
    if len(meta["arrays"]) != len(layout) or \
            {name: len(a) for name, a in arrays.items()} != layout:
        raise FormatError("index arrays disagree with the header's text length")
    alphabet = Alphabet.from_dict(meta["alphabet"])
    bits = np.unpackbits(arrays["sep_bits"], bitorder="little")[:n]
    sep_positions = np.flatnonzero(bits).astype(np.int64)
    if len(sep_positions) != meta["genome_count"]:
        raise FormatError("separator bit count disagrees with header")
    bwt = IndexedSequence(arrays["bwt"].astype(np.int32), alphabet.size)
    return AugmentedFmIndex(
        bwt,
        arrays["sa"].astype(np.int64),
        arrays["lcp"].astype(np.int64),
        sep_positions,
        alphabet,
        meta["provenance"],
    )
