"""The augmented FM-index: backward search, suffix-array interval arithmetic,
first/last occurrence extraction and genome ranges.

The index keeps the BWT (with rank/select), the suffix array and LCP array,
range-min/range-max tables over both, nearest-smaller-value arrays over the
LCP, and the separator bit sequence of the underlying text.  The text itself
is not retained.
"""
from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .collection import FIRST_SYMBOL_CODE, Alphabet, SeparatedText
from .errors import (AbsentSymbolError, EmptyIntervalError, FormatError,
                     ValidationError)
from .suffix import (IndexedSequence, RangeExtremes, build_suffix_array,
                     derive_bwt, next_smaller_values, previous_smaller_values)

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
        self.c_table = np.concatenate(([0], np.cumsum(counts)[:-1])).tolist()
        self._counts = counts.tolist()
        self.rmq_sa = RangeExtremes(self.sa, kinds=("min", "max"))
        self.rmq_lcp = RangeExtremes(self.lcp, kinds=("min",))
        self.psv = previous_smaller_values(self.lcp)
        self.nsv = next_smaller_values(self.lcp)
        self._lcp_list = self.lcp.tolist()
        self._psv_list = self.psv.tolist()
        self._nsv_list = self.nsv.tolist()

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
        pmin = int(self.sa[self.rmq_sa.argmin(iv.lo, iv.hi)])
        pmax = int(self.sa[self.rmq_sa.argmax(iv.lo, iv.hi)])
        return pmin, pmax

    def rank_separators(self, p: int) -> int:
        return int(np.searchsorted(self.sep_positions, p, side="left"))

    def genome_of_position(self, p: int) -> int:
        if not 0 <= p < self.n:
            raise ValidationError(f"position {p} out of range")
        r = self.rank_separators(p)
        if r < len(self.sep_positions) and self.sep_positions[r] == p:
            raise ValidationError(f"position {p} is a separator")
        return r

    def genome_range(self, iv: SaInterval) -> tuple[int, int] | None:
        """(first genome, last genome) of the interval's pattern; None is the
        empty-range marker for an empty interval."""
        if iv.is_empty:
            return None
        pmin, pmax = self.first_last_positions(iv)
        return self.rank_separators(pmin), self.rank_separators(pmax)

    # ------------------------------------------------------------------
    def _prefix_interval(self, row: int, hi: int, p: int) -> SaInterval:
        """Interval of the length-p prefix of the suffix at `row`, expanded
        with nearest-smaller-value hops over the LCP; rows row..hi are known
        to share that prefix already."""
        if p == 0:
            return self.full_interval()
        lcp, psv, nsv = self._lcp_list, self._psv_list, self._nsv_list
        a = row
        while lcp[a] >= p:
            a = psv[a]
            if a < 0:
                a = 0
                break
        nrows = self.rows
        cur = hi + 1
        while cur < nrows and lcp[cur] >= p:
            cur = nsv[cur]
        return SaInterval(a, cur - 1)

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
            shared = int(self.lcp[self.rmq_lcp.argmin(j1 + 1, iv.lo)])
            best = max(best, min(length, shared))
        idx = int(np.searchsorted(pos, iv.hi + 1, side="left"))
        if idx < len(pos):
            j2 = int(pos[idx])  # nearest code-row below the interval
            shared = int(self.lcp[self.rmq_lcp.argmin(iv.hi + 1, j2)])
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
    header and payload, or a header missing a key or holding a wrong type."""
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

    alphabet = Alphabet.from_dict(meta["alphabet"])
    n = meta["text_length"]
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
