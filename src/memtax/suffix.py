"""Suffix-array machinery backing the augmented FM-index.

All structures are plain (uncompressed) arrays: a suffix array and LCP
array of length n+1 (one row for the implicit end-of-file sentinel, code 0,
smaller than every text symbol), built from prefix-doubling rank levels
held as int32 (each ranked by one packed in-place sort of int64 keys,
sort_keys) and held by the index in the file's fixed-width dtypes, and one
sorted key array over the BWT in which a single search answers LF, rank
and the C table.  A text's levels come from one lazily advanced pass
(DoublingLevels), shared by its suffix array and its kernels.  The pass
starts at a seed level, ranked by one sort of packed symbol words (8
base symbols of 3 bits, 4 k = 3 digest symbols of 7 bits, in an int32
word); the LCP takes its part below the seed's length from the XOR of two
such words, and a level below the seed is sorted on demand.  Two
scans over such an array answer many lanes at once: reduce_ranges (a min
or max over each of many row ranges) and first_below (the first row past
each origin whose value is below a bound, in windows of _SCAN_ROWS rows
and wider).  RangeExtremes, a sparse table for range-min / range-max
positions, serves the LCA over a tree's Euler tour.
"""
from __future__ import annotations

import numpy as np

from .collection import EOF_CODE

# rows per block of the passes that would otherwise copy a row-sized int64 array
BLOCK_ROWS = 1 << 16
# first_below's first window per lane, which most LCP widenings of the MEM
# walk end within, and the most rows one of its gathers copies
_SCAN_ROWS, _GATHER_ROWS = 64, 1 << 14


def sort_keys(keys, bound: int):
    """(order, keys[order]) for int64 keys in [0, bound): an order that
    sorts them, with the sorted keys.  When the bit width of bound plus
    that of a row index fits in 63 bits, one in-place sort of
    keys << b | row gives both, unpacked by a mask and a shift; the keys
    are then overwritten, so callers pass an array they no longer need.
    Otherwise an argsort.  Equal keys come in no promised order.
    """
    b = max(len(keys) - 1, 0).bit_length()
    if (int(bound) - 1).bit_length() + b > 63:
        order = np.argsort(keys)
        return order, keys[order]
    keys <<= b
    keys |= np.arange(len(keys))
    keys.sort()
    order = keys & ((1 << b) - 1)
    keys >>= b
    return order, keys


def symbol_bits(codes) -> int:
    """Bits of one packed symbol: ceil(log2 sigma) for codes in [0, max]."""
    return max(int(np.max(codes, initial=EOF_CODE)).bit_length(), 1)


def seed_level(bits: int, rows: int) -> int:
    """The level a doubling pass starts at, its seed: the largest j such
    that 2**j symbols of bits bits each fit 31 bits (an int32 word) and,
    with the bits of a row index below rows, 63 bits (sort_keys' packed
    sort); 0 when no two symbols fit."""
    room = min(31, 63 - (rows - 1).bit_length())
    return max((room // bits).bit_length() - 1, 0)


def _text(codes, dtype=np.int64) -> np.ndarray:
    """codes + EOF sentinel, checked."""
    text = np.append(np.asarray(codes, dtype=dtype), EOF_CODE)
    if text.size == 1:
        raise ValueError("text must be non-empty")
    if text[:-1].min() <= EOF_CODE:
        raise ValueError("text codes must be greater than the EOF code")
    return text


def _packed_words(text, j: int, bits: int) -> np.ndarray:
    """The 2**j symbols from every row of text as one word of the text's
    dtype, bits bits per symbol, the first in the high bits; past the
    sentinel the symbols are code 0, so a word's order is its prefix's.
    At j = 0 the words are text itself."""
    for m in (1 << i for i in range(j)):
        shifted = text << (bits * m)
        shifted[:-m] |= text[m:]
        text = shifted
    return text


def prefix_doubling_ranks(codes):
    """Yield, for h = 2**s, 2**(s+1), ..., the rank of the length-h prefix
    of every suffix of codes + EOF sentinel (dense, in the prefixes' sorted
    order): ranks[i] == ranks[j] iff the two prefixes are equal.  s is the
    seed_level of the codes' symbol_bits.  A prefix that reaches the unique
    sentinel is itself unique.  Stops after the first all-distinct level,
    which is then the inverse suffix array.  The levels are int32 below
    2**31 rows (every rank is below the row count), else int64; the sort
    keys are int64.
    """
    text = _text(codes)
    bits = symbol_bits(text)
    return _doubling(text, seed_level(bits, len(text)), bits)


def _doubling(text, j: int, bits: int):
    """Levels j, j+1, ... of text (codes + sentinel, int64, overwritten).

    Manber & Myers prefix doubling, seeded by packed words.  Each level
    sorts its keys with sort_keys (level j the words of 2**j symbols, then
    rank * d + next_rank over the d ranks of the level before), and the
    dense ranks are the running count of key changes along the sorted keys,
    scattered back by the order.  Between levels the pass holds only the
    level it last yielded.
    """
    n = len(text)
    dtype = np.int32 if n < 1 << 31 else np.int64
    key, bound = _packed_words(text, j, bits), 1 << (bits << j)
    del text
    while True:
        order, key = sort_keys(key, bound)
        change = np.empty(n, dtype=bool)
        change[0] = False
        np.not_equal(key[1:], key[:-1], out=change[1:])
        del key  # the ranks take the level's dtype: no int64 beside them
        dense = np.cumsum(change, dtype=dtype)
        distinct = int(dense[-1]) + 1
        rank = np.empty(n, dtype=dtype)
        rank[order] = dense
        del order, dense, change
        yield rank
        if distinct == n:
            return
        # a suffix starting in the last h rows reaches the sentinel, so its
        # rank is unique already and needs no second half
        h = 1 << j
        key = rank.astype(np.int64)
        key *= distinct
        key[: n - h] += rank[h:]
        bound = distinct * distinct
        j += 1


# every level number a text can reach: its rows are below 2**63
ALL_LEVELS = range(64)


class DoublingLevels:
    """The prefix-doubling levels of one text, from one lazily advanced
    prefix_doubling_ranks pass shared by everything built from the text:
    its suffix array takes every level from the pass's seed, a kernel of
    order k the level of length 2**floor(log2 k).  A level below the seed
    (only a kernel of order below 2**seed asks for one) comes from its own
    sort of packed words, outside the pass.

    A level outlives the pass moving on, and trim, only while its number is
    in keep (a container of level numbers, ALL_LEVELS for every one; empty
    by default, so that a consumer holds just what it uses).  Asking for a
    level that was let go starts the pass again.
    """

    def __init__(self, codes):
        self.codes = codes
        self.bits = symbol_bits(codes)
        self.seed = seed_level(self.bits, len(codes) + 1)
        self.keep = ()
        self.last: int | None = None  # the all-distinct level, once reached
        self._pass = None
        self._next = self.seed  # the level the current pass yields next
        self._held: dict[int, np.ndarray] = {}

    def __getitem__(self, j: int) -> np.ndarray:
        """Level j (prefixes of length 2**j), or the last level when the
        pass ends before j: its ranks are all distinct already."""
        if self.last is not None:
            j = min(j, self.last)
        if j in self._held:
            return self._held[j]
        if j < self.seed:
            rank = next(_doubling(_text(self.codes), j, self.bits))
            if self._keeps(j):
                self._held[j] = rank
            return rank
        if self._pass is None or j < self._next:
            self._pass, self._next = prefix_doubling_ranks(self.codes), self.seed
        while True:
            i, rank = self._next, next(self._pass)
            self._next += 1
            if not self._keeps(i - 1):
                self._held.pop(i - 1, None)
            self._held[i] = rank
            if rank.size == int(rank.max()) + 1:
                self.last, self._pass = i, None
            if i == j or i == self.last:
                return rank

    def from_seed(self) -> list[np.ndarray]:
        """Every level of the pass: the seed to the last."""
        out = [self[self.seed]]
        while self.last is None or self.seed + len(out) <= self.last:
            out.append(self[self.seed + len(out)])
        return out

    def trim(self) -> None:
        """Let go of every level not in keep, and of the pass once keep
        wants no level it has yet to yield."""
        self._held = {i: rank for i, rank in self._held.items() if self._keeps(i)}
        if max(self.keep, default=-1) < self._next:
            self._pass = None

    def _keeps(self, i: int) -> bool:
        # the last level also serves every level past it
        return i in self.keep or (i == self.last and max(self.keep, default=-1) > i)


def build_suffix_array(codes) -> tuple[np.ndarray, np.ndarray]:
    """Suffix array and LCP array of codes with the implicit EOF sentinel
    appended, both int64 of length len(codes) + 1.  codes may also be the
    DoublingLevels of the text, whose levels are then taken and shared.

    sa[0] is always the sentinel position len(codes); lcp[0] = 0 and lcp[i]
    is the longest common prefix of the suffixes at rows i-1 and i.  Its
    multiple of W = 2**seed comes from binary lifting over the levels from
    the longest down to the seed, a block of rows at a time, each level let
    go once lifted (unless the DoublingLevels keeps it).  Its rest, below
    W, is the count of equal leading symbols of the two suffixes' next
    packed words, which the bit length of their XOR gives.
    """
    levels = codes if isinstance(codes, DoublingLevels) else DoublingLevels(codes)
    ranks = levels.from_seed()
    levels.trim()
    inverse = ranks.pop()
    n = len(inverse)
    sa = np.empty(n, dtype=np.int64)
    for start in range(0, n, BLOCK_ROWS):
        sa[inverse[start: start + BLOCK_ROWS]] = np.arange(start, min(start + BLOCK_ROWS, n))
    del inverse
    lcp = np.zeros(n, dtype=np.int64)
    # the last level is all-distinct, so every lcp is below its length
    while ranks:
        j, rank = levels.seed + len(ranks) - 1, ranks.pop()
        for prev, cur, h in _adjacent_rows(sa, lcp):
            h += (rank[prev + h] == rank[cur + h]) << j
        del rank
    if levels.seed:
        # the levels are gone, so the int32 words add no peak; two suffixes
        # differ within W symbols of their lifted lcp, at or before the sentinel
        words = _packed_words(_text(levels.codes, np.int32), levels.seed, levels.bits)
        width = levels.bits << levels.seed
        for prev, cur, h in _adjacent_rows(sa, lcp):
            h += (width - np.frexp(words[prev + h] ^ words[cur + h])[1]) // levels.bits
    return sa, lcp


def _adjacent_rows(sa, lcp):
    """(sa[i-1], sa[i], lcp[i]) for rows i >= 1, as views a block of rows at
    a time."""
    for start in range(1, len(sa), BLOCK_ROWS):
        cur = sa[start: start + BLOCK_ROWS]
        yield sa[start - 1: start - 1 + len(cur)], cur, lcp[start: start + len(cur)]


def derive_bwt(codes, sa: np.ndarray) -> np.ndarray:
    """BWT over codes + sentinel: bwt[i] = text[sa[i]-1], EOF when sa[i] = 0."""
    s = np.empty(len(sa), dtype=np.int32)
    s[:-1] = np.asarray(codes, dtype=np.int32)
    s[-1] = EOF_CODE
    return s[(np.asarray(sa) - 1) % len(s)]


class IndexedSequence:
    """A symbol sequence with per-symbol rank and select, held as one sorted
    key array: keys = symbols[order] * R + order for R rows and the stable
    sort order, so a search for c*R + i counts the rows holding a smaller
    symbol plus the occurrences of c before i, the FM-index's LF(c, i) =
    C[c] + rank(c, i).  Each symbol's run of keys, less c*R, is its
    increasing position list; nothing is sized by the alphabet.
    """

    def __init__(self, symbols: np.ndarray, alphabet_size: int):
        symbols = np.asarray(symbols)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= alphabet_size):
            raise ValueError("symbol out of declared alphabet range")
        self.symbols = symbols
        self.rows = len(symbols)
        # in place, a block at a time: no second row-sized int64 array, and
        # no int64 block either, as a block's rows wait in their narrowest
        # dtype while the block is overwritten by its symbols times R
        self.keys = np.argsort(symbols, kind="stable").astype(np.int64, copy=False)
        order = np.empty(min(BLOCK_ROWS, self.rows), dtype=np.min_scalar_type(self.rows))
        for start in range(0, self.rows, BLOCK_ROWS):
            block = self.keys[start: start + BLOCK_ROWS]
            rows = order[:len(block)]
            np.copyto(rows, block, casting="unsafe")
            np.multiply(symbols[block], np.int64(self.rows), out=block)
            block += rows

    def __len__(self) -> int:
        return self.rows

    def access(self, i: int) -> int:
        return int(self.symbols[i])

    def lf(self, c, i):
        """C[c] + rank(c, i): rows holding a smaller symbol, plus the
        occurrences of c in symbols[0..i).  Elementwise over int64 arrays
        of c and i, with one search for them all; many keys are searched
        in sorted order (by sort_keys), which keeps the search near the rows
        it last read."""
        keys = c * self.rows + i
        if np.size(keys) < 64:
            return self.keys.searchsorted(keys)
        # a key below or past every key of K finds what K's bounds find, so
        # clamped to them the keys fit sort_keys; a -1 code's keys become 0
        top = int(self.keys[-1]) + 1
        order, ordered = sort_keys(np.clip(keys.ravel(), 0, top), top + 1)
        out = np.empty_like(order)
        out[order] = self.keys.searchsorted(ordered)
        return out.reshape(keys.shape)

    def count(self, c: int) -> int:
        return int(self.lf(c + 1, 0) - self.lf(c, 0))

    def rank(self, c: int, i: int) -> int:
        """Occurrences of c in symbols[0..i)."""
        return int(self.lf(c, i) - self.lf(c, 0))

    def select(self, c: int, j: int) -> int:
        """Position of the j-th (0-based) occurrence of c."""
        if not 0 <= j < self.count(c):
            raise IndexError(f"select({c}, {j}) out of range")
        return int(self.keys[self.lf(c, 0) + j]) - c * self.rows


def reduce_ranges(ufunc, values, starts, stops):
    """ufunc reduced over values[starts[k]:stops[k]] for every k, each range
    non-empty, with one reduceat.  Ranges covering at most 1/64 of the rows
    in all are gathered end to end first.  Longer ones are reduced in place,
    in descending order of start, so that the segment from one range's
    stop to the next range's start is a single row; that reduceat still
    runs on from the last range to the highest stop.  A stop at
    len(values) is cut to the last row, which is folded in afterwards,
    because reduceat takes no index past the end."""
    if not len(starts):
        return np.empty(0, dtype=values.dtype)
    lengths = stops - starts
    if 64 * (total := int(lengths.sum())) <= len(values):
        offsets = np.add.accumulate(lengths) - lengths
        rows = np.repeat(starts - offsets, lengths)
        rows += np.arange(total)
        return ufunc.reduceat(values[rows], offsets)
    order = np.argsort(starts, kind="stable")[::-1]
    last = len(values) - 1
    bounds = np.empty(2 * len(order), dtype=np.intp)
    bounds[0::2] = starts[order]
    bounds[1::2] = np.minimum(stops[order], last)
    out = np.empty(len(order), dtype=values.dtype)
    out[order] = ufunc.reduceat(values[: bounds.max() + 1], bounds)[0::2]
    cut = stops > last
    out[cut] = ufunc(out[cut], values[last])
    return out


def first_below(values, origins, bounds):
    """Per lane, the first row x >= origins[k] with values[x] < bounds[k],
    else len(values).  Each lane scans a window of _SCAN_ROWS rows, then
    windows 8 times wider up to _GATHER_ROWS, so the cost follows the
    distance scanned; one gather copies at most _GATHER_ROWS rows."""
    n = len(values)
    found = np.full(len(origins), n, dtype=np.int64)
    start = np.array(origins, dtype=np.int64)
    bounds = np.asarray(bounds).astype(values.dtype)  # no upcast of the windows
    todo, width = np.flatnonzero(start < n), _SCAN_ROWS
    while todo.size:
        w = min(width, n)
        # only read, yet not made read-only: that flag's setter, like
        # np.cumsum, calls a method by a name string made afresh per call,
        # which Python's type cache may keep, so a walk's traced peak would
        # vary from run to run (np.add.accumulate calls none)
        windows = np.lib.stride_tricks.as_strided(values, (n - w + 1, w), values.strides * 2)
        per_gather = max(1, _GATHER_ROWS // w)
        for k in range(0, len(todo), per_gather):
            group = todo[k: k + per_gather]
            # a window past the last row moves back and skips the rows before start
            first = np.minimum(start[group], n - w)
            hit = windows[first] < bounds[group, None]
            if (back := first < start[group]).any():
                hit[back] &= np.arange(w) >= (start[group] - first)[back, None]
            col = hit.argmax(axis=1)
            ok = hit[np.arange(len(group)), col]
            found[group[ok]] = first[ok] + col[ok]
            start[group] = first + w
        todo = todo[(found[todo] == n) & (start[todo] < n)]
        width = min(8 * width, _GATHER_ROWS)
    return found


class RangeExtremes:
    """Sparse-table RMQ giving the leftmost position of the minimum and/or
    maximum over any inclusive range of a fixed array."""

    def __init__(self, values, kinds=("min", "max")):
        self.values = np.asarray(values)
        n = len(self.values)
        if n == 0:
            raise ValueError("cannot index an empty array")
        self._tables: dict[str, list[np.ndarray]] = {}
        for kind in kinds:
            base = np.arange(n, dtype=np.int64)
            levels = [base]
            j = 1
            while (1 << j) <= n:
                half = 1 << (j - 1)
                prev = levels[-1]
                a = prev[: n - (1 << j) + 1]
                b = prev[half: half + len(a)]
                if kind == "min":
                    take_b = self.values[b] < self.values[a]
                else:
                    take_b = self.values[b] > self.values[a]
                levels.append(np.where(take_b, b, a))
                j += 1
            self._tables[kind] = levels

    def position(self, lo: int, hi: int, kind: str = "min") -> int:
        """Leftmost position attaining the extreme over [lo, hi] inclusive."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if not (0 <= lo and hi < len(self.values)):
            raise ValueError(f"range [{lo}, {hi}] out of bounds")
        levels = self._tables[kind]
        j = (hi - lo + 1).bit_length() - 1
        a = int(levels[j][lo])
        b = int(levels[j][hi - (1 << j) + 1])
        va, vb = self.values[a], self.values[b]
        if kind == "min":
            return b if vb < va else a
        return b if vb > va else a

    def argmin(self, lo: int, hi: int) -> int:
        return self.position(lo, hi, "min")

    def argmax(self, lo: int, hi: int) -> int:
        return self.position(lo, hi, "max")
