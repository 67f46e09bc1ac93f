"""Suffix-array machinery backing the augmented FM-index.

All structures are plain (uncompressed) arrays: an int64 suffix array and
LCP array of length n+1 (one row for the implicit end-of-file sentinel,
code 0, smaller than every text symbol), and per-symbol sorted position
lists giving rank/select on the BWT.  RangeExtremes, a sparse table for
range-min / range-max positions, serves the LCA over a tree's Euler tour.
"""
from __future__ import annotations

import numpy as np

from .collection import EOF_CODE


def prefix_doubling_ranks(codes):
    """Yield, for h = 1, 2, 4, ..., the rank of the length-h prefix of every
    suffix of codes + EOF sentinel (int64, dense, in the prefixes' sorted
    order): ranks[i] == ranks[j] iff the two prefixes are equal.  A prefix
    that reaches the unique sentinel is itself unique.  Stops after the
    first all-distinct level, which is then the inverse suffix array.

    Manber & Myers prefix doubling with one sort per round; dense ranks keep
    the round key rank * (n+1) + next_rank in int64 for any alphabet.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size == 0:
        raise ValueError("text must be non-empty")
    if codes.min() <= EOF_CODE:
        raise ValueError("text codes must be greater than the EOF code")
    s = np.append(codes, EOF_CODE)
    n = len(s)
    distinct, rank = np.unique(s, return_inverse=True)
    h = 1
    while True:
        yield rank
        if len(distinct) == n:
            return
        key = rank * (n + 1)
        key[: n - h] += rank[h:] + 1
        distinct, rank = np.unique(key, return_inverse=True)
        h *= 2


def build_suffix_array(codes) -> tuple[np.ndarray, np.ndarray]:
    """Suffix array and LCP array of codes with the implicit EOF sentinel
    appended, both int64 of length len(codes) + 1.

    sa[0] is always the sentinel position len(codes); lcp[0] = 0 and lcp[i]
    is the longest common prefix of the suffixes at rows i-1 and i, found by
    binary lifting over the prefix-doubling levels.
    """
    levels = list(prefix_doubling_ranks(codes))
    n = len(levels[-1])
    sa = np.empty(n, dtype=np.int64)
    sa[levels[-1]] = np.arange(n)
    lcp = np.zeros(n, dtype=np.int64)
    prev, cur, h = sa[:-1], sa[1:], lcp[1:]
    # the last level is all-distinct, so every lcp is below its length
    for j in range(len(levels) - 2, -1, -1):
        h += (levels[j][prev + h] == levels[j][cur + h]) << j
    return sa, lcp


def derive_bwt(codes, sa: np.ndarray) -> np.ndarray:
    """BWT over codes + sentinel: bwt[i] = text[sa[i]-1], EOF when sa[i] = 0."""
    s = np.empty(len(sa), dtype=np.int32)
    s[:-1] = np.asarray(codes, dtype=np.int32)
    s[-1] = EOF_CODE
    return s[(np.asarray(sa) - 1) % len(s)]


class IndexedSequence:
    """A symbol sequence with per-symbol rank and select.

    Rank/select are served from one sorted position list per symbol, the
    sparse equivalent of one indicator bit sequence per alphabet symbol.
    """

    def __init__(self, symbols: np.ndarray, alphabet_size: int):
        symbols = np.asarray(symbols, dtype=np.int32)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= alphabet_size):
            raise ValueError("symbol out of declared alphabet range")
        self.symbols = symbols
        self.alphabet_size = alphabet_size
        order = np.argsort(symbols, kind="stable")
        uniq, starts = np.unique(symbols[order], return_index=True)
        bounds = np.append(starts, len(symbols))
        self._positions: dict[int, np.ndarray] = {
            int(u): np.sort(order[bounds[i]: bounds[i + 1]]).astype(np.int64)
            for i, u in enumerate(uniq)
        }
        self._empty = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.symbols)

    def access(self, i: int) -> int:
        return int(self.symbols[i])

    def positions(self, c: int) -> np.ndarray:
        return self._positions.get(c, self._empty)

    def count(self, c: int) -> int:
        return len(self.positions(c))

    def rank(self, c: int, i: int) -> int:
        """Occurrences of c in symbols[0..i)."""
        return int(np.searchsorted(self.positions(c), i, side="left"))

    def select(self, c: int, j: int) -> int:
        """Position of the j-th (0-based) occurrence of c."""
        pos = self.positions(c)
        if not 0 <= j < len(pos):
            raise IndexError(f"select({c}, {j}) out of range")
        return int(pos[j])

    def symbol_counts(self) -> np.ndarray:
        out = np.zeros(self.alphabet_size, dtype=np.int64)
        for c, pos in self._positions.items():
            out[c] = len(pos)
        return out


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
