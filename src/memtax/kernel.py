"""Order-k_max string kernels of separated texts.

The kernel keeps, for every distinct k_max-length window that fits inside a
single genome, the characters of that window's first and last occurrence in
the whole text, plus every separator.  Each maximal omitted run strictly
between two kept ordinary symbols collapses to one '#'; omitted runs
adjacent to a separator (or to the start of the text) are deleted outright,
since queries never contain separators.  Genomes shorter than k_max hold no
window at all and are kept verbatim, preserving the k-mer guarantee for
every k up to k_max.

Works unchanged on base texts and on minimizer digests: both are integer
code sequences with the same separator codes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collection import FIRST_SYMBOL_CODE, HASH_CODE, SEP_CODE, SeparatedText
from .errors import ValidationError
from .suffix import BLOCK_ROWS, doubling_levels, sort_keys


@dataclass(frozen=True)
class KernelParams:
    k_max: int

    def __post_init__(self):
        if self.k_max < 1:
            raise ValidationError("k_max must be at least 1")
        if self.k_max > 2**63 - 1:  # the window arithmetic is int64
            raise ValidationError("k_max must be at most 2^63 - 1")


def doubling_level(k_max: int) -> int:
    """The prefix-doubling level a kernel of order k_max identifies its
    windows by: that of the longest power-of-two length not above k_max."""
    return k_max.bit_length() - 1


def build_katka_kernel(st: SeparatedText, params: KernelParams) -> SeparatedText:
    k = params.k_max
    # symbols after the last separator belong to no genome and are dropped
    codes = st.codes[: st.sep_positions[-1] + 1] if len(st.sep_positions) else st.codes[:0]
    n = len(codes)
    genome_len = np.diff(st.sep_positions, prepend=-1) - 1
    windows = np.maximum(genome_len - (k - 1), 0)
    keep = np.repeat(windows == 0, genome_len + 1)  # genomes too short for a window stay

    # every window [i, i+k) inside one genome, identified by the ranks of its
    # two overlapping power-of-two halves in the whole text's levels (no
    # window reaches the symbols dropped above); when doubling stops short
    # of k, the last level's ranks are all distinct already
    if windows.any():
        j = doubling_level(k)
        rank = st.levels.pop(j) if j in st.levels else doubling_levels(st.codes, {j})[j]
        rows = len(rank)
        # each genome's window starts, counted up from its first
        dtype = np.int32 if n < 1 << 31 else np.int64
        firsts = (st.sep_positions - genome_len)[windows > 0]
        counts = windows[windows > 0]
        starts = np.repeat((firsts - (np.add.accumulate(counts) - counts)).astype(dtype), counts)
        starts += np.arange(len(starts), dtype=dtype)
        # int64 ids (int32 ranks: rank * rows would wrap), a block at a time
        ids = np.empty(len(starts), dtype=np.int64)
        for start in range(0, len(starts), BLOCK_ROWS):
            block, at = ids[start: start + BLOCK_ROWS], starts[start: start + BLOCK_ROWS]
            block[:] = rank[at]
            block *= rows
            block += rank[at + (k - (1 << j))]
        del rank, block, at  # the views too, or they would hold ids and starts
        # each window's starts together, in no promised order
        grouped, ids = sort_keys(ids, rows * rows, starts)
        del starts
        change = np.empty(len(ids), dtype=bool)
        change[0] = True
        np.not_equal(ids[1:], ids[:-1], out=change[1:])
        del ids
        groups = np.flatnonzero(change)
        del change
        kept = np.concatenate((np.minimum.reduceat(grouped, groups),  # first and last starts
                               np.maximum.reduceat(grouped, groups)))
        del grouped, groups
        # a symbol is covered when the furthest end of a kept window
        # starting at or before it lies past it
        ends = np.zeros(n, dtype=dtype)
        ends[kept] = kept + k
        del kept
        np.maximum.accumulate(ends, out=ends)
        keep |= ends > np.arange(n, dtype=dtype)
        del ends  # none of the window arrays is held through the emit

    # emit kept symbols and separators; one '#' per omitted run between two
    # kept ordinary symbols, nothing for runs next to a separator
    at = np.flatnonzero(keep | (codes == SEP_CODE))
    out = codes[at]
    gap = (np.diff(at) > 1) & (out[:-1] != SEP_CODE) & (out[1:] != SEP_CODE)
    out = np.insert(out, np.flatnonzero(gap) + 1, HASH_CODE)
    mode = "digest-kernel" if st.alphabet.kind == "digest" else "kernel"
    return SeparatedText(out, st.alphabet, {**st.provenance, "mode": mode, "k_max": k}, st.names)


def kernel_size_report(kernel: SeparatedText) -> tuple[int, int, int]:
    """(kept ordinary symbols, '#' count, '$' count) of a kernel text."""
    codes = kernel.codes
    hashes = int(np.count_nonzero(codes == HASH_CODE))
    seps = int(np.count_nonzero(codes == SEP_CODE))
    kept = int(np.count_nonzero(codes >= FIRST_SYMBOL_CODE))
    return kept, hashes, seps
