"""Seeded benchmark inputs, made without importing memtax.

The benchmark feeds the program only files written here, so a change to
the program's own read simulator cannot change what is measured.

The collection generator is the one of acceptance criterion 9: each genome
is a uniform random 2.5 kb core repeated to 10 kb, drawn from one
``random.Random(seed)``.  The first 50 genomes of any collection of the
same seed are therefore the desk collection.
"""
from __future__ import annotations

import random

import numpy as np

CORE_LEN = 2500
GENOME_LEN = 10_000
READ_LEN = 200
MUT_RATE = 0.01
N_TAIL_SHARE = 0.01  # the last 1 % of reads carry one N each
SEP = "$"
GAP = "#"

_OTHER = {"A": "CGT", "C": "AGT", "G": "ACT", "T": "ACG"}


def collection(seed: int, genomes: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(genomes):
        core = "".join(rng.choice("ACGT") for _ in range(CORE_LEN))
        out.append((core * 4)[:GENOME_LEN])
    return out


def reads(seed: int, genomes: list[str], count: int) -> list[tuple[str, str, int]]:
    """(read_id, sequence, source genome) triples.  Each read is a uniform
    substring of a uniformly chosen genome with every base substituted by
    another base with probability MUT_RATE.  The read ID ends in
    ``_g<source>``."""
    rng = random.Random(f"reads-{seed}")
    n_tail = max(1, round(count * N_TAIL_SHARE))
    out = []
    for i in range(count):
        g = rng.randrange(len(genomes))
        start = rng.randrange(len(genomes[g]) - READ_LEN + 1)
        chars = list(genomes[g][start: start + READ_LEN])
        for j, c in enumerate(chars):
            if rng.random() < MUT_RATE:
                chars[j] = rng.choice(_OTHER[c])
        if i >= count - n_tail:
            chars[rng.randrange(READ_LEN)] = "N"
        out.append((f"r{i:05d}_g{g}", "".join(chars), g))
    return out


def write_fasta(path, records) -> None:
    with open(path, "w") as f:
        for name, seq in records:
            f.write(f">{name}\n")
            for i in range(0, len(seq), 80):
                f.write(seq[i: i + 80] + "\n")


class BalancedTree:
    """A balanced binary tree over genomes 0..G-1 in leaf order.  Leaf g is
    labelled ``g<g>``; the internal node over genomes [lo, hi) is labelled
    ``n<lo>_<hi>``.  ``parent`` and ``label`` are indexed by node id."""

    def __init__(self, genome_count: int):
        self.parent: list[int] = []
        self.label: list[str] = []
        self.leaf: list[int] = [0] * genome_count
        self.newick = self._add(0, genome_count, -1) + ";"

    def _add(self, lo: int, hi: int, parent: int) -> str:
        node = len(self.parent)
        self.parent.append(parent)
        if hi - lo == 1:
            self.label.append(f"g{lo}")
            self.leaf[lo] = node
            return f"g{lo}"
        self.label.append(f"n{lo}_{hi}")
        mid = (lo + hi) // 2
        left = self._add(lo, mid, node)
        right = self._add(mid, hi, node)
        return f"({left},{right})n{lo}_{hi}"


# --------------------------------------------------------------- digests
def digest(seq: str, k: int, w: int, a: int = 2544, b: int = 3937,
           m: int = 8863) -> list[int]:
    """Winnowed minimizer values of an ACGT string: k-mers are valued base 4
    with the first base least significant, ranked by (a*x + b) mod m, and
    the leftmost minimum of every window of w k-mer starts is marked once."""
    codes = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    digits = np.searchsorted(np.frombuffer(b"ACGT", dtype=np.uint8), codes)
    nk = len(seq) - k + 1
    if nk < w:
        return []
    vals = np.zeros(nk, dtype=np.int64)
    for t in range(k):
        vals += digits[t: t + nk].astype(np.int64) * 4**t
    hashes = (a * vals + b) % m
    windows = np.lib.stride_tricks.sliding_window_view(hashes, w)
    marked = np.arange(nk - w + 1) + np.argmin(windows, axis=1)
    keep = np.ones(len(marked), dtype=bool)
    keep[1:] = marked[1:] != marked[:-1]
    return vals[marked[keep]].tolist()


def separated(parts) -> list:
    """Concatenate per-genome symbol lists with one SEP after each."""
    out: list = []
    for p in parts:
        out.extend(p)
        out.append(SEP)
    return out


def kernel(text: list, k: int) -> list:
    """Order-k first/last-occurrence kernel of a separated symbol list:
    keep the first and last occurrence of every in-genome k-window, collapse
    each omitted run between kept symbols to one GAP and drop omitted runs
    next to a separator or the text start; genomes shorter than k stay."""
    keep = [False] * len(text)
    first: dict[tuple, int] = {}
    last: dict[tuple, int] = {}
    start = 0
    for end, c in enumerate(text):
        if c != SEP:
            continue
        if end - start < k:
            keep[start:end] = [True] * (end - start)
        for i in range(start, end - k + 1):
            win = tuple(text[i: i + k])
            first.setdefault(win, i)
            last[win] = i
        start = end + 1
    for p in list(first.values()) + list(last.values()):
        keep[p: p + k] = [True] * k
    out: list = []
    gap = False
    after_sep = True
    for c, kept in zip(text, keep):
        if c == SEP:
            out.append(c)
            gap, after_sep = False, True
        elif kept:
            if gap and not after_sep:
                out.append(GAP)
            out.append(c)
            gap, after_sep = False, False
        else:
            gap = True
    return out
