"""Minimizer digests of genomes, collections and reads.

A k-mer maps to the integer whose base-4 digits are its bases with A=0,
C=1, G=2, T=3, least significant digit first.  An affine hash
(a*x + b) mod m orders the k-mers inside each window of w consecutive
k-mer starts; the leftmost minimum of every window is marked, and the
digest is the sequence of marked k-mers' values in position order.  The
symbols of a digest are the k-mer values themselves, not their hashes;
the hash only picks the minimizers.  For k = 3 the 64 values render as
the ASCII characters 37..100.

One routine, _minimize, digests many sequences laid end to end, a block
of window starts at a time: a collection's genomes in one call, a block
of read strings in another (digest_reads, which turns reads straight into
the MEM walk's query codes), and a single string for digest_sequence and
digest_with_positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collection import (CODE_OF_BYTE, FIRST_SYMBOL_CODE, MAX_DIGEST_K, SEP_CODE,
                         WILDCARD_CODE, Alphabet, GenomeCollection, SeparatedText)
from .errors import ValidationError

DEFAULT_HASH = (2544, 3937, 8863)
BLOCK_SYMBOLS = 1 << 13  # windows minimized at once; read symbols encoded at once
_DIGIT_OF_BYTE = np.array([c - FIRST_SYMBOL_CODE if FIRST_SYMBOL_CODE <= c < WILDCARD_CODE else -1
                           for c in CODE_OF_BYTE.tolist()], dtype=np.int8)  # -1: not a base


@dataclass(frozen=True)
class DigestParams:
    k: int = 3
    w: int = 10
    a: int = DEFAULT_HASH[0]
    b: int = DEFAULT_HASH[1]
    m: int = DEFAULT_HASH[2]

    def __post_init__(self):
        values = (self.k, self.w, self.a, self.b, self.m)
        if not all(type(v) is int for v in values):
            raise ValidationError(f"digest parameters must be integers, got {values}")
        # k first: 4**k of an unchecked k may not fit in memory; a window's
        # k + w - 1 symbols must fit int64
        if not (1 <= self.k <= MAX_DIGEST_K and 1 <= self.w <= 2**63 - self.k
                and 0 < self.m <= 2**63 // 4**self.k):
            raise ValidationError(f"digest parameters must satisfy 1 <= k <= {MAX_DIGEST_K}, "
                                  "1 <= w <= 2^63 - k, 0 < m <= 2^63 / 4^k")

    @property
    def is_injective_on_kmers(self) -> bool:
        """The hash separates all 4^k values when they fit below m and
        gcd(a, m) = 1; holds for the default (2544 x + 3937) mod 8863."""
        return 4**self.k <= self.m and math.gcd(self.a, self.m) == 1

    def to_provenance(self) -> dict:
        return {"mode": "digest", "k": self.k, "w": self.w,
                "hash": [self.a, self.b, self.m]}


def _digits(s: str) -> np.ndarray:
    """Base-4 digit (code - 3) of every character of s, int8, and -1 for a
    character that is not a base."""
    # one byte per character; anything outside latin-1 becomes '?', a non-base
    return _DIGIT_OF_BYTE[np.frombuffer(s.encode("latin-1", "replace"), dtype=np.uint8)]


def _base_digits(s: str) -> np.ndarray:
    """_digits of a string that must hold bases only."""
    digits = _digits(s)
    bad = np.flatnonzero(digits < 0)
    if bad.size:
        raise ValidationError(f"non-base symbol {s[bad[0]]!r} in sequence")
    return digits


def kmer_value(s: str) -> int:
    """Exact integer value of a k-mer, first character least significant."""
    return sum(d * 4**j for j, d in enumerate(_base_digits(s).tolist()))


def hash_value(params: DigestParams, x: int) -> int:
    return (params.a * x + params.b) % params.m


def _window_argmin(h: np.ndarray, w: int) -> np.ndarray:
    """Index of the leftmost least entry of each window of w consecutive
    entries of h, by doubling: a window's argmin is its left part's unless
    its right part, which may overlap the left, holds a smaller entry."""
    least, where, width = h, np.arange(len(h)), 1
    while width < w:
        step = min(width, w - width)
        right = least[step:] < least[:-step]
        least = np.minimum(least[step:], least[:-step])
        where = np.where(right, where[step:], where[:-step])
        width += step
    return where


def _minimize(digits: np.ndarray, lengths: np.ndarray, params: DigestParams
              ) -> tuple[np.ndarray, np.ndarray]:
    """(values, starts) of the marked minimizers of sequences laid end to
    end, in position order: digits holds the base digits of sequences of
    the given lengths, and a start is a position in digits.  Each window of
    w k-mer starts whose k + w - 1 symbols lie in one sequence marks its
    leftmost least hash, each start once.  The windows are taken
    BLOCK_SYMBOLS at a time, so that every temporary is a few arrays of
    about that many entries."""
    k, w, m = params.k, params.w, params.m
    a, b = params.a % m, params.b % m
    span = k + w - 1  # symbols under one window
    # the windows that fit: the first length - span + 1 of each sequence
    fits = np.maximum(lengths - span + 1, 0)
    fit = np.repeat(np.tile([True, False], len(lengths)),
                    np.column_stack([fits, lengths - fits]).ravel())
    values, starts, last = [], [], -1
    for at in range(0, len(digits) - span + 1, BLOCK_SYMBOLS):
        count = min(BLOCK_SYMBOLS, len(digits) - span + 1 - at)
        kmers = count + w - 1
        # k shifted adds, the last base first: its digit is the most significant
        vals = digits[at + k - 1: at + k - 1 + kmers].astype(np.int64)
        for t in range(k - 2, -1, -1):
            vals <<= 2
            vals += digits[at + t: at + t + kmers]
        # with a and b reduced mod m, every hash operand stays below m * 4^k <= 2^63
        hashes = vals * a
        hashes += b
        hashes %= m
        marked = _window_argmin(hashes, w)[fit[at: at + count]]
        del hashes
        marked = marked[np.diff(marked, prepend=last - at) != 0]
        if marked.size:
            values.append(vals[marked])
            starts.append(marked + at)
            last = int(starts[-1][-1])
    empty = np.empty(0, dtype=np.int64)
    return np.concatenate([empty, *values]), np.concatenate([empty, *starts])


def _one(s: str, params: DigestParams) -> tuple[np.ndarray, np.ndarray]:
    """_minimize of one string, which must hold bases only."""
    return _minimize(_base_digits(s), np.array([len(s)]), params)


def digest_sequence(s: str, params: DigestParams) -> list[int]:
    """Minimizer digest of one string as a list of k-mer values; empty when
    fewer than w k-mers fit."""
    return _one(s, params)[0].tolist()


def digest_with_positions(s: str, params: DigestParams) -> list[tuple[int, int]]:
    """(value, k-mer start) pairs of the marked minimizers, position order."""
    return list(zip(*(a.tolist() for a in _one(s, params))))


def digest_reads(reads: list[str], params: DigestParams) -> tuple[np.ndarray, np.ndarray]:
    """The query codes of read strings laid end to end (FIRST_SYMBOL_CODE
    + value, int32) and the count of each read's.  A read holding a
    non-base symbol, reserved ones included, gets none, as does one that
    is shorter than one window."""
    digits = _digits("".join(reads))
    lengths = np.array([len(r) for r in reads], dtype=np.int64)
    bad = np.flatnonzero(digits < 0)
    if bad.size:
        keep = np.ones(len(reads), dtype=bool)
        keep[np.cumsum(lengths).searchsorted(bad, side="right")] = False
        digits = digits[np.repeat(keep, lengths)]
        lengths *= keep
    values, starts = _minimize(digits, lengths, params)
    values += FIRST_SYMBOL_CODE
    return values.astype(np.int32), np.diff(starts.searchsorted(np.cumsum(lengths)), prepend=0)


class Digest(SeparatedText):
    def values(self) -> list[list[int]]:
        """Per-genome lists of k-mer values (separators stripped)."""
        return [(self.codes[s:e] - FIRST_SYMBOL_CODE).tolist() for s, e in self.genome_spans()]


def digest_collection(collection: GenomeCollection, params: DigestParams) -> Digest:
    """Concatenated per-genome digests, one '$' after each genome, exactly
    parallel to the separated base text: one _minimize over the genomes
    laid end to end."""
    genomes = collection.genomes
    lengths = np.array([len(g) for g in genomes], dtype=np.int64)
    values, starts = _minimize(_base_digits("".join(genomes)), lengths, params)
    values += FIRST_SYMBOL_CODE
    codes = np.insert(values.astype(np.int32), starts.searchsorted(np.cumsum(lengths)), SEP_CODE)
    return Digest(codes, Alphabet(kind="digest", k=params.k), params.to_provenance())


def render_ascii(source) -> str:
    """ASCII form of a digest (k = 3 only): value v is chr(37 + v); '$' and
    '#' render verbatim.  Accepts a Digest/kernelized digest or raw values."""
    if isinstance(source, SeparatedText):
        if source.alphabet.kind != "digest" or source.alphabet.k != 3:
            raise ValidationError("ASCII rendering is defined for k = 3 digests only")
        return source.text()
    vals = [int(v) for v in source]
    if any(not 0 <= v < 64 for v in vals):
        raise ValidationError("ASCII rendering is defined for k = 3 digests only")
    return Alphabet(kind="digest", k=3).render(vals)
