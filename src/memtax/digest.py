"""Minimizer digests of genomes, collections and reads.

A k-mer maps to the integer whose base-4 digits are its bases with A=0,
C=1, G=2, T=3, least significant digit first.  An affine hash
(a*x + b) mod m orders the k-mers inside each window of w consecutive
k-mer starts; the leftmost minimum of every window is marked, and the
digest is the sequence of marked k-mers' values in position order.  The
symbols of a digest are the k-mer values themselves, not their hashes;
the hash only picks the minimizers.  For k = 3 the 64 values render as
the ASCII characters 37..100.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .collection import (CODE_OF_BYTE, FIRST_SYMBOL_CODE, MAX_DIGEST_K, SEP_CODE,
                         Alphabet, GenomeCollection, SeparatedText)
from .errors import ValidationError

DEFAULT_HASH = (2544, 3937, 8863)


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
        # k first: 4**k of an unchecked k may not fit in memory
        if not (1 <= self.k <= MAX_DIGEST_K and self.w >= 1 and 0 < self.m <= 2**63 // 4**self.k):
            raise ValidationError(f"digest parameters must satisfy 1 <= k <= {MAX_DIGEST_K}, "
                                  "w >= 1, 0 < m <= 2^63 / 4^k")

    @property
    def is_injective_on_kmers(self) -> bool:
        """The hash separates all 4^k values when they fit below m and
        gcd(a, m) = 1; holds for the default (2544 x + 3937) mod 8863."""
        return 4**self.k <= self.m and math.gcd(self.a, self.m) == 1

    def to_provenance(self) -> dict:
        return {"mode": "digest", "k": self.k, "w": self.w,
                "hash": [self.a, self.b, self.m]}


def _digits(s: str) -> np.ndarray:
    """Base-4 digit (code - 3) of every character of s, int32."""
    # one byte per character; anything outside latin-1 becomes '?', a non-base
    digits = CODE_OF_BYTE[np.frombuffer(s.encode("latin-1", "replace"), dtype=np.uint8)]
    digits -= FIRST_SYMBOL_CODE
    bad = np.flatnonzero((digits < 0) | (digits > 3))
    if bad.size:
        raise ValidationError(f"non-base symbol {s[bad[0]]!r} in sequence")
    return digits


def kmer_value(s: str) -> int:
    """Exact integer value of a k-mer, first character least significant."""
    return sum(d * 4**j for j, d in enumerate(_digits(s).tolist()))


def hash_value(params: DigestParams, x: int) -> int:
    return (params.a * x + params.b) % params.m


def _kmer_values(s: str, k: int) -> np.ndarray:
    digits = _digits(s).astype(np.int64)
    nk = len(s) - k + 1
    vals = np.zeros(nk, dtype=np.int64)
    for t in range(k):
        vals += digits[t: t + nk] * 4**t
    return vals


def _minimizers(s: str, params: DigestParams) -> tuple[np.ndarray, np.ndarray]:
    """(values, k-mer starts) of the marked minimizers in position order:
    the leftmost least hash of every window of w k-mer starts, each start
    marked once."""
    k, w = params.k, params.w
    nk = len(s) - k + 1
    if nk < w:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    vals = _kmer_values(s, k)
    # with a and b reduced mod m, every hash operand stays below m * 4^k <= 2^63
    hashes = (params.a % params.m * vals + params.b % params.m) % params.m
    marked = np.arange(nk - w + 1) + sliding_window_view(hashes, w).argmin(axis=1)
    marked = marked[np.append(True, marked[1:] != marked[:-1])]
    return vals[marked], marked


def digest_sequence(s: str, params: DigestParams) -> list[int]:
    """Minimizer digest of one string as a list of k-mer values; empty when
    fewer than w k-mers fit."""
    return _minimizers(s, params)[0].tolist()


def digest_with_positions(s: str, params: DigestParams) -> list[tuple[int, int]]:
    """(value, k-mer start) pairs of the marked minimizers, position order."""
    return list(zip(*(a.tolist() for a in _minimizers(s, params))))


class Digest(SeparatedText):
    def values(self) -> list[list[int]]:
        """Per-genome lists of k-mer values (separators stripped)."""
        return [(self.codes[s:e] - FIRST_SYMBOL_CODE).tolist() for s, e in self.genome_spans()]


def digest_collection(collection: GenomeCollection, params: DigestParams) -> Digest:
    """Concatenated per-genome digests, one '$' after each genome, exactly
    parallel to the separated base text."""
    alphabet = Alphabet(kind="digest", k=params.k)
    parts = []
    for g in collection.genomes:
        parts += [_minimizers(g, params)[0] + FIRST_SYMBOL_CODE, [SEP_CODE]]
    return Digest(np.concatenate(parts).astype(np.int32), alphabet, params.to_provenance())


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
