"""Genome collection ingestion and the separated concatenation.

Index texts are integer code arrays over a small alphabet.  Three codes are
reserved in every alphabet and sort below all ordinary symbols:

    0  end-of-file sentinel (implicit, appended by the suffix sorter)
    1  '#'  gap marker inserted by kernelization
    2  '$'  genome separator

Ordinary symbols start at code 3: A,C,G,T(,N wildcard) for base texts, and
the 4^k minimizer values for digest texts.  Using one shared layout lets the
kernelizer and the FM-index treat base texts and digests identically.

This module alone states the layout's rules: the one byte <-> code table,
the query codes, the reserved read symbols and how codes are displayed.
"""
from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from typing import Iterable

import numpy as np

from .errors import FormatError, ValidationError

EOF_CODE = 0
HASH_CODE = 1
SEP_CODE = 2
FIRST_SYMBOL_CODE = 3
# largest digest k-mer length: the codes 3 .. 4^k + 2 must fit int32
MAX_DIGEST_K = 15

BASES = "ACGT"
WILDCARD = "N"
WILDCARD_CODE = FIRST_SYMBOL_CODE + len(BASES)
RESERVED = ("$", "#")  # read symbols never queried; a tuple, so digest values test too
_BASE_SYMBOL_OF_CODE = np.frombuffer(("\x00#$" + BASES + WILDCARD).encode(), dtype=np.uint8)
CODE_OF_BYTE = np.full(256, -1, dtype=np.int32)  # its inverse; NUL and unlisted bytes -> -1
CODE_OF_BYTE[_BASE_SYMBOL_OF_CODE[HASH_CODE:]] = np.arange(HASH_CODE, WILDCARD_CODE + 1)
_DROP_BASES = str.maketrans("", "", BASES)
# a..z -> A..Z and nothing else: str.upper would turn "ß" into "SS"
_FOLD = {c: c - 32 for c in range(ord("a"), ord("z") + 1)}
# the query code of each byte of a base read (the bases in either case), -1
# elsewhere; made from a list, as numpy's loops would add resident pages
_QUERY_CODE_OF_BYTE = np.array([code if FIRST_SYMBOL_CODE <= code < WILDCARD_CODE else -1
                                for code in CODE_OF_BYTE.tolist()], dtype=np.int8)
_QUERY_CODE_OF_BYTE[list(_FOLD)] = _QUERY_CODE_OF_BYTE[list(_FOLD.values())]
_FORMATS = ("fasta", "lines")  # genome and read file formats


@dataclass(frozen=True)
class Alphabet:
    """Describes the symbol set of one index text.

    kind "bases": codes 3..6 are A,C,G,T and 7 is the N wildcard (present in
    the text only under lenient parsing; it is never a legal query symbol).
    kind "digest": codes 3..4^k+2 are the k-mer integer values.
    """

    kind: str  # "bases" | "digest"
    k: int = 0  # minimizer width, digest kind only

    def __post_init__(self):
        digest_k = type(self.k) is int and 1 <= self.k <= MAX_DIGEST_K
        if not (self.kind == "bases" and self.k == 0 or self.kind == "digest" and digest_k):
            raise ValidationError(f"unknown alphabet {self.kind!r} with k={self.k!r}")

    @property
    def size(self) -> int:
        return WILDCARD_CODE + 1 if self.kind == "bases" else FIRST_SYMBOL_CODE + 4**self.k

    def query_codes(self, reads) -> np.ndarray:
        """The query code of every symbol of reads laid end to end, -1 for a
        symbol that cannot be queried (separators, the wildcard and anything
        outside the declared symbol set): int8 for bases, ASCII letters in
        either case (a character outside ASCII encodes as one byte, '?'),
        int32 for digest values, where only an integer v in [0, 4^k) is
        queryable, as v + 3.  Each item of a read that is not a string is
        one symbol; as a base, only a one-character string can be queried."""
        if self.kind == "bases":
            text = "".join(r if isinstance(r, str) else
                           "".join(s if isinstance(s, str) and len(s) == 1 else "?" for s in r)
                           for r in reads)
            return _QUERY_CODE_OF_BYTE[np.frombuffer(text.encode("ascii", "replace"), np.uint8)]
        end = 4**self.k
        return np.array([FIRST_SYMBOL_CODE + int(v) if isinstance(v, Integral) and 0 <= v < end
                         else -1 for v in chain.from_iterable(reads)], dtype=np.int32)

    def render(self, codes) -> str:
        """Display form of a run of codes, of a text or of a read.  Base and
        reserved codes show as the bytes CODE_OF_BYTE codes ('#', '$'; -1, a
        symbol that cannot be queried, as N).  A k = 3 digest code c shows
        as chr(34 + c): value v at chr(37 + v), '#' at 35 and '$' at 36.
        Any other digest shows its values, '#' and '$' joined by '-'."""
        codes = np.asarray(codes, dtype=np.int64)
        if self.kind == "bases":
            return _BASE_SYMBOL_OF_CODE[codes].tobytes().decode("ascii")
        if self.k == 3:
            return (codes + 34).astype(np.uint8).tobytes().decode("ascii")
        return "-".join(str(c - FIRST_SYMBOL_CODE) if c >= FIRST_SYMBOL_CODE
                        else chr(_BASE_SYMBOL_OF_CODE[c]) for c in codes.tolist())

    def to_dict(self) -> dict:
        return {"kind": self.kind, "k": self.k}

    @classmethod
    def from_dict(cls, d: dict) -> "Alphabet":
        return cls(kind=d["kind"], k=d["k"])


BASE_ALPHABET = Alphabet(kind="bases")


@dataclass
class GenomeCollection:
    """Ordered genomes over {A,C,G,T} (plus N under lenient parsing)."""

    genomes: list[str]
    names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.genomes:
            raise ValidationError("empty collection")
        self.names = _genome_names(self.names or None, len(self.genomes))
        for i, g in enumerate(self.genomes):
            if not g:
                raise ValidationError(f"genome {self.names[i]!r} is empty")

    @property
    def genome_count(self) -> int:
        return len(self.genomes)

    @property
    def n(self) -> int:
        """Total concatenation length including one separator per genome."""
        return sum(len(g) for g in self.genomes) + len(self.genomes)


def _genome_names(names, count: int) -> list[str]:
    """names, or g0, g1, ... for None, checked to be count distinct names."""
    names = [f"g{i}" for i in range(count)] if names is None else list(names)
    if len(names) != count:
        raise ValidationError("names/genomes length mismatch")
    if len(set(names)) < count:
        first = next(name for name, copies in Counter(names).items() if copies > 1)
        raise ValidationError(f"duplicate genome name {first!r}")
    return names


class SeparatedText:
    """The indexable concatenation genome0 $ genome1 $ ... with the sorted
    positions of its separators and the names of its genomes."""

    def __init__(self, codes: np.ndarray, alphabet: Alphabet, provenance: dict | None = None,
                 names: list[str] | None = None):
        self.codes = np.asarray(codes, dtype=np.int32)
        self.alphabet = alphabet
        self.provenance = provenance or {"mode": "raw"}
        self.sep_positions = np.flatnonzero(self.codes == SEP_CODE).astype(np.int64)
        self.names = _genome_names(names, len(self.sep_positions))
        # doubling levels of the codes (suffix.doubling_levels) handed to the
        # next build from this text, which pops the one it takes
        self.levels: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def genome_count(self) -> int:
        return len(self.sep_positions)

    def text(self) -> str:
        """Human-readable rendering, separators included (Alphabet.render)."""
        return self.alphabet.render(self.codes)


def encode_bases(seq: str) -> np.ndarray:
    """Codes of an ASCII string by CODE_OF_BYTE ('$' and '#' too; -1 for any other byte)."""
    return CODE_OF_BYTE[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]


def separate(collection: GenomeCollection) -> SeparatedText:
    """Concatenate the genomes with one '$' after each, coded by CODE_OF_BYTE."""
    codes = encode_bases("$".join(collection.genomes) + "$")
    return SeparatedText(codes, BASE_ALPHABET, {"mode": "raw"}, collection.names)


def _clean_sequence(raw: str, name: str, allow_wildcard: bool) -> str:
    seq = raw.translate(_FOLD)
    for ch in (*RESERVED, "\x00"):
        if ch in seq:
            raise ValidationError(f"reserved symbol {ch!r} in genome {name!r}")
    bad = seq.translate(_DROP_BASES)  # the non-ACGT symbols, in order
    if bad and not allow_wildcard:
        raise ValidationError(
            f"genome {name!r} contains non-ACGT symbol {bad[0]!r} (use allow_wildcard to map it to N)")
    return "".join(c if c in BASES else WILDCARD for c in seq) if bad else seq


def parse_collection(source, fmt: str = "fasta", allow_wildcard: bool = False) -> GenomeCollection:
    """Read a genome collection from a path (str or os.PathLike) or a text
    file object; in-memory text is read through io.StringIO.

    fmt "fasta" expects '>'-headed records; fmt "lines" one genome per line.
    ASCII letters are case-folded; non-ACGT characters are rejected unless
    allow_wildcard is set, in which case they become the N wildcard which
    participates in the text but never matches a query symbol.
    """
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown collection format {fmt!r}")
    names: list[str] = []
    genomes: list[str] = []
    for name, seq, _ in _records(source, fmt):
        if fmt == "lines":
            name = f"g{len(names)}"
        elif name is None:
            raise ValidationError("FASTA input does not start with a '>' header")
        elif not name:
            raise ValidationError("malformed FASTA header (empty name)")
        genomes.append(_clean_sequence(seq, name, allow_wildcard))
        names.append(name)
    if not genomes:
        raise ValidationError("no genomes in input")
    return GenomeCollection(genomes=genomes, names=names)


def iter_reads(source, fmt: str = "fasta") -> Iterable[tuple[str, str]]:
    """Yield (read_id, sequence) pairs from a path (str or os.PathLike) or a
    text file object.  ASCII letters are case-folded, so a read keeps its
    length; nothing else is validated here.  A symbol outside the query
    alphabet (N, say) matches nowhere against a raw/kernel index, but a
    read holding a reserved symbol, or against a digest index any non-ACGT
    symbol, is unclassifiable (AugmentedFmIndex.encode_reads).  A read
    without a name is read<i>, i its record number (its line number in
    "lines")."""
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown reads format {fmt!r}")
    for name, seq, number in _records(source, fmt):
        yield name or f"read{number}", seq.translate(_FOLD)


@contextmanager
def open_text(path):
    """The UTF-8 text file at path, opened for reading; a byte sequence that
    does not decode ends in FormatError instead of UnicodeDecodeError."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise FormatError(f"{os.fspath(path)} is not a text file ({e})") from None


def _records(source, fmt: str):
    """Yield (name, sequence, number) per record of a path or a text file
    object, lines stripped and blank lines skipped.  FASTA: the name is the
    first word of the header ('' for a bare '>'), sequence lines before the
    first header form a nameless record (name None), and records count from
    0.  "lines": each line is a nameless record numbered by its index."""
    if isinstance(source, (str, os.PathLike)):
        with open_text(source) as f:
            yield from _records(f, fmt)
        return
    name, seq, number = None, None, -1
    for i, line in enumerate(source):
        line = line.strip()
        if not line:
            continue
        if fmt == "lines":
            yield None, line, i
        elif line.startswith(">"):
            if seq is not None:
                yield name, "".join(seq), number
            name, seq, number = (line[1:].split() or [""])[0], [], number + 1
        else:
            if seq is None:  # sequence before the first header
                seq, number = [], number + 1
            seq.append(line)
    if seq is not None:
        yield name, "".join(seq), number
