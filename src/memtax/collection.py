"""Genome collection ingestion and the separated concatenation.

Index texts are integer code arrays over a small alphabet.  Three codes are
reserved in every alphabet and sort below all ordinary symbols:

    0  end-of-file sentinel (implicit, appended by the suffix sorter)
    1  '#'  gap marker inserted by kernelization
    2  '$'  genome separator

Ordinary symbols start at code 3: A,C,G,T(,N wildcard) for base texts, and
the 4^k minimizer values for digest texts.  Using one shared layout lets the
kernelizer and the FM-index treat base texts and digests identically.

This module alone states the layout's rules: the byte -> code table, the
query codes, the reserved read symbols and how symbols are displayed.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
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
CODE_OF_BYTE = np.full(256, -1, dtype=np.int32)  # A,C,G,T -> 3..6, N -> wildcard, else -1
CODE_OF_BYTE[[ord(c) for c in BASES + WILDCARD]] = np.arange(FIRST_SYMBOL_CODE, WILDCARD_CODE + 1)
_DROP_BASES = str.maketrans("", "", BASES)
# a..z -> A..Z and nothing else: str.upper would turn "ß" into "SS"
_FOLD = {c: c - 32 for c in range(ord("a"), ord("z") + 1)}
_BASE_SYMBOL_OF_CODE = np.frombuffer(("\x00#$" + BASES + WILDCARD).encode(), dtype=np.uint8)
_ASCII_RENDER_BASE = 37  # digest value v displays as chr(37 + v) when k == 3
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
        # one past the last query code, fixed here: is_query_code runs once per
        # chunk of reads walked and once per pattern found
        query_end = WILDCARD_CODE if self.kind == "bases" else FIRST_SYMBOL_CODE + 4**self.k
        object.__setattr__(self, "_query_end", query_end)

    @property
    def size(self) -> int:
        return self._query_end + (self.kind == "bases")  # + wildcard

    def is_query_code(self, code):
        """Separators, EOF, the wildcard and codes past the alphabet are
        never legal query symbols.  Elementwise over an array of codes."""
        return (FIRST_SYMBOL_CODE <= code) & (code < self._query_end)

    def query_codes(self, reads) -> np.ndarray:
        """The query code of every symbol of reads laid end to end, -1 for a
        symbol that cannot be queried (separators, the wildcard and anything
        outside the declared symbol set): int8 for bases (a character
        outside ASCII encodes as one byte, '?'), int32 for digest values,
        where only an integer v in [0, 4^k) is queryable, as v + 3.  Each
        item of a read that is not a string is one symbol; as a base, only
        a one-character string can be queried."""
        if self.kind == "bases":
            table = np.where(self.is_query_code(CODE_OF_BYTE), CODE_OF_BYTE, -1).astype(np.int8)
            text = "".join(r if isinstance(r, str) else
                           "".join(s if isinstance(s, str) and len(s) == 1 else "?" for s in r)
                           for r in reads)
            return table[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
        end = 4**self.k
        return np.array([FIRST_SYMBOL_CODE + int(v) if isinstance(v, Integral) and 0 <= v < end
                         else -1 for v in chain.from_iterable(reads)], dtype=np.int32)

    def symbols(self, codes):
        """The query symbols of query codes, the inverse of query_codes: a
        base string (a code of -1 shows as the wildcard), or a list of
        digest values."""
        if self.kind == "bases":
            return _BASE_SYMBOL_OF_CODE[codes].tobytes().decode("ascii")
        return (np.asarray(codes) - FIRST_SYMBOL_CODE).tolist()

    def render(self, symbols) -> str:
        """Display form of a run of symbols: bases verbatim; digest values as
        chr(37 + v) when k == 3, else as numbers joined by '-'."""
        if self.kind == "bases":
            return "".join(symbols)
        if self.k == 3:
            return "".join(chr(_ASCII_RENDER_BASE + int(v)) for v in symbols)
        return "-".join(str(int(v)) for v in symbols)

    def decode(self, code: int) -> str:
        """Display form of one code (separators render verbatim)."""
        if code < FIRST_SYMBOL_CODE:
            return "\x00#$"[code]  # EOF, HASH_CODE, SEP_CODE
        v = code - FIRST_SYMBOL_CODE
        return self.render((BASES + WILDCARD)[v] if self.kind == "bases" else [v])

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
        if not self.names:
            self.names = [f"g{i}" for i in range(len(self.genomes))]
        if len(self.names) != len(self.genomes):
            raise ValidationError("names/genomes length mismatch")
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


class SeparatedText:
    """The indexable concatenation genome0 $ genome1 $ ... with the sorted
    positions of its separators."""

    def __init__(self, codes: np.ndarray, alphabet: Alphabet, provenance: dict | None = None):
        self.codes = np.asarray(codes, dtype=np.int32)
        self.alphabet = alphabet
        self.provenance = provenance or {"mode": "raw"}
        self.sep_positions = np.flatnonzero(self.codes == SEP_CODE).astype(np.int64)

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def levels(self):
        """The prefix-doubling levels of the codes (suffix.DoublingLevels),
        one lazily advanced pass shared by every structure built from this
        text: its suffix array and its kernels."""
        from .suffix import DoublingLevels  # suffix imports this module
        return DoublingLevels(self.codes)

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def genome_count(self) -> int:
        return len(self.sep_positions)

    def genome_spans(self) -> list[tuple[int, int]]:
        """Half-open [start, end) span of each genome (end is its separator)."""
        ends = self.sep_positions.tolist()
        return list(zip([0] + [end + 1 for end in ends[:-1]], ends))

    def text(self) -> str:
        """Human-readable rendering, separators included.  A digest of
        k != 3 renders its values as numbers, so there every symbol is
        delimited by '-'."""
        numbers = self.alphabet.kind == "digest" and self.alphabet.k != 3
        return ("-" if numbers else "").join(self.alphabet.decode(int(c)) for c in self.codes)


def encode_bases(seq: str) -> np.ndarray:
    """Encode an ACGT(N) string to codes. Assumes the string was validated."""
    return CODE_OF_BYTE[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]


def separate(collection: GenomeCollection) -> SeparatedText:
    """Concatenate the genomes with one '$' after each."""
    parts = []
    for g in collection.genomes:
        parts.append(encode_bases(g))
        parts.append(np.array([SEP_CODE], dtype=np.int32))
    return SeparatedText(np.concatenate(parts), BASE_ALPHABET, {"mode": "raw"})


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
