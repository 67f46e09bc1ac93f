"""Genome collection ingestion and the separated concatenation.

Index texts are integer code arrays over a small alphabet.  Three codes are
reserved in every alphabet and sort below all ordinary symbols:

    0  end-of-file sentinel (implicit, appended by the suffix sorter)
    1  '#'  gap marker inserted by kernelization
    2  '$'  genome separator

Ordinary symbols start at code 3: A,C,G,T(,N wildcard) for base texts, and
the 4^k minimizer values for digest texts.  Using one shared layout lets the
kernelizer and the FM-index treat base texts and digests identically.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ValidationError

EOF_CODE = 0
HASH_CODE = 1
SEP_CODE = 2
FIRST_SYMBOL_CODE = 3
# largest digest k-mer length: the codes 3 .. 4^k + 2 must fit int32
MAX_DIGEST_K = 15

BASES = "ACGT"
WILDCARD = "N"
_BASE_TO_CODE = {c: FIRST_SYMBOL_CODE + i for i, c in enumerate(BASES)}
_ASCII_RENDER_BASE = 37  # digest value v displays as chr(37 + v) when k == 3


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
        if self.kind == "bases":
            return FIRST_SYMBOL_CODE + len(BASES) + 1  # + wildcard
        return FIRST_SYMBOL_CODE + 4**self.k

    def encode_query(self, symbol) -> int | None:
        """Code for a query symbol, or None when it cannot be queried.

        Separators, the wildcard and anything outside the declared symbol
        set are not legal query symbols.
        """
        if self.kind == "bases":
            return _BASE_TO_CODE.get(symbol)
        if isinstance(symbol, str):
            return None
        v = int(symbol)
        if 0 <= v < 4**self.k:
            return FIRST_SYMBOL_CODE + v
        return None

    def decode(self, code: int) -> str:
        """Display form of one code (separators render verbatim)."""
        if code == HASH_CODE:
            return "#"
        if code == SEP_CODE:
            return "$"
        if code == EOF_CODE:
            return "\x00"
        if self.kind == "bases":
            i = code - FIRST_SYMBOL_CODE
            return (BASES + WILDCARD)[i]
        v = code - FIRST_SYMBOL_CODE
        if self.k == 3:
            return chr(_ASCII_RENDER_BASE + v)
        return str(v)

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
    """The indexable concatenation genome0 $ genome1 $ ... with its separator
    bit sequence (held as the sorted positions of the 1-bits)."""

    def __init__(self, codes: np.ndarray, alphabet: Alphabet, provenance: dict | None = None):
        self.codes = np.asarray(codes, dtype=np.int32)
        self.alphabet = alphabet
        self.provenance = provenance or {"mode": "raw"}
        self.sep_positions = np.flatnonzero(self.codes == SEP_CODE).astype(np.int64)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def genome_count(self) -> int:
        return len(self.sep_positions)

    def separator_bits(self) -> np.ndarray:
        bits = np.zeros(len(self.codes), dtype=np.uint8)
        bits[self.sep_positions] = 1
        return bits

    def rank_separators(self, p: int) -> int:
        """Number of separators strictly before position p."""
        return int(np.searchsorted(self.sep_positions, p, side="left"))

    def genome_of_position(self, p: int) -> int:
        if not 0 <= p < len(self.codes):
            raise ValidationError(f"position {p} out of range")
        if self.codes[p] == SEP_CODE:
            raise ValidationError(f"position {p} is a separator")
        return self.rank_separators(p)

    def genome_spans(self) -> list[tuple[int, int]]:
        """Half-open [start, end) span of each genome (end is its separator)."""
        spans = []
        start = 0
        for sep in self.sep_positions:
            spans.append((start, int(sep)))
            start = int(sep) + 1
        return spans

    def text(self) -> str:
        """Human-readable rendering, separators included."""
        return "".join(self.alphabet.decode(int(c)) for c in self.codes)


def encode_bases(seq: str) -> np.ndarray:
    """Encode an ACGT(N) string to codes. Assumes the string was validated."""
    table = np.zeros(256, dtype=np.int32)
    for ch, code in _BASE_TO_CODE.items():
        table[ord(ch)] = code
    table[ord(WILDCARD)] = FIRST_SYMBOL_CODE + len(BASES)
    return table[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]


def separate(collection: GenomeCollection) -> SeparatedText:
    """Concatenate the genomes with one '$' after each."""
    parts = []
    for g in collection.genomes:
        parts.append(encode_bases(g))
        parts.append(np.array([SEP_CODE], dtype=np.int32))
    return SeparatedText(np.concatenate(parts), BASE_ALPHABET, {"mode": "raw"})


def _clean_sequence(raw: str, name: str, allow_wildcard: bool) -> str:
    seq = raw.upper()
    for ch in ("$", "#", "\x00"):
        if ch in seq:
            raise ValidationError(f"reserved symbol {ch!r} in genome {name!r}")
    if all(c in BASES for c in seq):
        return seq
    if not allow_wildcard:
        bad = next(c for c in seq if c not in BASES)
        raise ValidationError(
            f"genome {name!r} contains non-ACGT symbol {bad!r} (use allow_wildcard to map it to N)")
    return "".join(c if c in BASES else WILDCARD for c in seq)


def parse_collection(source, fmt: str = "fasta", allow_wildcard: bool = False) -> GenomeCollection:
    """Read a genome collection from a path (str or os.PathLike) or a text
    file object; in-memory text is read through io.StringIO.

    fmt "fasta" expects '>'-headed records; fmt "lines" one genome per line.
    Characters are case-folded; non-ACGT characters are rejected unless
    allow_wildcard is set, in which case they become the N wildcard which
    participates in the text but never matches a query symbol.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r") as f:
            return parse_collection(f, fmt=fmt, allow_wildcard=allow_wildcard)

    names: list[str] = []
    genomes: list[str] = []
    if fmt == "fasta":
        cur_name = None
        buf: list[str] = []
        saw_header = False
        for line in source:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                saw_header = True
                if cur_name is not None:
                    genomes.append(_clean_sequence("".join(buf), cur_name, allow_wildcard))
                    names.append(cur_name)
                cur_name = line[1:].split()[0] if len(line) > 1 else ""
                if not cur_name:
                    raise ValidationError("malformed FASTA header (empty name)")
                buf = []
            else:
                if not saw_header:
                    raise ValidationError("FASTA input does not start with a '>' header")
                buf.append(line)
        if cur_name is not None:
            genomes.append(_clean_sequence("".join(buf), cur_name, allow_wildcard))
            names.append(cur_name)
    elif fmt == "lines":
        for i, line in enumerate(source):
            line = line.strip()
            if not line:
                continue
            names.append(f"g{len(names)}")
            genomes.append(_clean_sequence(line, names[-1], allow_wildcard))
    else:
        raise ValidationError(f"unknown collection format {fmt!r}")

    if not genomes:
        raise ValidationError("no genomes in input")
    return GenomeCollection(genomes=genomes, names=names)


def iter_reads(source, fmt: str = "fasta") -> Iterable[tuple[str, str]]:
    """Yield (read_id, sequence) pairs from a path (str or os.PathLike) or a
    text file object. Reads are case-folded but otherwise unvalidated;
    unknown characters simply never match during queries."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r") as f:
            yield from iter_reads(f, fmt=fmt)
            return
    if fmt == "fasta":
        name = None
        buf: list[str] = []
        count = 0
        for line in source:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield name, "".join(buf).upper()
                name = line[1:].split()[0] if len(line) > 1 else f"read{count}"
                count += 1
                buf = []
            else:
                if name is None:
                    name = f"read{count}"
                    count += 1
                buf.append(line)
        if name is not None:
            yield name, "".join(buf).upper()
    elif fmt == "lines":
        for i, line in enumerate(source):
            line = line.strip()
            if line:
                yield f"read{i}", line.upper()
    else:
        raise ValidationError(f"unknown reads format {fmt!r}")
