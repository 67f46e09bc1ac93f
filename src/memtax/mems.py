"""MEM tables: every maximal exact match of a read against an index.

The computation walks the read right to left with backward search.  When
prepending the next read symbol fails, the current match is emitted (it is
left-nonextendable by the failure and right-nonextendable by the invariant
that one more symbol to the right does not occur), then the match is cut to
the longest prefix that the failing symbol does precede somewhere in the
text and the walk continues.  A symbol absent from the whole text resets
the match; against digest indexes the absent symbol itself is recorded as
an `empty` entry so downstream classification can count false negatives.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .collection import RESERVED, Alphabet
from .errors import ValidationError
from .index import AugmentedFmIndex, SaInterval


@dataclass
class MemRecord:
    read_start: int
    length: int
    first_pos: int | None = None
    last_pos: int | None = None
    first_genome: int | None = None
    last_genome: int | None = None
    empty: bool = False

    @property
    def genome_range(self) -> tuple[int, int] | None:
        if self.empty:
            return None
        return self.first_genome, self.last_genome


@dataclass
class MemTable:
    records: list[MemRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def compute_mem_table(ix: AugmentedFmIndex, read, min_length: int = 1) -> MemTable:
    """MEM table of a read (a base string for raw/kernel indexes, a sequence
    of minimizer values for digest indexes; digest the read first).

    Against digest indexes, symbols absent from the indexed text produce
    `empty` records.
    """
    symbols = list(read)
    if not symbols:
        raise ValidationError("read is empty")
    codes: list[int | None] = []
    for s in symbols:
        if s in RESERVED:
            raise ValidationError(f"read contains reserved symbol {s!r}")
        codes.append(ix.alphabet.encode_query(s))

    m = len(codes)
    records: list[MemRecord] = []

    def emit(start: int, end: int, iv: SaInterval) -> None:
        # starts strictly decrease along the walk, so no MEM nests in an
        # already-emitted one
        if end <= start:
            return
        pmin, pmax = ix.first_last_positions(iv)
        records.append(MemRecord(
            read_start=start, length=end - start,
            first_pos=pmin, last_pos=pmax,
            first_genome=ix.rank_separators(pmin),
            last_genome=ix.rank_separators(pmax)))

    iv = ix.full_interval()
    i = m  # current match is read[i..r)
    r = m
    while i > 0:
        c = codes[i - 1]
        stepped = None if c is None else ix.backward_step(iv, c)
        if stepped is not None and not stepped.is_empty:
            iv = stepped
            i -= 1
            continue
        emit(i, r, iv)
        if c is None or ix.bwt.count(c) == 0:
            if ix.alphabet.kind == "digest":
                records.append(MemRecord(read_start=i - 1, length=1, empty=True))
            i -= 1
            r = i
            iv = ix.full_interval()
            continue
        iv, kept = ix.shrink_to_extendable(iv, r - i, c)
        r = i + kept
        iv = ix.backward_step(iv, c)
        assert iv is not None and not iv.is_empty
        i -= 1
    emit(0, r, iv)

    records.reverse()
    if min_length > 1:
        records = [rec for rec in records if rec.length >= min_length]
    return MemTable(records)


def longest_mems(table: MemTable) -> list[MemRecord]:
    """All records attaining the maximum length, in read order."""
    if not table.records:
        raise ValidationError("longest_mems on an empty table")
    top = max(rec.length for rec in table.records)
    return [rec for rec in table.records if rec.length == top]


def render_symbols(read, start: int, length: int, alphabet: Alphabet) -> str:
    """Display form of read[start..start+length) under the index alphabet."""
    return alphabet.render(read[start: start + length])


TSV_HEADER = ("read_id", "read_start", "length", "mem_string", "first_pos",
              "last_pos", "first_genome", "last_genome", "empty_flag")


def tsv_rows(read_id: str, read, table: MemTable, alphabet: Alphabet):
    """One TSV row per record of a read's MEM table."""
    for rec in table.records:
        text = render_symbols(read, rec.read_start, rec.length, alphabet)
        if rec.empty:
            yield (read_id, rec.read_start, rec.length, text, "-", "-", "-", "-", 1)
        else:
            yield (read_id, rec.read_start, rec.length, text, rec.first_pos,
                   rec.last_pos, rec.first_genome, rec.last_genome, 0)
