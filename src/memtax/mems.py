"""MEM tables: every maximal exact match of a read against an index.

One engine walks a batch of reads right to left in lockstep, each read
being one lane.  In a round every live lane prepends its next symbol by
one backward step, all lanes in one search of the BWT's key array.  Where
prepending fails, the lane's current match is final (it is
left-nonextendable by the failure and right-nonextendable by the invariant
that one more symbol to the right does not occur).  The lane leaves the
step, parked with its match, until a shrink: the parked lanes are shrunk
in one call, each match emitted and cut to the longest prefix that the
failing symbol does precede somewhere in the text, and they rejoin the
live lanes, whose next round extends them.  A symbol absent from the whole
text resets the lane: its shrink keeps -1 symbols and all rows, and the
lane moves past the symbol as an extended lane does.  Against digest
indexes the absent symbol itself is recorded as an `empty` entry so
downstream classification can count false negatives.  The lanes are the
columns of one array, and a record is a lane's column as it is emitted;
a batch's records get their first/last text positions and genomes
together once it is walked.

Reads stream through the engine CHUNK_READS at a time (mem_chunks, whose
columnar records eval and classify read as arrays; read_mem_tables builds
a MemTable per read from them); a single read's table is a batch of one.
A chunk becomes query codes by the index (AugmentedFmIndex.encode_reads),
which alone decides a read's codes, and holds nothing per read but its
id.  Much of a round's cost is per numpy call, whatever its lane count, so
wide chunks spread it over many reads, and a shrink waits for many lanes;
the records of a chunk are int32 to keep its memory small.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice

import numpy as np

from .collection import Alphabet
from .errors import ValidationError
from .index import AugmentedFmIndex

CHUNK_READS = 2048  # reads walked in lockstep
# the parked lanes are shrunk in one call once they number 1/SHRINK_SHARE
# of the live ones, once the first of them has waited SHRINK_ROUNDS rounds,
# or when no lane is live (so a batch of one shrinks in the round after its
# failure, as an unbatched walk would).  Measured on the 1000 classify-raw
# reads: 300 rounds and 75 shrinks where shrinking every failure took 242
# and 224, and a walk about a fifth shorter; rounds 2-8 and shares 1-8 all
# fell within the host's noise of this rule
SHRINK_ROUNDS, SHRINK_SHARE = 4, 4


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
    """MEM table of one read: compute_mem_tables with a batch of one."""
    if not len(read):
        raise ValidationError("read is empty")
    return next(compute_mem_tables(ix, [read], min_length))


def compute_mem_tables(ix: AugmentedFmIndex, reads, min_length: int = 1):
    """MEM table of every read of an iterable, in order: read_mem_tables
    of the reads numbered."""
    return (table for _, _, table in read_mem_tables(ix, enumerate(reads), min_length))


def read_mem_tables(ix: AugmentedFmIndex, reads, min_length: int = 1):
    """(id, query codes, MEM table) of every (id, read) pair of an
    iterable, in order: each table is built from its chunk's columnar
    records (mem_chunks) as it is consumed.

    A read is a string or a sequence of query symbols, encoded by the
    index's rule; an empty or unclassifiable read (one holding a reserved
    symbol, say) has no codes and an empty table.  Against digest indexes,
    symbols absent from the indexed text produce `empty` records;
    min_length, at least 1, drops every shorter record, those too.  A
    min_length below 1 raises on the call, before a table is drawn.
    """
    return _tables(mem_chunks(ix, reads, min_length))


def mem_chunks(ix: AugmentedFmIndex, reads, min_length: int = 1):
    """(ids, codes, offsets, columns, bounds) of every CHUNK_READS reads of
    an iterable of (id, read) pairs, in order: the chunk's query codes laid
    end to end (AugmentedFmIndex.encode_reads), walked in lockstep.  columns
    holds the chunk's records as six rows (read start, length, first/last
    text position, first/last genome; -1 in the last four for an empty
    record), sorted by read and read start, read k's at columns[:,
    bounds[k]:bounds[k + 1]].  Reads and min_length are as read_mem_tables
    takes them; a min_length below 1 raises on the call."""
    if min_length < 1:
        raise ValidationError(f"minimum MEM length must be at least 1, got {min_length}")
    return _mem_chunks(ix, iter(reads), min_length)


def _mem_chunks(ix: AugmentedFmIndex, reads, min_length: int):
    """The chunks of mem_chunks, drawn from an iterator of reads."""
    while True:
        ids, codes, offsets = ix.encode_reads(islice(reads, CHUNK_READS))
        if not ids:
            return
        yield ids, codes, offsets, *_walk(ix, codes, offsets, min_length)
        del ids, codes, offsets  # let the chunk go before the next one is encoded


def _tables(chunks):
    """(id, codes, MEM table) of each read of mem_chunks' chunks."""
    for ids, codes, offsets, columns, bounds in chunks:
        at, bounds = offsets.tolist(), bounds.tolist()
        for lane, read_id in enumerate(ids):
            rows = zip(*columns[:, bounds[lane]: bounds[lane + 1]].tolist())
            yield read_id, codes[at[lane]: at[lane + 1]], MemTable(
                [MemRecord(start, length, empty=True) if pmin < 0 else
                 MemRecord(start, length, pmin, pmax, gmin, gmax)
                 for start, length, pmin, pmax, gmin, gmax in rows])
        # let the chunk go before the next one is encoded
        del ids, codes, offsets, columns, bounds, at, rows


def _walk(ix: AugmentedFmIndex, codes, offsets, min_length: int):
    """The records of a chunk's reads as the rows of one array (read start,
    length, first/last position, first/last genome; -1 in the last four
    for an empty record), sorted by read and read start, and each read's
    column bounds in it.  The records are int32 below 2**31 rows and read
    symbols, else int64."""
    dtype = np.int32 if max(ix.rows, len(codes)) < 1 << 31 else np.int64
    # one column per live lane: the offset of its read's codes, the codes
    # at:end that it matches, and the half-open suffix-array row range of
    # that match; a record is a lane's column as it is emitted (rows -1 for
    # an empty record)
    live = np.zeros((5, len(offsets) - 1), dtype=np.int64)
    live[0], live[1], live[2], live[4] = offsets[:-1], offsets[1:], offsets[1:], ix.rows
    live = live[:, live[0] < live[1]]  # an empty read has no lane
    # each round's failed lanes, as they stood, their codes and the rows of
    # their steps wait here for their shrink; waiting counts them, and
    # waited is the rounds the first of them has waited
    found, parked, waiting, waited = [], [], 0, 0
    while live.shape[1] or parked:
        if parked and (waiting * SHRINK_SHARE >= live.shape[1] or waited >= SHRINK_ROUNDS):
            lanes = _shrink(ix, *(parked[0] if len(parked) == 1 else map(np.hstack, zip(*parked))),
                            found, dtype)
            live = np.concatenate([live, lanes], axis=1) if live.shape[1] else lanes
            parked, waiting, waited = [], 0, 0
            if not live.shape[1]:
                continue
        # a code of -1 (no query symbol) precedes no row: its step is empty
        # and its shrink finds no row, so its lane resets
        c = codes[live[1] - 1].astype(np.int64)
        stepped = ix.bwt.lf(c, live[3:])
        moved = stepped[1] > stepped[0]
        waited += bool(parked)
        if (hits := np.count_nonzero(moved)) < len(moved):
            # a failed lane leaves the step until its shrink
            failed = ~moved
            parked.append((live[:, failed], c[failed], stepped[:, failed]))
            waiting += len(moved) - hits
        live[3:] = stepped
        if hits < len(moved):
            live = live[:, moved]
        live[1] -= 1
        done = live[1] == live[0]
        if np.count_nonzero(done):
            found.append(live[:, done].astype(dtype))
            live = live[:, ~done]

    # each step replaces the records, so the chunk holds one copy of them;
    # live, empty by now, gives their shape when the chunk has none
    found = np.concatenate([*found, live.astype(dtype)], axis=1)
    found = found[:, found[2] - found[1] >= min_length]
    found = found[:, np.argsort(found[1], kind="stable")]  # by read, then read start
    columns = np.full((6, found.shape[1]), -1, dtype=dtype)
    columns[:2] = found[1] - found[0], found[2] - found[1]
    mem = found[3] >= 0
    pmin, pmax = ix.first_last(found[3:, mem])
    columns[2:, mem] = pmin, pmax, ix.rank_separators(pmin), ix.rank_separators(pmax)
    return columns, np.searchsorted(found[1], offsets)


def _shrink(ix: AugmentedFmIndex, lanes, c, stepped, found: list, dtype):
    """The parked lanes, whose steps by their codes c failed with the rows
    stepped, shrunk in one call.  Each lane's match is recorded in found as
    it stood (an empty one is dropped with those below the minimum length),
    and the lane keeps the longest prefix of it that its code precedes
    somewhere in the text, whose rows the next round extends.  A code
    absent from the text keeps -1 symbols and all rows:
    its lane moves past it as an extended lane does, to an empty match, and
    leaves once that reaches its read's start; against a digest index the
    absent symbol is recorded too."""
    at, end = lanes[1], lanes[2]
    found.append(lanes.astype(dtype))
    # the shrunk rows hold the code-row that bounded the kept length,
    # whatever the LCP values, so the next round extends these lanes
    lanes[3:], kept = ix.shrink(c, lanes[3:], end - at, stepped)
    np.add(at, kept, out=end)
    reset = kept < 0
    if np.count_nonzero(reset):
        if ix.alphabet.kind == "digest":  # the absent symbol's record
            found.append(absent := lanes[:, reset].astype(dtype))
            absent[1] -= 1
            absent[2] = absent[1] + 1
            absent[3:] = -1
        at -= reset
        lanes = lanes[:, at > lanes[0]]
    return lanes


def longest_records(lengths, bounds):
    """Mask of the records attaining their read's longest length, over a
    chunk's record lengths and each read's record bounds (as mem_chunks
    gives them)."""
    return lengths == np.repeat(reduce_per_read(np.maximum, lengths, bounds, 0), np.diff(bounds))


def reduce_per_read(ufunc, values, bounds, empty):
    """ufunc reduced over each read's records, values[bounds[k]:bounds[k +
    1]], in one reduceat over the reads that have records; empty for a read
    with none."""
    has = bounds[1:] > bounds[:-1]
    out = np.full(len(has), empty, dtype=values.dtype)
    out[has] = ufunc.reduceat(values, bounds[:-1][has])
    return out


def rows_by_read(columns, bounds, mask):
    """The records of a chunk that a mask over them selects, as one list
    per read of tuples of their values in columns (rows of mem_chunks'
    columns)."""
    picked = np.flatnonzero(mask)
    rows = list(zip(*columns[:, picked].tolist()))
    cut = np.searchsorted(picked, bounds).tolist()
    return [rows[a:b] for a, b in zip(cut, cut[1:])]


def longest_mems(table: MemTable) -> list[MemRecord]:
    """All records attaining the maximum length, in read order."""
    if not table.records:
        raise ValidationError("longest_mems on an empty table")
    lengths = np.array([rec.length for rec in table.records])
    return list(compress(table.records, longest_records(lengths, np.array([0, len(lengths)]))))


def render_symbols(read, start: int, length: int, alphabet: Alphabet) -> str:
    """read[start..start+length) rendered from its query codes, as query shows it."""
    return alphabet.render(alphabet.query_codes([read[start: start + length]]))


TSV_HEADER = ("read_id", "read_start", "length", "mem_string", "first_pos",
              "last_pos", "first_genome", "last_genome", "empty_flag")


def tsv_rows(read_id: str, codes, table: MemTable, alphabet: Alphabet):
    """One TSV row per record of a read's MEM table; codes are the read's query codes."""
    for rec in table.records:
        text = alphabet.render(codes[rec.read_start: rec.read_start + rec.length])
        if rec.empty:
            yield (read_id, rec.read_start, rec.length, text, "-", "-", "-", "-", 1)
        else:
            yield (read_id, rec.read_start, rec.length, text, rec.first_pos,
                   rec.last_pos, rec.first_genome, rec.last_genome, 0)
