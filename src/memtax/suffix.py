"""Suffix-array machinery backing the augmented FM-index.

All structures are plain (uncompressed) arrays: a suffix array, LCP
array and BWT of length n+1 (one row for the implicit end-of-file sentinel,
code 0, smaller than every text symbol), built in the index file's
fixed-width dtypes (row_dtype, lcp_dtype, symbol_dtype), and one sorted key
array over the BWT (held instead of it): one search answers LF, rank and the C
table.  The suffix array inverts the last of a text's prefix-doubling rank
levels, held as int32 (each ranked by one packed in-place sort of int64
keys, sort_keys).  One stateless pass, doubling_levels, gives the levels
that a text's suffix array and kernels take: it starts at a seed level,
ranked by one sort of packed symbol words (8 base symbols of 3 bits, 4
k = 3 digest symbols of 7 bits, in an int32 word, packed in place), and a
level below the seed is sorted on its own.  A build pops its level from
the dict of levels handed to it, or runs a pass of its own when the level
is not there.  The LCP array takes no level:
it compares the irreducible rows' suffixes a packed word at a time and
fills in the other rows from them (the permuted LCP); the BWT is the first
symbol of the word before each row's suffix, which that comparison reads.
Two scans over such an array answer many lanes at once: reduce_ranges (a min
or max over each of many row ranges) and first_below (the first row past
each origin whose value is below a bound, in windows of _SCAN_ROWS rows
and wider).
"""
from __future__ import annotations

import numpy as np

from .collection import EOF_CODE

# rows per block of the passes that would otherwise copy a row-sized int64 array
BLOCK_ROWS = 1 << 16
# the LCP's widths, narrowest first: an index stores the narrowest whose
# range holds its maximum
LCP_DTYPES = ("u1", "<u2", "<u4", "<u8")
# first_below's first window per lane, which most LCP widenings of the MEM
# walk end within, and the most rows one of its gathers copies
_SCAN_ROWS, _GATHER_ROWS = 64, 1 << 14


def sort_keys(keys, bound: int, tags=None):
    """(tags[order], keys[order]) for int64 keys in [0, bound) and an order
    that sorts them.  tags are non-negative integers, one per key, by
    default the row indices, which give the order itself (as int64), else
    in the tags' dtype.  When the bit width of bound plus that of the
    largest tag fits in 63 bits, one in-place sort of keys << b | tag gives
    both, unpacked by a mask and a shift; the keys are then overwritten, so
    callers pass an array they no longer need.  Otherwise an argsort.
    Equal keys come in no promised order.
    """
    top = max(len(keys) - 1, 0) if tags is None else int(tags.max(initial=0))
    b = top.bit_length()
    if (int(bound) - 1).bit_length() + b > 63:
        order = np.argsort(keys)
        return order if tags is None else tags[order], keys[order]
    keys <<= b
    for start in range(0, len(keys), BLOCK_ROWS):
        block = keys[start: start + BLOCK_ROWS]
        end = start + len(block)
        block |= np.arange(start, end) if tags is None else tags[start:end]
    keys.sort()
    order = np.empty(len(keys), dtype=np.int64 if tags is None else tags.dtype)
    np.bitwise_and(keys, (1 << b) - 1, out=order, casting="unsafe")
    keys >>= b
    return order, keys


def symbol_bits(codes) -> int:
    """Bits of one packed symbol: ceil(log2 sigma) for codes in [0, max]."""
    return max(int(np.max(codes, initial=EOF_CODE)).bit_length(), 1)


def seed_level(bits: int, rows: int) -> int:
    """The level a doubling pass starts at, its seed: the largest j such
    that 2**j symbols of bits bits each fit 31 bits (an int32 word) and,
    with the bits of a row index below rows, 63 bits (sort_keys' packed
    sort); 0 when no two symbols fit."""
    room = min(31, 63 - (rows - 1).bit_length())
    return max((room // bits).bit_length() - 1, 0)


def _text(codes, dtype=np.int64) -> np.ndarray:
    """codes + EOF sentinel, checked, in one array of dtype."""
    text = np.empty(len(codes) + 1, dtype=dtype)
    text[:-1] = codes
    text[-1] = EOF_CODE
    if text.size == 1:
        raise ValueError("text must be non-empty")
    if text[:-1].min() <= EOF_CODE:
        raise ValueError("text codes must be greater than the EOF code")
    return text


def _packed_words(text, j: int, bits: int) -> np.ndarray:
    """The 2**j symbols from every row of text as one word of the text's
    dtype, bits bits per symbol, the first in the high bits; past the
    sentinel the symbols are code 0, so a word's order is its prefix's.
    Packed into text itself, a block at a time in ascending order: a
    block's rows take the rows m on, which the block copies before it
    shifts, and which the blocks after it have yet to shift."""
    n = len(text)
    for m in (1 << i for i in range(j)):
        for start in range(0, n, BLOCK_ROWS):
            block = text[start: start + BLOCK_ROWS]
            after = text[start + m: start + m + len(block)].copy()
            block <<= bits * m
            block[: len(after)] |= after
    return text


def prefix_doubling_ranks(codes):
    """Yield, for h = 2**s, 2**(s+1), ..., the rank of the length-h prefix
    of every suffix of codes + EOF sentinel (dense, in the prefixes' sorted
    order): ranks[i] == ranks[j] iff the two prefixes are equal.  s is the
    seed_level of the codes' symbol_bits.  A prefix that reaches the unique
    sentinel is itself unique.  Stops after the first all-distinct level,
    which is then the inverse suffix array.  The levels are int32 below
    2**31 rows (every rank is below the row count), else int64; the sort
    keys are int64.
    """
    text = _text(codes)
    bits = symbol_bits(text)
    return _doubling(text, seed_level(bits, len(text)), bits)


def _doubling(text, j: int, bits: int):
    """Levels j, j+1, ... of text (codes + sentinel, int64, overwritten).

    Manber & Myers prefix doubling, seeded by packed words.  Each level
    sorts its keys with sort_keys (level j the words of 2**j symbols, then
    rank * d + next_rank over the d ranks of the level before), and the
    dense ranks are the running count of key changes along the sorted keys,
    scattered back by the order.  Between levels the pass holds only the
    level it last yielded, and lets go of it once the next level's keys
    are built, before their sort.
    """
    n = len(text)
    dtype = np.int32 if n < 1 << 31 else np.int64
    key, bound = _packed_words(text, j, bits), 1 << (bits << j)
    del text
    while True:
        order, key = sort_keys(key, bound)
        change = np.empty(n, dtype=bool)
        change[0] = False
        np.not_equal(key[1:], key[:-1], out=change[1:])
        del key  # the ranks take the level's dtype: no int64 beside them
        dense = np.cumsum(change, dtype=dtype)
        distinct = int(dense[-1]) + 1
        rank = np.empty(n, dtype=dtype)
        rank[order] = dense
        del order, dense, change
        yield rank
        if distinct == n:
            return
        # a suffix starting in the last h rows reaches the sentinel, so its
        # rank is unique already and needs no second half
        h = 1 << j
        key = rank.astype(np.int64)
        key *= distinct
        key[: n - h] += rank[h:]
        del rank  # no level is held through the next sort
        bound = distinct * distinct
        j += 1


# past every level a text can reach (its rows are below 2**63): asking for
# it gives the pass's last, all-distinct level
LAST_LEVEL = 63


def doubling_levels(codes, wanted) -> dict[int, np.ndarray]:
    """Each level j in wanted of codes' prefix doubling (ranks of the
    prefixes of length 2**j), from one prefix_doubling_ranks pass that stops
    at the highest wanted level.  Its last, all-distinct level also serves
    LAST_LEVEL and every level past it.  A level below the seed comes from
    its own sort of packed words, outside the pass.  No level outside
    wanted is held while the next is sorted, and the pass ends with the
    call, so the returned dict holds the only references to its levels.
    """
    bits = symbol_bits(codes)
    seed = seed_level(bits, len(codes) + 1)
    levels = {j: next(_doubling(_text(codes), j, bits)) for j in wanted if j < seed}
    top = max(wanted, default=-1)
    ranks = prefix_doubling_ranks(codes) if top >= seed else None
    for j in range(seed, top + 1):
        rank = next(ranks)
        if rank.size == int(rank.max()) + 1:  # all distinct: the last level
            levels.update((i, rank) for i in wanted if i >= j)
            break
        if j in wanted:
            levels[j] = rank
        del rank  # before the next level's sort
    return levels


def row_dtype(rows: int) -> str:
    """The dtype of a suffix array of rows rows, as the index file stores it."""
    return "<u4" if rows < 1 << 32 else "<u8"


def symbol_dtype(alphabet_size: int) -> str:
    """The dtype of a BWT over alphabet_size codes, as the index file stores it."""
    return "u1" if alphabet_size <= 256 else "<u4"


def lcp_dtype(maximum: int) -> str:
    """The narrowest of LCP_DTYPES whose range holds maximum."""
    return next(name for name in LCP_DTYPES if maximum < 1 << 8 * np.dtype(name).itemsize)


def build_suffix_array(codes, alphabet_size: int | None = None, levels=None):
    """(sa, lcp, bwt): the suffix array, LCP array and BWT of codes with
    the implicit EOF sentinel appended, each of len(codes) + 1 rows, in the
    dtypes the index file stores (row_dtype, lcp_dtype of the LCP's
    maximum, and symbol_dtype of alphabet_size, by default one more than
    the largest code).  The pass's last level is popped from levels
    (doubling_levels' dict of the codes, handed over) when held there, and
    taken from a pass of its own otherwise.

    sa[0] is always the sentinel position len(codes); lcp[0] = 0 and lcp[i]
    is the longest common prefix of the suffixes at rows i-1 and i;
    bwt[i] is the symbol before suffix sa[i], EOF for sa[i] = 0.  The
    suffix array is the inverse of the pass's last, all-distinct level, the
    one level it takes.  The LCP goes by the permuted LCP of Kärkkäinen,
    Manzini & Puglisi, PLCP[sa[i]] = lcp[i]: only the irreducible rows,
    each i >= 1 whose preceding symbol BWT[i] differs from BWT[i-1], are
    compared (_common_prefix).  The suffix p of any other row has the
    PLCP of p - 1 less one, so p + PLCP[p] is that of the last irreducible
    position before it; as that end never falls while p grows, a running
    maximum over the ends gives every row's, and the LCP's maximum is an
    irreducible row's, which gives its dtype before it is written.  The
    pass that finds the irreducible rows reads every row's BWT symbol, and
    keeps it.
    """
    if LAST_LEVEL not in (levels or ()):
        levels = doubling_levels(codes, {LAST_LEVEL})
    inverse = levels.pop(LAST_LEVEL)
    n = len(inverse)
    sa = np.empty(n, dtype=row_dtype(n))
    for start in range(0, n, BLOCK_ROWS):
        sa[inverse[start: start + BLOCK_ROWS]] = np.arange(start, min(start + BLOCK_ROWS, n))
    del inverse
    if alphabet_size is None:
        alphabet_size = int(np.max(codes)) + 1
    bits = symbol_bits(codes)
    seed = seed_level(bits, n)
    words = _packed_words(_text(codes, np.int32), seed, bits)
    first = (bits << seed) - bits  # the shift of a word's first symbol
    bwt = np.empty(n, dtype=symbol_dtype(alphabet_size))
    ends = np.zeros(n, dtype=np.int32 if n < 1 << 31 else np.int64)
    maximum = 0
    for start in range(1, n, BLOCK_ROWS):
        rows = sa[start - 1: start + BLOCK_ROWS]
        # before position 0, the sentinel word's 0
        symbols = words[np.subtract(rows, 1, dtype=np.int64)] >> first
        bwt[start - 1: start - 1 + len(rows)] = symbols
        heads = np.flatnonzero(symbols[1:] != symbols[:-1])
        cur = rows[heads + 1]
        common = _common_prefix(words, rows[heads], cur, seed, bits)
        ends[cur] = cur + common
        maximum = max(maximum, int(common.max(initial=0)))
    del words
    np.maximum.accumulate(ends, out=ends)
    lcp = np.zeros(n, dtype=lcp_dtype(maximum))
    for start in range(1, n, BLOCK_ROWS):
        cur = sa[start: start + BLOCK_ROWS]
        lcp[start: start + len(cur)] = ends[cur] - cur
    return sa, lcp, bwt


def _common_prefix(words, a, b, seed: int, bits: int) -> np.ndarray:
    """The longest common prefix of the suffixes at each pair of distinct
    positions a[k], b[k] of the text whose packed words (_packed_words, W =
    2**seed symbols each) words holds.  Each lane compares the words W
    symbols apart in a window of one word, then in windows 8 times wider up
    to _GATHER_ROWS, so that its rounds grow with the log of its prefix;
    one gather copies at most _GATHER_ROWS words.  The rest, below W, is
    the count of equal leading symbols of the first unequal words, which
    the bit length of their XOR gives."""
    step = 1 << seed
    equal = np.zeros(len(a), dtype=np.int64)  # each lane's equal leading words so far
    todo, width = np.arange(len(a)), 1
    while todo.size:
        per_gather = max(1, _GATHER_ROWS // width)
        more = []
        for k in range(0, len(todo), per_gather):
            group = todo[k: k + per_gather]
            h = equal[group] * step
            got = _equal_words(words, a[group] + h, b[group] + h, step, width)
            equal[group] += got
            more.append(group[got == width])
        todo = np.concatenate(more)
        width = min(8 * width, _GATHER_ROWS)
    h = equal * step
    return h + ((bits << seed) - np.frexp(words[a + h] ^ words[b + h])[1]) // bits


def _equal_words(words, a, b, step: int, width: int) -> np.ndarray:
    """Per lane, how many of the width words at a[k] + t * step and
    b[k] + t * step (t = 0, 1, ...) are equal before the first unequal
    pair, width when all are.  A row past the last reads the last word,
    the sentinel's: two distinct suffixes differ at or before the earlier
    one's sentinel, so no such read comes before a lane's first unequal
    pair."""
    last = len(words) - 1
    offsets = np.arange(0, width * step, step)
    differ = (words[np.minimum(a[:, None] + offsets, last)]
              != words[np.minimum(b[:, None] + offsets, last)])
    col = differ.argmax(axis=1)
    return np.where(differ[np.arange(len(a)), col], col, width)


def key_dtype(alphabet_size: int, rows: int):
    """K's dtype: uint32 while sigma * R, one past the last key, fits 32 bits, else int64."""
    return np.dtype(np.uint32 if alphabet_size * rows < 1 << 32 else np.int64)


class IndexedSequence:
    """A symbol sequence held only as one sorted key array for the FM-index's
    LF: keys = sort(symbols * R + row) for R rows, so a search for c*R + i
    counts the rows holding a smaller symbol plus the occurrences of c before
    i, LF(c, i) = C[c] + rank(c, i).  Each symbol's run of keys, less c*R, is
    its increasing position list; nothing is sized by the alphabet.  A
    symbols array already in key_dtype is taken over: the keys are built in it.
    """

    def __init__(self, symbols: np.ndarray, alphabet_size: int):
        symbols = np.asarray(symbols)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= alphabet_size):
            raise ValueError("symbol out of declared alphabet range")
        self.rows, dtype = len(symbols), key_dtype(alphabet_size, len(symbols))
        # symbols times R, each block then plus its rows (no row-sized
        # temporary), sorted in place: distinct keys need no stable sort
        self.keys = np.multiply(symbols, self.rows, dtype=dtype, casting="unsafe",
                                out=symbols if symbols.dtype == dtype else None)
        for start in range(0, self.rows, BLOCK_ROWS):
            block = self.keys[start: start + BLOCK_ROWS]
            block += np.arange(start, start + len(block), dtype=dtype)
        self.keys.sort()

    def symbols(self, dtype) -> np.ndarray:
        """The sequence in dtype, recovered from the keys a BLOCK_ROWS block
        at a time: row keys[g] mod R holds symbol keys[g] div R."""
        out = np.empty(self.rows, dtype=dtype)
        for start in range(0, self.rows, BLOCK_ROWS):
            symbol, row = np.divmod(self.keys[start: start + BLOCK_ROWS], self.rows)
            out[row] = symbol
        return out

    def lf(self, c, i):
        """C[c] + rank(c, i): rows holding a smaller symbol, plus the
        occurrences of c in symbols[0..i).  Elementwise over int64 arrays or
        Python ints c and i, with one search for them all; many keys are
        searched in sorted order (by sort_keys), near the rows last read."""
        # a key below or past every key of K finds what K's bounds find, so
        # clamped to them (two ufuncs cost less than np.clip) the keys fit
        # K's dtype, without which a search would cast all of K, and sort_keys
        top = int(self.keys[-1]) + 1 if self.rows else 0
        keys = np.minimum(np.maximum(c * self.rows + i, 0), top)
        if keys.size < 64:
            return self.keys.searchsorted(keys.astype(self.keys.dtype))
        order, ordered = sort_keys(keys.ravel(), top + 1)
        out = np.empty_like(order)
        out[order] = self.keys.searchsorted(ordered.astype(self.keys.dtype))
        return out.reshape(keys.shape)


def reduce_ranges(ufunc, values, starts, stops):
    """ufunc reduced over values[starts[k]:stops[k]] for every k, each range
    non-empty, with one reduceat.  Ranges covering at most 1/64 of the rows
    in all are gathered end to end first.  Longer ones are reduced in place,
    in descending order of start, so that the segment from one range's
    stop to the next range's start is a single row; that reduceat still
    runs on from the last range to the highest stop.  A stop at
    len(values) is cut to the last row, which is folded in afterwards,
    because reduceat takes no index past the end."""
    if not len(starts):
        return np.empty(0, dtype=values.dtype)
    lengths = stops - starts
    if 64 * (total := int(lengths.sum())) <= len(values):
        offsets = np.add.accumulate(lengths) - lengths
        rows = np.repeat(starts - offsets, lengths)
        rows += np.arange(total)
        return ufunc.reduceat(values[rows], offsets)
    order = np.argsort(starts, kind="stable")[::-1]
    last = len(values) - 1
    bounds = np.empty(2 * len(order), dtype=np.intp)
    bounds[0::2] = starts[order]
    bounds[1::2] = np.minimum(stops[order], last)
    out = np.empty(len(order), dtype=values.dtype)
    out[order] = ufunc.reduceat(values[: bounds.max() + 1], bounds)[0::2]
    cut = stops > last
    out[cut] = ufunc(out[cut], values[last])
    return out


def first_below(values, origins, bounds):
    """Per lane, the first row x >= origins[k] with values[x] < bounds[k],
    else len(values), for unsigned integer values and bounds >= 1.  Each
    lane scans a window of _SCAN_ROWS rows, then windows 8 times wider up
    to _GATHER_ROWS, so the cost follows the distance scanned; one gather
    copies at most _GATHER_ROWS rows."""
    n = len(values)
    found = np.full(len(origins), n, dtype=np.int64)
    start = np.array(origins, dtype=np.int64)
    # values < bound is values <= bound - 1, and a bound past the dtype's
    # range holds every value: in the values' dtype, the windows need no upcast
    limits = np.minimum(np.asarray(bounds, dtype=np.uint64) - 1,
                        np.iinfo(values.dtype).max).astype(values.dtype)
    todo, width = np.flatnonzero(start < n), _SCAN_ROWS
    # the windows: views by the ndarray constructor over the rows in memory
    # order, not as_strided, whose __array_interface__ read grows and now
    # and then rebuilds a process-wide table (0.96 MB, numpy 2.4), nor made
    # read-only, whose flag setter leaves a name string in Python's type
    # cache: either would make a walk's traced peak depend on earlier calls
    step = values.strides[0]
    memory, offset = (values, 0) if step > 0 else (values[::-1], (n - 1) * values.itemsize)
    while todo.size:
        w = min(width, n)
        windows = np.ndarray((n - w + 1, w), values.dtype, memory, offset, (step, step))
        per_gather = max(1, _GATHER_ROWS // w)
        for k in range(0, len(todo), per_gather):
            group = todo[k: k + per_gather]
            # a window past the last row moves back and skips the rows before start
            first = np.minimum(start[group], n - w)
            hit = windows[first] <= limits[group, None]
            if (back := first < start[group]).any():
                hit[back] &= np.arange(w) >= (start[group] - first)[back, None]
            col = hit.argmax(axis=1)
            ok = hit[np.arange(len(group)), col]
            found[group[ok]] = first[ok] + col[ok]
            start[group] = first + w
        todo = todo[(found[todo] == n) & (start[todo] < n)]
        width = min(8 * width, _GATHER_ROWS)
    return found
