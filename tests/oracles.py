"""Independent brute-force oracles used by the test suite.

Everything here recomputes results from first principles (sorting, scanning,
set intersection) and never calls into the structures it checks.
"""
import random

SEP = "$"
GAP = "#"


def naive_suffix_array(codes):
    s = [int(c) for c in codes] + [0]
    return sorted(range(len(s)), key=lambda i: s[i:])


def naive_prefix_ranks(codes, h):
    """Dense rank of the length-h prefix of every suffix of codes + EOF
    sentinel (code 0), in the prefixes' sorted order."""
    s = [int(c) for c in codes] + [0]
    prefixes = [tuple(s[i:i + h]) for i in range(len(s))]
    rank = {p: r for r, p in enumerate(sorted(set(prefixes)))}
    return [rank[p] for p in prefixes]


def naive_lcp(codes, sa):
    s = [int(c) for c in codes] + [0]
    out = [0] * len(sa)
    for r in range(1, len(sa)):
        a, b = s[sa[r - 1]:], s[sa[r]:]
        h = 0
        while h < len(a) and h < len(b) and a[h] == b[h]:
            h += 1
        out[r] = h
    return out


def naive_bwt(codes, sa):
    s = [int(c) for c in codes] + [0]
    return [s[(i - 1) % len(s)] for i in sa]


def naive_rmq(values, lo, hi, kind):
    best = lo
    for j in range(lo + 1, hi + 1):
        if kind == "min" and values[j] < values[best]:
            best = j
        if kind == "max" and values[j] > values[best]:
            best = j
    return best


def naive_psv(values, i):
    for j in range(i - 1, -1, -1):
        if values[j] < values[i]:
            return j
    return -1


def naive_nsv(values, i):
    for j in range(i + 1, len(values)):
        if values[j] < values[i]:
            return j
    return len(values)


# ---------------------------------------------------------------- MEMs
def naive_mem_table(text_symbols, query_symbols, separators=(SEP, GAP)):
    """Definitional MEM table: (start, length, first_pos, last_pos,
    first_genome, last_genome) tuples sorted by start.

    String inputs take a find/rfind path; list inputs (digest symbols) a
    scanning path.  Query symbols that are separators or absent from the
    text simply never match.
    """
    if isinstance(text_symbols, str) and isinstance(query_symbols, str):
        return _mem_table_str(text_symbols, query_symbols)
    return _mem_table_list(list(text_symbols), list(query_symbols), separators)


def _mem_table_str(text, query):
    m = len(query)
    lengths = []
    for i in range(m):
        l = 0
        while i + l < m and query[i: i + l + 1] in text:
            l += 1
        lengths.append(l)
    out = []
    for i in range(m):
        if lengths[i] == 0 or (i > 0 and lengths[i - 1] > lengths[i]):
            continue
        s = query[i: i + lengths[i]]
        first, last = text.find(s), text.rfind(s)
        out.append((i, lengths[i], first, last,
                    text.count(SEP, 0, first), text.count(SEP, 0, last)))
    return out


def _occurrences(text, pat):
    n, m = len(text), len(pat)
    return [j for j in range(n - m + 1) if text[j:j + m] == pat]


def _mem_table_list(text, query, separators):
    m = len(query)
    present = set(text) - set(separators)

    def ms(i):
        if query[i] not in present:
            return 0
        positions = [j for j, t in enumerate(text) if t == query[i]]
        length = 1
        while i + length < m:
            nxt = query[i + length]
            positions = [j for j in positions
                         if j + length < len(text) and text[j + length] == nxt]
            if not positions:
                break
            length += 1
        return length

    lengths = [ms(i) for i in range(m)]
    out = []
    for i in range(m):
        if lengths[i] == 0:
            continue
        if i > 0 and lengths[i - 1] > lengths[i]:
            continue
        occ = _occurrences(text, query[i: i + lengths[i]])
        first, last = occ[0], occ[-1]
        fg = sum(1 for t in text[:first] if t == SEP)
        lg = sum(1 for t in text[:last] if t == SEP)
        out.append((i, lengths[i], first, last, fg, lg))
    return out


# ---------------------------------------------------------------- kernels
def kmer_genome_map(runs_with_genomes, k):
    """runs_with_genomes: (symbols, genome_index) pieces in text order.
    Maps each k-mer to the genome of its first and last occurrence."""
    first = {}
    last = {}
    for symbols, genome in runs_with_genomes:
        for i in range(len(symbols) - k + 1):
            w = tuple(symbols[i: i + k])
            if w not in first:
                first[w] = genome
            last[w] = genome
    return {w: (first[w], last[w]) for w in first}


def genome_runs(genomes):
    return [(list(g), gi) for gi, g in enumerate(genomes)]


def kernel_runs(kernel_text_symbols):
    """Split a kernel rendering into separator-free runs tagged with the
    genome index (count of '$' seen so far)."""
    runs = []
    cur = []
    genome = 0
    for s in kernel_text_symbols:
        if s == SEP:
            if cur:
                runs.append((cur, genome))
                cur = []
            genome += 1
        elif s == GAP:
            if cur:
                runs.append((cur, genome))
                cur = []
        else:
            cur.append(s)
    if cur:
        runs.append((cur, genome))
    return runs


def naive_kernel(text, k, sep=SEP, gap=GAP):
    """Definitional order-k first/last-occurrence kernel of a symbol list.

    A genome is a run of symbols ended by `sep` (symbols after the last
    separator are no genome).  Kept: every symbol of each genome shorter
    than k, and the k symbols at the first and at the last start of every
    distinct k-window lying inside one genome.  Output: the kept symbols and
    every separator in text order, with one `gap` for each maximal run of
    dropped symbols that lies between two kept non-separator symbols."""
    text = list(text)
    starts = {}
    kept = set()
    begin = 0
    for end, c in enumerate(text):
        if c != sep:
            continue
        if end - begin < k:
            kept.update(range(begin, end))
        for i in range(begin, end - k + 1):
            starts.setdefault(tuple(text[i: i + k]), []).append(i)
        begin = end + 1
    for occ in starts.values():
        kept.update(range(occ[0], occ[0] + k))
        kept.update(range(occ[-1], occ[-1] + k))
    out = []
    prev = None  # text position of the last output symbol
    for i, c in enumerate(text):
        if c == sep or i in kept:
            if c != sep and prev is not None and text[prev] != sep and prev < i - 1:
                out.append(gap)
            out.append(c)
            prev = i
    return out


def naive_digest(s, k, w, a, b, m):
    """Definitional minimizer digest: (value, start) of the k-mer with the
    least hash (a*value + b) mod m, leftmost on ties, in every window of w
    consecutive k-mer starts; each start once, in position order.  A k-mer's
    value has base digits A=0, C=1, G=2, T=3, first base least significant."""
    vals = [sum("ACGT".index(c) * 4**j for j, c in enumerate(s[i: i + k]))
            for i in range(len(s) - k + 1)]
    hashes = [(a * v + b) % m for v in vals]
    marked = {min(range(i, i + w), key=lambda j: (hashes[j], j))
              for i in range(len(vals) - w + 1)}
    return [(vals[j], j) for j in sorted(marked)]


def naive_lca(parent, a, b):
    def ancestors(u):
        out = [u]
        while parent[u] != -1:
            u = parent[u]
            out.append(u)
        return out
    chain = ancestors(a)
    in_a = set(chain)
    u = b
    while u not in in_a:
        u = parent[u]
    return u


# ---------------------------------------------------------------- inputs
def random_collection(rng: random.Random, max_genomes=8, max_len=200,
                      alphabet="ACGT", repetitive=True):
    """Small random collections; repetitive mode mutates copies of a core so
    k-mers repeat across genomes."""
    count = rng.randint(1, max_genomes)
    genomes = []
    core = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
    for _ in range(count):
        if repetitive and rng.random() < 0.7:
            g = [rng.choice(alphabet) if rng.random() < 0.1 else c for c in core]
            cut = rng.randint(1, len(g))
            genomes.append("".join(g[:cut]))
        else:
            genomes.append("".join(rng.choice(alphabet)
                                   for _ in range(rng.randint(1, max_len))))
    return genomes
