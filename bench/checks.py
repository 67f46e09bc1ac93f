"""Output checks of the benchmark.  They run untimed after the measured
commands, and every failure they find is returned as a one-line message.

Classification answers are checked against the brute-force oracles of the
test suite (``tests/oracles.py``) over texts that ``gen`` rebuilds without
the program: the separated base text, the minimizer digest and its kernel.
"""
from __future__ import annotations

import csv
import importlib.util
import json
import random
import re
from collections import defaultdict
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_tsv(path) -> dict[str, list[tuple]]:
    """Rows of a ``memtax classify`` TSV grouped by read ID.  A row is
    (read_start, length, first_genome, last_genome, node_label), with None
    where the program printed '-'."""
    rows: dict[str, list[tuple]] = defaultdict(list)
    with open(path, newline="") as f:
        reader = csv.reader(f, delimiter="\t")
        next(reader, None)
        for rec in reader:
            rows[rec[0]].append(tuple(None if v == "-" else (v if i == 5 else int(v))
                                      for i, v in enumerate(rec[1:6], 1)))
    return rows


def true_positive(rows: list[tuple], source: int) -> bool:
    """A read counts only if every longest MEM has range exactly [g, g]."""
    return bool(rows) and all(r[2] == r[3] == source for r in rows)


def expected_rows(oracles, text, query, tree, record_absent: bool) -> list[tuple]:
    """Longest-MEM rows the program should print for one read."""
    table = [(s, length, fg, lg) for s, length, _, _, fg, lg
             in oracles.naive_mem_table(text, query)]
    if record_absent:
        present = set(text) - {gen.SEP, gen.GAP}
        table += [(i, 1, None, None) for i, q in enumerate(query) if q not in present]
    if not table:
        return [(None, None, None, None, None)]
    top = max(r[1] for r in table)
    return sorted((s, length, fg, lg, None if fg is None else label(oracles, tree, fg, lg))
                  for s, length, fg, lg in table if length == top)


def label(oracles, tree, first: int, last: int) -> str:
    return tree.label[oracles.naive_lca(tree.parent, tree.leaf[first], tree.leaf[last])]


def check_classify(oracles, rows, sample, text, tree, digest_k_w=None, tag="") -> list[str]:
    """Oracle check of the sampled (read_id, sequence, source) reads, and
    of every row's node label."""
    errors = []
    for read_id, seq, _ in sample:
        query = seq if digest_k_w is None else gen.digest(seq, *digest_k_w)
        want = expected_rows(oracles, text, query, tree, digest_k_w is not None)
        got = sorted(rows.get(read_id, []), key=lambda r: (r[0], r[1]))
        if got != want:
            errors.append(f"{tag}{read_id}: longest MEMs {got} != oracle {want}")
    for read_id, rs in rows.items():
        for r in rs:
            if r[2] is not None and r[4] != label(oracles, tree, r[2], r[3]):
                errors.append(f"{tag}{read_id}: node {r[4]} for genomes {r[2]}..{r[3]}")
                break
    return errors[:5]


# ----------------------------------------------------------------- build
def _overlapping_count(text: str, pattern: str) -> int:
    return sum(1 for _ in re.finditer(f"(?={re.escape(pattern)})", text))


def _digest_str(symbols) -> str:
    """A digest symbol list as a string, one character per symbol."""
    return "".join(s if isinstance(s, str) else chr(256 + s) for s in symbols)


def check_build(memtax_index, memtax_mems, files: dict, genomes, reads, seed,
                kmax: int, k_w) -> tuple[list[str], int, int]:
    """Loads every built file and checks sampled k-mers: exact occurrence
    counts on the raw and digest indexes, first/last genomes on the kernel.
    Returns (errors, true-positive reads, reads tried) of a read sample
    queried against every index."""
    rng = random.Random(f"kmers-{seed}")
    text = gen.SEP.join(genomes) + gen.SEP
    dparts = [gen.digest(g, *k_w) for g in genomes]
    dtext = gen.separated(dparts)
    dstr = _digest_str(dtext)
    errors: list[str] = []
    tp = tried = 0
    for mode, path in files.items():
        try:
            ix = memtax_index.deserialize(str(path))
        except Exception as e:  # any load failure is a check failure
            errors.append(f"{mode}: does not load: {type(e).__name__}: {e}")
            continue
        if mode == "raw" and ix.n != len(text):
            errors.append(f"raw: text length {ix.n} != {len(text)}")
        if mode == "digest" and ix.n != len(dtext):
            errors.append(f"digest: text length {ix.n} != {len(dtext)}")
        for _ in range(20):
            g = rng.randrange(len(genomes))
            if mode == "digest":
                p = rng.randrange(len(dparts[g]) - 4)
                pat = dparts[g][p: p + rng.randint(1, 4)]
                got, want = len(ix.find_interval(pat)), _overlapping_count(dstr, _digest_str(pat))
            else:
                length = rng.choice((8, 12, 20, kmax)) if mode == "kernel" else rng.choice((8, 12, 20))
                p = rng.randrange(len(genomes[g]) - length + 1)
                pat = genomes[g][p: p + length]
                if mode == "raw":
                    got, want = len(ix.find_interval(pat)), _overlapping_count(text, pat)
                else:
                    got = ix.genome_range(ix.find_interval(pat))
                    want = (text.count(gen.SEP, 0, text.find(pat)),
                            text.count(gen.SEP, 0, text.rfind(pat)))
            if got != want:
                errors.append(f"{mode}: pattern {pat!r}: {got} != {want}")
                break
        for _, seq, source in reads:
            query = gen.digest(seq, *k_w) if mode == "digest" else seq
            table = memtax_mems.compute_mem_table(ix, query)
            rows = [(r.read_start, r.length, r.first_genome, r.last_genome)
                    for r in memtax_mems.longest_mems(table)] if table.records else []
            tp += true_positive(rows, source)
            tried += 1
        del ix
    return errors, tp, tried


# ------------------------------------------------------------------ eval
def check_eval(reports: list[dict], reads_per_variant: int) -> list[str]:
    """raw TP >= 0.95, sizes raw > k100 >= k50 >= k20, no variant error,
    every read evaluated, and identical reports once timings are dropped."""
    errors = []
    variants = reports[0]["variants"]
    for v in variants:
        if "error" in v:
            errors.append(f"eval: {v['variant']}: {v['error']}")
        if v["reads_evaluated"] != reads_per_variant:
            errors.append(f"eval: {v['variant']}: {v['reads_evaluated']} reads evaluated")
    if len(variants) == 4:
        raw, k100, k50, k20 = variants
        if raw["tp_rate"] < 0.95:
            errors.append(f"eval: raw tp_rate {raw['tp_rate']} < 0.95")
        sizes = [v["size_bytes"] for v in variants]
        if not sizes[0] > sizes[1] >= sizes[2] >= sizes[3]:
            errors.append(f"eval: sizes {sizes} not ordered raw > k100 >= k50 >= k20")
    else:
        errors.append(f"eval: {len(variants)} variants reported, expected 4")

    def untimed(r):
        return json.dumps({**r, "variants": [{k: v for k, v in x.items() if k != "mean_query_us"}
                                             for x in r["variants"]]}, sort_keys=True)
    if len({untimed(r) for r in reports}) != 1:
        errors.append("eval: reports differ between runs (timings excluded)")
    return errors
