"""Command-line interface: build, query, classify, eval."""
from __future__ import annotations

import argparse
import contextlib
import sys

from .collection import iter_reads, open_text, parse_collection
from .digest import DEFAULT_HASH
from .errors import FormatError, MemtaxError, ValidationError
from .evaluate import (MODE_PARAMETERS, IndexVariant, ReadSimConfig,
                       build_variant_text, expand_variant_specs, run_experiment)
from .index import AugmentedFmIndex, deserialize
from .kernel import kernel_size_report
from .mems import TSV_HEADER, longest_mems, read_mem_tables, tsv_rows
from .taxonomy import LcaStructure, parse_newick

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_FORMAT = 4


def _open_out(path):
    """Context manager of the output: stdout for None or '-', else the file."""
    return contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w")


def _read_tree(path):
    with open_text(path) as f:
        text = f.read()
    return parse_newick(text)


def _variant_from_args(args) -> IndexVariant:
    params = {name: getattr(args, name) for name in MODE_PARAMETERS[args.mode]}
    return IndexVariant(args.mode, **params, hash_params=(args.hash_a, args.hash_b, args.hash_m))


def cmd_build(args) -> int:
    collection = parse_collection(args.input, fmt=args.format, allow_wildcard=args.allow_n)
    if args.tree:
        _read_tree(args.tree).validate_leaf_names(collection.names)
    variant = _variant_from_args(args)
    text = build_variant_text(collection, variant)
    index = AugmentedFmIndex.build(text)
    nbytes = index.serialize(args.output)
    kept, hashes, seps = kernel_size_report(text)
    print(f"mode={variant.label} genomes={collection.genome_count} "
          f"text_symbols={len(text)} kept={kept} gap_markers={hashes} "
          f"separators={seps} index_bytes={nbytes} -> {args.output}")
    return 0


def cmd_query(args) -> int:
    index = deserialize(args.index)
    # the reads open first: a reads file that does not open leaves the output as it was
    with open_text(args.reads) as source, _open_out(args.output) as out:
        out.write("\t".join(TSV_HEADER) + "\n")
        reads = iter_reads(source, fmt=args.format)
        for read_id, codes, table in read_mem_tables(index, reads, args.min_mem):
            symbols = index.alphabet.symbols(codes)
            for row in tsv_rows(read_id, symbols, table, index.alphabet):
                out.write("\t".join(str(x) for x in row) + "\n")
    return 0


def cmd_classify(args) -> int:
    index = deserialize(args.index)
    tree = _read_tree(args.tree)
    if tree.leaf_count != len(index.sep_positions):
        raise ValidationError(
            f"tree has {tree.leaf_count} leaves but the index holds "
            f"{len(index.sep_positions)} genomes")
    lca = LcaStructure(tree)
    with open_text(args.reads) as source, _open_out(args.output) as out:
        out.write("read_id\tread_start\tlength\tfirst_genome\tlast_genome\tnode_label\n")
        reads = iter_reads(source, fmt=args.format)
        for read_id, _, table in read_mem_tables(index, reads, args.min_mem):
            if not table.records:
                out.write(f"{read_id}\t-\t-\t-\t-\t-\n")
                continue
            for rec in longest_mems(table):
                if rec.genome_range is None:
                    out.write(f"{read_id}\t{rec.read_start}\t{rec.length}\t-\t-\t-\n")
                    continue
                node = lca.subtree_for_range(rec.first_genome, rec.last_genome)
                out.write(f"{read_id}\t{rec.read_start}\t{rec.length}\t"
                          f"{rec.first_genome}\t{rec.last_genome}\t{tree.label_of(node)}\n")
    return 0


def cmd_eval(args) -> int:
    collection = parse_collection(args.input, fmt=args.format, allow_wildcard=args.allow_n)
    tree = _read_tree(args.tree) if args.tree else None
    variants = expand_variant_specs(args.variants.split(","))
    cfg = ReadSimConfig(read_length=args.read_len, mutation_rate=args.mut_rate,
                        reads_per_genome=args.reads_per_genome, seed=args.seed)
    with open(args.per_read, "w") if args.per_read else contextlib.nullcontext() as per_read:
        if per_read is not None:
            per_read.write("variant\tsource_genome\ttrue_positive\tlongest_mem_ranges\n")
        report = run_experiment(collection, variants, cfg, tree=tree,
                                per_read_sink=per_read)
    with _open_out(args.output) as out:
        out.write(report.to_json() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="memtax",
        description="Build plain or lossily compressed FM-indexes over genome "
                    "collections (first/last-occurrence kernels, minimizer "
                    "digests, kernels of digests), compute per-read MEM tables "
                    "and classify reads by longest-MEM genome ranges.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common_build(sp):
        sp.add_argument("--input", required=True, help="genome collection file")
        sp.add_argument("--format", choices=("fasta", "lines"), default="fasta")
        sp.add_argument("--allow-n", action="store_true",
                        help="map non-ACGT symbols to an unmatchable wildcard "
                             "instead of rejecting them")

    def add_digest_params(sp):
        sp.add_argument("--k", type=int, default=3, help="minimizer width (default 3)")
        sp.add_argument("--w", type=int, default=10, help="window size in k-mers (default 10)")
        for flag, default in zip(("--hash-a", "--hash-b", "--hash-m"), DEFAULT_HASH):
            sp.add_argument(flag, type=int, default=default)

    b = sub.add_parser("build", help="build and serialize one index")
    add_common_build(b)
    b.add_argument("--mode", required=True, choices=tuple(MODE_PARAMETERS))
    b.add_argument("--kmax", dest="k_max", type=int, help="kernel order (kernel modes)")
    add_digest_params(b)
    b.add_argument("--tree", help="newick tree; validated against the collection")
    b.add_argument("--output", required=True, help="index file to write")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="MEM tables of reads against an index")
    q.add_argument("--index", required=True)
    q.add_argument("--reads", required=True)
    q.add_argument("--format", choices=("fasta", "lines"), default="fasta")
    q.add_argument("--min-mem", type=int, default=1, help="minimum reported MEM length")
    q.add_argument("--output", help="TSV output (default stdout)")
    q.set_defaults(func=cmd_query)

    c = sub.add_parser("classify", help="assign reads to subtrees by longest MEMs")
    c.add_argument("--index", required=True)
    c.add_argument("--tree", required=True, help="newick tree over the genomes")
    c.add_argument("--reads", required=True)
    c.add_argument("--format", choices=("fasta", "lines"), default="fasta")
    c.add_argument("--min-mem", type=int, default=1)
    c.add_argument("--output", help="TSV output (default stdout)")
    c.set_defaults(func=cmd_classify)

    e = sub.add_parser("eval", help="simulate reads and compare index variants")
    add_common_build(e)
    e.add_argument("--variants", default="raw",
                   help="comma list of raw | kernel:KMAX | digest:K:W | "
                        "digest-kernel:K:W:KMAX | grid (the full reference grid)")
    e.add_argument("--reads-per-genome", type=int, default=500)
    e.add_argument("--read-len", type=int, default=200)
    e.add_argument("--mut-rate", type=float, default=0.01)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--tree", help="optional newick tree, validated only")
    e.add_argument("--per-read", help="verbose per-read TSV")
    e.add_argument("--output", help="JSON report (default stdout)")
    e.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MemtaxError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, FormatError):
            return EXIT_FORMAT
        return EXIT_VALIDATION if isinstance(e, MemtaxError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
