"""Command-line interface: build, query, classify, eval, inspect."""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings

from .collection import iter_reads, open_text, parse_collection
from .digest import DEFAULT_HASH
from .errors import FormatError, MemtaxError, ValidationError
from .evaluate import (MODE_PARAMETERS, IndexVariant, ReadSimConfig,
                       build_variant_text, expand_variant_specs, run_experiment)
from .index import AugmentedFmIndex, deserialize
from .kernel import kernel_size_report
from .mems import (TSV_HEADER, longest_records, mem_chunks, read_mem_tables, rows_by_read,
                   tsv_rows)
from .taxonomy import LcaStructure, parse_newick

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_FORMAT = 4


def _open_out(path):
    """Context manager of the output: stdout for None or '-', else the file
    as _replace writes it."""
    return contextlib.nullcontext(sys.stdout) if path in (None, "-") else _replace(path)


@contextlib.contextmanager
def _replace(path):
    """A new text file beside path (of the file a link names), moved over
    it once the block ends without error and removed if it does not, so a
    failed command leaves path as it was.  A path that exists but is no
    regular file (a device, a pipe) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as out:
            yield out
        return
    final = os.path.realpath(path)
    part = f"{final}.{os.getpid()}.part"
    try:
        out = open(part, "x")
    except OSError as e:  # named as given, not as the new file
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with out:
            yield out
        os.replace(part, final)
    except BaseException:
        os.remove(part)
        raise


def _check_outputs(args) -> None:
    """ValidationError when an output file is one of the command's input
    files or its other output, which writing it would replace.  '-' is a
    file name like any other, except as the --output of a command that
    writes that to stdout (_open_out): every one but build."""
    stdout = args.command != "build" and getattr(args, "output", None) == "-"
    paths = [(f"--{name.replace('_', '-')}", getattr(args, name, None))
             for name in ("index", "reads", "tree", "input", "per_read", "output")]
    paths = [(flag, path) for flag, path in paths
             if path is not None and not (stdout and flag == "--output")]
    for k, (flag, path) in enumerate(paths):
        for other, earlier in paths[:k]:
            if flag in ("--per-read", "--output") and _same_file(path, earlier):
                raise ValidationError(f"{flag} {path} names the same file as {other} {earlier}")


def _same_file(a: str, b: str) -> bool:
    """os.path.samefile where both paths exist, else equal resolved paths."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _read_tree(path):
    with open_text(path) as f:
        return parse_newick(f.read())


# build's parameter flags, dest: (flag, default); the hash flags go with
# the digest modes, whose parameters include w
_BUILD_FLAGS = {"k_max": ("--kmax", None), "k": ("--k", 3), "w": ("--w", 10),
                **{f"hash_{c}": (f"--hash-{c}", v) for c, v in zip("abm", DEFAULT_HASH)}}


def _variant_from_args(args) -> IndexVariant:
    """The index variant of build's flags.  A flag given for a mode that
    takes no such parameter is an error, not ignored."""
    takes = MODE_PARAMETERS[args.mode]
    values = {}
    for dest, (flag, default) in _BUILD_FLAGS.items():
        value = getattr(args, dest)
        if value is not None and dest not in takes and not (dest.startswith("hash") and "w" in takes):
            raise ValidationError(f"{flag} does not apply to --mode {args.mode}")
        values[dest] = default if value is None else value
    hash_params = tuple(values.pop(f"hash_{c}") for c in "abm")
    return IndexVariant(args.mode, **{name: values[name] for name in takes},
                        hash_params=hash_params)


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
    # a reads file that does not open or a bad --min-mem fails before the
    # output opens, so nothing reaches stdout
    with open_text(args.reads) as source:
        tables = read_mem_tables(index, iter_reads(source, fmt=args.format), args.min_mem)
        with _open_out(args.output) as out:
            out.write("\t".join(TSV_HEADER) + "\n")
            for read_id, codes, table in tables:
                for row in tsv_rows(read_id, codes, table, index.alphabet):
                    out.write("\t".join(str(x) for x in row) + "\n")
    return 0


def cmd_classify(args) -> int:
    index = deserialize(args.index)
    tree = _read_tree(args.tree)
    tree.validate_leaf_names(index.names)
    lca = LcaStructure(tree)
    with open_text(args.reads) as source:
        chunks = mem_chunks(index, iter_reads(source, fmt=args.format), args.min_mem)
        with _open_out(args.output) as out:
            out.write("read_id\tread_start\tlength\tfirst_genome\tlast_genome\tnode_label\n")
            # rows and LCAs of the longest records alone, a chunk at a time
            for ids, _, _, columns, bounds in chunks:
                for read_id, recs in zip(ids, rows_by_read(
                        columns[[0, 1, 4, 5]], bounds, longest_records(columns[1], bounds))):
                    if not recs:
                        out.write(f"{read_id}\t-\t-\t-\t-\t-\n")
                    for start, length, first, last in recs:
                        if first < 0:
                            out.write(f"{read_id}\t{start}\t{length}\t-\t-\t-\n")
                            continue
                        node = lca.subtree_for_range(first, last)
                        out.write(f"{read_id}\t{start}\t{length}\t{first}\t{last}"
                                  f"\t{tree.label_of(node)}\n")
                del ids, columns, bounds  # let the chunk go before the next one is encoded
    return 0


def cmd_eval(args) -> int:
    collection = parse_collection(args.input, fmt=args.format, allow_wildcard=args.allow_n)
    if args.tree:
        _read_tree(args.tree).validate_leaf_names(collection.names)
    variants = expand_variant_specs(args.variants.split(","))
    cfg = ReadSimConfig(read_length=args.read_len, mutation_rate=args.mut_rate,
                        reads_per_genome=args.reads_per_genome, seed=args.seed)
    with _replace(args.per_read) if args.per_read else contextlib.nullcontext() as per_read:
        if per_read is not None:
            per_read.write("variant\tsource_genome\ttrue_positive\tlongest_mem_ranges\n")
        report = run_experiment(collection, variants, cfg, per_read_sink=per_read)
    with _open_out(args.output) as out:
        out.write(report.to_json() + "\n")
    return 0


def cmd_inspect(args) -> int:
    print(json.dumps(deserialize(args.index).summary(), sort_keys=True))
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

    b = sub.add_parser("build", help="build and serialize one index")
    add_common_build(b)
    b.add_argument("--mode", required=True, choices=tuple(MODE_PARAMETERS))
    b.add_argument("--kmax", dest="k_max", type=int, help="kernel order (kernel modes)")
    b.add_argument("--k", type=int, help="minimizer width (digest modes; default 3)")
    b.add_argument("--w", type=int, help="window size in k-mers (digest modes; default 10)")
    for flag, default in zip(("--hash-a", "--hash-b", "--hash-m"), DEFAULT_HASH):
        b.add_argument(flag, type=int, help=f"minimizer hash (digest modes; default {default})")
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

    i = sub.add_parser("inspect", help="load an index and print its header, array "
                                       "sizes and resident bytes as one JSON line")
    i.add_argument("index", help="index file")
    i.set_defaults(func=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a warning is one line on stderr, as an error is
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            _check_outputs(args)
            return args.func(args)
        except (MemtaxError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            if isinstance(e, FormatError):
                return EXIT_FORMAT
            return EXIT_VALIDATION if isinstance(e, MemtaxError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
