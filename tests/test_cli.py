import json
import os
import pathlib
import random
import resource
import struct
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

import memtax
from memtax import (DigestParams, ReadSimConfig, classify_read, compute_mem_table,
                    deserialize, digest_sequence, longest_mems, parse_collection,
                    simulate_reads)
from memtax import cli
from memtax.cli import main
from memtax.evaluate import (MAX_SIMULATED_BASES, MAX_SIMULATED_READS, build_variant_index,
                             expand_variant_specs)
from memtax.mems import TSV_HEADER

from conftest import P, TOY_GENOMES, rewritten_bits, rewritten_index, rewritten_rows


@pytest.fixture()
def toy_files(tmp_path):
    genomes = tmp_path / "toy.txt"
    genomes.write_text("\n".join(TOY_GENOMES) + "\n")
    reads = tmp_path / "reads.fa"
    reads.write_text(">r0\nACATA\n")
    return genomes, reads


def test_build_and_query_raw(tmp_path, toy_files, capsys):
    genomes, reads = toy_files
    idx = tmp_path / "toy.ktk2"
    rc = main(["build", "--input", str(genomes), "--format", "lines",
               "--mode", "raw", "--output", str(idx)])
    assert rc == 0
    assert "index_bytes" in capsys.readouterr().out
    out = tmp_path / "mems.tsv"
    rc = main(["query", "--index", str(idx), "--reads", str(reads),
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("read_id\t")
    rows = [l.split("\t") for l in lines[1:]]
    assert [(r[3], r[4], r[5], r[6], r[7]) for r in rows] == [
        ("ACAT", "4", "21", "0", "2"),
        ("ATA", "11", "41", "1", "4"),
    ]
    # only ASCII letters fold: "ß" stays one symbol, so GATT starts at 6
    # (str.upper made it "SS" and reported 7)
    reads.write_text(">r1\nacataßGATT\n")
    assert main(["query", "--index", str(idx), "--reads", str(reads), "--min-mem", "4",
                 "--output", str(out)]) == 0
    rows = [l.split("\t") for l in out.read_text().splitlines()[1:]]
    assert [(r[1], r[2], r[3]) for r in rows] == [("0", "4", "ACAT"), ("6", "4", "GATT")]


def test_build_kernel_and_digest_kernel(tmp_path, golden_genomes, capsys):
    genomes = tmp_path / "fig.txt"
    genomes.write_text("\n".join(golden_genomes) + "\n")
    idx = tmp_path / "kern.ktk2"
    rc = main(["build", "--input", str(genomes), "--format", "lines",
               "--mode", "kernel", "--kmax", "4", "--output", str(idx)])
    assert rc == 0
    summary = capsys.readouterr().out
    assert "kept=737" in summary and "gap_markers=62" in summary

    idx2 = tmp_path / "dk.ktk2"
    rc = main(["build", "--input", str(genomes), "--format", "lines",
               "--mode", "digest-kernel", "--k", "3", "--w", "10",
               "--kmax", "2", "--output", str(idx2)])
    assert rc == 0
    summary = capsys.readouterr().out
    # 220 non-separator symbols: 205 minimizer values plus 15 gap markers
    assert "kept=205" in summary and "gap_markers=15" in summary


def test_query_digest_index_uses_stored_params(tmp_path, golden_genomes):
    genomes = tmp_path / "fig.txt"
    genomes.write_text("\n".join(golden_genomes) + "\n")
    idx = tmp_path / "dig.ktk2"
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "digest", "--output", str(idx)]) == 0
    reads = tmp_path / "p.fa"
    reads.write_text(f">P\n{P}\n")
    out = tmp_path / "mems.tsv"
    assert main(["query", "--index", str(idx), "--reads", str(reads),
                 "--output", str(out)]) == 0
    rows = [l.split("\t") for l in out.read_text().strip().split("\n")[1:]]
    assert [(r[3], r[6], r[7]) for r in rows] == [("Q", "8", "15"), (".", "4", "11")]


def test_n_bearing_read_on_digest_index(tmp_path, golden_genomes):
    genomes = tmp_path / "fig.txt"
    genomes.write_text("\n".join(golden_genomes) + "\n")
    idx = tmp_path / "dig.ktk2"
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "digest", "--output", str(idx)]) == 0
    tree = tmp_path / "fig.nwk"
    tree.write_text("(" + ",".join(f"g{i}" for i in range(len(golden_genomes))) + ");")
    reads = tmp_path / "reads.fa"
    reads.write_text(f">clean1\n{P}\n>withN\n{P[:10]}N{P[11:]}\n>clean2\n{P}\n")

    out = tmp_path / "mems.tsv"
    assert main(["query", "--index", str(idx), "--reads", str(reads),
                 "--output", str(out)]) == 0
    rows = [l.split("\t") for l in out.read_text().strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["clean1", "clean1", "clean2", "clean2"]

    out = tmp_path / "cls.tsv"
    assert main(["classify", "--index", str(idx), "--tree", str(tree),
                 "--reads", str(reads), "--output", str(out)]) == 0
    rows = [l.split("\t") for l in out.read_text().strip().split("\n")[1:]]
    by_read = {}
    for r in rows:
        by_read.setdefault(r[0], []).append(r[1:])
    assert list(by_read) == ["clean1", "withN", "clean2"]
    assert by_read["withN"] == [["-"] * 5]
    assert by_read["clean2"] == by_read["clean1"] != [["-"] * 5]


def test_reserved_symbol_read_on_raw_index(tmp_path, toy_files):
    genomes, _ = toy_files
    idx = tmp_path / "toy.ktk2"
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "raw", "--output", str(idx)]) == 0
    tree = tmp_path / "toy.nwk"
    tree.write_text("((g0,g1),(g2,(g3,g4)));")
    reads = tmp_path / "reads.txt"
    reads.write_text("ACGTAC\nAC$GTA\nGA#TA\nGGTACC\n")

    out = tmp_path / "mems.tsv"
    assert main(["query", "--index", str(idx), "--reads", str(reads),
                 "--format", "lines", "--output", str(out)]) == 0
    rows = [l.split("\t") for l in out.read_text().strip().split("\n")[1:]]
    assert {r[0] for r in rows} == {"read0", "read3"}

    out = tmp_path / "cls.tsv"
    assert main(["classify", "--index", str(idx), "--tree", str(tree),
                 "--reads", str(reads), "--format", "lines",
                 "--output", str(out)]) == 0
    rows = [l.split("\t") for l in out.read_text().strip().split("\n")[1:]]
    by_read = {}
    for r in rows:
        by_read.setdefault(r[0], []).append(r[1:])
    assert list(by_read) == ["read0", "read1", "read2", "read3"]
    assert by_read["read1"] == by_read["read2"] == [["-"] * 5]
    assert by_read["read3"] != [["-"] * 5]


@pytest.mark.parametrize("mode, min_mem", [("raw", "2"), ("digest", "1")])
def test_query_over_chunks_equals_one_call_per_read(tmp_path, golden_genomes, mode, min_mem,
                                                    monkeypatch):
    # more reads than one chunk of the lockstep walk, unclassifiable ones
    # among them, give the rows of one call per read in the same order
    from memtax import mems
    monkeypatch.setattr(mems, "CHUNK_READS", 4)
    genomes = tmp_path / "fig.txt"
    genomes.write_text("\n".join(golden_genomes) + "\n")
    idx = tmp_path / "ix.ktk2"
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", mode, "--output", str(idx)]) == 0
    reads = [P, P[:10] + "N" + P[11:], "AC$GT", "A", golden_genomes[3][5:60], P[::-1],
             "GATTACA", golden_genomes[0][:40] + "ÄTTT", P[2:], golden_genomes[7]]

    def query(records, name):
        path, out = tmp_path / f"{name}.fa", tmp_path / f"{name}.tsv"
        path.write_text("".join(f">r{k}\n{seq}\n" for k, seq in records))
        assert main(["query", "--index", str(idx), "--reads", str(path),
                     "--min-mem", min_mem, "--output", str(out)]) == 0
        return out.read_text().splitlines()

    records = list(enumerate(reads))
    whole = query(records, "all")
    single = [query([record], f"one{record[0]}") for record in records]
    assert whole[0] == single[0][0]
    assert whole[1:] == [row for lines in single for row in lines[1:]]
    assert len({row.split("\t")[0] for row in whole[1:]}) >= 5


def test_empty_read_file(tmp_path, toy_files):
    genomes, _ = toy_files
    idx = tmp_path / "toy.ktk2"
    main(["build", "--input", str(genomes), "--format", "lines",
          "--mode", "raw", "--output", str(idx)])
    empty = tmp_path / "empty.fa"
    empty.write_text("")
    out = tmp_path / "out.tsv"
    assert main(["query", "--index", str(idx), "--reads", str(empty),
                 "--output", str(out)]) == 0
    assert out.read_text().strip().split("\n") == ["\t".join(
        ("read_id", "read_start", "length", "mem_string", "first_pos",
         "last_pos", "first_genome", "last_genome", "empty_flag"))]


def test_classify(tmp_path, toy_files):
    genomes, reads = toy_files
    idx = tmp_path / "toy.ktk2"
    main(["build", "--input", str(genomes), "--format", "lines",
          "--mode", "raw", "--output", str(idx)])
    tree = tmp_path / "toy.nwk"
    tree.write_text("((g0,g1),(g2,(g3,g4)));")
    out = tmp_path / "cls.tsv"
    rc = main(["classify", "--index", str(idx), "--tree", str(tree),
               "--reads", str(reads), "--output", str(out)])
    assert rc == 0
    rows = [l.split("\t") for l in out.read_text().strip().split("\n")[1:]]
    # the longest MEM of ACATA is ACAT with range (0, 2): not a single leaf
    assert rows[0][3:5] == ["0", "2"]
    assert rows[0][5] != "-"

    single = tmp_path / "single.fa"
    single.write_text(">u\nGATTAGATA\n")
    rc = main(["classify", "--index", str(idx), "--tree", str(tree),
               "--reads", str(single), "--output", str(out)])
    assert rc == 0
    rows = [l.split("\t") for l in out.read_text().strip().split("\n")[1:]]
    assert rows[0][3:6] == ["4", "4", "g4"]  # unique to the last genome


def test_classify_digest_empty_records(tmp_path):
    # genomes over A and C, a read over G and T: none of the read's
    # minimizer values occurs in the digest, so each is a one-symbol empty
    # record, and every one of them is a longest MEM with no genome range
    rng = random.Random(3)
    genomes, tree, reads = tmp_path / "ac.txt", tmp_path / "ac.nwk", tmp_path / "gt.fa"
    genomes.write_text("".join("".join(rng.choice("AC") for _ in range(40)) + "\n"
                               for _ in range(3)))
    tree.write_text("(g0,(g1,g2));")
    read = "".join(rng.choice("GT") for _ in range(60))
    reads.write_text(f">r0\n{read}\n")
    idx, out = tmp_path / "ac.ktk2", tmp_path / "cls.tsv"
    assert main(["build", "--input", str(genomes), "--format", "lines", "--mode", "digest",
                 "--k", "3", "--w", "10", "--output", str(idx)]) == 0
    assert main(["classify", "--index", str(idx), "--tree", str(tree),
                 "--reads", str(reads), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    symbols = len(digest_sequence(read, DigestParams(k=3, w=10)))
    assert symbols > 1
    assert lines == ["read_id\tread_start\tlength\tfirst_genome\tlast_genome\tnode_label"] + \
        [f"r0\t{i}\t1\t-\t-\t-" for i in range(symbols)]


def test_classify_tree_mismatch(tmp_path, toy_files, capsys):
    genomes, reads = toy_files
    idx = tmp_path / "toy.ktk2"
    main(["build", "--input", str(genomes), "--format", "lines",
          "--mode", "raw", "--output", str(idx)])
    tree = tmp_path / "bad.nwk"
    tree.write_text("((g0,g1),(g2,g3));")
    rc = main(["classify", "--index", str(idx), "--tree", str(tree),
               "--reads", str(reads)])
    assert rc == 2
    # build and eval validate a parseable tree against the collection: a
    # leaf count, a leaf order or leaf labels only some of which are genome
    # names that disagree with it exit 2 with one line
    capsys.readouterr()
    for newick, message in (("((g0,g1),(g2,g3));",
                             "tree has 4 leaves but the collection has 5 genomes"),
                            ("((g1,g0),(g2,(g3,g4)));",
                             "leaf order mismatch: leaf 0 is 'g1', expected 'g0'"),
                            ("((g0,g1),(g2,(x,g4)));",
                             "leaf order mismatch: leaf 3 is 'x', expected 'g3'")):
        tree.write_text(newick)
        for argv in (["build", "--mode", "raw", "--output", str(tmp_path / "t.ktk2")],
                     ["eval", "--reads-per-genome", "1", "--read-len", "5"]):
            assert main(argv + ["--input", str(genomes), "--format", "lines",
                                "--tree", str(tree)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        # classify checks the tree against the names the index stores
        assert main(["classify", "--index", str(idx), "--tree", str(tree),
                     "--reads", str(reads)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]


def test_classify_checks_the_tree_against_the_genome_names(tmp_path, capsys):
    # the README's three genomes: a tree naming them in another order exits
    # 2 with one line, where it used to label GATTA (drawn from g0) g2; a
    # tree sharing no label with the names maps its leaves by position
    genomes, reads = tmp_path / "three.fa", tmp_path / "three_reads.fa"
    genomes.write_text(">g0\nGATTACAT\n>g1\nAGATACAT\n>g2\nGATACAT\n")
    reads.write_text(">r0\nGATTA\n")
    idx, tree = tmp_path / "three.ktk2", tmp_path / "three.nwk"
    assert main(["build", "--input", str(genomes), "--mode", "raw", "--output", str(idx)]) == 0
    assert main(["inspect", str(idx)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["names"] == ["g0", "g1", "g2"]
    classify = ["classify", "--index", str(idx), "--tree", str(tree), "--reads", str(reads)]
    tree.write_text("(g2,(g1,g0)n1)root;")
    assert main(classify) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: leaf order mismatch: leaf 0 is 'g2', expected 'g0'"]
    for newick, label in (("(g0,(g1,g2)bc)root;", "g0"), ("(a,(b,c)bc)root;", "a")):
        tree.write_text(newick)
        assert main(classify) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [f"r0\t0\t5\t0\t0\t{label}"]


def test_duplicate_genome_names_exit_2(tmp_path, capsys):
    genomes = tmp_path / "dup.fa"
    genomes.write_text(">g0\nGATTACAT\n>g1\nAGATACAT\n>g0\nGATACAT\n")
    for argv in (["build", "--mode", "raw", "--output", str(tmp_path / "dup.ktk2")],
                 ["eval", "--reads-per-genome", "1", "--read-len", "5"]):
        assert main(argv + ["--input", str(genomes)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: duplicate genome name 'g0'"]
    assert not (tmp_path / "dup.ktk2").exists()


def test_eval_short_genomes(tmp_path, capsys):
    # genomes shorter than the read length are skipped with one warning
    # line; when every genome is, eval exits 2 with one error line
    genomes = tmp_path / "short.txt"
    genomes.write_text("ACGTACGTAC\nAC\n")
    argv = ["eval", "--input", str(genomes), "--format", "lines", "--reads-per-genome", "2"]
    for read_len, code, err in (
            ("5", 0, "warning: skipped genomes shorter than the read length: ['g1']"),
            ("11", 2, "error: every genome is shorter than the read length")):
        assert main(argv + ["--read-len", read_len]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [err]
        assert bool(captured.out) == (code == 0)


def test_deprecation_in_a_command_still_fails(monkeypatch):
    # main reformats warnings but keeps their filters: pytest's error filter
    # for a DeprecationWarning raised in memtax still applies inside main
    def deprecated(args):
        warnings.warn("old", DeprecationWarning, stacklevel=2)  # attributed to memtax.cli
        return 0
    monkeypatch.setattr(cli, "cmd_inspect", deprecated)
    with pytest.raises(DeprecationWarning, match="old"):
        main(["inspect", "unused.ktk2"])


def test_eval_json(tmp_path, toy_files):
    genomes, _ = toy_files
    out = tmp_path / "report.json"
    rc = main(["eval", "--input", str(genomes), "--format", "lines",
               "--variants", "raw,kernel:8", "--reads-per-genome", "2",
               "--read-len", "6", "--mut-rate", "0", "--seed", "5",
               "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert [v["variant"] for v in payload["variants"]] == ["raw", "kernel(k_max=8)"]
    assert payload["config"]["seed"] == 5


def test_eval_per_read(tmp_path, golden_genomes):
    # one row per (variant, read), variants in the order given and reads in
    # simulation order, each holding the genome ranges of the read's longest
    # MEMs; an 11-base read is shorter than one digest:3:10 window, so it
    # has no records against the digest and its row holds "-"
    genomes = tmp_path / "fig.txt"
    genomes.write_text("\n".join(golden_genomes) + "\n")
    specs = ["raw", "kernel:4", "digest:3:10"]
    argv = ["eval", "--input", str(genomes), "--format", "lines", "--variants", ",".join(specs),
            "--reads-per-genome", "2", "--read-len", "11", "--mut-rate", "0.1", "--seed", "5"]
    plain, verbose, per_read = (tmp_path / name for name in ("plain.json", "verbose.json",
                                                             "per_read.tsv"))
    assert main(argv + ["--output", str(plain)]) == 0
    assert main(argv + ["--output", str(verbose), "--per-read", str(per_read)]) == 0
    collection = parse_collection(str(genomes), fmt="lines")
    sims = simulate_reads(collection, ReadSimConfig(read_length=11, mutation_rate=0.1,
                                                    reads_per_genome=2, seed=5))
    expected, without_records = ["variant\tsource_genome\ttrue_positive\tlongest_mem_ranges"], 0
    for variant in expand_variant_specs(specs):
        ix = build_variant_index(collection, variant)
        for sim in sims:
            table = compute_mem_table(ix, sim.sequence)
            without_records += not table.records
            ranges = ";".join("-" if rec.genome_range is None
                              else f"{rec.first_genome},{rec.last_genome}"
                              for rec in longest_mems(table)) if table.records else "-"
            expected.append(f"{variant.label}\t{sim.source}\t"
                            f"{int(classify_read(table, sim.source))}\t{ranges}")
    assert per_read.read_text().splitlines() == expected
    assert without_records == len(sims)  # the digest's rows
    reports = [json.loads(path.read_text()) for path in (plain, verbose)]
    for report in reports:
        for variant in report["variants"]:
            del variant["mean_query_us"]
    assert reports[0] == reports[1]


def test_missing_reads_leave_output(tmp_path, toy_files, capsys):
    # the reads open before the output, so an existing output is kept
    genomes, _ = toy_files
    idx, tree, keep = tmp_path / "toy.ktk2", tmp_path / "toy.nwk", tmp_path / "keep.tsv"
    tree.write_text("((g0,g1),(g2,(g3,g4)));")
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "raw", "--output", str(idx)]) == 0
    keep.write_text("earlier results\n")
    missing = str(tmp_path / "nosuch.fa")
    capsys.readouterr()
    for argv in (["query", "--index", str(idx)],
                 ["classify", "--index", str(idx), "--tree", str(tree)]):
        assert main(argv + ["--reads", missing, "--output", str(keep)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "nosuch.fa" in err[0]
        assert keep.read_text() == "earlier results\n"


def test_output_in_a_missing_directory_names_the_path_given(tmp_path, toy_files, capsys):
    # the error names the output as given, not the new file written beside it
    genomes, reads = toy_files
    idx, tree = tmp_path / "toy.ktk2", tmp_path / "toy.nwk"
    tree.write_text("((g0,g1),(g2,(g3,g4)));")
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "raw", "--output", str(idx)]) == 0
    out = str(tmp_path / "nosuch" / "out.tsv")
    evaluate = ["eval", "--input", str(genomes), "--format", "lines", "--read-len", "5",
                "--reads-per-genome", "2"]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    for argv in (["query", "--index", str(idx), "--reads", str(reads), "--output", out],
                 ["classify", "--index", str(idx), "--tree", str(tree), "--reads", str(reads),
                  "--output", out],
                 [*evaluate, "--output", out], [*evaluate, "--per-read", out]):
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: [Errno 2] No such file or directory: '{out}'"], argv
    assert sorted(tmp_path.iterdir()) == before


def test_exit_codes(tmp_path, toy_files, toy_index, capsys, monkeypatch):
    genomes, reads = toy_files
    # validation error: reserved symbol in input
    bad = tmp_path / "bad.txt"
    bad.write_text("AC#GT\n")
    rc = main(["build", "--input", str(bad), "--format", "lines",
               "--mode", "raw", "--output", str(tmp_path / "x.ktk2")])
    assert rc == 2
    # io error: missing input file
    rc = main(["build", "--input", str(tmp_path / "missing.txt"),
               "--mode", "raw", "--output", str(tmp_path / "x.ktk2")])
    assert rc == 3
    # format error: querying a non-index file
    junk = tmp_path / "junk.ktk2"
    junk.write_bytes(b"garbage")
    rc = main(["query", "--index", str(junk), "--reads", str(reads)])
    assert rc == 4
    idx = tmp_path / "toy.ktk2"
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "raw", "--output", str(idx)]) == 0
    blob = idx.read_bytes()
    # format error: a file of version 2, whose LCP was <u4 whatever its
    # maximum, of version 3, which stored the separators as a bitvector, of
    # version 4, which stored the BWT first, or of version 5, which stored
    # the arrays unpacked, widest first
    capsys.readouterr()
    for version in (2, 3, 4, 5):
        idx.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        assert main(["query", "--index", str(idx), "--reads", str(reads)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unsupported index version {version}"]
    # format error: a hand-edited header key
    idx.write_bytes(blob.replace(b'"text_length"', b'"text_lengtX"'))
    rc = main(["query", "--index", str(idx), "--reads", str(reads)])
    assert rc == 4
    # format error: a checksummed text length that disagrees with the arrays
    (meta_len,) = struct.unpack("<I", blob[8:12])
    head = blob[:12 + meta_len].replace(b'"text_length":45', b'"text_length":50')
    payload = blob[16 + meta_len:]
    crc = zlib.crc32(payload, zlib.crc32(head))
    idx.write_bytes(head + struct.pack("<I", crc) + payload)
    rc = main(["query", "--index", str(idx), "--reads", str(reads)])
    assert rc == 4
    # validation error: no reads to simulate (it used to report every genome
    # as shorter than the read length)
    capsys.readouterr()
    rc = main(["eval", "--input", str(genomes), "--format", "lines",
               "--reads-per-genome", "0", "--read-len", "5"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "reads_per_genome" in err[0]
    # validation error: a variant parameter given below 1 says so, one
    # missing says it is required; eval rejects a bad variant before any
    # build (kernel:-3 used to exit 0 with a per-variant error); a digest w
    # whose window of k + w - 1 symbols does not fit int64 is rejected too
    # (it used to end in an OverflowError traceback)
    build = ["build", "--input", str(genomes), "--format", "lines", "--output", str(idx)]
    huge = "100000000000000000000"
    digest_bounds = ("digest parameters must satisfy 1 <= k <= 15, 1 <= w <= 2^63 - k, "
                     "0 < m <= 2^63 / 4^k")
    for argv, message in ((build + ["--mode", "kernel", "--kmax", "0"], "k_max must be at least 1"),
                          (build + ["--mode", "kernel"], "mode 'kernel' requires k_max"),
                          (build + ["--mode", "digest", "--w", "0"], "w must be at least 1"),
                          (build + ["--mode", "digest-kernel", "--k", "0", "--kmax", "5"],
                           "k must be at least 1"),
                          (["eval", "--input", str(genomes), "--format", "lines",
                            "--variants", "raw,kernel:0", "--reads-per-genome", "1",
                            "--read-len", "5"], "k_max must be at least 1"),
                          (["eval", "--input", str(genomes), "--format", "lines",
                            "--variants", "kernel:-3", "--reads-per-genome", "1",
                            "--read-len", "5"], "k_max must be at least 1"),
                          (build + ["--mode", "digest", "--w", huge], digest_bounds),
                          # a flag the mode takes no parameter from (each used to be ignored)
                          (build + ["--mode", "raw", "--kmax", "20"],
                           "--kmax does not apply to --mode raw"),
                          (build + ["--mode", "digest", "--kmax", "20"],
                           "--kmax does not apply to --mode digest"),
                          (build + ["--mode", "raw", "--k", "3"], "--k does not apply to --mode raw"),
                          (build + ["--mode", "kernel", "--kmax", "5", "--w", "10"],
                           "--w does not apply to --mode kernel"),
                          (build + ["--mode", "raw", "--hash-m", "8863"],
                           "--hash-m does not apply to --mode raw"),
                          (build + ["--mode", "kernel", "--kmax", "5", "--hash-a", "1"],
                           "--hash-a does not apply to --mode kernel"),
                          (["eval", "--input", str(genomes), "--format", "lines",
                            "--variants", f"raw,digest:3:{huge}", "--reads-per-genome", "1",
                            "--read-len", "5"], digest_bounds)):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]
    # validation error: a digest k whose codes would not fit int32
    rc = main(["build", "--input", str(genomes), "--format", "lines",
               "--mode", "digest", "--k", "16", "--w", "2", "--output", str(idx)])
    assert rc == 2
    # format error: a checksummed digest header whose provenance lacks the hash
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "digest", "--k", "3", "--w", "2", "--output", str(idx)]) == 0
    digest_blob = idx.read_bytes()
    idx.write_bytes(rewritten_index(digest_blob, lambda meta: meta["provenance"].pop("hash")))
    rc = main(["query", "--index", str(idx), "--reads", str(reads)])
    assert rc == 4
    # format error: a checksummed digest header whose w is too large for a
    # window (it used to load and end the query in an OverflowError)
    idx.write_bytes(rewritten_index(digest_blob,
                                    lambda meta: meta["provenance"].update(w=10**30)))
    capsys.readouterr()
    assert main(["query", "--index", str(idx), "--reads", str(reads)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed index header")
    # format error: a checksummed raw index whose LCP rows exceed the
    # suffix lengths, each at 1, the largest that the PLCP bit vector holds
    # in every row but the first (at 255, the one-byte LCP's maximum, it
    # used to load and report a 5-long MEM for ACATA), and one whose PLCP
    # bit vector holds one one too few, or a padding bit
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "raw", "--output", str(idx)]) == 0
    raw_blob = idx.read_bytes()
    assert b'["lcp","u1",46]' in raw_blob
    capsys.readouterr()
    for bad in (rewritten_rows(raw_blob, "lcp", slice(1, None), 1),
                rewritten_bits(raw_blob, "lcp", lambda bits: bits.__setitem__(90, 0)),
                rewritten_bits(raw_blob, "lcp", lambda bits: bits.__setitem__(92, 1))):
        idx.write_bytes(bad)
        assert main(["query", "--index", str(idx), "--reads", str(reads)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
    # format error: a checksummed raw index with one BWT A edited to C (it
    # used to load and report GATTAGATA over genomes 0-3), and one whose
    # genome count is one more than the BWT's separators
    a, c = toy_index.alphabet.query_codes(["AC"]).tolist()
    a_row = int(np.flatnonzero(toy_index.bwt.symbols("u1") == a)[0])
    capsys.readouterr()
    for bad in (rewritten_rows(raw_blob, "bwt", a_row, c),
                rewritten_index(raw_blob, lambda meta: meta.update(genome_count=6))):
        idx.write_bytes(bad)
        assert main(["query", "--index", str(idx), "--reads", str(reads)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
    idx.write_bytes(raw_blob)
    # format error: a genome, reads or tree file that is not UTF-8 text
    def binary(name, text):
        path = tmp_path / name
        path.write_bytes(text[:4].encode() + b"\xff" + text[4:].encode())
        return str(path)

    tree = tmp_path / "toy.nwk"
    tree.write_text("((g0,g1),(g2,(g3,g4)));")
    # a command that fails leaves its existing outputs as they were and no
    # new file behind (query and classify used to leave only the TSV header
    # in --output, eval only the header in --per-read): each is written
    # beside the output and moved over it once complete
    keep, kept_report = tmp_path / "keep.tsv", tmp_path / "keep.json"
    keep.write_text("keep\n")
    kept_report.write_text("keep\n")
    genomes_bin, reads_bin = (binary("genomes.bin", "\n".join(TOY_GENOMES)),
                              binary("reads.bin", ">r0\nACATA\n"))
    tree_bin = binary("tree.bin", tree.read_text())
    capsys.readouterr()
    for argv, code, message in (
            (["build", "--input", genomes_bin, "--format", "lines", "--mode", "raw",
              "--output", str(tmp_path / "y.ktk2")], 4, "is not a text file"),
            (["classify", "--index", str(idx), "--tree", str(tree), "--reads", reads_bin,
              "--output", str(keep)], 4, "is not a text file"),
            (["query", "--index", str(idx), "--reads", reads_bin, "--output", str(keep)],
             4, "is not a text file"),
            (["classify", "--index", str(idx), "--tree", tree_bin, "--reads", str(reads)],
             4, "is not a text file"),
            (["eval", "--input", str(genomes), "--format", "lines", "--variants", "raw",
              "--read-len", "100", "--per-read", str(keep), "--output", str(kept_report)],
             2, "every genome is shorter than the read length")):
        files = sorted(tmp_path.iterdir())
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert keep.read_bytes() == kept_report.read_bytes() == b"keep\n"
        assert sorted(tmp_path.iterdir()) == files
    # validation error: a tree file holding a second tree after the first
    # (it used to parse the first one and drop the rest)
    two = tmp_path / "two.nwk"
    two.write_text("((g0,g1),(g2,(g3,g4)));\n(g0,g1);\n")
    for argv in (["classify", "--index", str(idx), "--tree", str(two), "--reads", str(reads)],
                 ["build", "--input", str(genomes), "--format", "lines", "--mode", "raw",
                  "--tree", str(two), "--output", str(tmp_path / "z.ktk2")],
                 ["eval", "--input", str(genomes), "--format", "lines", "--tree", str(two),
                  "--reads-per-genome", "1", "--read-len", "5"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "terminating ';'" in err[0]
    # validation error: a minimum MEM length below 1 (it used to act as 1);
    # it is checked before the output opens, so an existing output file is
    # left as it was and nothing goes to stdout
    for command, min_mem in (("query", "0"), ("classify", "-4")):
        argv = [command, "--index", str(idx), "--reads", str(reads), "--min-mem", min_mem]
        argv += ["--tree", str(tree)] if command == "classify" else []
        for output in ([], ["--output", str(keep)]):
            assert main(argv + output) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: minimum MEM length must be at least 1, got {min_mem}"]
            assert keep.read_bytes() == b"keep\n"
    # validation error: an output that names one of the command's inputs or
    # its other output, by another spelling or a link too (classify --output
    # on its reads file used to exit 0 and leave only the TSV header in it);
    # it is checked before any output opens, so every file is left as it was
    link = tmp_path / "reads.link"
    link.symlink_to(reads)
    report = tmp_path / "report.json"
    evaluate = ["eval", "--input", str(genomes), "--format", "lines",
                "--reads-per-genome", "1", "--read-len", "5"]
    for argv, flag, other in (
            (["query", "--index", str(idx), "--reads", str(reads), "--output", str(reads)],
             "--output", "--reads"),
            (["query", "--index", str(idx), "--reads", str(reads),
              "--output", str(tmp_path / "." / reads.name)], "--output", "--reads"),
            (["query", "--index", str(idx), "--reads", str(reads), "--output", str(idx)],
             "--output", "--index"),
            (["classify", "--index", str(idx), "--tree", str(tree), "--reads", str(reads),
              "--output", str(link)], "--output", "--reads"),
            (["classify", "--index", str(idx), "--tree", str(tree), "--reads", str(reads),
              "--output", str(tree)], "--output", "--tree"),
            (evaluate + ["--output", str(genomes)], "--output", "--input"),
            (evaluate + ["--per-read", str(genomes)], "--per-read", "--input"),
            (evaluate + ["--tree", str(tree), "--per-read", str(tree)], "--per-read", "--tree"),
            (evaluate + ["--per-read", str(report), "--output", str(report)],
             "--output", "--per-read"),
            (evaluate + ["--per-read", str(keep), "--output", str(keep)],
             "--output", "--per-read")):
        before = {path: path.read_bytes() for path in (idx, reads, genomes, tree, keep)}
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} ") and \
            f"names the same file as {other} " in err[0]
        assert {path: path.read_bytes() for path in before} == before
        assert not report.exists()
    # '-' names a file for every flag but the --output of query, classify
    # and eval, which is stdout (build --input - --output - used to exit 0
    # and overwrite a genome file named '-' with the index)
    monkeypatch.chdir(tmp_path)
    dash = tmp_path / "-"
    dash.write_bytes(genomes.read_bytes())
    for argv, flag, other in (
            (["build", "--input", "-", "--format", "lines", "--mode", "raw", "--output", "-"],
             "--output", "--input"),
            (["eval", "--input", "-", "--format", "lines", "--reads-per-genome", "1",
              "--read-len", "5", "--per-read", "-"], "--per-read", "--input")):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flag} - names the same file as {other} -"]
        assert dash.read_bytes() == genomes.read_bytes()
    assert main(["query", "--index", str(idx), "--reads", str(reads), "--output", "-"]) == 0
    assert capsys.readouterr().out.startswith("\t".join(TSV_HEADER) + "\n")
    assert dash.read_bytes() == genomes.read_bytes()
    # an output that is no regular file is written in place: no new file
    # can be moved over a device
    files = sorted(tmp_path.iterdir())
    assert main(["query", "--index", str(idx), "--reads", str(reads), "--output", os.devnull]) == 0
    assert sorted(tmp_path.iterdir()) == files


@pytest.mark.parametrize("k_max", [2**63, 10**20], ids=["2^63", "10^20"])
@pytest.mark.parametrize("form", ["build", "kernel", "digest-kernel"])
def test_kernel_order_past_int64_exits_2(tmp_path, toy_files, capsys, form, k_max):
    # it used to end in an OverflowError traceback (exit 1); eval rejects
    # the spec before any build
    genomes, _ = toy_files
    given = ["--input", str(genomes), "--format", "lines"]
    if form == "build":
        argv = ["build", *given, "--mode", "kernel", "--kmax", str(k_max),
                "--output", str(tmp_path / "k.ktk2")]
    else:
        spec = f"kernel:{k_max}" if form == "kernel" else f"digest-kernel:3:2:{k_max}"
        argv = ["eval", *given, "--variants", spec, "--read-len", "5",
                "--reads-per-genome", "2"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: k_max must be at most 2^63 - 1"]
    assert not (tmp_path / "k.ktk2").exists()


# runs main on each argv of a JSON list, one after another, its stdout let
# go, and prints the JSON list of [exit code, stderr lines]; a traceback is
# exit code 1
_MAINS = """
import contextlib, io, json, sys, traceback
from memtax.cli import main
done = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except BaseException:
            traceback.print_exc()
            code = 1
    done.append([code, err.getvalue().splitlines()])
print(json.dumps(done))
"""


def _capped_mains(argvs, cap: int = 1 << 29) -> list[tuple[int, list[str]]]:
    """(exit code, stderr lines) of main(argv) for each of argvs, run one
    after another in a child process whose address space is capped at cap
    bytes: a command that grew without bound would fail there, not exhaust
    the host."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(pathlib.Path(memtax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-c", _MAINS, json.dumps(argvs)],
                           env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return [tuple(case) for case in json.loads(child.stdout)]


@pytest.mark.parametrize("count", [10**20, 2**63], ids=["10^20", "2^63"])
@pytest.mark.parametrize("flag", ["--reads-per-genome", "--read-len"])
def test_simulated_reads_past_the_bound_exit_2(tmp_path, toy_files, flag, count):
    # eval used to append reads to one list until the host killed it; now
    # reads_per_genome x genomes x read_length is bounded before any read
    genomes, _ = toy_files
    argv = ["eval", "--input", str(genomes), "--format", "lines", "--read-len", "5",
            "--reads-per-genome", "2", flag, str(count), "--output", str(tmp_path / "r.json")]
    [(code, err)] = _capped_mains([argv])
    assert code == 2 and len(err) == 1 and "more than 2^31 simulated bases" in err[0]
    assert not (tmp_path / "r.json").exists()


def test_simulated_reads_bound_is_the_product(tmp_path, toy_files, capsys):
    # one read per genome past the bound, and no more, is rejected
    genomes, _ = toy_files
    length = 5
    per_genome = MAX_SIMULATED_BASES // (len(TOY_GENOMES) * length) + 1
    argv = ["eval", "--input", str(genomes), "--format", "lines", "--read-len", str(length),
            "--reads-per-genome", str(per_genome)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {per_genome} reads per genome x {len(TOY_GENOMES)} genomes x {length} bases "
        f"is more than 2^31 simulated bases"]


@pytest.mark.parametrize("genomes, per_genome",
                         [(3, 143_165_576), (5, MAX_SIMULATED_READS // 5 + 1)],
                         ids=["three-genomes", "one-past"])
def test_simulated_read_count_past_the_bound_exit_2(tmp_path, genomes, per_genome):
    # 143 165 576 five-base reads of each of three genomes are within the
    # base bound (2 147 483 640 bases), and eval used to hold them until a
    # 512 MB cap ended it with a MemoryError traceback; now reads_per_genome
    # x genomes is bounded before any read, one read past it as well
    fasta = tmp_path / "genomes.fa"
    fasta.write_text("".join(f">g{g}\n{TOY_GENOMES[g]}\n" for g in range(genomes)))
    argv = ["eval", "--input", str(fasta), "--read-len", "5", "--reads-per-genome",
            str(per_genome), "--output", str(tmp_path / "r.json")]
    assert per_genome * genomes * 5 <= MAX_SIMULATED_BASES
    [(code, err)] = _capped_mains([argv])
    assert (code, err) == (2, [f"error: {per_genome} reads per genome x {genomes} genomes is "
                               f"more than 2^22 simulated reads"])
    assert not (tmp_path / "r.json").exists()


EXTREME_INTS = [0, -1, 2**31, 2**63, 10**20]


def _flag_cases(command: str, given: list[str], flags: list[str]) -> list[list[str]]:
    """given plus one integer flag at each of EXTREME_INTS, for each flag;
    a flag that given holds too takes its last value."""
    return [[command, *given, f"{flag}={value}"] for flag in flags for value in EXTREME_INTS]


def test_every_integer_flag_at_extremes_exits_cleanly(tmp_path, toy_files):
    # each integer flag and spec field at 0, -1, 2^31, 2^63 and 10^20 either
    # runs or ends in a documented exit code with one line, under the cap;
    # one child per command
    genomes, reads = toy_files
    idx, tree, out = tmp_path / "toy.ktk2", tmp_path / "toy.nwk", str(tmp_path / "out")
    tree.write_text("((g0,g1),(g2,(g3,g4)));")
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "raw", "--output", str(idx)]) == 0
    lines = ["--input", str(genomes), "--format", "lines"]
    mems = ["--index", str(idx), "--reads", str(reads), "--output", out]
    evaluate = [*lines, "--read-len", "5", "--reads-per-genome", "2", "--output", out]
    batches = [
        _flag_cases("build", [*lines, "--mode", "kernel", "--output", out], ["--kmax"])
        + _flag_cases("build", [*lines, "--mode", "digest", "--output", out],
                      ["--k", "--w", "--hash-a", "--hash-b", "--hash-m"]),
        _flag_cases("query", mems, ["--min-mem"]),
        _flag_cases("classify", [*mems, "--tree", str(tree)], ["--min-mem"]),
        _flag_cases("eval", evaluate, ["--reads-per-genome", "--read-len", "--seed"])
        + [["eval", *evaluate, f"--variants={spec.format(value)}"]
           for spec in ("kernel:{}", "digest:{}:2", "digest:3:{}", "digest-kernel:{}:2:4",
                        "digest-kernel:3:{}:4", "digest-kernel:3:2:{}")
           for value in EXTREME_INTS],
    ]
    for argvs in batches:
        for argv, (code, err) in zip(argvs, _capped_mains(argvs)):
            assert code in (0, 2, 3, 4) and len(err) <= 1, (argv[0], argv[-1], code, err)


def test_kernel_order_at_int64_max_keeps_the_text(tmp_path, toy_files):
    # no genome holds a window of 2^63 - 1 symbols, so the kernel is the text
    genomes, _ = toy_files
    given = ["build", "--input", str(genomes), "--format", "lines"]
    assert main([*given, "--mode", "kernel", "--kmax", str(2**63 - 1),
                 "--output", str(tmp_path / "k.ktk2")]) == 0
    assert main([*given, "--mode", "raw", "--output", str(tmp_path / "raw.ktk2")]) == 0
    kernel, raw = deserialize(str(tmp_path / "k.ktk2")), deserialize(str(tmp_path / "raw.ktk2"))
    assert kernel.provenance["k_max"] == 2**63 - 1
    for name in ("sa", "lcp"):
        assert np.array_equal(getattr(kernel, name), getattr(raw, name))
    assert np.array_equal(kernel.bwt.symbols("u1"), raw.bwt.symbols("u1"))


def test_inspect(tmp_path, toy_files, golden_genomes, capsys):
    genomes, _ = toy_files
    golden = tmp_path / "golden.txt"
    golden.write_text("\n".join(golden_genomes) + "\n")
    for source, mode in ((genomes, ["raw"]), (golden, ["digest", "--k", "3", "--w", "10"])):
        idx = tmp_path / f"{mode[0]}.ktk2"
        assert main(["build", "--input", str(source), "--format", "lines", "--mode", *mode,
                     "--output", str(idx)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(idx)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        got = json.loads(out[0])
        ix = deserialize(str(idx))
        assert got["version"] == 7 and got["text_length"] == ix.n
        assert got["genome_count"] == len(ix.sep_positions)
        assert got["names"] == list(ix.names) == [f"g{i}" for i in range(len(ix.sep_positions))]
        assert got["alphabet"] == ix.alphabet.to_dict() and got["provenance"] == ix.provenance
        # the file stores three arrays, packed: the BWT at ceil(log2 sigma)
        # bits (3 raw, 7 for 3-mer digests), the suffix array at ceil(log2 R)
        # and the LCP as a bit vector of 2R bits; its header gives the suffix
        # array and the LCP the dtypes they are held in, and the BWT, held as
        # K, the one byte it decodes to
        held = {"bwt": ix.bwt.symbols("u1"), "sa": ix.sa, "lcp": ix.lcp}
        bits = {"bwt": 3 if mode == ["raw"] else 7, "sa": (ix.rows - 1).bit_length(), "lcp": 2}
        arrays = {a["name"]: a for a in got["arrays"]}
        assert [a["name"] for a in got["arrays"]] == ["bwt", "sa", "lcp"]
        for name, array in held.items():
            a = arrays[name]
            assert (np.dtype(a["dtype"]), a["count"], a["bits"], a["bytes"]) == \
                (array.dtype, len(array), bits[name], -(-ix.rows * bits[name] // 8)
                 if name == "lcp" else -(-ix.rows // 8) * bits[name])
        assert got["lcp_max"] == int(ix.lcp.max()) and arrays["lcp"]["dtype"] == "u1"
        # K is uint32 below sigma * R < 2**32
        assert got["key_bytes"] == ix.bwt.keys.nbytes == 4 * ix.rows
        assert got["file_bytes"] == idx.stat().st_size
    # a bad file exits 4 with one line, a missing one 3
    idx.write_bytes(idx.read_bytes()[:-1])
    for path, code in ((idx, 4), (tmp_path / "missing.ktk2", 3)):
        assert main(["inspect", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
