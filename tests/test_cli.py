import json
import struct
import zlib

import numpy as np
import pytest

from memtax.cli import main

from conftest import P, TOY_GENOMES, moved_separator, rewritten_index, rewritten_rows


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


def test_classify_tree_mismatch(tmp_path, toy_files):
    genomes, reads = toy_files
    idx = tmp_path / "toy.ktk2"
    main(["build", "--input", str(genomes), "--format", "lines",
          "--mode", "raw", "--output", str(idx)])
    tree = tmp_path / "bad.nwk"
    tree.write_text("((g0,g1),(g2,g3));")
    rc = main(["classify", "--index", str(idx), "--tree", str(tree),
               "--reads", str(reads)])
    assert rc == 2


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


def test_exit_codes(tmp_path, toy_files, toy_index, capsys):
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
    # format error: a hand-edited header key
    idx = tmp_path / "toy.ktk2"
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "raw", "--output", str(idx)]) == 0
    blob = idx.read_bytes()
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
    # suffix lengths (it used to load and report a 5-long MEM for ACATA)
    assert main(["build", "--input", str(genomes), "--format", "lines",
                 "--mode", "raw", "--output", str(idx)]) == 0
    raw_blob = idx.read_bytes()
    idx.write_bytes(rewritten_rows(raw_blob, "lcp", slice(1, None), 4_000_000_000))
    rc = main(["query", "--index", str(idx), "--reads", str(reads)])
    assert rc == 4
    # format error: a checksummed raw index with one BWT A edited to C (it
    # used to load and report GATTAGATA over genomes 0-3), and one whose
    # first separator bit moved one position earlier
    a, c = toy_index.alphabet.query_codes(["AC"]).tolist()
    a_row = int(np.flatnonzero(toy_index.bwt.symbols == a)[0])
    capsys.readouterr()
    for bad in (rewritten_rows(raw_blob, "bwt", a_row, c),
                rewritten_rows(raw_blob, "sep_bits", slice(None), moved_separator(toy_index))):
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
    capsys.readouterr()
    for argv in (["build", "--input", binary("genomes.bin", "\n".join(TOY_GENOMES)),
                  "--format", "lines", "--mode", "raw", "--output", str(tmp_path / "y.ktk2")],
                 ["classify", "--index", str(idx), "--tree", str(tree),
                  "--reads", binary("reads.bin", ">r0\nACATA\n")],
                 ["classify", "--index", str(idx), "--tree", binary("tree.bin", tree.read_text()),
                  "--reads", str(reads)]):
        assert main(argv) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "is not a text file" in err[0]
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
    # validation error: a minimum MEM length below 1 (it used to act as 1)
    for command, min_mem in (("query", "0"), ("classify", "-4")):
        argv = [command, "--index", str(idx), "--reads", str(reads), "--min-mem", min_mem]
        assert main(argv + (["--tree", str(tree)] if command == "classify" else [])) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: minimum MEM length must be at least 1, got {min_mem}"]
