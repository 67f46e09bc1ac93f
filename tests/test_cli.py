import json
import struct
import zlib

import pytest

from memtax.cli import main

from conftest import P, TOY_GENOMES


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


def test_exit_codes(tmp_path, toy_files):
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
