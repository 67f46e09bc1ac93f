import json
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from memtax import (GenomeCollection, IndexVariant, RangeClass, ReadSimConfig,
                    ValidationError, classify_range, classify_read,
                    compute_mem_table, digest_sequence, run_experiment,
                    simulate_reads)
from memtax import evaluate, suffix
from memtax.cli import main
from memtax.collection import parse_collection
from memtax.evaluate import (build_variant_index, expand_variant_specs, full_grid, range_classes,
                             true_positive_reads)
from memtax.mems import MemTable, longest_records, mem_chunks, read_mem_tables

from conftest import DATA, P


def _collection(rng, genomes=4, length=300):
    return GenomeCollection(genomes=[
        "".join(rng.choice("ACGT") for _ in range(length)) for _ in range(genomes)])


def test_simulate_exact_when_rate_zero():
    rng = random.Random(1)
    coll = _collection(rng)
    cfg = ReadSimConfig(read_length=50, mutation_rate=0.0, reads_per_genome=5, seed=9)
    reads = simulate_reads(coll, cfg)
    assert len(reads) == 20
    for r in reads:
        assert r.sequence in coll.genomes[r.source]


def test_simulate_deterministic_and_counts():
    rng = random.Random(2)
    coll = _collection(rng, genomes=3)
    cfg = ReadSimConfig(read_length=40, mutation_rate=0.05, reads_per_genome=7, seed=3)
    a = simulate_reads(coll, cfg)
    b = simulate_reads(coll, cfg)
    assert a == b
    assert len(a) == 21
    mutated = sum(r.sequence not in coll.genomes[r.source] for r in a)
    assert mutated > 0  # at 5% over 40 bases some reads must mutate


def test_simulate_skips_short_genomes():
    coll = GenomeCollection(genomes=["ACGTACGTAC", "AC"])
    cfg = ReadSimConfig(read_length=5, mutation_rate=0.0, reads_per_genome=2, seed=0)
    with pytest.warns(UserWarning):
        reads = simulate_reads(coll, cfg)
    assert {r.source for r in reads} == {0}
    # every genome too short raises, with no warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="every genome is shorter"):
            simulate_reads(GenomeCollection(genomes=["AC"]), cfg)


def test_classify_range_reference_examples():
    assert classify_range((9, 9), 9) is RangeClass.TRUE_POSITIVE
    for rng_pair in ((0, 1), (8, 8), (12, 14), (11, 11), (13, 13), (15, 15)):
        assert classify_range(rng_pair, 9) is RangeClass.FALSE_POSITIVE
    for rng_pair in ((0, 15), (4, 11), (6, 15), (8, 15)):
        assert classify_range(rng_pair, 9) is RangeClass.VAGUE_POSITIVE
    assert classify_range(None, 9) is RangeClass.FALSE_NEGATIVE


def test_classify_read_three_tables(golden_raw_index, golden_kernel4_index, golden_digest_index):
    from memtax import DigestParams
    raw = compute_mem_table(golden_raw_index, P)
    assert classify_read(raw, 9) is True
    kern = compute_mem_table(golden_kernel4_index, P)
    assert classify_read(kern, 9) is False
    dig = compute_mem_table(golden_digest_index, digest_sequence(P, DigestParams()))
    assert classify_read(dig, 9) is False
    assert classify_read(MemTable([]), 9) is False


def test_variant_specs():
    variants = expand_variant_specs(["raw", "kernel:20", "digest:3:10",
                                     "digest-kernel:3:10:5"])
    assert [v.label for v in variants] == [
        "raw", "kernel(k_max=20)", "digest(k=3,w=10)",
        "digest-kernel(k=3,w=10,k_max=5)"]
    # a mode at a wrong arity, a parameter that is no integer, an unknown mode
    for spec in ("kernel", "raw:5", "kernel:1:2", "digest:3", "digest-kernel:3:10",
                 "kernel:x", "protein:3"):
        with pytest.raises(ValidationError, match=f"cannot parse variant spec '{spec}'"):
            expand_variant_specs([spec])
    with pytest.raises(ValidationError, match="unknown index mode 'foo'"):
        IndexVariant("foo")
    # a read configuration out of range
    for bad, message in (({"read_length": 0}, "read_length must be at least 1"),
                         ({"mutation_rate": -0.1}, r"mutation_rate must lie in \[0, 1\]"),
                         ({"mutation_rate": 1.5}, r"mutation_rate must lie in \[0, 1\]")):
        with pytest.raises(ValidationError, match=message):
            ReadSimConfig(**bad)
    grid = full_grid()
    # every grid variant survives a spec round trip: same label, same params
    for variant in grid:
        mode, _, values = variant.label.rstrip(")").partition("(")
        spec = ":".join([mode] + [value.split("=")[1] for value in values.split(",") if value])
        again = IndexVariant.parse(spec)
        assert (again.label, again.params_dict()) == (variant.label, variant.params_dict())
    assert sum(v.mode == "raw" for v in grid) == 1
    assert sum(v.mode == "kernel" for v in grid) == 11
    assert sum(v.mode == "digest" for v in grid) == 10
    assert sum(v.mode == "digest-kernel" for v in grid) == 100
    # "grid" expands in place among other specs
    assert len(grid) == 122
    assert expand_variant_specs(["raw", "grid"]) == [IndexVariant("raw")] + grid


def test_run_experiment_exact_reads_unique_genomes():
    rng = random.Random(12)
    coll = _collection(rng, genomes=4, length=400)
    cfg = ReadSimConfig(read_length=60, mutation_rate=0.0, reads_per_genome=4, seed=5)
    report = run_experiment(coll, [IndexVariant("raw")], cfg)
    assert report.variants[0].tp_rate == 1.0
    counts = report.variants[0].class_counts
    total_records = sum(counts.values())
    assert counts["true_positive"] == total_records  # single-MEM exact reads


def test_run_experiment_duplicate_variants_identical():
    rng = random.Random(13)
    coll = _collection(rng, genomes=3, length=200)
    cfg = ReadSimConfig(read_length=30, mutation_rate=0.02, reads_per_genome=3, seed=6)
    report = run_experiment(coll, [IndexVariant("raw"), IndexVariant("raw")], cfg)
    a, b = report.variants
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def test_run_experiment_unclassifiable_reads():
    rng = random.Random(14)
    coll = _collection(rng, genomes=2, length=100)
    cfg = ReadSimConfig(read_length=20, mutation_rate=0.0, reads_per_genome=2, seed=7)
    sparse = IndexVariant("digest", k=3, w=120)  # no window fits anywhere
    report = run_experiment(coll, [sparse, IndexVariant("raw")], cfg)
    assert report.variants[1].tp_rate == 1.0
    assert report.variants[0].error is None
    assert report.variants[0].tp_rate == 0.0
    assert report.variants[0].unclassifiable_reads == 4


def test_run_experiment_error_isolation(monkeypatch):
    rng = random.Random(14)
    clean = "".join(rng.choice("ACGT") for _ in range(100))
    wild = "".join(rng.choice("ACGT") for _ in range(50)) + "N" \
        + "".join(rng.choice("ACGT") for _ in range(49))
    coll = GenomeCollection(genomes=[clean, wild])
    cfg = ReadSimConfig(read_length=20, mutation_rate=0.0, reads_per_genome=2, seed=7)
    report = run_experiment(coll, expand_variant_specs(
        ["digest:3:5", "raw", "digest-kernel:3:5:4", "kernel:10"]), cfg)
    digest, raw, digest_kernel, kernel = report.variants
    assert digest.error == "non-base symbol 'N' in sequence"  # digests reject the wildcard
    assert digest_kernel.error == digest.error  # and so does their shared base
    for ran in (raw, kernel):  # the other variants still ran
        assert ran.error is None and ran.reads_evaluated == 4
    # a variant whose index fails to build carries its error, on a base the
    # variants after it share, and they still run
    build = evaluate.build_variant_index

    def failing(collection, variant, base=None):
        if variant.label == "kernel(k_max=10)":
            raise ValidationError("kernel build failed")
        return build(collection, variant, base)

    monkeypatch.setattr(evaluate, "build_variant_index", failing)
    report = run_experiment(GenomeCollection(genomes=[clean]), expand_variant_specs(
        ["kernel:10", "raw", "kernel:20"]), cfg)
    failed, *after = report.variants
    assert (failed.variant, failed.error, failed.reads_evaluated) == (
        "kernel(k_max=10)", "kernel build failed", 0)
    assert [(v.variant, v.error, v.reads_evaluated) for v in after] == [
        ("raw", None, 2), ("kernel(k_max=20)", None, 2)]


def test_run_experiment_shares_one_base_per_family(monkeypatch):
    specs = ["kernel:8", "raw", "digest-kernel:3:4:5", "kernel:3", "digest:3:4", "raw",
             "kernel:64"]
    variants = expand_variant_specs(specs)
    coll = _collection(random.Random(17), genomes=4, length=300)
    cfg = ReadSimConfig(read_length=30, mutation_rate=0.02, reads_per_genome=3, seed=4)
    built, bases, passes = [], [], []
    evaluate_variant, build_base, doubling = (
        evaluate._evaluate_variant, evaluate.build_base_text, suffix.prefix_doubling_ranks)

    def recording(index, variant, *args):
        built.append((variant, index.to_bytes()))
        return evaluate_variant(index, variant, *args)

    def recorded_base(*args):
        bases.append(build_base(*args))
        return bases[-1]

    def counted_pass(codes):
        passes.append(codes)
        return doubling(codes)

    monkeypatch.setattr(evaluate, "_evaluate_variant", recording)
    monkeypatch.setattr(evaluate, "build_base_text", recorded_base)
    monkeypatch.setattr(suffix, "prefix_doubling_ranks", counted_pass)
    report = run_experiment(coll, variants, cfg)
    assert [v.variant for v in report.variants] == [v.label for v in variants]
    assert [v for v, _ in built] == variants
    # two base texts, the genomes and one digest, each with one doubling pass
    assert [base.provenance["mode"] for base in bases] == ["raw", "digest"]
    assert [sum(codes is base.codes for codes in passes) for base in bases] == [1, 1]
    monkeypatch.undo()
    for variant, blob in built:
        assert blob == build_variant_index(coll, variant).to_bytes(), variant.label


def test_raw_after_a_kernel_takes_the_last_level_alone(monkeypatch):
    # one pass at the base's first variant gives both levels in either
    # order; kernel:20 then raw hands each build its level alone, so the raw
    # build holds no other level, while raw then kernel:20 holds the
    # kernel's level through the raw build, which here sets the peak: the
    # kernel-first order peaks no higher
    rng = random.Random(29)
    coll = GenomeCollection(genomes=["".join(rng.choice("ACGT") for _ in range(2500)) * 4
                                     for _ in range(4)])
    cfg = ReadSimConfig(read_length=40, mutation_rate=0.02, reads_per_genome=2, seed=6)
    passes, doubling = [], suffix.prefix_doubling_ranks

    def counted_pass(codes):
        passes.append(len(codes))
        return doubling(codes)

    monkeypatch.setattr(suffix, "prefix_doubling_ranks", counted_pass)
    peaks = []
    for specs in (["kernel:20", "raw"], ["raw", "kernel:20"]):
        variants = expand_variant_specs(specs)
        run_experiment(coll, variants, cfg)  # warm up
        passes.clear()
        tracemalloc.start()
        try:
            run_experiment(coll, variants, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # one pass over the base text (the kernel text, shorter, has its own)
        assert passes.count(coll.n) == 1 and len(passes) == 2
    assert peaks[0] <= peaks[1]


def test_report_json_shape_and_class_partition():
    rng = random.Random(15)
    coll = _collection(rng, genomes=3, length=250)
    cfg = ReadSimConfig(read_length=40, mutation_rate=0.05, reads_per_genome=5, seed=8)
    variants = expand_variant_specs(["raw", "kernel:40", "digest:3:5"])
    report = run_experiment(coll, variants, cfg)
    payload = json.loads(report.to_json())
    assert {v["variant"] for v in payload["variants"]} == {
        "raw", "kernel(k_max=40)", "digest(k=3,w=5)"}
    for v in payload["variants"]:
        assert set(v["class_counts"]) == {c.value for c in RangeClass}
        assert v["size_bytes"] > 0
        assert 0.0 <= v["tp_rate"] <= 1.0
    # determinism: a second run matches except timing
    report2 = run_experiment(coll, variants, cfg)
    assert report.to_dict(include_timing=False) == report2.to_dict(include_timing=False)


def test_kernel_fidelity_tp_rates_match():
    rng = random.Random(16)
    coll = _collection(rng, genomes=3, length=150)
    cfg = ReadSimConfig(read_length=24, mutation_rate=0.04, reads_per_genome=4, seed=11)
    report = run_experiment(
        coll, [IndexVariant("raw"), IndexVariant("kernel", k_max=24)], cfg)
    raw, kern = report.variants
    assert raw.tp_rate == kern.tp_rate
    assert raw.class_counts == kern.class_counts


# a small seeded eval over the 16 golden genomes: every range class, a
# tp_rate below 1 on every variant, an empty longest record (digest:3:12)
# and a digest variant whose window is longer than the reads, so that every
# read is unclassifiable (digest:3:29)
GOLDEN_EVAL_VARIANTS = "raw,kernel:4,digest:3:4,digest:3:12,digest-kernel:3:4:3,digest:3:29"
GOLDEN_EVAL_CONFIG = ReadSimConfig(read_length=30, mutation_rate=0.05, reads_per_genome=5, seed=11)


def test_eval_golden_report_and_per_read(tmp_path):
    # the report without timings and the --per-read TSV, byte for byte
    cfg = GOLDEN_EVAL_CONFIG
    assert main(["eval", "--input", str(DATA / "golden_genomes.txt"), "--format", "lines",
                 "--variants", GOLDEN_EVAL_VARIANTS, "--read-len", str(cfg.read_length),
                 "--mut-rate", str(cfg.mutation_rate), "--reads-per-genome",
                 str(cfg.reads_per_genome), "--seed", str(cfg.seed),
                 "--per-read", str(tmp_path / "per_read.tsv"),
                 "--output", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "per_read.tsv").read_bytes() == \
        (DATA / "golden_eval_per_read.tsv").read_bytes()
    report = json.loads((tmp_path / "report.json").read_text())
    for variant in report["variants"]:
        del variant["mean_query_us"]
    assert (json.dumps(report, indent=2, sort_keys=True) + "\n").encode() == \
        (DATA / "golden_eval_report.json").read_bytes()


def _reference_class(genome_range, source):
    """The range class by its definition, one record at a time."""
    if genome_range is None:
        return RangeClass.FALSE_NEGATIVE
    first, last = genome_range
    if first == last == source:
        return RangeClass.TRUE_POSITIVE
    if first <= source <= last:
        return RangeClass.VAGUE_POSITIVE
    return RangeClass.FALSE_POSITIVE


def test_columnar_classes_agree_with_classify_range_and_read():
    # on every record of the golden eval, the class of range_classes, that
    # of classify_range and that of the definition agree, and so do the
    # true positives of true_positive_reads and classify_read
    coll = parse_collection(DATA / "golden_genomes.txt", fmt="lines")
    reads = [(r.source, r.sequence) for r in simulate_reads(coll, GOLDEN_EVAL_CONFIG)]
    seen, tp_reads = set(), set()
    for variant in expand_variant_specs(GOLDEN_EVAL_VARIANTS.split(",")):
        index = build_variant_index(coll, variant)
        [(sources, _, _, columns, bounds)] = mem_chunks(index, reads)
        tables = [table for _, _, table in read_mem_tables(index, reads)]
        classes = range_classes(columns[4], columns[5], np.repeat(sources, np.diff(bounds)))
        want = [_reference_class(rec.genome_range, source)
                for source, table in zip(sources, tables) for rec in table]
        assert [list(RangeClass)[c] for c in classes.tolist()] == want
        assert [classify_range(rec.genome_range, source)
                for source, table in zip(sources, tables) for rec in table] == want
        got = true_positive_reads(classes, longest_records(columns[1], bounds), bounds).tolist()
        assert got == [classify_read(table, source) for source, table in zip(sources, tables)]
        assert got == [bool(table.records) and all(
            _reference_class(rec.genome_range, source) is RangeClass.TRUE_POSITIVE
            for rec in table.records if rec.length == max(r.length for r in table.records))
            for source, table in zip(sources, tables)]
        seen.update(want)
        tp_reads.add(sum(got) < len(got))
    assert seen == set(RangeClass) and tp_reads == {True}
