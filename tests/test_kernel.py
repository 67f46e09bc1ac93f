import random

import pytest

from memtax import (DigestParams, GenomeCollection, KernelParams,
                    ValidationError, build_index, build_katka_kernel,
                    deserialize, digest_collection, separate)
from memtax.collection import HASH_CODE, SEP_CODE
from memtax.kernel import kernel_size_report

import oracles
from conftest import construction_peak_per_row


def test_kernel_params_validation():
    with pytest.raises(ValidationError):
        KernelParams(0)


def test_golden_kernel_exact(golden_kernel4, golden_kernel_text):
    assert golden_kernel4.text() == golden_kernel_text
    assert golden_kernel4.text().startswith(
        "ACTTAGCTGACGTTCCGGGTGTTTTTGGCCATCTTCTATAGATTTCCCAGAGACATACTAGGCGTGCTGAAG"
        "TTGTGACTCGCGGCCGTATT#CTAACG$")
    assert golden_kernel4.provenance == {"mode": "kernel", "k_max": 4}


def test_golden_kernel_ends_with_last_genome(golden_kernel4, golden_genomes):
    # the final genome's first pass through unique 4-mers keeps it verbatim
    assert golden_kernel4.text().endswith(golden_genomes[15] + "$")


def test_single_genome_examples():
    st = separate(GenomeCollection(genomes=["AAA"]))
    k = build_katka_kernel(st, KernelParams(1))
    assert k.text() == "A#A$"
    assert kernel_size_report(k) == (2, 1, 1)

    st = separate(GenomeCollection(genomes=["AC"]))
    k = build_katka_kernel(st, KernelParams(2))
    assert k.text() == "AC$"


def test_short_genomes_kept_verbatim():
    st = separate(GenomeCollection(genomes=["ACG", "TGCATGCA", "AT"]))
    k = build_katka_kernel(st, KernelParams(4))
    text = k.text()
    assert text.split("$")[0] == "ACG"
    assert text.split("$")[2] == "AT"


def test_size_reports(golden_collection, golden_kernel4):
    kept, hashes, seps = kernel_size_report(golden_kernel4)
    assert (kept, hashes, seps) == (737, 62, 16)
    k5 = build_katka_kernel(separate(golden_collection), KernelParams(5))
    kept5, hashes5, seps5 = kernel_size_report(k5)
    assert seps5 == 16
    # the 5th-order kernel is about 70% of the collection's 1600 symbols
    assert 0.68 <= (kept5 + hashes5) / 1600 <= 0.72


def test_kernel_structure_invariants(golden_kernel4):
    text = golden_kernel4.text()
    assert "##" not in text
    assert "#$" not in text and "$#" not in text
    assert text.count("$") == 16


def _kernel_properties(genomes, k_max):
    coll = GenomeCollection(genomes=genomes)
    st = separate(coll)
    kernel = build_katka_kernel(st, KernelParams(k_max))
    text = kernel.text()
    runs = oracles.kernel_runs(text)
    # substring soundness: every separator-free run occurs inside one genome
    for symbols, genome in runs:
        assert "".join(symbols) in genomes[genome]
    for k in range(1, k_max + 1):
        want = oracles.kmer_genome_map(oracles.genome_runs(genomes), k)
        got = oracles.kmer_genome_map(runs, k)
        assert got == want, (k, genomes)
    return kernel


def test_kmer_and_genome_preservation_random():
    rng = random.Random(1009)
    for _ in range(60):
        genomes = oracles.random_collection(rng, max_genomes=8, max_len=200)
        _kernel_properties(genomes, rng.randint(1, 6))


def test_fixed_point_at_same_order():
    rng = random.Random(77)
    for _ in range(20):
        genomes = oracles.random_collection(rng, max_genomes=4, max_len=100)
        k_max = rng.randint(1, 5)
        coll = GenomeCollection(genomes=genomes)
        kernel = build_katka_kernel(separate(coll), KernelParams(k_max))
        again = build_katka_kernel(kernel, KernelParams(k_max))
        for k in range(1, k_max + 1):
            a = oracles.kmer_genome_map(oracles.kernel_runs(kernel.text()), k)
            b = oracles.kmer_genome_map(oracles.kernel_runs(again.text()), k)
            assert a == b


def _assert_naive_kernel(st, k_max):
    got = build_katka_kernel(st, KernelParams(k_max)).codes.tolist()
    want = oracles.naive_kernel(st.codes.tolist(), k_max, sep=SEP_CODE, gap=HASH_CODE)
    assert got == want, (st.codes.tolist(), k_max)


def test_kernel_codes_equal_naive_kernel_random():
    rng = random.Random(2024)
    for case in range(150):
        alphabet = "AC" if case % 2 else "ACGT"
        max_len = rng.choice([6, 40, 200])
        genomes = oracles.random_collection(rng, max_genomes=8, max_len=max_len,
                                            alphabet=alphabet)
        st = separate(GenomeCollection(genomes=genomes))
        longest = max(len(g) for g in genomes)
        # k_max = 1, powers of two and not, shorter genomes, k_max >= longest
        for k_max in {1, 2, 3, 4, 5, 7, 8, 13, rng.randint(1, longest), longest,
                      longest + 1, 2 * longest}:
            _assert_naive_kernel(st, k_max)


def test_kernel_codes_equal_naive_kernel_digest_text(golden_digest):
    for k_max in (1, 2, 3, 5, 8, 50):
        _assert_naive_kernel(golden_digest, k_max)
    rng = random.Random(31)
    genomes = ["".join(rng.choice("ACGT") for _ in range(rng.randint(10, 300)))
               for _ in range(8)]
    genomes += [genomes[0] + genomes[1], genomes[2][:30]]  # shared windows
    digest = digest_collection(GenomeCollection(genomes=genomes), DigestParams(k=4, w=3))
    for k_max in (1, 2, 3, 6, 11, 16, 40):
        _assert_naive_kernel(digest, k_max)


def test_digest_kernel_provenance(golden_digest):
    kernel = build_katka_kernel(golden_digest, KernelParams(2))
    assert kernel.provenance["mode"] == "digest-kernel"
    assert kernel.provenance["k_max"] == 2
    assert kernel.provenance["k"] == 3 and kernel.provenance["w"] == 10
    # the kernel of a digest kernel stays a digest kernel that builds and loads
    again = build_katka_kernel(kernel, KernelParams(1))
    assert again.provenance == {**kernel.provenance, "k_max": 1}
    index = build_index(again)
    assert index.digest_params == DigestParams()
    assert deserialize(index.to_bytes()).digest_params == DigestParams()


def test_kernel_ids_do_not_wrap_on_large_texts():
    # 50 005 rows: a window id rank * rows leaves int32 from 46 341 rows on,
    # so the int32 doubling levels must be widened before the multiply
    rng = random.Random(4321)
    cores = ["".join(rng.choice("ACGT") for _ in range(2500)) for _ in range(5)]
    genomes = [(core * 4)[:10_000] for core in cores]  # repeats: windows with many starts
    st = separate(GenomeCollection(genomes=genomes))
    assert len(st) + 1 > 46_341
    for k_max in (7, 8, 64, 100):  # either side of levels 2/3 and 6
        _assert_naive_kernel(st, k_max)


@pytest.mark.parametrize("k_max", [20, 100])
def test_kernel_construction_peak(k_max):
    # int32 window starts carried through the sort of the window ids and
    # one running maximum of window ends: 22.9 bytes per row, the doubling
    # pass included, where int64 starts and two bincounts of window bounds
    # take 68.0
    params = KernelParams(k_max)
    assert construction_peak_per_row(lambda st: build_katka_kernel(st, params)) <= 32
