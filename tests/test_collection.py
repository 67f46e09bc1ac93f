import io

import pytest

from memtax import GenomeCollection, ValidationError, parse_collection, separate
from memtax.collection import iter_reads

from conftest import TOY_GENOMES


def test_parse_toy_collection_lines():
    coll = parse_collection(io.StringIO("\n".join(TOY_GENOMES) + "\n"), fmt="lines")
    assert coll.genome_count == 5
    assert coll.n == 45
    assert coll.genomes == TOY_GENOMES


def test_parse_single_genome():
    coll = parse_collection(io.StringIO("A\n"), fmt="lines")
    assert coll.genome_count == 1
    assert coll.n == 2  # one base plus its separator


def test_parse_fig3_collection(golden_genomes):
    coll = parse_collection(io.StringIO("\n".join(golden_genomes)), fmt="lines")
    assert coll.genome_count == 16
    assert coll.n == 1616


def test_parse_fasta():
    fa = ">a desc\nGATT\nACAT\n>b\nagataCAT\n"
    coll = parse_collection(io.StringIO(fa), fmt="fasta")
    assert coll.names == ["a", "b"]
    assert coll.genomes == ["GATTACAT", "AGATACAT"]  # folded to upper case


def test_parse_errors():
    with pytest.raises(ValidationError):
        parse_collection(io.StringIO(""), fmt="lines")  # empty file
    with pytest.raises(ValidationError):
        parse_collection(io.StringIO(">a\n\n>b\nACGT\n"), fmt="fasta")  # empty genome
    with pytest.raises(ValidationError):
        parse_collection(io.StringIO("AC$GT\n"), fmt="lines")  # reserved symbol
    with pytest.raises(ValidationError):
        parse_collection(io.StringIO("ACGT\nACNT\n"), fmt="lines")  # N without the flag
    with pytest.raises(ValidationError):
        parse_collection(io.StringIO("ACGT\n>x\n"), fmt="fasta")  # malformed header placement
    with pytest.raises(ValidationError):
        parse_collection(io.StringIO(">\nACGT\n"), fmt="fasta")  # empty header name


def test_wildcard_mode():
    coll = parse_collection(io.StringIO("ACNRT\n"), fmt="lines", allow_wildcard=True)
    assert coll.genomes == ["ACNNT"]  # every non-ACGT symbol becomes N
    st = separate(coll)
    ix_text = st.text()
    assert ix_text == "ACNNT$"


def test_separate_toy(toy_collection):
    st = separate(toy_collection)
    assert st.n == 45
    assert list(st.sep_positions) == [8, 17, 25, 34, 44]
    assert st.rank_separators(11) == 1
    assert st.rank_separators(4) == 0
    bits = st.separator_bits()
    assert bits.sum() == 5
    assert all(bits[p] == 1 for p in (8, 17, 25, 34, 44))


def test_separate_single():
    st = separate(GenomeCollection(genomes=["A"]))
    assert st.text() == "A$"
    assert list(st.separator_bits()) == [0, 1]


def test_separate_fig3(golden_collection):
    st = separate(golden_collection)
    assert st.genome_count == 16
    assert list(st.sep_positions) == [101 * (i + 1) - 1 for i in range(16)]


def test_genome_of_position(toy_collection):
    st = separate(toy_collection)
    assert st.genome_of_position(11) == 1
    assert st.genome_of_position(41) == 4
    assert st.genome_of_position(0) == 0
    with pytest.raises(ValidationError):
        st.genome_of_position(8)  # separator
    # exhaustive: every in-genome position maps to its genome
    pos = 0
    for g, genome in enumerate(toy_collection.genomes):
        for _ in genome:
            assert st.genome_of_position(pos) == g
            pos += 1
        pos += 1  # skip the separator


def test_separate_injective():
    a = separate(GenomeCollection(genomes=["AC", "GT"]))
    b = separate(GenomeCollection(genomes=["ACG", "T"]))
    assert a.text() != b.text()


def test_iter_reads_fasta_and_lines():
    reads = list(iter_reads(io.StringIO(">r1\nacgt\n>r2\nTTTT\n"), fmt="fasta"))
    assert reads == [("r1", "ACGT"), ("r2", "TTTT")]
    reads = list(iter_reads(io.StringIO("ACGT\n\nGGG\n"), fmt="lines"))
    assert reads == [("read0", "ACGT"), ("read2", "GGG")]


def test_str_and_pathlike_are_paths(tmp_path):
    path = tmp_path / "genomes.txt"
    path.write_text("ACGT\nGG\n")
    for source in (path, str(path)):
        assert parse_collection(source, fmt="lines").genomes == ["ACGT", "GG"]
        assert list(iter_reads(source, fmt="lines")) == [("read0", "ACGT"), ("read1", "GG")]
    # a str holding a newline is a path too, never in-memory text
    with pytest.raises(FileNotFoundError):
        parse_collection(str(path) + "\n", fmt="lines")
    with pytest.raises(FileNotFoundError):
        list(iter_reads(str(path) + "\nACGT\n", fmt="lines"))
