import io

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hs

from memtax import (FormatError, GenomeCollection, MemtaxError, ValidationError,
                    parse_collection, separate)
from memtax.cli import _read_tree
from memtax.collection import (_BASE_SYMBOL_OF_CODE, CODE_OF_BYTE, SEP_CODE, WILDCARD_CODE,
                               Alphabet, iter_reads)
from memtax.taxonomy import LcaStructure, parse_newick

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
    with pytest.raises(ValidationError, match="unknown collection format 'xml'"):
        parse_collection(io.StringIO("ACGT\n"), fmt="xml")
    with pytest.raises(ValidationError, match="unknown reads format 'xml'"):
        list(iter_reads(io.StringIO("ACGT\n"), fmt="xml"))
    with pytest.raises(ValidationError, match="empty collection"):
        GenomeCollection(genomes=[])
    with pytest.raises(ValidationError, match="names/genomes length mismatch"):
        GenomeCollection(genomes=["ACGT"], names=["a", "b"])


def test_wildcard_mode():
    coll = parse_collection(io.StringIO("ACNRT\n"), fmt="lines", allow_wildcard=True)
    assert coll.genomes == ["ACNNT"]  # every non-ACGT symbol becomes N
    st = separate(coll)
    ix_text = st.text()
    assert ix_text == "ACNNT$"


def test_separate_toy(toy_collection):
    st = separate(toy_collection)
    assert len(st) == 45
    assert list(st.sep_positions) == [8, 17, 25, 34, 44]
    assert all(st.codes[p] == SEP_CODE for p in st.sep_positions)
    assert (st.codes == SEP_CODE).sum() == 5


def test_separate_single():
    st = separate(GenomeCollection(genomes=["A"]))
    assert st.text() == "A$"
    assert list(st.sep_positions) == [1]


def test_separate_fig3(golden_collection):
    st = separate(golden_collection)
    assert st.genome_count == 16
    assert list(st.sep_positions) == [101 * (i + 1) - 1 for i in range(16)]


def test_genome_of_position(toy_collection, toy_index):
    assert toy_index.rank_separators(11) == 1
    assert toy_index.rank_separators(41) == 4
    assert toy_index.rank_separators(0) == 0
    # exhaustive: every in-genome position maps to its genome
    pos = 0
    for g, genome in enumerate(toy_collection.genomes):
        for _ in genome:
            assert toy_index.rank_separators(pos) == g
            pos += 1
        pos += 1  # skip the separator


def test_byte_table_is_the_inverse_of_the_display_table():
    # one table each way: every code of a base text from '#' to the
    # wildcard maps to its byte and back, and NUL and every other byte to -1
    codes = range(1, WILDCARD_CODE + 1)
    assert [CODE_OF_BYTE[_BASE_SYMBOL_OF_CODE[c]] for c in codes] == list(codes)
    assert bytes(_BASE_SYMBOL_OF_CODE[1:]) == b"#$ACGTN"
    listed = set(_BASE_SYMBOL_OF_CODE[1:].tolist())
    assert all(CODE_OF_BYTE[b] == -1 for b in range(256) if b not in listed)
    assert CODE_OF_BYTE[0] == -1
    for c in range(WILDCARD_CODE + 1):
        assert Alphabet("bases").render([c]) == chr(_BASE_SYMBOL_OF_CODE[c])


# every code from -1 to sigma - 1 as Alphabet.render shows it, one code at a
# time; each string is the earlier display of that code (code -1 of a k = 3
# digest and 0 as the earlier query symbols showed them, by chr(34 + c),
# elsewhere as the earlier text showed each code)
_K4_VALUES = [str(v) for v in range(256)]
_RENDERED = [
    (Alphabet("bases"), ["N", "\x00", "#", "$", "A", "C", "G", "T", "N"], ""),
    (Alphabet("digest", 1), ["N", "\x00", "#", "$", "0", "1", "2", "3"], "-"),
    (Alphabet("digest", 3), list("!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                 "[\\]^_`abcd"), ""),
    (Alphabet("digest", 4), ["N", "\x00", "#", "$", *_K4_VALUES], "-"),
]


@pytest.mark.parametrize("alphabet, symbols, delimiter", _RENDERED)
def test_render_every_code(alphabet, symbols, delimiter):
    codes = list(range(-1, alphabet.size))
    assert len(symbols) == len(codes)
    assert [alphabet.render([c]) for c in codes] == symbols
    assert alphabet.render(codes) == delimiter.join(symbols)
    assert alphabet.render(np.array(codes, dtype=np.int32)) == delimiter.join(symbols)
    assert alphabet.render([]) == ""


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


def test_non_text_file_is_format_error(tmp_path):
    path = tmp_path / "binary.fa"
    path.write_bytes(b">g0\nAC\xffGT\n")
    with pytest.raises(FormatError, match="not a text file"):
        parse_collection(path)
    with pytest.raises(FormatError, match="not a text file"):
        list(iter_reads(path))


# newick and FASTA punctuation, bases in both cases, whitespace, the
# reserved symbols, and non-ASCII characters (Unicode line and paragraph
# separators, NEL and a NUL among them)
_FUZZ_TEXT = hs.text(alphabet=hs.sampled_from(
    list("()[],;:>ACGTN acgt\n\t$#") + ["\x00", "\x85", "\u2028", "\u2029", "é", "ß",
                                          "ﬀ", "İ", "€", "\U0001d538"]), max_size=40)


def _readers_answer_or_raise(read):
    """Each reader of read(), a fresh source each time, returns a result
    or raises a MemtaxError, never another exception."""
    for call in (lambda: parse_collection(read(), fmt="fasta"),
                 lambda: parse_collection(read(), fmt="lines"),
                 lambda: parse_collection(read(), fmt="lines", allow_wildcard=True),
                 lambda: list(iter_reads(read(), fmt="fasta")),
                 lambda: list(iter_reads(read(), fmt="lines"))):
        try:
            call()
        except MemtaxError:
            pass


def test_fuzz_text_readers():
    @settings(derandomize=True, deadline=None, max_examples=500, database=None)
    @given(_FUZZ_TEXT)
    def check(text):
        _readers_answer_or_raise(lambda: io.StringIO(text))
        # case folding keeps every length, "ß" and "ﬀ" included
        lengths = [len(line.strip()) for line in io.StringIO(text) if line.strip()]
        assert [len(seq) for _, seq in iter_reads(io.StringIO(text), fmt="lines")] == lengths
        try:
            genomes = parse_collection(io.StringIO(text), fmt="lines", allow_wildcard=True).genomes
            assert [len(genome) for genome in genomes] == lengths
        except MemtaxError:
            pass
        try:
            LcaStructure(parse_newick(text))
        except MemtaxError:
            pass

    check()


def test_fuzz_file_bytes(tmp_path):
    """Any bytes in a genome, read or tree file: a result or a MemtaxError."""
    path = tmp_path / "input"

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(hs.one_of(hs.binary(max_size=40), _FUZZ_TEXT.map(lambda t: t.encode())))
    def check(data):
        path.write_bytes(data)
        _readers_answer_or_raise(lambda: path)
        try:
            LcaStructure(_read_tree(path))
        except MemtaxError:
            pass

    check()
