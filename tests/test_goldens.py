"""First/last suffix-array table rows of the three compressed toy indexes.

These rows were cross-checked against the reference tables for the same
texts; they pin the standard-BWT construction with the implicit smallest
end-of-file symbol and the '#' < '$' < ordinary-symbol order.
"""
import numpy as np

from memtax import KernelParams, build_index, build_katka_kernel


def rows_of(index, positions):
    bwt = index.bwt.symbols(np.int64)
    return [(i, int(index.sa[i]), int(index.lcp[i]), index.alphabet.render([bwt[i]]))
            for i in positions]


def test_kernel_index_first_last_rows(golden_kernel4_index):
    ix = golden_kernel4_index
    assert ix.rows == 816
    assert rows_of(ix, range(6)) == [
        (0, 815, 0, "$"), (1, 321, 0, "T"), (2, 354, 3, "G"),
        (3, 550, 2, "T"), (4, 209, 5, "T"), (5, 167, 3, "G")]
    assert rows_of(ix, range(810, 816)) == [
        (810, 477, 3, "C"), (811, 23, 4, "T"), (812, 390, 3, "T"),
        (813, 22, 4, "T"), (814, 389, 4, "G"), (815, 21, 5, "G")]


def test_digest_index_first_last_rows(golden_digest_index):
    ix = golden_digest_index
    assert ix.rows == 304
    assert rows_of(ix, range(6)) == [
        (0, 303, 0, "$"), (1, 302, 0, "5"), (2, 102, 1, "5"),
        (3, 210, 1, "5"), (4, 156, 2, "5"), (5, 174, 8, "5")]
    assert rows_of(ix, range(298, 304)) == [
        (298, 15, 4, "'"), (299, 268, 1, "X"), (300, 230, 2, "X"),
        (301, 286, 2, "X"), (302, 249, 2, "X"), (303, 67, 1, "=")]


def test_digest_kernel_index_first_last_rows(golden_digest):
    ix = build_index(build_katka_kernel(golden_digest, KernelParams(2)))
    assert ix.rows == 237
    assert rows_of(ix, range(6)) == [
        (0, 236, 0, "$"), (1, 38, 0, "<"), (2, 137, 3, "2"),
        (3, 211, 2, "\\"), (4, 185, 1, "2"), (5, 82, 1, "N")]
    assert rows_of(ix, range(231, 237)) == [
        (231, 5, 2, "_"), (232, 29, 1, "'"), (233, 15, 4, "'"),
        (234, 175, 1, "X"), (235, 219, 2, "X"), (236, 45, 1, "=")]
