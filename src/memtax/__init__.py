"""memtax: MEM tables over plain and lossily compressed FM-indexes
(first/last-occurrence string kernels, minimizer digests, kernels of
digests) for taxonomic read classification."""

from .collection import (Alphabet, GenomeCollection, SeparatedText,
                         parse_collection, separate)
from .digest import (DigestParams, Digest, digest_collection, digest_sequence,
                     hash_value, kmer_value, render_ascii)
from .errors import EmptyIntervalError, FormatError, MemtaxError, ValidationError
from .evaluate import (EvalReport, IndexVariant, RangeClass, ReadSimConfig,
                       classify_range, classify_read, run_experiment,
                       simulate_reads)
from .index import AugmentedFmIndex, SaInterval, deserialize
from .kernel import KernelParams, build_katka_kernel, kernel_size_report
from .mems import (MemRecord, MemTable, compute_mem_table, compute_mem_tables,
                   longest_mems)
from .taxonomy import LcaStructure, PhyloTree, parse_newick

__version__ = "0.1.0"


def build_index(text: SeparatedText) -> AugmentedFmIndex:
    """Build the augmented FM-index of a separated text, kernel or digest."""
    return AugmentedFmIndex.build(text)
