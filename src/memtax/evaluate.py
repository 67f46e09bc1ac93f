"""Read simulation, range/read classification and the size/accuracy/speed
experiment over a grid of index variants."""
from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from enum import Enum

from .collection import GenomeCollection, SeparatedText, separate
from .digest import DigestParams, digest_collection
from .errors import MemtaxError, ValidationError
from .index import AugmentedFmIndex
from .kernel import KernelParams, build_katka_kernel
from .mems import MemTable, compute_mem_table, longest_mems
from .taxonomy import PhyloTree

# The mutation RNG is Python's random.Random (Mersenne Twister, MT19937),
# whose sequence for a given seed is stable across platforms and versions.
import random


@dataclass(frozen=True)
class ReadSimConfig:
    read_length: int = 200
    mutation_rate: float = 0.01
    reads_per_genome: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.read_length < 1:
            raise ValidationError("read_length must be at least 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValidationError("mutation_rate must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {"read_length": self.read_length, "mutation_rate": self.mutation_rate,
                "reads_per_genome": self.reads_per_genome, "seed": self.seed}


class RangeClass(str, Enum):
    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"
    VAGUE_POSITIVE = "vague_positive"
    FALSE_NEGATIVE = "false_negative"


@dataclass(frozen=True)
class SimulatedRead:
    sequence: str
    source: int


_OTHER_BASES = {"A": "CGT", "C": "AGT", "G": "ACT", "T": "ACG"}


def simulate_reads(collection: GenomeCollection, cfg: ReadSimConfig) -> list[SimulatedRead]:
    """reads_per_genome substrings of each genome at uniform random starts,
    each base substituted with probability mutation_rate by a uniformly
    chosen different base.  Deterministic for a fixed seed; genomes shorter
    than the read length are skipped with a warning."""
    rng = random.Random(cfg.seed)
    reads: list[SimulatedRead] = []
    skipped = []
    for g, genome in enumerate(collection.genomes):
        if len(genome) < cfg.read_length:
            skipped.append(collection.names[g])
            continue
        for _ in range(cfg.reads_per_genome):
            start = rng.randrange(len(genome) - cfg.read_length + 1)
            chars = list(genome[start: start + cfg.read_length])
            for i, c in enumerate(chars):
                if rng.random() < cfg.mutation_rate:
                    alt = _OTHER_BASES.get(c)
                    chars[i] = rng.choice(alt) if alt else c
            reads.append(SimulatedRead("".join(chars), g))
    if skipped:
        warnings.warn(f"skipped genomes shorter than the read length: {skipped}")
    if not reads:
        raise ValidationError("every genome is shorter than the read length")
    return reads


def classify_range(genome_range: tuple[int, int] | None, true_genome: int) -> RangeClass:
    """Classify a MEM's [first, last] genome range against the read's source."""
    if genome_range is None:
        return RangeClass.FALSE_NEGATIVE
    first, last = genome_range
    if first == last == true_genome:
        return RangeClass.TRUE_POSITIVE
    if first <= true_genome <= last:
        return RangeClass.VAGUE_POSITIVE
    return RangeClass.FALSE_POSITIVE


def classify_read(table: MemTable, true_genome: int) -> bool:
    """True iff every longest MEM of the read classifies as a true positive."""
    if not table.records:
        return False
    return all(
        classify_range(rec.genome_range, true_genome) is RangeClass.TRUE_POSITIVE
        for rec in longest_mems(table))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndexVariant:
    """One index configuration: raw | kernel | digest | digest-kernel."""

    mode: str
    k_max: int | None = None
    k: int | None = None
    w: int | None = None
    hash_params: tuple[int, int, int] = (2544, 3937, 8863)

    def __post_init__(self):
        if self.mode not in ("raw", "kernel", "digest", "digest-kernel"):
            raise ValidationError(f"unknown index mode {self.mode!r}")
        if self.mode in ("kernel", "digest-kernel") and not self.k_max:
            raise ValidationError(f"mode {self.mode!r} requires k_max")
        if self.mode in ("digest", "digest-kernel") and not (self.k and self.w):
            raise ValidationError(f"mode {self.mode!r} requires k and w")

    @property
    def label(self) -> str:
        if self.mode == "raw":
            return "raw"
        if self.mode == "kernel":
            return f"kernel(k_max={self.k_max})"
        if self.mode == "digest":
            return f"digest(k={self.k},w={self.w})"
        return f"digest-kernel(k={self.k},w={self.w},k_max={self.k_max})"

    def params_dict(self) -> dict:
        out: dict = {}
        if self.k_max is not None:
            out["k_max"] = self.k_max
        if self.mode in ("digest", "digest-kernel"):
            out["k"] = self.k
            out["w"] = self.w
            out["hash"] = list(self.hash_params)
        return out

    def digest_params(self) -> DigestParams:
        a, b, m = self.hash_params
        return DigestParams(k=self.k, w=self.w, a=a, b=b, m=m)

    @classmethod
    def parse(cls, spec: str) -> "IndexVariant":
        """Parse a compact spec: raw | kernel:KMAX | digest:K:W |
        digest-kernel:K:W:KMAX."""
        parts = spec.strip().split(":")
        mode = parts[0]
        try:
            if mode == "raw" and len(parts) == 1:
                return cls("raw")
            if mode == "kernel" and len(parts) == 2:
                return cls("kernel", k_max=int(parts[1]))
            if mode == "digest" and len(parts) == 3:
                return cls("digest", k=int(parts[1]), w=int(parts[2]))
            if mode == "digest-kernel" and len(parts) == 4:
                return cls("digest-kernel", k=int(parts[1]), w=int(parts[2]),
                           k_max=int(parts[3]))
        except ValueError:
            pass
        raise ValidationError(f"cannot parse variant spec {spec!r}")


def full_grid() -> list[IndexVariant]:
    """The reference parameter grid: kernels at k_max 5,10,...,50 and 100;
    3-mer digests at w 5,10,...,50; digest-kernels over the product."""
    variants = [IndexVariant("raw")]
    kmaxes = list(range(5, 55, 5)) + [100]
    ws = list(range(5, 55, 5))
    variants += [IndexVariant("kernel", k_max=km) for km in kmaxes]
    variants += [IndexVariant("digest", k=3, w=w) for w in ws]
    variants += [IndexVariant("digest-kernel", k=3, w=w, k_max=km)
                 for w in ws for km in range(5, 55, 5)]
    return variants


def expand_variant_specs(specs: list[str]) -> list[IndexVariant]:
    out: list[IndexVariant] = []
    for spec in specs:
        if spec.strip() == "grid":
            out.extend(full_grid())
        else:
            out.append(IndexVariant.parse(spec))
    return out


def build_variant_text(collection: GenomeCollection, variant: IndexVariant) -> SeparatedText:
    if variant.mode == "raw":
        return separate(collection)
    if variant.mode == "kernel":
        return build_katka_kernel(separate(collection), KernelParams(variant.k_max))
    if variant.mode == "digest":
        return digest_collection(collection, variant.digest_params())
    return build_katka_kernel(digest_collection(collection, variant.digest_params()),
                              KernelParams(variant.k_max))


def build_variant_index(collection: GenomeCollection, variant: IndexVariant) -> AugmentedFmIndex:
    return AugmentedFmIndex.build(build_variant_text(collection, variant))


# ----------------------------------------------------------------------
@dataclass
class VariantReport:
    variant: str
    params: dict
    size_bytes: int = 0
    tp_rate: float = 0.0
    mean_query_us: float = 0.0
    class_counts: dict = field(default_factory=dict)
    reads_evaluated: int = 0
    unclassifiable_reads: int = 0
    error: str | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "variant": self.variant,
            "params": self.params,
            "size_bytes": self.size_bytes,
            "tp_rate": self.tp_rate,
            "class_counts": self.class_counts,
            "reads_evaluated": self.reads_evaluated,
            "unclassifiable_reads": self.unclassifiable_reads,
        }
        if include_timing:
            out["mean_query_us"] = self.mean_query_us
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class EvalReport:
    config: ReadSimConfig
    variants: list[VariantReport] = field(default_factory=list)

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "config": self.config.to_dict(),
            "variants": [v.to_dict(include_timing) for v in self.variants],
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def _evaluate_variant(index: AugmentedFmIndex, variant: IndexVariant,
                      reads: list[SimulatedRead],
                      per_read_sink=None) -> VariantReport:
    report = VariantReport(variant=variant.label, params=variant.params_dict())
    report.size_bytes = len(index.to_bytes())
    counts = {cls.value: 0 for cls in RangeClass}
    tp = 0
    total_time = 0.0
    for read in reads:
        t0 = time.perf_counter()
        query = index.query_symbols(read.sequence)
        table = compute_mem_table(index, query) if query else MemTable([])
        is_tp = classify_read(table, read.source)
        total_time += time.perf_counter() - t0
        if not query:
            report.unclassifiable_reads += 1
        tp += is_tp
        for rec in table.records:
            counts[classify_range(rec.genome_range, read.source).value] += 1
        if per_read_sink is not None:
            ranges = ";".join(
                "-" if rec.genome_range is None else f"{rec.first_genome},{rec.last_genome}"
                for rec in longest_mems(table)) if table.records else "-"
            per_read_sink.write(
                f"{variant.label}\t{read.source}\t{int(is_tp)}\t{ranges}\n")
    report.reads_evaluated = len(reads)
    report.tp_rate = tp / len(reads) if reads else 0.0
    report.mean_query_us = total_time / len(reads) * 1e6 if reads else 0.0
    report.class_counts = counts
    return report


def run_experiment(collection: GenomeCollection, variants: list[IndexVariant],
                   cfg: ReadSimConfig, tree: PhyloTree | None = None,
                   per_read_sink=None) -> EvalReport:
    """Build every variant once, stream all simulated reads through each and
    accumulate sizes, true-positive rates and mean per-read query times.
    Build or query failures are reported per variant without aborting the
    rest."""
    if tree is not None:
        tree.validate_leaf_names(collection.names)
    reads = simulate_reads(collection, cfg)
    report = EvalReport(config=cfg)
    for variant in variants:
        try:
            index = build_variant_index(collection, variant)
            report.variants.append(
                _evaluate_variant(index, variant, reads, per_read_sink))
        except MemtaxError as e:
            report.variants.append(VariantReport(
                variant=variant.label, params=variant.params_dict(), error=str(e)))
    return report
