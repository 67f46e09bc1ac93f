"""Read simulation, range/read classification and the size/accuracy/speed
experiment over a grid of index variants."""
from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field
from enum import Enum

from .collection import BASES, GenomeCollection, SeparatedText, separate
from .digest import DEFAULT_HASH, DigestParams, digest_collection
from .errors import MemtaxError, ValidationError
from .index import AugmentedFmIndex
from .kernel import KernelParams, build_katka_kernel, doubling_level
from .mems import MemTable, longest_mems, read_mem_tables
from .suffix import LAST_LEVEL, doubling_levels

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
        if self.reads_per_genome < 1:
            raise ValidationError("reads_per_genome must be at least 1")


class RangeClass(str, Enum):
    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"
    VAGUE_POSITIVE = "vague_positive"
    FALSE_NEGATIVE = "false_negative"


@dataclass(frozen=True)
class SimulatedRead:
    sequence: str
    source: int


_OTHER_BASES = {c: BASES.replace(c, "") for c in BASES}
# the most bases and reads simulate_reads takes on, reads_per_genome x
# genomes x read_length and reads_per_genome x genomes, checked before the
# first read: the reads are held as strings, at about 1.7 bytes per base
# for 200-base reads but 150 bytes per read for 5-base ones
MAX_SIMULATED_BASES = 1 << 31
MAX_SIMULATED_READS = 1 << 22


def simulate_reads(collection: GenomeCollection, cfg: ReadSimConfig) -> list[SimulatedRead]:
    """reads_per_genome substrings of each genome at uniform random starts,
    each base substituted with probability mutation_rate by a uniformly
    chosen different base.  Deterministic for a fixed seed; genomes shorter
    than the read length are skipped with a warning, unless every genome
    is, which raises; so does asking for more than MAX_SIMULATED_BASES or
    MAX_SIMULATED_READS."""
    genomes = len(collection.genomes)
    if cfg.reads_per_genome * genomes * cfg.read_length > MAX_SIMULATED_BASES:
        raise ValidationError(f"{cfg.reads_per_genome} reads per genome x {genomes} genomes x "
                              f"{cfg.read_length} bases is more than 2^31 simulated bases")
    if cfg.reads_per_genome * genomes > MAX_SIMULATED_READS:
        raise ValidationError(f"{cfg.reads_per_genome} reads per genome x {genomes} genomes "
                              f"is more than 2^22 simulated reads")
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
    if not reads:
        raise ValidationError("every genome is shorter than the read length")
    if skipped:
        warnings.warn(f"skipped genomes shorter than the read length: {skipped}")
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
# the parameters each index mode requires, every one at least 1, in the
# order of its spec and label
MODE_PARAMETERS = {"raw": (), "kernel": ("k_max",), "digest": ("k", "w"),
                   "digest-kernel": ("k", "w", "k_max")}


@dataclass(frozen=True)
class IndexVariant:
    """One index configuration: raw | kernel | digest | digest-kernel."""

    mode: str
    k_max: int | None = None
    k: int | None = None
    w: int | None = None
    hash_params: tuple[int, int, int] = DEFAULT_HASH

    def __post_init__(self):
        if self.mode not in MODE_PARAMETERS:
            raise ValidationError(f"unknown index mode {self.mode!r}")
        for name in MODE_PARAMETERS[self.mode]:
            if getattr(self, name) is None:
                raise ValidationError(f"mode {self.mode!r} requires {name}")
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")
        if self.is_digest:
            self.digest_params()  # rejects what a digest cannot be built with
        if self.is_kernel:
            KernelParams(self.k_max)  # and what a kernel cannot

    @property
    def is_digest(self) -> bool:
        """Built on the genomes' digest (digest, digest-kernel)."""
        return "w" in MODE_PARAMETERS[self.mode]

    @property
    def is_kernel(self) -> bool:
        """A kernel of its base text (kernel, digest-kernel)."""
        return "k_max" in MODE_PARAMETERS[self.mode]

    @property
    def label(self) -> str:
        values = ",".join(f"{name}={getattr(self, name)}" for name in MODE_PARAMETERS[self.mode])
        return f"{self.mode}({values})" if values else self.mode

    def params_dict(self) -> dict:
        out = {name: getattr(self, name) for name in MODE_PARAMETERS[self.mode]}
        if self.is_digest:
            out["hash"] = list(self.hash_params)
        return out

    def digest_params(self) -> DigestParams:
        a, b, m = self.hash_params
        return DigestParams(k=self.k, w=self.w, a=a, b=b, m=m)

    @classmethod
    def parse(cls, spec: str) -> "IndexVariant":
        """Parse a compact spec: raw | kernel:KMAX | digest:K:W |
        digest-kernel:K:W:KMAX."""
        mode, *values = spec.strip().split(":")
        names = MODE_PARAMETERS.get(mode)
        if names is not None and len(values) == len(names):
            try:
                return cls(mode, **dict(zip(names, map(int, values))))
            except ValueError:
                pass
        raise ValidationError(f"cannot parse variant spec {spec!r}")


def full_grid() -> list[IndexVariant]:
    """The reference parameter grid: kernels at k_max 5,10,...,50 and 100;
    3-mer digests at w 5,10,...,50; digest-kernels over the product."""
    steps = range(5, 55, 5)
    return [IndexVariant("raw"), *(IndexVariant("kernel", k_max=km) for km in [*steps, 100]),
            *(IndexVariant("digest", k=3, w=w) for w in steps),
            *(IndexVariant("digest-kernel", k=3, w=w, k_max=km) for w in steps for km in steps)]


def expand_variant_specs(specs: list[str]) -> list[IndexVariant]:
    return [variant for spec in specs
            for variant in (full_grid() if spec.strip() == "grid" else [IndexVariant.parse(spec)])]


def build_base_text(collection: GenomeCollection, variant: IndexVariant) -> SeparatedText:
    """The text a variant is built on: the separated genomes for raw and
    kernel variants, their digest for digest and digest-kernel ones."""
    if not variant.is_digest:
        return separate(collection)
    return digest_collection(collection, variant.digest_params())


def build_variant_text(collection: GenomeCollection, variant: IndexVariant,
                       base: SeparatedText | None = None) -> SeparatedText:
    """The variant's text, built on base (build_base_text's, made here when
    not given).  A kernel pops its doubling level from base.levels when it
    is held there, and runs a pass of its own otherwise."""
    if base is None:
        base = build_base_text(collection, variant)
    if not variant.is_kernel:
        return base
    return build_katka_kernel(base, KernelParams(variant.k_max))


def build_variant_index(collection: GenomeCollection, variant: IndexVariant,
                        base: SeparatedText | None = None) -> AugmentedFmIndex:
    return AugmentedFmIndex.build(build_variant_text(collection, variant, base))


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
        out = asdict(self)
        if not include_timing:
            del out["mean_query_us"]
        if self.error is None:
            del out["error"]
        return out


@dataclass
class EvalReport:
    config: ReadSimConfig
    variants: list[VariantReport] = field(default_factory=list)

    def to_dict(self, include_timing: bool = True) -> dict:
        return {"config": asdict(self.config),
                "variants": [v.to_dict(include_timing) for v in self.variants]}

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def _evaluate_variant(index: AugmentedFmIndex, variant: IndexVariant,
                      reads: list[SimulatedRead],
                      per_read_sink=None) -> VariantReport:
    report = VariantReport(variant=variant.label, params=variant.params_dict())
    report.size_bytes = index.size_bytes()
    counts = {cls.value: 0 for cls in RangeClass}
    tp = 0
    started = time.perf_counter()
    for source, codes, table in read_mem_tables(index, ((r.source, r.sequence) for r in reads)):
        is_tp = classify_read(table, source)
        if not len(codes):
            report.unclassifiable_reads += 1
        tp += is_tp
        for rec in table.records:
            counts[classify_range(rec.genome_range, source).value] += 1
        if per_read_sink is not None:
            ranges = ";".join(
                "-" if rec.genome_range is None else f"{rec.first_genome},{rec.last_genome}"
                for rec in longest_mems(table)) if table.records else "-"
            per_read_sink.write(
                f"{variant.label}\t{source}\t{int(is_tp)}\t{ranges}\n")
    report.reads_evaluated = len(reads)
    report.tp_rate = tp / len(reads) if reads else 0.0
    report.mean_query_us = (time.perf_counter() - started) / len(reads) * 1e6 if reads else 0.0
    report.class_counts = counts
    return report


def _base_key(variant: IndexVariant) -> tuple:
    if not variant.is_digest:
        return ("raw",)
    return ("digest", variant.k, variant.w, variant.hash_params)


def _level(variant: IndexVariant) -> int:
    """The doubling level of its base text that a variant takes: the
    pass's last for a suffix array of the base itself, else its kernel
    order's."""
    return doubling_level(variant.k_max) if variant.is_kernel else LAST_LEVEL


def run_experiment(collection: GenomeCollection, variants: list[IndexVariant],
                   cfg: ReadSimConfig, per_read_sink=None) -> EvalReport:
    """Build every variant once, in the order given, stream all simulated
    reads through each and accumulate sizes, true-positive rates and mean
    per-read query times.  Variants on one base text (the separated genomes,
    or the digest of one (k, w, hash)) share it: it is built once, at its
    first variant, with one doubling pass for every level its variants take
    (the last for its suffix array, one per kernel order).  Each level is
    held until the last variant that takes it, which is handed the only
    reference in base.levels; the text is let go after its last variant.
    So an order that lists kernels before the variant taking a higher level
    holds every level from the start.  Build or query failures, a base's
    included, are reported per variant without aborting the rest."""
    reads = simulate_reads(collection, cfg)
    report = EvalReport(config=cfg)
    keys = [_base_key(v) for v in variants]
    bases: dict[tuple, SeparatedText | MemtaxError] = {}
    held: dict[tuple, dict] = {}  # each base's doubling levels yet to be taken
    for i, (variant, key) in enumerate(zip(variants, keys)):
        later = [v for v, k in zip(variants[i + 1:], keys[i + 1:]) if k == key]
        if key not in bases:
            try:
                bases[key] = build_base_text(collection, variant)
                held[key] = doubling_levels(bases[key].codes, {_level(v) for v in [variant, *later]})
            except MemtaxError as e:
                bases[key] = e
        base = bases[key] if later else bases.pop(key)
        error = str(base) if isinstance(base, MemtaxError) else None
        if error is None:
            # the build pops its level: the only reference, unless a later
            # variant takes the level too
            j = _level(variant)
            levels = held[key] if later else held.pop(key)
            base.levels = {j: levels[j] if j in map(_level, later) else levels.pop(j)}
            try:
                report.variants.append(_evaluate_variant(
                    build_variant_index(collection, variant, base), variant, reads,
                    per_read_sink))
            except MemtaxError as e:
                error = str(e)
            base.levels = {}
        if error is not None:
            report.variants.append(VariantReport(
                variant=variant.label, params=variant.params_dict(), error=error))
    return report
