"""In-process tracing of memtax's layers for the benchmark's traced run.

A ``Tracer`` wraps the public functions and methods of each layer at the
module or class attribute its callers look them up through, runs
``memtax.cli.main`` in this process and restores every attribute after.
Every call is counted and timed per (name, parent), where the parent is
the nearest enclosing wrapped call, and self time is a call's time minus
that of its wrapped children.  Calls of the functions not marked hot also
keep a span (id, name, parent id, start, end, busy seconds); all of it
stays in memory until ``write``.  Busy seconds and every aggregate leave
out the time the tracer itself spends measuring an index's resident
bytes.  A target that no longer exists is listed in ``missing``
instead of failing, so that refactors of the program do not break the
benchmark.
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute path, hot).  Hot targets run per backward step or per
# read and keep no span, only their (name, parent) aggregates.
TARGETS = [
    ("collection", "parse_collection", False),
    ("collection", "iter_reads", True),
    ("digest", "digest_collection", False),
    ("digest", "digest_sequence", True),
    ("kernel", "build_katka_kernel", False),
    ("suffix", "build_suffix_array", False),
    ("suffix", "build_lcp_array", False),
    ("suffix", "derive_bwt", False),
    ("suffix", "IndexedSequence.__init__", False),
    ("suffix", "IndexedSequence.rank", True),
    ("suffix", "RangeExtremes.__init__", False),
    ("suffix", "RangeExtremes.position", True),
    ("suffix", "previous_smaller_values", False),
    ("suffix", "next_smaller_values", False),
    ("index", "AugmentedFmIndex.build", False),
    ("index", "AugmentedFmIndex.__init__", False),
    ("index", "AugmentedFmIndex.serialize", False),
    ("index", "deserialize", False),
    ("index", "AugmentedFmIndex.backward_step", True),
    ("index", "AugmentedFmIndex.shrink_to_extendable", True),
    ("index", "AugmentedFmIndex.first_last_positions", True),
    ("mems", "compute_mem_table", False),
    ("taxonomy", "parse_newick", False),
    ("taxonomy", "LcaStructure.__init__", False),
    ("taxonomy", "LcaStructure.subtree_for_range", True),
    ("evaluate", "simulate_reads", False),
    ("evaluate", "build_variant_index", False),
    ("evaluate", "classify_read", True),
    ("cli", "cmd_build", False),
    ("cli", "cmd_classify", False),
    ("cli", "cmd_eval", False),
]
GENERATORS = {"collection.iter_reads"}
HOOKS = {
    "digest.digest_sequence": "_hook_digest_sequence",
    "kernel.build_katka_kernel": "_hook_build_katka_kernel",
    "index.AugmentedFmIndex.__init__": "_hook_index_init",
    "index.AugmentedFmIndex.serialize": "_hook_serialize",
    "index.deserialize": "_hook_deserialize",
    "index.AugmentedFmIndex.backward_step": "_hook_backward_step",
    "mems.compute_mem_table": "_hook_compute_mem_table",
}
STRUCTURES = ("sa", "lcp", "bwt", "rmq_sa", "rmq_lcp", "psv_nsv", "lists")


def import_memtax():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import memtax.cli  # noqa: F401  (loads every layer)
    return sys.modules


class Tracer:
    def __init__(self):
        self.stats: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [name, child seconds, span id]
        self.paused = 0.0  # seconds spent in hooks, kept out of every span
        self.missing: list[str] = []
        self.hits = 0
        self.kernel_ratios: list[float] = []
        self.read_symbols = 0
        self.records = 0
        self.empty_records = 0
        self.table_us: list[float] = []
        self.file_bytes = 0
        self.resident: dict[str, int] = dict.fromkeys(STRUCTURES, 0)
        self._restore: list[tuple] = []
        self._t0 = perf_counter()

    # ------------------------------------------------------------ wrapping
    def install(self) -> None:
        modules = import_memtax()
        memtax_modules = [m for n, m in modules.items()
                          if m is not None and (n == "memtax" or n.startswith("memtax."))]
        for mod_name, path, hot in TARGETS:
            name = f"{mod_name}.{path}"
            module = modules.get(f"memtax.{mod_name}")
            owner, _, attr = path.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            raw = vars(holder).get(attr) if holder is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, hot))
            else:
                wrapped = self._wrap(raw, name, hot)
            if owner:
                self._set(holder, attr, wrapped)
                continue
            for m in memtax_modules:  # every module that imported the name
                if vars(m).get(attr) is raw:
                    self._set(m, attr, wrapped)

    def _set(self, holder, attr, value) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    def _wrap(self, fn, name, hot):
        if name not in GENERATORS:
            return self._timed(fn, name, hot)

        def generator_call(*args, **kwargs):
            return _TimedIter(self._timed(fn(*args, **kwargs).__next__, name, hot))
        return generator_call

    def _timed(self, fn, name, hot):
        hook = getattr(self, HOOKS[name]) if name in HOOKS else None
        tracer = self

        def call(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = None if hot else len(tracer.spans)
            if span_id is not None:
                tracer.spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            paused0 = tracer.paused
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0 - (tracer.paused - paused0)
                if parent is not None:
                    parent[1] += d
                st = tracer.stats[(name, parent[0] if parent else None)]
                st[0] += 1
                st[1] += d
                st[2] += d - frame[1]
                if span_id is not None:
                    tracer.spans[span_id] = (span_id, name, parent[2] if parent else None,
                                             t0 - tracer._t0, t1 - tracer._t0, d)
            if hook is not None:
                hook(args, result, d, parent[0] if parent else None)
            return result
        return call

    # --------------------------------------------------------------- hooks
    def _hook_backward_step(self, args, result, d, parent):
        if result is not None and not result.is_empty:
            self.hits += 1

    def _hook_build_katka_kernel(self, args, result, d, parent):
        self.kernel_ratios.append(len(result) / len(args[0]))

    def _hook_digest_sequence(self, args, result, d, parent):
        if parent != "digest.digest_collection":
            self.read_symbols += len(result)

    def _hook_compute_mem_table(self, args, result, d, parent):
        self.records += len(result.records)
        self.empty_records += sum(1 for r in result.records if r.empty)
        self.table_us.append(d * 1e6)

    def _hook_serialize(self, args, result, d, parent):
        if parent != "index.AugmentedFmIndex.serialize":
            self.file_bytes += result

    def _hook_deserialize(self, args, result, d, parent):
        if isinstance(args[0], str):
            self.file_bytes += Path(args[0]).stat().st_size

    def _hook_index_init(self, args, result, d, parent):
        h0 = perf_counter()
        for key, value in resident_bytes(args[0]).items():
            self.resident[key] = max(self.resident[key], value)
        self.paused += perf_counter() - h0

    # ----------------------------------------------------------------- run
    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        """memtax.cli.main(argv) with tracing on; (exit code, last stderr
        line).  A traceback is reported with exit code 1."""
        cli = import_memtax()["memtax.cli"]
        err = io.StringIO()
        self.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as e:  # the traced command crashed: report it like the CLI would
            code, err = 1, io.StringIO(f"{type(e).__name__}: {e}")
        finally:
            self.uninstall()
        lines = err.getvalue().strip().splitlines()
        return code, lines[-1] if lines else ""

    # ------------------------------------------------------------- metrics
    def _agg(self, name, skip_parent=lambda p: False):
        count = total = own = 0.0
        for (n, parent), (c, t, s) in self.stats.items():
            if n == name and parent != name and not skip_parent(parent):
                count += c
                total += t
                own += s
        return count, total, own

    def metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics per repetition of the traced commands."""
        def calls(name, **kw):
            return self._agg(name, **kw)[0] / reps

        def secs(*names, **kw):
            return sum(self._agg(n, **kw)[1] for n in names) / reps

        def in_digest_collection(p):
            return p == "digest.digest_collection"

        def in_taxonomy(p):
            return p is not None and p.startswith("taxonomy.")

        steps = calls("index.AugmentedFmIndex.backward_step")
        tables = calls("mems.compute_mem_table")
        read_calls = calls("digest.digest_sequence", skip_parent=in_digest_collection)
        pct = statistics.quantiles(self.table_us, n=100) if len(self.table_us) > 1 else [0.0] * 99
        m = {
            "collection.parse_s": secs("collection.parse_collection"),
            "collection.iter_reads_s": secs("collection.iter_reads"),
            "digest.collection_s": secs("digest.digest_collection"),
            "digest.read_s": secs("digest.digest_sequence", skip_parent=in_digest_collection),
            "digest.read_calls": read_calls,
            "digest.symbols_per_read": self.read_symbols / reps / read_calls if read_calls else 0.0,
            "kernel.build_s": secs("kernel.build_katka_kernel"),
            "kernel.kept_ratio": statistics.fmean(self.kernel_ratios) if self.kernel_ratios else 0.0,
            "suffix.sa_s": secs("suffix.build_suffix_array"),
            "suffix.lcp_s": secs("suffix.build_lcp_array"),
            "suffix.bwt_rank_build_s": secs("suffix.derive_bwt", "suffix.IndexedSequence.__init__"),
            "suffix.rmq_build_s": secs("suffix.RangeExtremes.__init__"),
            "suffix.psv_nsv_s": secs("suffix.previous_smaller_values", "suffix.next_smaller_values"),
            "suffix.rank_calls": calls("suffix.IndexedSequence.rank"),
            "suffix.rank_s": secs("suffix.IndexedSequence.rank"),
            "suffix.rmq_calls": calls("suffix.RangeExtremes.position", skip_parent=in_taxonomy),
            "suffix.rmq_s": secs("suffix.RangeExtremes.position", skip_parent=in_taxonomy),
            "index.build_s": secs("index.AugmentedFmIndex.build"),
            "index.serialize_s": secs("index.AugmentedFmIndex.serialize"),
            "index.deserialize_s": secs("index.deserialize"),
            "index.backward_steps": steps,
            "index.backward_step_s": secs("index.AugmentedFmIndex.backward_step"),
            "index.step_hit_ratio": self.hits / reps / steps if steps else 0.0,
            "index.shrinks": calls("index.AugmentedFmIndex.shrink_to_extendable"),
            "index.shrink_s": secs("index.AugmentedFmIndex.shrink_to_extendable"),
            "index.first_last_calls": calls("index.AugmentedFmIndex.first_last_positions"),
            "index.first_last_s": secs("index.AugmentedFmIndex.first_last_positions"),
            "index.file_bytes": self.file_bytes / reps,
            **{f"index.resident_bytes.{k}": float(v) for k, v in self.resident.items()},
            "index.resident_bytes.total": float(sum(self.resident.values())),
            "mems.tables": tables,
            "mems.table_s": self._agg("mems.compute_mem_table")[2] / reps,
            "mems.records_per_read": self.records / reps / tables if tables else 0.0,
            "mems.empty_records": self.empty_records / reps,
            "mems.read_us_p50": pct[49],
            "mems.read_us_p99": pct[98],
            "taxonomy.lca_build_s": secs("taxonomy.LcaStructure.__init__"),
            "taxonomy.subtree_calls": calls("taxonomy.LcaStructure.subtree_for_range"),
            "taxonomy.subtree_s": secs("taxonomy.LcaStructure.subtree_for_range"),
            "evaluate.simulate_s": secs("evaluate.simulate_reads"),
            "evaluate.build_variant_s": secs("evaluate.build_variant_index"),
            "evaluate.classify_read_s": secs("evaluate.classify_read"),
            "cli.self_s": sum(self._agg(f"cli.cmd_{c}")[2]
                              for c in ("build", "classify", "eval")) / reps,
            "trace.missing_targets": float(len(self.missing)),
        }
        return m

    def write(self, path: Path) -> None:
        """Spans and (name, parent) aggregates as one JSON file."""
        path.write_text(json.dumps({
            "missing": self.missing,
            "spans": [dict(zip(("id", "name", "parent", "start_s", "end_s", "busy_s"), s))
                      for s in self.spans if s is not None],
            "aggregates": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                           for (n, p), (c, t, s) in sorted(self.stats.items(), key=str)],
        }))


class _TimedIter:
    """Iterator whose every ``next`` is one traced call."""

    def __init__(self, timed_next):
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def resident_bytes(ix) -> dict[str, int]:
    """Bytes held by each structure of a loaded index, measured from outside:
    numpy ``nbytes`` for arrays, ``sys.getsizeof`` for lists and their int
    objects (small ints are shared and not counted).  A structure that no
    longer exists counts 0."""
    def arrays(*objs):
        return sum(getattr(o, "nbytes", 0) for o in objs)

    def rmq(r):
        return sum(arrays(*levels) for levels in getattr(r, "_tables", {}).values())

    bwt = getattr(ix, "bwt", None)
    positions = getattr(bwt, "_positions", {})
    lists = 0
    for value in vars(ix).values():
        if isinstance(value, list):
            lists += sys.getsizeof(value) + sum(
                sys.getsizeof(v) for v in value if not -5 <= v <= 256)
    return {
        "sa": arrays(getattr(ix, "sa", None)),
        "lcp": arrays(getattr(ix, "lcp", None)),
        "bwt": arrays(getattr(bwt, "symbols", None), *positions.values()),
        "rmq_sa": rmq(getattr(ix, "rmq_sa", None)),
        "rmq_lcp": rmq(getattr(ix, "rmq_lcp", None)),
        "psv_nsv": arrays(getattr(ix, "psv", None), getattr(ix, "nsv", None)),
        "lists": lists,
    }
