#!/usr/bin/env python3
"""The memtax benchmark.

    python3 bench/run.py --workload classify-raw --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload generates its inputs from the seed (``gen``), runs the
user-facing commands ``memtax build``, ``classify`` and ``eval`` of this
checkout (``src/``) as child processes, one at a time from this one client
process (a closed loop, no threads), times each by wall clock from outside
with its own peak RSS from ``os.wait4``, and checks the outputs
(``checks``).  The measured commands repeat until ``--seconds`` have passed
(at least ``min_reps`` times) and their medians are reported.

With ``--trace 1`` the measured commands run once as child processes, as
the untraced reference, and then in this process under ``tracing.Tracer``,
which times the public functions of every layer; the result then holds the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  The exit code is 0 only when
every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer, import_memtax  # noqa: E402

WORK = ROOT / ".bench_work"
DESK_GENOMES = 50
READS = 1000
SAMPLE_DIGEST = 3  # reads checked against the oracle per digest index
DIGEST_K_W = (3, 10)
DIGEST_KMAX = 20
BUILD_GENOMES = 100  # 2x the desk collection
BUILD_KMAX = 100
BUILD_SAMPLE_READS = 100
EVAL_VARIANTS = "raw,kernel:100,kernel:50,kernel:20"
EVAL_READS_PER_GENOME = 10


@dataclass
class Cmd:
    argv: list
    wall_s: float
    rss_mb: float
    code: int
    stderr: str
    cpu_s: float = 0.0
    probe: bool = False  # an untimed probe whose failure is reported, not an error


class Context:
    """One workload run: its work directory and every command it ran."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log: list[Cmd] = []

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def run(self, argv: list, probe: bool = False) -> Cmd:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        err_path = self.dir / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "memtax.cli", *argv],
                                    stdout=subprocess.DEVNULL, stderr=err, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        lines = err_path.read_text(errors="replace").strip().splitlines()
        cmd = Cmd(argv, wall, usage.ru_maxrss / 1024, proc.returncode, lines[-1] if lines else "",
                  usage.ru_utime + usage.ru_stime, probe)
        self.log.append(cmd)
        return cmd

    def run_ok(self, argv: list) -> Cmd:
        cmd = self.run(argv)
        if cmd.code != 0:
            raise SetupError(f"{argv[0]} exited {cmd.code}: {cmd.stderr}")
        return cmd


class SetupError(Exception):
    pass


# ------------------------------------------------------------- workloads
class Workload:
    """prepare() writes inputs; setup() and main(rep) give the argv lists
    of one set-up sample and one measured repetition; verify() checks the
    outputs and returns (errors, attempted, failed, metrics); info() gives
    the figures printed beside the result under the names of the README."""

    setup_reps = 3
    min_reps = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def write_collection(self, genomes: int) -> list[str]:
        seqs = gen.collection(self.ctx.seed, genomes)
        gen.write_fasta(self.ctx.path("genomes.fa"), [(f"g{i}", s) for i, s in enumerate(seqs)])
        return seqs


class Classify(Workload):
    indexes: dict[str, list[str]] = {}  # index name -> its `memtax build` options

    def prepare(self):
        self.genomes = self.write_collection(DESK_GENOMES)
        self.tree = gen.BalancedTree(DESK_GENOMES)
        Path(self.ctx.path("tree.nwk")).write_text(self.tree.newick + "\n")
        self.reads = gen.reads(self.ctx.seed, self.genomes, READS)
        gen.write_fasta(self.ctx.path("one.fa"), [self.reads[0][:2]])
        self.write_reads()
        for name, options in self.indexes.items():
            self.ctx.run_ok(["build", "--input", self.ctx.path("genomes.fa"), *options,
                             "--output", self.index(name)])

    def write_reads(self):
        gen.write_fasta(self.ctx.path("reads.fa"), [r[:2] for r in self.reads])

    def index(self, name):
        return self.ctx.path(f"{name}.ktk2")

    def classify(self, name, reads, out):
        return ["classify", "--index", self.index(name), "--tree", self.ctx.path("tree.nwk"),
                "--reads", self.ctx.path(reads), "--output", self.ctx.path(out)]

    def setup(self):
        return [self.classify(name, "one.fa", "one.tsv") for name in self.indexes]

    def main(self, rep):
        return [self.classify(name, "reads.fa", self.out(name, rep)) for name in self.indexes]

    def out(self, name, rep):
        return f"{name}-{rep}.tsv"

    def verify(self, cmds_by_rep):
        errors, attempted, failed, rows_total, tp, tp_n = [], 0, 0, 0, 0, 0
        measured = self.measured_reads()
        oracles = checks.load_oracles()
        for rep, cmds in enumerate(cmds_by_rep):
            for name, cmd in zip(self.indexes, cmds):
                out = self.ctx.path(self.out(name, rep))
                rows = checks.read_tsv(out) if cmd.code != 1 and os.path.exists(out) else {}
                with_row = sum(1 for r in measured if rows.get(r[0]))
                attempted += len(measured)
                failed += len(measured) - with_row
                rows_total += with_row
                if rep == len(cmds_by_rep) - 1:
                    tp += sum(checks.true_positive(rows.get(r[0], []), r[2]) for r in measured)
                    tp_n += len(measured)
                    errors += self.oracle_check(oracles, name, rows)
        metrics = {
            "index_bytes": sum(os.path.getsize(self.index(n)) for n in self.indexes),
            "tp_rate": tp / tp_n,
            "reads_with_row": rows_total / len(cmds_by_rep),
            "failed_read_share": failed / attempted,
        }
        return errors, attempted, failed, metrics

    def measured_reads(self):
        return self.reads

    def info(self, setup, wall, extra):
        return {"reads_per_s": (extra["reads_with_row"] / (wall - setup), "reads/s"),
                "failed_read_share": (extra["failed_read_share"], "fraction")}


class ClassifyRaw(Classify):
    """The query path on the 4-letter alphabet against the largest index
    load; no build code runs in the measured part."""
    indexes = {"raw": ["--mode", "raw"]}

    def oracle_check(self, oracles, name, rows):
        text = gen.SEP.join(self.genomes) + gen.SEP
        # One clean and one N-bearing read.  The oracle's substring scans
        # stop at the first occurrence, so its cost grows with the source
        # genome's offset in the text: take each from the lowest genome.
        sample = [min((r for r in self.reads if ("N" in r[1]) == tail), key=lambda r: r[2])
                  for tail in (False, True)]
        return checks.check_classify(oracles, rows, sample, text, self.tree)


class ClassifyDigest(Classify):
    """The same MEM engine on a 67-symbol alphabet with absent-symbol
    `empty` records, against a digest and a digest-kernel index."""
    indexes = {"digest": ["--mode", "digest", "--k", str(DIGEST_K_W[0]), "--w", str(DIGEST_K_W[1])],
               "digest-kernel": ["--mode", "digest-kernel", "--k", str(DIGEST_K_W[0]),
                                 "--w", str(DIGEST_K_W[1]), "--kmax", str(DIGEST_KMAX)]}

    def write_reads(self):
        # A read with an N aborts classify on digest indexes, so the
        # measured commands get the N-free reads and the N-bearing tail
        # runs as an untimed probe whose failures are reported.
        self.clean = [r for r in self.reads if "N" not in r[1]]
        self.tail = [r for r in self.reads if "N" in r[1]]
        gen.write_fasta(self.ctx.path("reads.fa"), [r[:2] for r in self.clean])
        gen.write_fasta(self.ctx.path("tail.fa"), [r[:2] for r in self.tail])

    def measured_reads(self):
        return self.clean

    def oracle_check(self, oracles, name, rows):
        text = gen.separated(gen.digest(g, *DIGEST_K_W) for g in self.genomes)
        if name == "digest-kernel":
            text = gen.kernel(text, DIGEST_KMAX)
        return checks.check_classify(oracles, rows, self.clean[:SAMPLE_DIGEST], text, self.tree,
                                     DIGEST_K_W, tag=f"{name}: ")

    def verify(self, cmds_by_rep):
        """Adds the probe of the N-bearing tail: failed_read_share is the
        share of all reads, the tail included, with no output row from the
        first digest index."""
        errors, attempted, failed, metrics = super().verify(cmds_by_rep)
        cmd = self.ctx.run(self.classify("digest", "tail.fa", "tail.tsv"), probe=True)
        rows = checks.read_tsv(self.ctx.path("tail.tsv")) if cmd.code != 1 else {}
        tail_failed = sum(1 for r in self.tail if not rows.get(r[0]))
        runs = len(self.indexes) * len(cmds_by_rep)
        metrics["failed_read_share"] = (failed / runs + tail_failed) / len(self.reads)
        return errors, attempted, failed, metrics


class Build(Workload):
    """Construction only: raw, kernel and digest builds of a collection
    twice the desk size; no read is queried in the measured part."""
    setup_reps = 5
    modes = {"raw": ["--mode", "raw"],
             "kernel": ["--mode", "kernel", "--kmax", str(BUILD_KMAX)],
             "digest": ClassifyDigest.indexes["digest"]}

    def prepare(self):
        self.genomes = self.write_collection(BUILD_GENOMES)
        gen.write_fasta(self.ctx.path("tiny.fa"), [("g0", self.genomes[0][:1000])])

    def setup(self):
        return [["build", "--input", self.ctx.path("tiny.fa"), "--mode", "raw",
                 "--output", self.ctx.path("tiny.ktk2")]]

    def main(self, rep):
        return [["build", "--input", self.ctx.path("genomes.fa"), *args,
                 "--output", self.ctx.path(f"{mode}.ktk2")] for mode, args in self.modes.items()]

    def info(self, setup, wall, extra):
        return {"build_s": (wall, "s")}

    def verify(self, cmds_by_rep):
        attempted = sum(len(c) for c in cmds_by_rep)
        failed = sum(1 for c in cmds_by_rep for cmd in c if cmd.code != 0)
        files = {m: self.ctx.path(f"{m}.ktk2") for m in self.modes}
        if failed:
            return [f"{failed} builds failed"], attempted, failed, {"index_bytes": 0, "tp_rate": 0}
        modules = import_memtax()
        reads = [r for r in gen.reads(self.ctx.seed, self.genomes, BUILD_SAMPLE_READS)
                 if "N" not in r[1]]
        errors, tp, tried = checks.check_build(modules["memtax.index"], modules["memtax.mems"],
                                               files, self.genomes, reads, self.ctx.seed,
                                               BUILD_KMAX, DIGEST_K_W)
        metrics = {"index_bytes": sum(os.path.getsize(f) for f in files.values()),
                   "tp_rate": tp / tried}
        return errors, attempted, failed, metrics


class Eval(Workload):
    """One process builds four variants of the desk collection, three of
    them kernel orders of one text, and evaluates simulated reads on each."""
    setup_reps = 5
    min_reps = 2  # two reports are compared for identity

    def prepare(self):
        self.genomes = self.write_collection(DESK_GENOMES)
        gen.write_fasta(self.ctx.path("tiny.fa"), [("g0", self.genomes[0][:1000])])

    def eval(self, collection, reads_per_genome, out):
        return ["eval", "--input", self.ctx.path(collection), "--variants", EVAL_VARIANTS,
                "--reads-per-genome", str(reads_per_genome), "--seed", str(self.ctx.seed),
                "--output", self.ctx.path(out)]

    def setup(self):
        return [self.eval("tiny.fa", 1, "tiny.json")]

    def main(self, rep):
        return [self.eval("genomes.fa", EVAL_READS_PER_GENOME, f"report-{rep}.json")]

    def info(self, setup, wall, extra):
        return {"eval_s": (wall, "s"), "raw_query_us": (extra["raw_query_us"], "us")}

    def verify(self, cmds_by_rep):
        per_variant = DESK_GENOMES * EVAL_READS_PER_GENOME
        variants = len(EVAL_VARIANTS.split(","))
        attempted = len(cmds_by_rep) * variants * per_variant
        reports = []
        for rep, (cmd,) in enumerate(cmds_by_rep):
            if cmd.code == 0:
                reports.append(json.loads(Path(self.ctx.path(f"report-{rep}.json")).read_text()))
        failed = (len(cmds_by_rep) - len(reports)) * variants * per_variant
        if not reports:
            return ["eval failed"], attempted, failed, {"index_bytes": 0, "tp_rate": 0}
        failed += sum(per_variant for r in reports for v in r["variants"] if "error" in v)
        errors = checks.check_eval(reports, per_variant) if len(reports) == len(cmds_by_rep) \
            else ["eval failed in some repetitions"]
        vs = reports[0]["variants"]
        metrics = {"raw_query_us": statistics.median(r["variants"][0]["mean_query_us"] for r in reports),
                   "index_bytes": sum(v["size_bytes"] for v in vs),
                   "tp_rate": sum(v["tp_rate"] * v["reads_evaluated"] for v in vs)
                   / sum(v["reads_evaluated"] for v in vs)}
        return errors, attempted, failed, metrics


WORKLOADS = {"classify-raw": ClassifyRaw, "classify-digest": ClassifyDigest,
             "build-2x": Build, "eval-desk": Eval}


# ------------------------------------------------------------------ runs
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ctx = Context(name, seed)
    wl = WORKLOADS[name](ctx)
    try:
        return _run(wl, name, seed, seconds, trace)
    finally:
        shutil.rmtree(ctx.dir, ignore_errors=True)


def _run(wl: Workload, name: str, seed: int, seconds: float, trace: bool) -> dict:
    ctx = wl.ctx
    t_start = time.perf_counter()
    steal0 = cpu_ticks()
    try:
        wl.prepare()
    except SetupError as e:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "errors": [str(e)]}
    setups = [] if trace else [[ctx.run(a) for a in wl.setup()] for _ in range(wl.setup_reps)]

    # With tracing on, one untraced repetition is the overhead reference.
    t0 = time.perf_counter()
    reps = [[ctx.run(a) for a in wl.main(0)]]
    while not trace and (len(reps) < wl.min_reps or time.perf_counter() - t0 < seconds):
        reps.append([ctx.run(a) for a in wl.main(len(reps))])

    if trace:
        tracer = Tracer()
        traced_walls = []
        t0 = time.perf_counter()
        while not traced_walls or time.perf_counter() - t0 < seconds:
            cmds = []
            for argv in wl.main(len(reps)):
                paused, w0 = tracer.paused, time.perf_counter()
                code, err = tracer.run_cli(argv)
                elapsed = time.perf_counter() - w0 - (tracer.paused - paused)
                cmds.append(Cmd(argv, elapsed, rss_mb=0.0, code=code, stderr=err))
            ctx.log.extend(cmds)
            reps.append(cmds)
            traced_walls.append(sum(c.wall_s for c in cmds))

    errors, attempted, failed, extra = wl.verify(reps)
    errors += [f"{c.argv[0]} exited {c.code}: {c.stderr}" for c in ctx.log if c.code and not c.probe]

    wall = statistics.median(sum(c.wall_s for c in cmds) for cmds in (reps[:1] if trace else reps))
    out = {"correct": not errors, "attempted": max(1, attempted), "failed": failed}
    if trace:
        n_traced = len(traced_walls)
        metrics = tracer.metrics(n_traced)
        metrics["cli.failed_read_share"] = extra.get("failed_read_share", 0.0)
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / wall - 1
        tracer.write(WORK / f"trace-{name}-{seed}.json")
        out["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        out["missing_targets"] = tracer.missing
    else:
        setup = statistics.median(sum(c.wall_s for c in s) for s in setups)
        measured = [c for s in setups for c in s] + [c for r in reps for c in r]
        out["metrics"] = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": max(c.rss_mb for c in measured), "unit": "MB"},
            "index_bytes": {"value": extra["index_bytes"], "unit": "bytes"},
            "tp_rate": {"value": extra["tp_rate"], "unit": "fraction"},
        }
        out["info"] = {"reps": (len(reps), "count"), "setup_reps": (len(setups), "count"),
                       **wl.info(setup, wall, extra)}
        out["info"]["cpu_s"] = (statistics.median(sum(c.cpu_s for c in r) for r in reps), "s")
        steal1 = cpu_ticks()
        if steal0 and steal1:
            out["info"]["host_steal_share"] = ((steal1[0] - steal0[0]) / (steal1[1] - steal0[1]),
                                               "fraction")
    out["commands"] = [c for c in ctx.log if c.code]
    out["errors"] = errors[:10]
    out["elapsed_s"] = time.perf_counter() - t_start
    return out


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine, to tell host contention
    apart from the program in noisy timings; None where /proc is absent."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None
    return ticks[7], sum(ticks)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_p50") or name.endswith("_us_p99"):
        return "us"
    if "bytes" in name:
        return "bytes"
    if name.endswith("ratio") or name.endswith("share"):
        return "fraction"
    return "count"


def print_result(name: str, res: dict) -> None:
    for k, m in res.get("metrics", {}).items():
        print(f"{name} {k} = {m['value']:.6g} {m['unit']}")
    for k, (v, u) in res.get("info", {}).items():
        print(f"{name} {k} = {v:.6g} {u}")
    for k in res.get("missing_targets", []):
        print(f"{name} trace target missing: {k}")
    for c in res.get("commands", []):
        print(f"{name} command exit {c.code}{' (probe)' if c.probe else ''}: "
              f"{' '.join(c.argv[:2])} ... stderr: {c.stderr}")
    for e in res.get("errors", []):
        print(f"{name} CHECK FAILED: {e}")
    print(f"{name} correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} elapsed={res.get('elapsed_s', 0):.1f}s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "memtax" / "cli.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no memtax checkout at {ROOT} (src/memtax, tests/oracles.py)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own benchmark process: a child's peak RSS
    starts from its parent's, so the memory this process takes for checks
    and traced runs must not reach the next workload's commands."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{n}/{k}": m for n, r in results.items()
                                  for k, m in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
