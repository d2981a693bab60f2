"""S5P benchmark: edges_df → assignment DataFrame + Spark RF/balance.

Run from the root of a checkout:

    python3 perfbench/run.py --workload s5p-social-k256 --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, untraced and then traced.

A closed loop with one client: one operation at a time, each waiting for
the last, on Spark ``local[N]`` with N = min(4, nproc). Set-up starts
Spark, generates the workload's stand-in from ``--seed`` (the catalog's
per-name seed when omitted), caches ``edges_df`` and runs one untimed
warm-up operation. Then operations repeat until ``--seconds`` have
passed (at least one).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
per operation, with no tracing, plus the driver-side peak memory taken
afterwards in separate processes. ``--trace 1`` alternates untraced and
traced operations, and reports the per-layer
metrics: self times from spans, counts taken from the layers' outputs,
Spark jobs per layer, tracemalloc peaks per layer, the time no layer
covers (``other_s``) and the tracing overhead. Spans go to
``.bench_out/``.

Every operation's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 when any check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKERS = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"

#: Span name → per-layer self-time metric. ``op`` is the operation's root
#: span, so its self time is the time no layer span covers.
SELF_TIME_METRIC = {
    "stream.collect": "stream.collect_s",
    "clustering": "clustering.s",
    "theta.cut_pairs": "theta.cut_pairs_s",
    "theta.store": "theta.store_s",
    "game": "game.s",
    "postprocess": "postprocess.s",
    "s5p.to_df": "s5p.to_df_s",
    "metrics.rf_spark": "metrics.rf_spark_s",
    "metrics.balance_spark": "metrics.balance_spark_s",
    "metrics.rf_np": "metrics.rf_np_s",
    "baselines.CLUGP": "baselines.CLUGP.s",
    "baselines.2PS-L": "baselines.2PS-L.s",
    "baselines.HDRF": "baselines.HDRF.s",
    "baselines.S5P": "baselines.S5P.s",
    "op": "other_s",
}
#: Span name → per-layer Spark job count metric.
SPARK_JOBS_METRIC = {
    "stream.collect": "stream.spark_jobs",
    "s5p.to_df": "s5p.spark_jobs",
    "metrics.rf_spark": "metrics.spark_jobs",
    "metrics.balance_spark": "metrics.spark_jobs",
}
#: Counters copied to per-layer metrics unchanged.
COUNT_METRICS = (
    "clustering.clusters_minted",
    "clustering.clusters_live",
    "theta.cut_pairs_rows",
    "theta.distinct_pairs",
    "theta.cms_bytes",
    "theta.seen_bytes",
    "game.rounds",
    "game.active_clusters",
    "game.best_responses",
    "postprocess.overflow_edges",
)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in SPEC["workloads"]] + ["all"],
        help="'all' runs every workload, untraced and then traced",
    )
    ap.add_argument("--seed", type=int, default=None, help="stand-in seed (default: catalog's)")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def configure_environment() -> None:
    """Keep Spark, the JVM and Python's temp files inside the checkout.

    Must run before pyspark is imported: the JVM reads its arguments at
    launch.
    """
    local, tmp = OUT / "spark-local", OUT / "tmp"
    local.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # Every JVM, spark-submit's launcher included, keeps its temp files in
    # the checkout and writes no hsperfdata.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{WORKERS}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))


def start_spark():
    from pyspark.sql import SparkSession

    # Arrow on, as in the repository's test session; the rest are the
    # Spark defaults the jobs run with.
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    gateway = spark.sparkContext._gateway  # pyspark keeps the JVM's Popen here
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def probe_memory(edges, k: int, methods) -> dict[str, dict]:
    """Run memprobe.py once per partitioner, in parallel fresh processes."""
    procs = {
        m: subprocess.Popen(
            [sys.executable, str(HERE / "memprobe.py"), m, str(k)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        for m in methods
    }
    data = edges.tobytes()
    try:
        for p in procs.values():
            p.stdin.write(data)
            p.stdin.close()
        out = {}
        for m, p in procs.items():
            line = p.stdout.read()
            if p.wait(timeout=150) != 0:
                raise RuntimeError(f"memprobe {m} exited with {p.returncode}")
            out[m] = json.loads(line)
        return out
    finally:
        for p in procs.values():
            if p.poll() is None:
                p.kill()
            p.wait()


class Run:
    """One benchmark run: set-up, the timed loop and the checks."""

    def __init__(self, spark, wl_name: str, args, t0: float) -> None:
        import ops
        from repro.core.stream import edges_to_df
        from repro.graphgen.catalog import standin_edges

        self.ops = ops
        self.spark = spark
        self.wl_name = wl_name
        self.wl = ops.WORKLOADS[wl_name]
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

        # The seed goes only to the generator; partitioners see the edges.
        self.edges = standin_edges(self.wl.graph, "full", seed=args.seed)
        self.edges_df = edges_to_df(spark, self.edges).cache()
        self.edges_df.count()
        # The warm-up runs S5P only. It pays Spark's first-use costs (the
        # first Spark RF takes about twice as long as later ones); the
        # baselines are plain Python with nothing to warm, and a whole
        # Table 3 row set would add ~25 s to every run's set-up.
        warm = ops.run_op(spark, self.edges_df, self.wl.k, ("S5P",))
        self.setup_s = time.perf_counter() - t0
        self.checker = ops.OutputChecker(self.edges, self.wl.k)
        self.check(warm)

    def check(self, res) -> None:
        problems = []
        for r in res.methods:
            problems += self.checker.check(r)
            r.assign.unpersist()
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def untraced_op(self):
        res = self.ops.run_op(self.spark, self.edges_df, self.wl.k, self.wl.methods)
        self.check(res)
        return res

    def end_to_end(self) -> dict[str, float]:
        results = []
        deadline = time.perf_counter() + self.args.seconds
        while not results or time.perf_counter() < deadline:
            results.append(self.untraced_op())
        ops_rf = [fmean(r.rf for r in res.methods) for res in results]
        ops_bal = [fmean(r.balance for r in res.methods) for res in results]
        probes = probe_memory(self.edges, self.wl.k, self.wl.methods)
        for m, p in probes.items():
            if not self.checker.same_as_reference(m, p["digest"]):
                self.problems.append(f"{m}: memprobe assignment differs from the run's first")
            part_s = median([r.partition_s for res in results for r in res.methods if r.method == m])
            eval_s = median([r.evaluate_s for res in results for r in res.methods if r.method == m])
            r = results[-1].methods[self.wl.methods.index(m)]
            print(f"# {m}: rf={r.rf} balance={r.balance} partition_s={part_s:.4f} "
                  f"evaluate_s={eval_s:.4f} peak_mem_mb={p['peak_mb']:.2f}")
        print(f"# timed operations: {len(results)}")
        for name in ("e2e_s", "partition_s", "evaluate_s"):
            xs = [getattr(res, name) for res in results]
            print(f"# {name}: median={median(xs):.4f} min={min(xs):.4f} max={max(xs):.4f} n={len(xs)}")
        return {
            "e2e_s": median([res.e2e_s for res in results]),
            "partition_s": median([res.partition_s for res in results]),
            "evaluate_s": median([res.evaluate_s for res in results]),
            "rf": median(ops_rf),
            "balance": median(ops_bal),
            "peak_mem_mb": max(p["peak_mb"] for p in probes.values()),
            "setup_s": self.setup_s,
        }

    def per_layer(self) -> dict[str, float]:
        from memprobe import digest
        from tracer import Tracer

        ops = self.ops
        tr = Tracer(self.spark.sparkContext)
        untraced, traced = [], []
        deadline = time.perf_counter() + self.args.seconds
        # Alternate, so that both kinds see the same warm-up state and the
        # difference between them is the tracing overhead.
        while not traced or time.perf_counter() < deadline:
            untraced.append(self.untraced_op())
            op, parts = ops.run_traced_op(tr, self.spark, self.edges_df, self.wl.k, self.wl.methods)
            self.attempted += 1
            bad = [m for m, p in parts.items() if not self.checker.same_as_reference(m, digest(p))]
            self.failed += bool(bad)
            self.problems += [f"{m}: traced layer-by-layer assignment differs" for m in bad]
            traced.append(op)
        layer_mem, theta_problems = ops.s5p_layer_memory(self.edges, self.wl.k)
        self.problems += theta_problems

        per_op = [self.op_layer_metrics(tr, op) for op in traced]
        metrics = {name: median([m.get(name, 0.0) for m in per_op]) for name in set().union(*per_op)}
        metrics.update(layer_mem)
        untraced_e2e = median([r.e2e_s for r in untraced])
        traced_s = median([tr.op_seconds(op, exclude=("metrics.rf_np",)) for op in traced])
        metrics["tracing_overhead_s"] = traced_s - untraced_e2e
        print(f"# untraced e2e_s={untraced_e2e:.4f} (n={len(untraced)}) "
              f"traced op={traced_s:.4f} (n={len(traced)}, without metrics.rf_np)")
        seed = "default" if self.args.seed is None else self.args.seed
        tr.dump(OUT / f"spans-{self.wl_name}-seed{seed}.jsonl")
        return metrics

    @staticmethod
    def op_layer_metrics(tr, op: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, s in tr.self_times(op).items():
            out[SELF_TIME_METRIC[span]] = s
        for span, n in tr.spark_jobs(op).items():
            name = SPARK_JOBS_METRIC[span]
            out[name] = out.get(name, 0) + n
        c = tr.counters[op]
        for name in COUNT_METRICS:
            out[name] = c[name]
        out["clustering.head_edge_frac"] = c["clustering.head_edges"] / c["clustering.edges"]
        out["game.converged"] = c["game.converged_calls"] / c["game.calls"]
        out["postprocess.overflow_frac"] = c["postprocess.overflow_edges"] / c["postprocess.edges"]
        return out

    def environment(self) -> dict:
        import numpy
        import pyarrow
        import pyspark

        sc = self.spark.sparkContext
        return {
            "workload": self.wl_name,
            "graph": self.wl.graph,
            "k": self.wl.k,
            "methods": list(self.wl.methods),
            "edges": int(len(self.edges)),
            "seed": self.args.seed if self.args.seed is not None else "catalog default",
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "nproc": os.cpu_count(),
            "spark_master": sc.master,
            "driver_memory": sc.getConf().get("spark.driver.memory"),
            "spark": pyspark.__version__,
            "numpy": numpy.__version__,
            "pyarrow": pyarrow.__version__,
            "python": platform.python_version(),
        }


def run_all(args) -> int:
    """Every workload, untraced and then traced, each run in its own process."""
    rc = 0
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", w["name"],
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            rc = max(rc, subprocess.run(cmd).returncode)
    return rc


def report(values: dict[str, float], declared: list[dict]) -> dict:
    names = {m["name"] for m in declared}
    unknown = set(values) - names
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    # A declared layer that this workload never enters reads 0.
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}


def main() -> int:
    args = parse_args()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    configure_environment()
    t0 = time.perf_counter()
    spark = start_spark()
    try:
        run = Run(spark, args.workload, args, t0)
        if args.trace:
            metrics = report(run.per_layer(), SPEC["per_layer"])
        else:
            metrics = report(run.end_to_end(), SPEC["end_to_end"])
        env = run.environment()
    finally:
        stop_spark(spark)
    for p in run.problems:
        print(f"# CHECK FAILED: {p}")
    print(f"# failed_frac={run.failed / run.attempted} ({run.failed} of {run.attempted} operations)")
    print(json.dumps({"environment": env}))
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
