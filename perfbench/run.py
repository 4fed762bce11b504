"""Time to a certified representation on fixed corpora of triangulations.

One operation is one instance of the workload's corpus, constructed with
`assemble.represent`, serialized as `tricontact run` writes it, and
certified with `verify.full_report(rep, T, with_faces=True,
with_drawing=True)`.  Every output must pass that report and the
benchmark's own exact check (`check.py`).  A run repeats whole rounds over
the corpus, each in an order drawn from `--seed`, until `--seconds` have
passed, and prints one JSON object as its last line.

    python3 perfbench/run.py --workload stacked --seed 1 --seconds 30 --trace 0

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced rounds, adds one kernel-counting round, and
prints the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("stacked", "fourconn", "nested")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _den_bits(rep_json: dict) -> int:
    texts = [rep_json["epsilon"]] + [c for t in rep_json["triangles"].values() for c in t]
    return max(int(t.split("/")[1]).bit_length() for t in texts)


assemble = verify = check = corpus = tracing = None  # bound by _load()


def _load() -> float:
    """Import the program and the benchmark's modules; returns the time taken."""
    global assemble, verify, check, corpus, tracing
    # BLAS reads its thread count when numpy loads: one thread, so that
    # lstsq neither competes for cores nor varies the solver's path.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from tricontact import assemble, verify
    import check
    import corpus
    import tracing
    return time.perf_counter() - t0


class Bench:
    """One workload's corpus and the results of the operations run on it."""

    def __init__(self, workload: str, seed: int, import_s: float):
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.instances = corpus.WORKLOADS[workload]()
            warm = corpus.warmup_instance(workload)
            verify.full_report(assemble.represent(warm), warm, with_faces=True, with_drawing=True)
            builds.append(time.perf_counter() - t0)
        self.setup_s = import_s + statistics.median(builds)
        self.rng = random.Random(seed)
        self.attempted = self.failed = 0
        self.wrong = 0
        self.times: dict[str, list[tuple[float, float, float]]] = {}
        self.outputs: dict[str, tuple[str, int, int]] = {}  # digest, bytes, den bits

    def operation(self, name: str, T) -> None:
        """Construct, serialize and certify one instance, then check it."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            rep = assemble.represent(T)
            t1 = time.perf_counter()
            text = json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n"
            t2 = time.perf_counter()
            report = verify.full_report(rep, T, with_faces=True, with_drawing=True)
            t3 = time.perf_counter()
        except Exception:  # a failed construction is data, not the end of the run
            print(f"{name}: operation raised", file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            return
        rep_json = json.loads(text)
        problems = check.check(rep_json, T.n, T.edges, T.outer)
        if not report.passed:
            problems.append("full_report did not pass")
        out = (hashlib.sha256(text.encode()).hexdigest(), len(text.encode()), _den_bits(rep_json))
        if self.outputs.setdefault(name, out) != out:
            problems.append("output differs from an earlier round")
        if problems:
            print(f"{name}: {'; '.join(problems[:5])}", file=sys.stderr)
            self.failed += 1
            self.wrong += 1
            return
        self.times.setdefault(name, []).append((t1 - t0, t3 - t2, t3 - t0))

    def round(self, tracer=None) -> float:
        """One pass over the corpus in a seeded order; returns its wall time."""
        order = list(self.instances)
        self.rng.shuffle(order)
        t0 = time.perf_counter()
        for name, T in order:
            if tracer is None:
                self.operation(name, T)
            else:
                with tracer.span(tracing.BENCH_SPAN):
                    self.operation(name, T)
        return time.perf_counter() - t0

    def end_to_end(self) -> dict:
        def total(k: int) -> float:
            return sum(statistics.median(t[k] for t in ts) for ts in self.times.values())

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": (total(2), "s"),
            "construct_s": (total(0), "s"),
            "certify_s": (total(1), "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "max_den_bits": (max((o[2] for o in self.outputs.values()), default=0), "bits"),
            "rep_bytes": (sum(o[1] for o in self.outputs.values()), "bytes"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def per_layer(self, seconds: float, workload: str, seed: int) -> dict:
        """Alternate untraced and traced rounds, then count kernel calls."""
        tracer = tracing.Tracer()
        start = time.perf_counter()
        plain = []
        traced = 0
        while True:
            plain.append(self.round())
            with tracer.installed():
                self.round(tracer)
            traced += 1
            if time.perf_counter() - start >= seconds:
                break
        kernels: Counter = Counter()
        with tracing.kernel_counts(kernels) as absent_kernels:
            self.round()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans_{workload}_{seed}.jsonl")
        for name in tracer.absent + absent_kernels:
            print(f"layer absent: {name} (reported as 0)", file=sys.stderr)

        own = tracer.self_times()
        values = {m: (v / traced, "s") for m, v in own.items() if m not in ("bench", "wall")}
        for key in ("planar.pieces", "solver.solve_contacts_calls", "solver.restarts",
                    "solver.iterations", "perturb.triple_rounds",
                    "verify.intersection_graph_calls"):
            values[key] = (tracer.counts[key] / traced, "count")
        for _fname, key in tracing.KERNELS:
            values[key] = (kernels[key], "count")
        wall = own["wall"] / traced
        values["trace.wall_s"] = (wall, "s")
        values["trace.untraced_wall_s"] = (statistics.mean(plain), "s")
        values["trace.overhead_s"] = (wall - statistics.mean(plain), "s")
        values["trace.unattributed_s"] = (own["bench"] / traced, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tricontact" / "__init__.py").is_file():
        print(f"error: no tricontact sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, _load())
    if args.trace:
        metrics = bench.per_layer(args.seconds, args.workload, args.seed)
    else:
        start = time.perf_counter()
        while True:
            bench.round()
            if time.perf_counter() - start >= args.seconds:
                break
        metrics = bench.end_to_end()
    print(json.dumps({"correct": bench.wrong == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
