#!/usr/bin/env python3
"""versa_ray benchmark: kg_build, kg_merge and kg_store.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 15 --trace 0

Run from the repository root. One local Ray cluster with num_cpus = nproc
serves one client that issues operations in a closed loop: the next
operation starts only after the previous one (and its output checks and
pruned reads) completes. Set-up (Ray start, input generation, worker
warm-up, derived inputs) is charged to ``setup_s`` and never timed as an
operation. Reported times are wall time net of the hypervisor's steal
(``workloads.Stats.net_s``); the record keeps the raw medians.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
loop with each operation split at its layer boundaries, records spans,
runs the kernel microbenchmarks and prints every per-layer metric. The
last stdout line is the result JSON; the line before it is the run
record (CPU counts, Ray version, seed, input sizes, source revision and
per-metric quartiles). Spans and the record also go to
``.perfbench_out/``. The exit code is 1 when an output check fails and 2
when the program under test is missing.

``--pin`` records the reference link counts and digests of ``--seed`` in
perfbench/expected.json instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_REPS = 3
KERNEL_BUDGET_S = 0.5

LAYER_STAGES = ("read", "extract", "checkpoint", "score", "dedup", "store.commit")


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def quartiles(xs) -> dict:
    if len(xs) < 2:
        return {"n": len(xs), "median": median(xs)}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"n": len(xs), "q1": q1, "median": q2, "q3": q3}


def percentile(xs, p: float) -> float:
    xs = sorted(xs)
    if not xs:
        return float("nan")
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def source_revision() -> dict:
    """The git commit when there is one, and a digest of the program's
    sources either way (benchmark checkouts are not git repositories)."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "versa_ray")
    for d, _, files in sorted(os.walk(pkg)):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "source_sha256": h.hexdigest()[:16]}


def load_pins() -> dict:
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def pins_of(wl) -> dict:
    if wl.name == "kg_store":
        rows = [wl.base.add(quads).count for quads in wl.delta_quads]
        return {"links": wl.base.count, "digest": str(wl.base.digest),
                "rows_after": rows}
    return {"links": wl.expected.count, "digest": str(wl.expected.digest)}


class Runner:
    def __init__(self, args, ncpu: int):
        from session import Tracer
        from workloads import WORKLOADS, Stats

        self.args = args
        self.stats = Stats(steal_share=1 / (ncpu + 1))
        self.tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}",
                             enabled=bool(args.trace))
        self.work = os.path.join(ROOT, ".perfbench_work",
                                 f"{args.workload}-{args.seed}-{os.getpid()}")
        self.wl = WORKLOADS[args.workload](args.seed, self.work, self.tracer,
                                           self.stats)
        self.overhead: list = []
        self.kernels: dict = {}
        self.check_s: list = []
        self.phase_s: dict = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[name] = round(time.perf_counter() - t0, 3)

    def attempt(self, n: int, fn, *a):
        """Run ``fn``; it stands for ``n`` attempted operations, one of
        which fails if it raises."""
        st = self.stats
        st.attempted += n
        try:
            return fn(*a)
        except Exception as e:  # a failed op or check is reported, not fatal
            st.failed += 1
            st.errors.append(f"{type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            raise

    def setup(self):
        for rep in range(SETUP_REPS):
            with self.tracer.span("setup"), self.stats.timed("setup"):
                self.wl.prepare(rep)
        with self.phase("reference"):
            self.wl.reference()
        pinned = load_pins().get(self.wl.name, {}).get(str(self.args.seed))
        if pinned is not None:
            from workloads import check

            check(pinned == pins_of(self.wl),
                  f"{self.wl.name}: reference differs from the pinned "
                  f"counts/digest for seed {self.args.seed}")

    def cycle(self):
        wl, st = self.wl, self.stats
        origins = wl.pick_origins()
        reads = len(origins) + len(wl.scan_rels)
        self.attempt(1, wl.op)
        op_s = st.samples["op"][-1]["s"]
        t0 = time.perf_counter()
        self.attempt(1, wl.check_store)
        self.check_s.append(time.perf_counter() - t0)
        if self.tracer.enabled:
            first = len(self.tracer.spans)
            self.attempt(1, wl.traced_op)
            stage_sum = sum(
                s["end"] - s["start"] for s in self.tracer.spans[first:]
                if s["name"] in LAYER_STAGES and s["parent"] is None)
            self.overhead.append((stage_sum - op_s) / op_s)
            self.attempt(1, wl.check_store)
        self.attempt(reads, wl.reads, origins)

    def measure(self):
        from session import PeakRSS, host_cpu_jiffies

        cpu0 = host_cpu_jiffies()
        with PeakRSS() as rss:
            t0 = time.perf_counter()
            while True:
                self.cycle()
                if time.perf_counter() - t0 >= self.args.seconds:
                    break
            self.measured_s = time.perf_counter() - t0
        self.peak_rss_mb = rss.peak_mb
        self.host_cpu = {k: round((v - cpu0[k]) / self.measured_s, 3)
                         for k, v in host_cpu_jiffies().items()}

    def run_kernels(self):
        import kernels as K

        wl, b = self.wl, KERNEL_BUDGET_S
        pages = wl._pages.slice(0, K.KERNEL_PAGES)
        self.kernels["extract.parse_pages_per_s"] = K.extract_kernel(pages, b)
        rate, per_doc = K.pipeline_kernel(pages, b)
        self.kernels["pipeline.docs_per_s"] = rate
        self.kernels["pipeline.links_per_doc"] = per_doc
        keys = sorted(set(wl.ref_links["origin"].to_pylist()))
        self.kernels["mmh3.keys_per_s"] = K.hash_kernel(keys, b)
        table = K.dedup_table(wl.ref_links)
        self.kernels["dedup.links_per_s"] = K.dedup_kernel(table, 2 * b)
        self.kernels["dedup.kernel_rows"] = table.num_rows

    # -- results ------------------------------------------------------------

    def timings(self) -> dict:
        """The per-sample values the end-to-end metrics summarise: wall
        times net of steal (``Stats.net_s``)."""
        st = self.stats
        net = {k: [st.net_s(x) for x in v] for k, v in st.samples.items()}
        ops = st.samples["op"]
        return {
            "op_s": net["op"],
            "pages_per_s": [x["pages"] / t for x, t in zip(ops, net["op"])],
            "links_in_per_s": [x["links_in"] / t for x, t in zip(ops, net["op"])],
            "lookup_ms": [t * 1e3 for t in net["lookup"]],
            "scan_ms": [t * 1e3 for t in net["scan"]],
            "setup_s": net["setup"],
            "ray_init_s": net["ray_init"],
        }

    def end_to_end(self) -> dict:
        t = self.timings()
        return {
            "setup_s": (t["ray_init_s"][0] + median(t["setup_s"]), "s"),
            "wall_s": (median(t["op_s"]), "s"),
            "pages_per_s": (median(t["pages_per_s"]), "pages/s"),
            "links_in_per_s": (median(t["links_in_per_s"]), "rows/s"),
            "lookup_p50_ms": (median(t["lookup_ms"]), "ms"),
            "scan_p50_ms": (median(t["scan_ms"]), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }

    def per_layer(self, warnings: int) -> dict:
        t, notes = self.tracer, self.stats.layer

        def note(key, unit):
            return (median(notes.get(key, [])), unit)

        def stage(name):
            return (median(t.self_times(name)), "s")

        out = {
            "extract.stage_s": stage("extract"),
            "extract.rows_out": note("extract.rows_out", "rows"),
            "score.stage_s": stage("score"),
            "score.rows": note("score.rows", "rows"),
            "score.distinct_mention_frac": note("score.distinct_mention_frac", "ratio"),
            "score.hits": note("score.hits", "rows"),
            "dedup.stage_s": stage("dedup"),
            "dedup.rows_in": note("dedup.rows_in", "rows"),
            "dedup.rows_out": note("dedup.rows_out", "rows"),
            "dedup.dup_frac": note("dedup.dup_frac", "ratio"),
            "dedup.bytes_in": note("dedup.bytes_in", "bytes"),
            "dedup.block_skew": note("dedup.block_skew", "ratio"),
            "store.commit_s": stage("store.commit"),
            "store.files_written": note("store.files_written", "count"),
            "store.files_after": note("store.files_after", "count"),
            "store.touched_frac": note("store.touched_frac", "ratio"),
            "store.lookup_files_frac": note("store.lookup_files_frac", "ratio"),
            "store.lookup_p90_ms": (percentile(self.timings()["lookup_ms"], 90), "ms"),
            "store.conflicts": (sum(notes.get("store.conflicts", [])), "count"),
            "ray.init_s": (self.timings()["ray_init_s"][0], "s"),
            "ray.schema_warnings": (warnings, "count"),
            "trace.overhead_frac": (median(self.overhead), "ratio"),
        }
        units = {"extract.parse_pages_per_s": "pages/s",
                 "pipeline.docs_per_s": "docs/s",
                 "pipeline.links_per_doc": "links",
                 "mmh3.keys_per_s": "keys/s",
                 "dedup.links_per_s": "rows/s",
                 "dedup.kernel_rows": "rows"}
        for k, u in units.items():
            out[k] = (self.kernels[k], u)
        return out

    def record(self, ncpu: int, ray_version: str) -> dict:
        st = self.stats
        return {
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "nproc": ncpu, "ray_num_cpus": ncpu, "ray_version": ray_version,
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "phase_s": self.phase_s,
            "measured_s": round(self.measured_s, 3),
            "host_cpu_per_s": getattr(self, "host_cpu", None),
            "steal_share": st.steal_share,
            "raw_median_s": {k: median([x["s"] for x in v])
                             for k, v in st.samples.items()},
            "steal_s": {k: sum(x["steal"] for x in v)
                        for k, v in st.samples.items()},
            "check_s": self.check_s,
            "quartiles": {k: quartiles(v) for k, v in self.timings().items()},
            "errors": st.errors[:5],
            "pins": pins_of(self.wl) if self.wl.expected else None,
            **self.wl.record(), **source_revision(),
        }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("kg_build", "kg_merge", "kg_store"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "versa_ray", "__init__.py")):
        print(f"versa_ray not found under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    import ray

    from session import RaySession, nproc

    ncpu = nproc()
    runner = Runner(args, ncpu)
    ok = True
    os.chdir(ROOT)
    try:
        sess = RaySession(ROOT, ncpu)
        with sess:
            runner.stats.samples["ray_init"] = [sess.init]
            runner.phase_s["ray_init"] = round(sess.init["s"], 3)
            try:
                with runner.phase("setup"):
                    runner.attempt(1, runner.setup)
                if args.pin:
                    return pin(args, runner)
                with runner.phase("measure"):
                    runner.measure()
                if args.trace:
                    with runner.phase("kernels"):
                        runner.run_kernels()
            except Exception:
                ok = False
                runner.measured_s = getattr(runner, "measured_s", 0.0)
                runner.peak_rss_mb = getattr(runner, "peak_rss_mb", float("nan"))
            t_close = time.perf_counter()
        runner.phase_s["teardown"] = round(time.perf_counter() - t_close, 3)
    finally:
        import shutil

        shutil.rmtree(runner.work, ignore_errors=True)

    st = runner.stats
    correct = ok and st.failed == 0
    if args.trace and correct:
        metrics = runner.per_layer(sess.warnings.count)
    elif correct:
        metrics = runner.end_to_end()
    else:
        metrics = {}
    record = runner.record(ncpu, ray.__version__)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump({"record": record, "metrics": metrics,
                   "samples": st.samples, "spans": runner.tracer.spans}, f)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": max(1, st.attempted),
        "failed": st.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def pin(args, runner) -> int:
    pins = load_pins()
    pins.setdefault(args.workload, {})[str(args.seed)] = pins_of(runner.wl)
    with open(EXPECTED, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
