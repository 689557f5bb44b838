#!/usr/bin/env python3
"""Strict-matrix benchmark of the Vacuum Packing reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload matrix_cold --seed 1 --seconds 20 --trace 0

One *pass* is one strict evaluation matrix: `bench::sweep::sweep_cells`
over the drawn Table 1 workloads (all four Figure 8/10 configurations,
Table 2 machine, `VP_DIFF=strict`), then `bench::cross::cross_cells` for
one drawn family input under every profile source of its family. A single
client runs one pass at a time (a closed loop) with `--jobs min(2, cores)`.

Workloads (cache state a pass starts from):

* `matrix_cold`    -- fresh, empty trace and result dirs: every layer runs
                      and both disk tiers take the write path.
* `matrix_retrace` -- trace dir filled during set-up, empty result dir:
                      nothing is interpreted, traces load from disk, sim
                      and diff still run.
* `matrix_warm`    -- trace and result dirs filled during set-up: only the
                      workload build, cell keys and result-cache loads run.

`--seed` draws the matrix: 5 sweep workloads and one of their family
inputs as the cross input, uniformly from `MATRICES`, the draws whose
measured CPU time, peak memory and disk use are typical (see
calibrate.py), so the seed changes what runs but not how much. All three
workloads use the same draw for a seed.

`--trace 0` measures passes for `--seconds` seconds and prints the
end-to-end metrics (medians over passes). `--trace 1` runs the layered
run (`perfbench traced`), which calls every layer's public function
itself, and prints the per-layer metrics, the traced-minus-untraced
overhead and the ratio of each layer to the program's own span totals.

A cell fails if its pass panics, its diff verdict is not `clean`, or its
row differs from the reference rows of the same seed (the set-up pass, or
the first pass). The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit code is 1 when a cell fails,
2 on a usage or build error. `--inject row|verdict` corrupts every pass's
first sweep row after the reference is taken, to show that the check
counts a mismatched row or a non-clean verdict and fails the run.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("matrix_cold", "matrix_retrace", "matrix_warm")
PASS_TIMEOUT_S = 120
BUILD_REPS = 51
SETUPS = 3
# The draws a seed picks from: 5 sweep workloads and the cross input.
# calibrate.py derives this list from the Table 1 suite and prints it; a
# draw is kept only if its measured cost is typical, so a seed changes
# which workloads run, not how much work they are.
MATRICES = [
    (('099.go A', '130.li A', '130.li B', '132.ijpeg A', '134.perl A'), '134.perl A'),
    (('124.m88ksim A', '130.li A', '130.li B', '134.perl A', '300.twolf A'), '130.li A'),
    (('124.m88ksim A', '130.li A', '132.ijpeg A', '134.perl A', '164.gzip A'), '130.li A'),
    (('124.m88ksim A', '130.li B', '132.ijpeg C', '134.perl A', '134.perl B'), '132.ijpeg C'),
    (('124.m88ksim A', '130.li B', '134.perl B', '181.mcf A', '300.twolf A'), '134.perl B'),
    (('130.li A', '130.li B', '132.ijpeg A', '132.ijpeg C', '134.perl A'), '132.ijpeg C'),
    (('130.li A', '130.li B', '134.perl A', '181.mcf A', '300.twolf A'), '130.li B'),
    (('130.li B', '132.ijpeg B', '134.perl A', '134.perl B', '181.mcf A'), '132.ijpeg B'),
    (('132.ijpeg B', '132.ijpeg C', '134.perl A', '134.perl B', '164.gzip A'), '134.perl A'),
]

# BENCHMARK.json's metric lists, with units.
END_TO_END = {
    "setup_s": "s",
    "matrix_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
    "speedup_geomean": "x",
    "coverage_mean": "%",
    "expansion_mean": "fraction",
}
PER_LAYER = {
    "workloads.build_ms": "ms",
    "exec.capture_ms": "ms",
    "exec.capture_minst_per_s": "Minst/s",
    "exec.captured_minst": "Minst",
    "exec.store_hit_ratio": "ratio",
    "exec.disk_store_ms": "ms",
    "exec.disk_load_ms": "ms",
    "exec.trace_mb": "MB",
    "hsd.replay_ms": "ms",
    "hsd.detections": "count",
    "hsd.phases": "count",
    "hsd.filter_ms": "ms",
    "hsd.merge_ms": "ms",
    "sim.base_ms": "ms",
    "sim.packed_ms": "ms",
    "sim.minst_per_s": "Minst/s",
    "sim.cycles": "cycles",
    "core.pack_ms": "ms",
    "core.packages": "count",
    "core.launch_points": "count",
    "opt.optimize_ms": "ms",
    "diff.ms": "ms",
    "diff.visits": "count",
    "diff.mvisits_per_s": "Mvisits/s",
    "diff.peak_alloc_mb": "MB",
    "result_cache.load_ms": "ms",
    "result_cache.store_ms": "ms",
    "result_cache.hit_ratio": "ratio",
    "sweep.busy_ratio": "ratio",
    "sweep.steals": "count",
    "span_ratio.profile_run": "ratio",
    "span_ratio.base_timing": "ratio",
    "span_ratio.measure": "ratio",
    "span_ratio.opt_timing": "ratio",
    "span_ratio.diff": "ratio",
    "overhead.matrix_s": "s",
    "overhead.cpu_s": "s",
    "overhead.peak_rss_mb": "MB",
}
# Harness spans the layered run's totals are compared against.
SPAN_RATIOS = {
    "span_ratio.profile_run": "metrics.profile.run",
    "span_ratio.base_timing": "metrics.profile.base_timing",
    "span_ratio.measure": "metrics.evaluate.measure",
    "span_ratio.opt_timing": "metrics.evaluate.opt_timing",
    "span_ratio.diff": "metrics.evaluate.diff",
}


class UsageError(Exception):
    pass


def splitmix64(x):
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def draw(seed):
    sweep, cross = MATRICES[splitmix64(seed) % len(MATRICES)]
    return list(sweep), cross


def dir_mb(*paths):
    total = 0
    for path in paths:
        for base, _, files in os.walk(path):
            for f in files:
                try:
                    total += os.path.getsize(os.path.join(base, f))
                except OSError:
                    pass
    return total / (1024 * 1024)


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Pass:
    """One finished `perfbench` subprocess."""

    def __init__(self, out, err, wall, status, ru):
        self.wall = wall
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024
        self.ok = os.waitstatus_to_exitcode(status) == 0
        self.result = None
        self.error = ""
        if self.ok:
            lines = [line for line in out.splitlines() if line.strip()]
            try:
                self.result = json.loads(lines[-1])
            except (IndexError, ValueError) as e:
                self.ok = False
                self.error = f"unparsable output: {e}"
        if not self.ok and not self.error:
            self.error = "exit status %d: %s" % (
                os.waitstatus_to_exitcode(status),
                " | ".join(err.strip().splitlines()[-3:]),
            )


class Bench:
    def __init__(self, binary, work, sweep, cross, jobs, inject):
        self.binary = binary
        self.work = work
        self.sweep = sweep
        self.cross = cross
        self.jobs = jobs
        self.inject = inject
        self.counter = 0
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.reference = None
        # Isolated from the caller: no inherited VP_* knob reaches a pass.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("VP_")}
        self.env["VP_DIFF"] = "strict"

    def fresh(self, name):
        self.counter += 1
        path = os.path.join(self.work, f"{self.counter:05d}-{name}")
        os.makedirs(path)
        return path

    def spawn(self, args, env_dirs, trace_json=None):
        """Runs the benchmark binary to completion (killed after
        PASS_TIMEOUT_S) and returns its `Pass`."""
        io = self.fresh("io")
        env = dict(self.env, **env_dirs)
        if trace_json:
            env["VP_TRACE"] = "json:" + trace_json
        out_path, err_path = os.path.join(io, "out"), os.path.join(io, "err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([self.binary] + args, stdout=out, stderr=err, env=env)
            watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as out, open(err_path) as err:
            p = Pass(out.read(), err.read(), wall, status, ru)
        shutil.rmtree(io)
        return p

    def matrix_args(self):
        args = ["--jobs", str(self.jobs), "--cross", self.cross]
        for label in self.sweep:
            args += ["--sweep", label]
        return args

    def run_pass(self, trace_dir=None, result_dir=None, trace_json=None):
        dirs = {"VP_HISTORY_DIR": self.fresh("history")}
        if trace_dir:
            dirs["VP_TRACE_DIR"] = trace_dir
        if result_dir:
            dirs["VP_RESULT_DIR"] = result_dir
        p = self.spawn(["pass"] + self.matrix_args(), dirs, trace_json)
        shutil.rmtree(dirs["VP_HISTORY_DIR"])
        self.check(p)
        return p

    def cells(self):
        return 4 * len(self.sweep) + 4

    def check(self, p, rows=None):
        """Counts `p`'s cells into attempted/failed against the reference
        rows, taking the first complete pass's rows as the reference."""
        n = self.cells()
        self.attempted += n
        if rows is None and p.ok:
            rows = {"sweep": p.result["sweep_rows"], "cross": p.result["cross_rows"]}
            for e in p.result["errors"]:
                self.notes.append("pass error: " + e.strip().splitlines()[0][:200])
        if rows is None:
            self.failed += n
            self.notes.append("pass failed: " + p.error[:300])
            return
        if self.reference is None and len(rows["sweep"]) + len(rows["cross"]) == n:
            self.reference = json.loads(json.dumps(rows))
        rows = self.injected(rows)
        seen = 0
        for kind in ("sweep", "cross"):
            ref = {r[0]: r for r in (self.reference or {}).get(kind, [])}
            for row in rows[kind]:
                seen += 1
                if row[-1] != "clean":
                    self.failed += 1
                    self.notes.append(f"{kind} cell {row[0]} diff verdict {row[-1]}")
                elif row != ref.get(row[0]):
                    self.failed += 1
                    self.notes.append(f"{kind} cell {row[0]} differs from the reference row")
        if seen < n:
            self.failed += n - seen
            self.notes.append(f"{n - seen} cells missing from a pass")

    def injected(self, rows):
        if not self.inject or not rows["sweep"]:
            return rows
        rows = json.loads(json.dumps(rows))
        first = rows["sweep"][0]
        if self.inject == "row":
            first[3] = "%.1f" % (float(first[3]) / 2)
        else:
            first[-1] = "diverged"
        return rows

    def build_s(self):
        p = self.spawn(["build", "--reps", str(BUILD_REPS)], {})
        if not p.ok:
            raise UsageError("workload build failed: " + p.error)
        return median(p.result["build_s"])

    def setup(self, workload):
        """Set-up for `workload`: the cache dirs its passes start from,
        and its set-up time (workload build plus cache filling)."""
        build = self.build_s()
        if workload == "matrix_cold":
            return {}, build
        fills = []
        dirs = {}
        for _ in range(SETUPS):
            if dirs:
                for d in dirs.values():
                    shutil.rmtree(d)
            dirs = {"trace_dir": self.fresh("traces")}
            if workload == "matrix_warm":
                dirs["result_dir"] = self.fresh("results")
            fills.append(self.run_pass(**dirs).wall)
        return dirs, build + median(fills)

    def one(self, workload, dirs, trace_json=None):
        """One measured pass of `workload` from its set-up `dirs`; returns
        the pass and the size of its cache dirs afterwards."""
        trace_dir = dirs.get("trace_dir") or self.fresh("traces")
        result_dir = dirs.get("result_dir") or self.fresh("results")
        p = self.run_pass(trace_dir, result_dir, trace_json)
        disk = dir_mb(trace_dir, result_dir)
        if workload == "matrix_cold":
            # Re-read the cold pass's caches once: its rows must come back
            # byte-identical from the result cache.
            self.run_pass(trace_dir, result_dir)
        if trace_dir != dirs.get("trace_dir"):
            shutil.rmtree(trace_dir)
        if result_dir != dirs.get("result_dir"):
            shutil.rmtree(result_dir)
        return p, disk

    def exact(self):
        """speedup_geomean, coverage_mean and expansion_mean of the
        reference sweep rows (the Figure 10, Figure 8 and Table 3 cells)."""
        rows = (self.reference or {}).get("sweep") or []
        if not rows:
            return {"speedup_geomean": 0.0, "coverage_mean": 0.0, "expansion_mean": 0.0}
        return {
            "speedup_geomean": math.exp(statistics.mean(math.log(float(r[7])) for r in rows)),
            "coverage_mean": statistics.mean(float(r[3]) for r in rows),
            "expansion_mean": statistics.mean(float(r[4]) for r in rows),
        }

    def measure(self, workload, seconds):
        dirs, setup_s = self.setup(workload)
        passes, disks = [], []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            p, disk = self.one(workload, dirs)
            if p.ok:
                passes.append(p)
                disks.append(disk)
            if time.perf_counter() - t0 > 4 * seconds:
                break
        metrics = {
            "setup_s": setup_s,
            "matrix_s": median([p.wall for p in passes]),
            "cpu_s": median([p.cpu for p in passes]),
            "peak_rss_mb": median([p.rss_mb for p in passes]),
            "disk_mb": median(disks),
        }
        metrics.update(self.exact())
        return metrics, f"median of {len(passes)} passes"

    def traced(self, workload):
        """The per-layer run: `workload`'s own pass (for its hit ratios and
        scheduler telemetry), a cold pass with the program's own span
        totals (`VP_TRACE=json`), a plain cold pass (the overhead
        baseline), and the layered run, cold."""
        dirs, _ = self.setup(workload)
        manifest_path = os.path.join(self.fresh("manifest"), "run.jsonl")
        own, _ = self.one(workload, dirs, manifest_path)
        own_manifest = read_manifest(manifest_path)
        if workload == "matrix_cold":
            cold_manifest = own_manifest
        else:
            cold_path = os.path.join(self.fresh("manifest"), "run.jsonl")
            self.one("matrix_cold", {}, cold_path)
            cold_manifest = read_manifest(cold_path)
        # The overhead baseline runs with in-program tracing off, as the
        # measured passes do.
        cold, cold_disk = self.one("matrix_cold", {})
        if not (own.ok and cold.ok):
            return {name: 0.0 for name in PER_LAYER}, "untraced pass failed"
        traced_dir = self.fresh("traced")
        t = self.spawn(["traced", "--dir", traced_dir] + self.matrix_args(), {})
        traced_disk = dir_mb(traced_dir)
        shutil.rmtree(traced_dir)
        if not t.ok:
            self.attempted += self.cells()
            self.failed += self.cells()
            self.notes.append("traced run failed: " + t.error[:300])
            return {name: 0.0 for name in PER_LAYER}, "traced run failed"
        r = t.result
        self.check(t, {"sweep": r["sweep_rows"], "cross": r["cross_rows"]})
        for m in r["mismatches"]:
            self.failed += 1
            self.notes.append("equivalence: " + m)

        layers = dict(r["layers"])
        counters = own_manifest.get("counters", {})
        hits = counters.get("trace_store.hits", 0) + counters.get("trace_store.disk_hits", 0)
        requests = hits + counters.get("trace_store.captures", 0)
        layers["exec.store_hit_ratio"] = hits / requests if requests else 1.0
        rc_total = own.result["result_cache_hits"] + own.result["result_cache_misses"]
        layers["result_cache.hit_ratio"] = own.result["result_cache_hits"] / max(1, rc_total)
        sched = own.result["sched"] or {}
        busy = sum(w["busy_ms"] for w in sched.get("workers", []))
        capacity = sched.get("jobs", 1) * sched.get("wall_ms", 0)
        layers["sweep.busy_ratio"] = busy / capacity if capacity else 0.0
        layers["sweep.steals"] = sched.get("steals", 0)
        spans = cold_manifest.get("spans", {})
        for name, span in SPAN_RATIOS.items():
            base = spans.get(span, {}).get("ms", 0)
            layers[name] = r["spans"][span] / base if base else 0.0
        layers["overhead.matrix_s"] = r["matrix_s"] - cold.wall
        layers["overhead.cpu_s"] = r["cpu_s"] - cold.cpu
        layers["overhead.peak_rss_mb"] = r["peak_rss_mb"] - cold.rss_mb
        note = (
            "layered run vs untraced cold pass: "
            f"matrix_s {r['matrix_s']:.3f} vs {cold.wall:.3f} s, "
            f"cpu_s {r['cpu_s']:.3f} vs {cold.cpu:.3f} s, "
            f"peak_rss_mb {r['peak_rss_mb']:.1f} vs {cold.rss_mb:.1f}, "
            f"disk_mb {traced_disk:.2f} vs {cold_disk:.2f}; "
            "speedup/coverage/expansion identical: "
            f"{r['sweep_rows'] == (self.reference or {}).get('sweep')}"
        )
        return layers, note


def read_manifest(path):
    manifest = {}
    try:
        with open(path) as f:
            for line in f:
                if '"t":"manifest"' in line:
                    manifest = json.loads(line)
    except OSError:
        pass
    return manifest


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        raise UsageError("cargo build of perfbench failed")
    return os.path.join(target, "release", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("row", "verdict"))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "bench", "Cargo.toml")):
        raise UsageError("run from the repository root (crates/bench/Cargo.toml not found)")
    binary = build(root)
    sweep, cross = draw(args.seed)
    jobs = min(2, os.cpu_count() or 1)
    work = os.path.join(root, ".perfbench_runs", str(os.getpid()))
    bench = Bench(binary, work, sweep, cross, jobs, args.inject)
    print(f"{args.workload} seed {args.seed}: sweep {', '.join(sorted(sweep))}; "
          f"cross {cross} (draw 1 of {len(MATRICES)}); jobs {jobs}; VP_DIFF=strict")
    try:
        if args.trace:
            values, note = bench.traced(args.workload)
            units = PER_LAYER
        else:
            values, note = bench.measure(args.workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    error_rate = bench.failed / max(1, bench.attempted)
    for name, unit in units.items():
        print(f"{name:28s} {values[name]:14.6f} {unit}")
    print(f"{'cell_error_rate':28s} {error_rate:14.6f} ratio "
          f"({bench.failed}/{bench.attempted} cells failed)")
    print(note)
    for n in bench.notes[:20]:
        print("  " + n)
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except UsageError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
