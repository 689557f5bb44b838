#!/usr/bin/env python3
"""Re-derives `MATRICES` in run.py: the draws a seed picks from.

Run from the repository root after one run.py invocation has built the
benchmark binary:

    python3 perfbench/calibrate.py > matrices.txt

It enumerates every 5-workload draw from `POOL` (plus one of its family
inputs as the cross input) whose estimated CPU time, trace bytes and mean
static growth sit within `EST_TOL` of the typical draw's, runs each once
cold, runs the typical ones (`LOOSE_TOL`) `REPS` times more, and prints
those whose median CPU time, peak RSS and disk use lie within `TIGHT_TOL`
of the median draw's, in run.py's format.
Balancing keeps the seed from moving the end-to-end metrics: a seed
changes which workloads run, not how much work they are.
"""

import itertools
import os
import shutil
import statistics
import sys

import run

DRAW_SIZE = 5
# Largest relative distance of a draw's estimated CPU, trace MB and
# static growth from the median draw's, before measuring.
EST_TOL = (0.05, 0.05, 0.05)
# Largest relative distance of a draw's measured CPU seconds, peak RSS and
# disk MB from the median measured draw's: after one pass of every
# candidate (loose), then over the median of `REPS` more passes of the
# survivors (tight).
LOOSE_TOL = (0.05, 0.10, 0.05)
TIGHT_TOL = (0.06, 0.06, 0.04)
REPS = 3

# Every Table 1 workload except the four with the largest traces or diff
# footprint (175.vpr A, mpeg2dec A, 255.vortex B, 130.li C), any of which
# would dominate a pass. Per workload: CPU seconds and trace+result MB of
# its four strict sweep cells, what adding its cross row costs (family
# inputs only), and its static code growth (Table 3), measured on a 2-core
# x86-64 box.
POOL = [
    # label,      sweep cpu, MB,  cross cpu, MB,    growth
    ("099.go A",       1.43,   12.4,  None,  None,  0.034),
    ("124.m88ksim A",  0.90,    7.4,  None,  None,  0.030),
    ("130.li A",       0.68,    3.7,  1.33,  11.3,  0.014),
    ("130.li B",       0.13,    0.7,  0.71,   8.5,  0.088),
    ("132.ijpeg A",    1.38,   10.8,  1.63,  18.3,  0.067),
    ("132.ijpeg B",    1.18,    6.4,  1.34,  17.4,  0.032),
    ("132.ijpeg C",    1.42,    8.6,  1.90,  19.8,  0.035),
    ("134.perl A",     1.45,   12.0,  1.46,  14.6,  0.070),
    ("134.perl B",     0.70,    5.8,  0.96,  10.5,  0.053),
    ("134.perl C",     0.27,    1.2,  0.60,   7.9,  0.012),
    ("164.gzip A",     0.87,    7.8,  None,  None,  0.090),
    ("181.mcf A",      1.91,   11.7,  None,  None,  0.038),
    ("197.parser A",   1.44,   10.1,  None,  None,  0.131),
    ("255.vortex A",   1.38,   11.8,  None,  None,  0.088),
    ("300.twolf A",    2.02,   19.9,  None,  None,  0.070),
]


def near(values, mids, tols):
    return all(abs(v - m) <= t * m for v, m, t in zip(values, mids, tols))


def candidates():
    every = []
    for sub in itertools.combinations(POOL, DRAW_SIZE):
        growth = statistics.mean(p[5] for p in sub)
        for cross in (p for p in sub if p[3] is not None):
            cpu = sum(p[1] for p in sub) + cross[3]
            mb = sum(p[2] for p in sub) + cross[4]
            every.append(([p[0] for p in sub], cross[0], (cpu, mb, growth)))
    mids = [statistics.median(d[2][i] for d in every) for i in range(3)]
    return [(s, c) for s, c, est in every if near(est, mids, EST_TOL)]


def measure(binary, work, draws, reps):
    """Median (CPU s, peak RSS MB, disk MB) of `reps` cold passes per draw."""
    out = []
    for sweep, cross in draws:
        bench = run.Bench(binary, work, sweep, cross, 2, None)
        runs = [bench.one("matrix_cold", {}) for _ in range(reps)]
        if bench.failed:
            sys.exit(f"calibration pass failed: {bench.notes}")
        values = tuple(
            statistics.median(v)
            for v in zip(*[(p.cpu, p.rss_mb, disk) for p, disk in runs])
        )
        out.append((sweep, cross, values))
        print(f"# {sweep} <- {cross}: cpu {values[0]:.3f} rss {values[1]:.1f} "
              f"disk {values[2]:.2f}", file=sys.stderr, flush=True)
    return out


def typical(measured, tols):
    mids = [statistics.median(m[2][i] for m in measured) for i in range(3)]
    return [(s, c) for s, c, values in measured if near(values, mids, tols)]


def main():
    root = os.getcwd()
    binary = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"),
        "release",
        "perfbench",
    )
    work = os.path.join(root, ".perfbench_runs", "calibrate")
    loose = typical(measure(binary, work, candidates(), 1), LOOSE_TOL)
    tight = typical(measure(binary, work, loose, REPS), TIGHT_TOL)
    print("MATRICES = [")
    for sweep, cross in tight:
        print(f"    ({tuple(sweep)!r}, {cross!r}),")
    print("]")
    shutil.rmtree(work, ignore_errors=True)
    os.rmdir(os.path.dirname(work))


if __name__ == "__main__":
    main()
