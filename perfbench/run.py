"""Benchmark of the supercrystal package: exact-check workloads, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.
Each workload is a closed loop with one check in flight: a check computes
one output through the package's public functions and compares it exactly
with an independent reference.  The loop runs whole passes over the
workload's seeded plan until ``--seconds`` have elapsed.  Before each pass
the package is imported afresh and the plan rebuilt (outside the pass's
timing), so every pass starts with empty module-level caches, as a new
process would.

``--trace 0`` prints the end-to-end metrics.  Every check also runs, right
before or after, on ``reference/supercrystal_ref``: a frozen copy of the
package as it was when this benchmark was written.  Each timing of the
package is divided by the same timing of the reference in the same run and
multiplied by the reference's recorded value (``REFERENCE_SPEED``), so the
reported figures are at the recording machine's speed.  On a shared host
whose speed drifts by tens of percent within minutes, the paired ratio
stays within a few percent; the raw figures of both copies are printed too.
The peak memory comes from a child process that runs one pass of the
package alone.

``--trace 1`` runs the package alone, alternating untraced and traced
passes, and prints the per-layer metrics: self time and counts per traced
pass, from spans recorded around the benchmark's own calls into each
layer, written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 if any check failed or a digest differs from the recorded one, 2 if the
package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from functools import partial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import CountQRatInit, NullTracer, Tracer
from workloads import DIGESTS, bind, digest, plan_boson, plan_pbw, plan_sweep

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PACKAGE, REFERENCE = "supercrystal", "supercrystal_ref"
LAYERS = ("qfield", "superpbw", "qboson", "combicrystal", "limitcrystal", "cli")
SETUP_REPEATS = 11
# a traced run needs one traced pass and one untraced pass
MIN_TRACED_RUN_PASSES = 2

PLANS = {
    "pbw-crosscheck": plan_pbw,
    "boson-grid": plan_boson,
    "crystal-sweep": partial(plan_sweep, outdir=OUT),
}

# Raw medians of the reference copy over seeds 1-3 with --seconds 20, on a
# 2-vCPU Intel Xeon virtual machine at 2.0 GHz, Python 3.11.
REFERENCE_SPEED = {
    "pbw-crosscheck": {
        "checks_per_s": 639.505, "check_p50_ms": 0.732522, "check_tail_ms": 20.9045, "setup_s": 0.0956052,
    },
    "boson-grid": {
        "checks_per_s": 235.815, "check_p50_ms": 0.271611, "check_tail_ms": 71.7336, "setup_s": 0.0854371,
    },
    "crystal-sweep": {
        "checks_per_s": 1107.04, "check_p50_ms": 0.273831, "check_tail_ms": 33.2463, "setup_s": 0.138216,
    },
}

SPAN_METRICS = (
    "qfield.identity", "superpbw.crystal_op", "superpbw.residue",
    "superpbw.lattice_vector", "superpbw.normal_form", "qboson.act_f_pow",
    "qboson.c_sk", "qboson.crystal_check",
    "combicrystal.oddset", "combicrystal.kac_op", "limitcrystal.binf_op",
    "limitcrystal.enumerate", "limitcrystal.kappa_theta",
    "limitcrystal.components", "limitcrystal.refuse", "cli.graph",
)
COUNT_METRICS = (
    ("qfield.qrat_constructed", "count"),
    ("combicrystal.calls", "count"),
    ("cli.graph_bytes", "bytes"),
)


def import_layers(package: str) -> SimpleNamespace:
    """Import every layer of the package afresh, as a new process would."""
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"{package}.{n}") for n in LAYERS})


class Side:
    """One copy of the package: its plan, and per pass its check latencies,
    wall time and digest, plus every failed check."""

    def __init__(self, package: str):
        self.package = package
        self.setup_times: list[float] = []
        self.latencies: list[list[float]] = []
        self.walls: list[float] = []
        self.digests: list[str] = []
        self.failures: list[tuple] = []

    def set_up(self, workload: str, seed: int) -> None:
        """Import, RootData construction and input generation."""
        start = perf_counter()
        self.mods = import_layers(self.package)
        self.plan = PLANS[workload](self.mods, random.Random(seed))
        self.setup_times.append(perf_counter() - start)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))


def set_up(sides: list[Side], workload: str, seed: int, repeats: int, k: int = 0) -> None:
    """Set every side up afresh ``repeats`` times, alternating which goes
    first (starting from repeat ``k``)."""
    for r in range(k, k + repeats):
        for side in sides if r % 2 == 0 else sides[::-1]:
            side.set_up(workload, seed)
    gc.collect()


def plain(side: Side) -> tuple[Side, SimpleNamespace, NullTracer]:
    null = NullTracer()
    return side, bind(side.mods, null), null


def print_failures(side: Side) -> None:
    for kind, key, out in side.failures[:20]:
        print(f"FAILED {side.package} {kind} {key}: {str(out)[:200]}", file=sys.stderr)


def run_pass(runs: list[tuple[Side, SimpleNamespace, object]], k: int = 0) -> None:
    """Pass ``k`` of the plan for each (side, functions, tracer), check by
    check, alternating which side runs a check first.

    The side that runs a check second runs it a few percent faster (3-8%
    on the small checks when measured).  So the order alternates from pass
    to pass as well as from check to check: every check runs first on each
    side in some pass, whatever position the seeded shuffle gives it."""
    state = []
    for side, F, tr in runs:
        start = perf_counter()
        ctx = side.plan.start_pass(F, tr)
        state.append([ctx, perf_counter() - start, [], []])
    for i in range(len(runs[0][0].plan.checks)):
        for j in range(len(runs)) if (i + k) % 2 == 0 else reversed(range(len(runs))):
            side, _, tr = runs[j]
            st = state[j]
            kind, key, fn, args = side.plan.checks[i]
            start = perf_counter()
            try:
                with tr.span("check." + kind):
                    ok, out = fn(st[0], *args)
            except Exception as exc:  # an unexpected exception fails the check
                ok, out = False, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - start
            st[1] += dt
            st[2].append(dt)
            if not ok:
                side.failures.append((kind, key, out))
            if key is not None:
                st[3].append((key, out))
    for (side, _, _), (_, wall, lat, items) in zip(runs, state):
        side.walls.append(wall)
        side.latencies.append(lat)
        side.digests.append(digest(items))


def tail_rank(n: int) -> int:
    """Index in n sorted latencies of the highest percentile with at least
    10 latencies beyond it."""
    return math.ceil((1.0 - 10.0 / n) * n) - 1


def per_check_median(side: Side) -> list[float]:
    """Each check's median latency over the passes."""
    return list(map(statistics.median, zip(*side.latencies)))


def pooled_median(side: Side) -> float:
    return statistics.median(x for lat in side.latencies for x in lat)


def raw_timings(side: Side) -> dict[str, float]:
    n = len(side.plan.checks)
    return {
        "checks_per_s": statistics.median(n / w for w in side.walls),
        "check_p50_ms": 1000 * pooled_median(side),
        "check_tail_ms": 1000 * sorted(per_check_median(side))[tail_rank(n)],
        "setup_s": statistics.median(side.setup_times),
    }


def paired_ratios(pkg: Side, ref: Side) -> dict[str, float]:
    """Package timing over reference timing, paired as closely as the data
    allows: check by check, and set-up repeat by set-up repeat.

    The two copies run each check back to back, so the ratio of the two
    latencies of one check in one pass is nearly free of the host's drift.
    Its median over the passes drops the passes where the host's speed
    jumped between the two.  Total time over a set of checks is then the
    reference's time per check times that ratio, summed: over every check
    for the throughput, over the checks at or above the tail percentile for
    the tail.  The checks are ranked by both copies together: ranking by
    one copy alone would pick the checks where that copy was unlucky.
    """
    ratio = [statistics.median(p / r for p, r in zip(ps, rs))
             for ps, rs in zip(zip(*pkg.latencies), zip(*ref.latencies))]
    med_pkg, med_ref = per_check_median(pkg), per_check_median(ref)
    order = sorted(range(len(ratio)), key=lambda i: med_pkg[i] + med_ref[i])
    tail = order[tail_rank(len(order)):]

    def time_ratio(checks) -> float:
        return sum(med_ref[i] * ratio[i] for i in checks) / sum(med_ref[i] for i in checks)

    return {
        "checks_per_s": 1 / time_ratio(order),
        "check_p50_ms": pooled_median(pkg) / pooled_median(ref),
        "check_tail_ms": time_ratio(tail),
        "setup_s": statistics.median(p / r for p, r in zip(pkg.setup_times, ref.setup_times)),
    }


UNITS = {"checks_per_s": "1/s", "check_p50_ms": "ms", "check_tail_ms": "ms", "setup_s": "s"}


def package_peak_rss_mb(workload: str, seed: int) -> tuple[float, bool]:
    """Peak resident memory of a child process that sets the package up and
    runs one pass of it alone, and whether that pass was correct."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--package-pass"],
        stdout=subprocess.PIPE, text=True,
    )
    return float(child.stdout.split()[-1]), child.returncode == 0


def peak_rss_mb() -> float:
    """This process's peak resident memory.  ``getrusage`` would carry over
    the parent's peak through exec, so the kernel's own high-water mark of
    this address space is read where there is one."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def package_pass(workload: str, seed: int) -> int:
    pkg = Side(PACKAGE)
    set_up([pkg], workload, seed, 1)
    # a fixed order, so that the peak depends on the seeded inputs and not
    # on the order the seed shuffles them into
    pkg.plan.checks.sort(key=lambda c: (c[0], c[1] or "", c[2].__name__, repr(c[3])))
    run_pass([plain(pkg)])
    print_failures(pkg)
    print(peak_rss_mb())
    return 0 if not pkg.failures and pkg.digests == [DIGESTS[workload]] else 1


def measure(workload: str, seed: int, pkg: Side, ref: Side, seconds: float) -> tuple[dict, bool]:
    """End-to-end metrics of the package, scaled by the reference's speed,
    and whether the package-only pass that gives the peak memory was correct.

    Both copies are set up afresh before every pass, so each pass starts
    with the empty module-level caches of a new process."""
    start = perf_counter()
    k = 0
    while True:
        set_up([pkg, ref], workload, seed, 1, k)
        run_pass([plain(pkg), plain(ref)], k)
        k += 1
        if perf_counter() - start >= seconds:
            break
    n_pass = len(pkg.plan.checks)
    print(f"passes {len(pkg.walls)} of {n_pass} checks on each copy, wall {perf_counter() - start:.3f} s")
    print(f"check_tail_ms is p{100 * (1 - 10 / n_pass):.2f} of each check's median over passes")
    mine, theirs = raw_timings(pkg), raw_timings(ref)
    metrics = {}
    for name, ratio in paired_ratios(pkg, ref).items():
        metrics[name] = (REFERENCE_SPEED[workload][name] * ratio, UNITS[name])
        print(f"  {name}: package {mine[name]:.6g}, reference {theirs[name]:.6g}, "
              f"paired ratio {ratio:.4f}")
    rss, rss_ok = package_peak_rss_mb(workload, seed)
    print(f"package-only pass in a child process: {'correct' if rss_ok else 'FAILED'}")
    metrics["peak_rss_mb"] = (rss, "MB")
    metrics["pass_ratio"] = ((pkg.attempted - len(pkg.failures)) / pkg.attempted, "ratio")
    return metrics, rss_ok


def measure_traced(workload: str, seed: int, pkg: Side, seconds: float, trace_path: Path) -> dict:
    """Per-layer metrics; like ``measure``, every pass starts from a fresh
    set-up of the package."""
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    k = 0
    while True:
        is_traced = k % 2 == 1
        set_up([pkg], workload, seed, 1)
        if is_traced:
            with CountQRatInit(pkg.mods.qfield.QRat, tracer):
                run_pass([(pkg, bind(pkg.mods, tracer), tracer)])
        else:
            run_pass([plain(pkg)])
        walls[is_traced].append(pkg.walls[-1])
        k += 1
        if k >= MIN_TRACED_RUN_PASSES and perf_counter() - start >= seconds:
            break
    n = len(walls[True])
    tracer.write(trace_path)
    print(f"passes {k} ({n} traced), spans {len(tracer.spans)} written to {trace_path}")
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts
    metrics = {f"{name}_s": (self_s.get(name, 0.0) / n, "s") for name in SPAN_METRICS}
    for name, unit in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0) / n, unit)
    metrics["superpbw.crystal_op_calls"] = (calls.get("superpbw.crystal_op", 0) / n, "count")
    residues = counts.get("superpbw.residue_calls", 0)
    metrics["superpbw.new_weight_share"] = (
        counts.get("superpbw.residue_new_weight", 0) / residues if residues else 0.0, "ratio"
    )
    metrics["trace.overhead_ratio"] = (
        statistics.mean(walls[True]) / statistics.mean(walls[False]), "ratio"
    )
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(PLANS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one package-only pass, run in a child process for the peak memory
    ap.add_argument("--package-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE / "reference")]
    OUT.mkdir(exist_ok=True)
    if args.package_pass:
        return package_pass(args.workload, args.seed)

    pkg = Side(PACKAGE)
    sides = [pkg] if args.trace else [pkg, Side(REFERENCE)]
    set_up(sides, args.workload, args.seed, SETUP_REPEATS)
    print(f"workload {args.workload}, seed {args.seed}: {pkg.plan.size}")
    correct = True
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics = measure_traced(args.workload, args.seed, pkg, args.seconds, trace_path)
    else:
        metrics, correct = measure(args.workload, args.seed, pkg, sides[1], args.seconds)

    by_kind = defaultdict(int)
    for kind, _, _, _ in pkg.plan.checks:
        by_kind[kind] += 1
    print("checks per pass: " + ", ".join(f"{k} {v}" for k, v in sorted(by_kind.items())))
    want = DIGESTS[args.workload]
    for side in sides:
        print_failures(side)
        digest_ok = all(d == want for d in side.digests)
        verdict = "matches" if digest_ok else f"DIFFERS from {want!r}"
        print(f"{side.package}: digest {side.digests[0]} ({verdict}), "
              f"fail_ratio {len(side.failures) / side.attempted} "
              f"({len(side.failures)} of {side.attempted})")
        correct = correct and digest_ok and not side.failures
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(side.attempted for side in sides),
        "failed": sum(len(side.failures) for side in sides),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
