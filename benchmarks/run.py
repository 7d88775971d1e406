"""Run one gsfuzz benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload decide --seed 1 --seconds 25 --trace 0

Every workload is a closed loop with one client: one item at a time, the
next only after the previous returns.  Inputs are built from --seed before
timing starts (set-up is repeated and its median reported as setup_s).
Items then run in order, cycling, until --seconds of item time has passed
and every item has run at least once, so the verdict digest covers every
input.  Each item's latency is the fastest of its runs; throughput is the
items' units over the sum of those latencies.  Outputs are checked against
independent oracles outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the time
untraced and half traced (the throughput ratio is the tracing overhead) and
prints the per-layer metrics.  The last line of stdout is one JSON object;
the line before it, and benchmarks/out/, hold the digest, the environment
and the per-layer self-time table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
WORKLOADS = ("decide", "verify", "hunt", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

THEOREM_LAYERS = (
    "theorems.thm3_2", "theorems.thm3_5", "theorems.thm4_23", "theorems.thm4_24",
    "theorems.thm4_25", "theorems.thm4_26", "theorems.thm4_28", "theorems.thm4_29",
    "theorems.image", "theorems.preimage",
)
TIMED_LAYERS = (
    "predicates.alpha_beta", "predicates.closed_form", "search.find_witness",
    "search.sample_eq_bi_ideals", *THEOREM_LAYERS, "structure.enumerate_homomorphisms",
    "fuzzy.o_product", "fuzzy.o05_product",
)
RATIOS = (
    # metric, numerator counter, denominator counter, scale, unit
    ("predicates.alpha_beta.holds_ratio", "predicates.alpha_beta.holds",
     "predicates.alpha_beta.calls", 1, "ratio"),
    ("predicates.closed_form.holds_ratio", "predicates.closed_form.holds",
     "predicates.closed_form.calls", 1, "ratio"),
    ("search.find_witness.us_per_candidate", "search.find_witness.self_ns",
     "search.find_witness.candidates", 1e-3, "us"),
    ("search.sample_eq_bi_ideals.yield_ratio", "search.sample_eq_bi_ideals.returned",
     "search.sample_eq_bi_ideals.requested", 1, "ratio"),
    ("structure.enumerate_homomorphisms.hit_ratio", "structure.enumerate_homomorphisms.homs",
     "structure.enumerate_homomorphisms.maps", 1, "ratio"),
)
SELF_ONLY = (
    "search.generate_structures", "search.random_fuzzy", "cli.parse",
    "structure.validate_structure", "cli.run",
)
PER_LAYER = (
    [(f"{name}.{stat}", unit) for name in TIMED_LAYERS
     for stat, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [(metric, unit) for metric, *_, unit in RATIOS]
    + [(f"{name}.self_ms", "ms") for name in SELF_ONLY]
    + [("cli.process_start_ms", "ms"), ("cli.import_ms", "ms"),
       ("bench.trace_overhead_pct", "%")]
)


class Ledger:
    """Outcome of every item run: first-pass summaries, checks, failures."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def settle(self, index, out, error):
        """Check an item's output (untimed) and record the outcome."""
        wl, item = self.workload, self.items[index]
        self.attempted += 1
        problems = []
        if error is not None:
            summary = (0, "error", error)
            problems.append(error)
        else:
            try:
                summary = wl.summarize(item, out)
                if index not in self.first:
                    problems += wl.check(index, item, out)
            except Exception:  # a malformed output must not stop the run
                summary = (0, "unreadable output")
                problems.append(traceback.format_exc(limit=3))
        if index not in self.first:
            self.first[index] = summary
        elif summary != self.first[index]:
            problems.append("output differs from the item's first run")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += [f"item {index}: {p}" for p in problems]

    def digest(self) -> tuple[str, int]:
        summaries = [self.first[i] for i in range(len(self.items))]
        blob = json.dumps(summaries, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest(), sum(s[0] for s in summaries)


def run_one(ledger, index, tracer):
    """Run item `index`; return (seconds, output, error) with only the call timed."""
    wl = ledger.workload
    t0 = perf_counter()
    try:
        out = tracer.call("bench.item", wl.run_item, ledger.items[index], tracer)
        error = None
    except Exception as exc:  # an item that raises counts as failed, the loop goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
        if ledger.failed == 0:
            traceback.print_exc(file=sys.stderr)
    return perf_counter() - t0, out, error


def closed_loop(ledger, seconds, tracer, probe=False):
    """Run items in order, cycling, until `seconds` of item time has passed
    and every item has run at least once.

    Returns index -> (fastest scaled time, throughput units) over the item's
    runs.  Times are scaled to the reference speed (see clock.py); the
    fastest of an item's runs drops the hiccups that scaling leaves.
    """
    clock = ledger.workload.clock()
    best: dict = {}
    pending: list = []
    busy = stretch = 0.0
    i, n = 0, len(ledger.items)

    def flush():
        factor = clock.factor()
        for index, dt, units in pending:
            dt *= factor
            if index not in best or dt < best[index][0]:
                best[index] = (dt, units)
        pending.clear()

    while busy < seconds or i < n:
        index = i % n
        tracer.item = i
        dt, out, error = run_one(ledger, index, tracer)
        busy += dt
        stretch += dt
        if error is None:
            pending.append((index, dt, ledger.workload.units(out)))
        ledger.settle(index, out, error)
        if probe:
            ledger.workload.probe(ledger.items[index], tracer)
        if stretch >= clock.every:
            flush()
            stretch = 0.0
        i += 1
    flush()
    return best


def throughput(best) -> float:
    return sum(u for _, u in best.values()) / sum(dt for dt, _ in best.values())


def percentile(sorted_values, pct):
    """Nearest-rank percentile; also returns how many samples lie beyond it."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least 10 samples beyond it.

    Every item runs at least once and contributes one sample (its fastest
    run), so this depends on the workload's item count, not on its speed.
    """
    return max(50, 100 * (samples - 10) // samples)


def environment() -> dict:
    lines, tree = 0, hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        data = p.read_bytes()
        lines += len(data.splitlines())
        tree.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": lines,
        "src_sha256": tree.hexdigest()[:16],
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def bench(name, seed, seconds, trace):
    from spans import NullTracer, Tracer
    import workloads

    null = NullTracer()
    tracer = Tracer() if trace else null
    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.make(name, workdir, SRC)
    try:
        setup, clock = [], wl.clock()
        for rep in range(SETUP_REPEATS):
            t0 = perf_counter()
            items = wl.build(seed, tracer if rep == SETUP_REPEATS - 1 else null)
            setup.append((perf_counter() - t0) * clock.factor())
        ledger = Ledger(wl, items)
        detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "items": len(items)}
        if not trace:
            best = closed_loop(ledger, seconds, null)
        else:
            untraced = closed_loop(ledger, seconds / 2, null)
            best = closed_loop(ledger, seconds / 2, tracer, probe=hasattr(wl, "probe"))
            detail["throughput_untraced_per_s"] = throughput(untraced)
            detail["throughput_traced_per_s"] = throughput(best)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not best:
        sys.exit(f"error: every item of {name} failed: {ledger.problems[:3]}")
    who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
    lat = sorted(dt for dt, _ in best.values())
    tail_pct = tail_percentile(len(lat))
    tail, beyond = percentile(lat, tail_pct)
    digest, holds = ledger.digest()
    detail.update({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
        "verdict_digest": digest,
        "holds": holds,
        "latency_samples": len(lat),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_runs_s": setup,
        "environment": environment(),
    })
    if not trace:
        metrics = {
            "setup_s": median(setup),
            "throughput_per_s": throughput(best),
            "latency_ms_p50": percentile(lat, 50)[0] * 1e3,
            "latency_ms_tail": tail * 1e3,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        units_of = dict(END_TO_END)
    else:
        metrics = layer_metrics(tracer, len(items), detail)
        units_of = dict(PER_LAYER)
        detail["self_time_table"] = self_time_table(tracer, len(items))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    return result, detail, tracer


def layer_metrics(tracer, runs, detail) -> dict:
    """Per-layer numbers over set-up and the first traced pass (fixed work)."""
    table = tracer.layer_table(runs)
    counters = tracer.counters(runs)
    metrics = {}
    for name in TIMED_LAYERS:
        calls, self_ns = table.get(name, (0, 0))
        counters[f"{name}.calls"] = calls
        counters[f"{name}.self_ns"] = self_ns
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_ns / 1e6
    for metric, num, den, scale, _ in RATIOS:
        d = counters.get(den, 0)
        metrics[metric] = counters.get(num, 0) / d * scale if d else 0.0
    for name in SELF_ONLY:
        metrics[f"{name}.self_ms"] = table.get(name, (0, 0))[1] / 1e6
    metrics["cli.process_start_ms"], metrics["cli.import_ms"] = startup_ms()
    untraced, traced = detail["throughput_untraced_per_s"], detail["throughput_traced_per_s"]
    metrics["bench.trace_overhead_pct"] = (untraced - traced) / untraced * 100
    return metrics


def startup_ms(probes=5) -> tuple[float, float]:
    """Median wall ms of a bare interpreter, and of `import gsfuzz` on top of it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def median_ms(code):
        times = []
        for _ in range(probes):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=120)
            times.append((perf_counter() - t0) * 1e3)
        return median(times)

    bare = median_ms("pass")
    return bare, median_ms("import gsfuzz") - bare


def self_time_table(tracer, runs) -> list:
    rows = sorted(tracer.layer_table(runs).items(), key=lambda kv: -kv[1][1])
    return [f"{name:<40} {calls:>9} calls {self_ns / 1e6:>12.3f} ms self"
            for name, (calls, self_ns) in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gsfuzz" / "__init__.py").is_file():
        print(f"error: no gsfuzz sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, detail, tracer = bench(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.tsv"))
        print("\n".join(detail["self_time_table"]), file=sys.stderr)
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in detail.items() if k != "self_time_table"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
