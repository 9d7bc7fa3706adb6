#!/usr/bin/env python3
"""End-to-end benchmark of the Thermostat simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD.json NEW.json

Builds the driver (perfbench/driver.cc, linked against the
repository's libraries) into .bench_build, then runs one workload
repeatedly for about S seconds, one driver process per run, and
prints the metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Every run is one operation.  The first run of a window executes with
one shard (serial lanes) and is the fingerprint reference; the others
use one shard per core and are the timed runs.  A run fails when the
driver exits non-zero, reports lifecycle-audit, host invariant,
isolation or ledger violations, produces a non-finite output, or its
simulated fingerprint differs from the reference.

--trace 0 reports the end-to-end metrics (host time, tracing off).
--trace 1 alternates traced and untraced runs and reports the
per-layer metrics, each printed next to the end-to-end metric and
workload it should move, plus the tracing overhead.

The simulated statistics are a correctness fingerprint only: the
model is unvalidated at these run lengths (the paper's reference
points are 1200 s runs), so no error figure is given.

Each result, with its machine record (env), is also written to
.bench_out/; --compare reports two results whose env differs as not
comparable instead of as a regression.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "tstat_perfbench"

WORKLOADS = ("websearch-thermostat", "cassandra-hotness", "host-mix4")

# Timed runs a window always makes, even past --seconds (more when
# one block of epochs needs more runs).
MIN_TIMED_RUNS = 3
# Epoch percentiles are taken per block of consecutive timed runs
# holding at least this many epochs, so the tail can leave ten epochs
# beyond it, and the median over blocks is reported: one run slowed
# by the host then moves one block, not the figure.
BLOCK_EPOCHS = 60
# Seconds after the build by which every run has ended: no run starts
# when it is predicted to end later, and a run still going then is
# killed and counted as failed.  Keeps a slow program inside the
# three minutes a measurement may take.
DEADLINE_S = 160

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "refs_per_s": ("1/s", "higher"),
    "epoch_ms_p50": ("ms", "lower"),
    "epoch_ms_tail": ("ms", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, end-to-end metric it should move, workload)
PER_LAYER = {
    "sim.epoch_ms": ("ms", "lower", "refs_per_s", "all"),
    "sim.timing_stream_s": ("s", "lower", "refs_per_s",
                            "websearch-thermostat"),
    "sim.profile_stream_s": ("s", "lower", "refs_per_s",
                             "cassandra-hotness"),
    "sim.epoch_self_s": ("s", "lower", "epoch_ms_p50",
                         "websearch-thermostat"),
    "sim.lane_imbalance": ("ratio", "lower", "refs_per_s",
                           "websearch-thermostat"),
    "sim.finish_s": ("s", "lower", "wall_s", "all"),
    "workload.sample_ns": ("ns", "lower", "refs_per_s",
                           "websearch-thermostat"),
    "workload.draws": ("count", "lower", "refs_per_s", "all"),
    "machine.access_ns": ("ns", "lower", "refs_per_s",
                          "websearch-thermostat"),
    "vm.walk_ns": ("ns", "lower", "refs_per_s",
                   "websearch-thermostat"),
    "tlb.l2_miss_ratio": ("ratio", "lower", "refs_per_s",
                          "websearch-thermostat"),
    "llc.miss_ratio": ("ratio", "lower", "refs_per_s",
                       "websearch-thermostat"),
    "trap.poison_faults": ("count", "lower", "refs_per_s",
                           "websearch-thermostat"),
    "pool.parallel_for_us": ("us", "lower", "epoch_ms_p50",
                             "websearch-thermostat"),
    "policy.tick_self_s": ("s", "lower", "epoch_ms_tail",
                           "cassandra-hotness"),
    "policy.demotions": ("count", "lower", "epoch_ms_tail",
                         "cassandra-hotness"),
    "policy.promotions": ("count", "lower", "epoch_ms_tail",
                          "cassandra-hotness"),
    "sys.migrate_s": ("s", "lower", "refs_per_s", "cassandra-hotness"),
    "sys.migrate_calls": ("count", "lower", "refs_per_s",
                          "cassandra-hotness"),
    "sys.migrate_us_per_call": ("us", "lower", "refs_per_s",
                                "cassandra-hotness"),
    "sys.migrate_moved_ratio": ("ratio", "higher", "refs_per_s",
                                "host-mix4"),
    "migrate.queue_step_s": ("s", "lower", "wall_s", "host-mix4"),
    "migrate.txn_abort_ratio": ("ratio", "lower", "wall_s",
                                "host-mix4"),
    "host.cpu_util": ("ratio", "higher", "refs_per_s", "host-mix4"),
    "host.denial_ratio": ("ratio", "lower", "refs_per_s",
                          "host-mix4"),
    "obs.export_s": ("s", "lower", "wall_s", "host-mix4"),
    "trace.overhead_s": ("s", "lower", "wall_s", "all"),
}

# Fields of the machine record that make two results comparable.
MACHINE_KEYS = ("nproc", "compiler", "build_type", "flags")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build the driver (a no-op when current)."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log(f"perfbench: {ROOT} holds no simulator sources (src/)")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "tstat_perfbench", "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env,
                          check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def src_record():
    """Line count and content digest of src/ (the digest stands in
    for the sha in checkouts that are not git repositories)."""
    lines = 0
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            lines += data.count(b"\n")
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(data)
    return lines, digest.hexdigest()[:16]


def env_record(seed, build_info):
    lines, digest = src_record()
    return {
        "nproc": nproc(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "flags": build_info.get("flags", "unknown"),
        "git_sha": git_sha(),
        "src_digest": digest,
        "src_lines": lines,
        "seed": seed,
    }


def steal_seconds():
    """CPU seconds the hypervisor has stolen from this machine."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_driver(workload, seed, shards, trace, out_dir, deadline):
    """One run: (result dict or None, failure reason or None, secs).
    A result carries "steal", the share of the machine's CPU time
    stolen while it ran."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--shards", str(shards), "--trace", str(trace),
           "--out", str(out_dir)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("THERMOSTAT_VERIFY_SHARDING", "THERMOSTAT_JOBS")}
    stolen = steal_seconds()
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - start),
                              check=False)
    except subprocess.TimeoutExpired:
        return None, "timed out", time.monotonic() - start
    secs = time.monotonic() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        return None, f"exit {proc.returncode} {tail}", secs
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparseable driver output", secs
    result["steal"] = (steal_seconds() - stolen) / (secs * nproc())
    return result, None, secs


def all_finite(value):
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def failure(result, reference):
    """Why a run counts as failed, or None when it passed."""
    bad = {k: v for k, v in result["checks"].items() if v != 0}
    if bad:
        return f"checks {bad}"
    if not all_finite(result["host"]) or not all_finite(
            result.get("layers", {})):
        return "non-finite output"
    if reference is not None and result["fingerprint"] != reference:
        return "fingerprint differs from the one-shard reference run"
    layers = result.get("layers")
    if layers is not None and layers["workload.draws"] != result["host"]["refs"]:
        return "counted draws differ from the reference count"
    return None


def block_runs(epochs_per_run):
    return math.ceil(BLOCK_EPOCHS / epochs_per_run)


def tail_fraction(epochs_per_block):
    """The highest percentile that leaves ten epochs of a block
    beyond it."""
    return 1.0 - 10.0 / epochs_per_block


def nearest_rank(sorted_values, fraction):
    # The epsilon keeps float error in fraction * n from moving the
    # rank up by one when the product is a whole number.
    rank = max(1, math.ceil(fraction * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def end_to_end(timed):
    """Medians over the timed runs; epoch percentiles per block of
    runs, median over blocks."""
    host = [r["host"] for r in timed]
    per_run = len(host[0]["epoch_ms"])
    k = block_runs(per_run)
    # A window the deadline cut short of one block pools what it has.
    blocks = [sorted(ms for h in host[i:i + k] for ms in h["epoch_ms"])
              for i in range(0, len(host) - k + 1, k)] or [
                  sorted(ms for h in host for ms in h["epoch_ms"])]
    frac = tail_fraction(k * per_run)
    med = lambda key: statistics.median(h[key] for h in host)
    values = {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "refs_per_s": statistics.median(h["refs"] / h["loop_s"]
                                        for h in host),
        "epoch_ms_p50": statistics.median(statistics.median(b)
                                          for b in blocks),
        "epoch_ms_tail": statistics.median(nearest_rank(b, frac)
                                           for b in blocks),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    count = (f"{len(blocks)} blocks of {k * per_run} epochs "
             f"({k} runs each)")
    notes = {"epoch_ms_p50": f"median over {count}",
             "epoch_ms_tail": f"p{100 * frac:.1f}, median over {count}"}
    return values, notes


def per_layer(traced, untraced):
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (
        statistics.median(r["host"]["wall_s"] for r in traced) -
        statistics.median(r["host"]["wall_s"] for r in untraced))
    return values


def measure(workload, seed, seconds, trace):
    """Run one window: the one-shard reference run, then timed runs
    (alternately traced and untraced with --trace 1) until about
    `seconds` have passed.  Returns (attempted, failure reasons,
    untraced timed runs, traced runs)."""
    shards = min(nproc(), 8)
    out_dir = OUT_DIR / f"{workload}-seed{seed}"
    window_start = time.monotonic()
    deadline = window_start + DEADLINE_S
    reasons = []
    timed = []
    traced = []

    ref, why, _ = run_driver(workload, seed, 1, 0, out_dir, deadline)
    if ref is not None:
        why = failure(ref, None)
    if why is not None:
        reasons.append(f"one-shard reference run: {why}")
    fingerprint = ref["fingerprint"] if why is None else None
    attempted = 1

    durations = []
    while len(reasons) <= 3:
        now = time.monotonic()
        predicted = statistics.median(durations) if durations else 0.0
        if trace:
            short = not timed or not traced
        else:
            need = MIN_TIMED_RUNS
            if timed:
                need = max(need, block_runs(len(timed[0]["host"]["epoch_ms"])))
            short = len(timed) < need
        if not short and now - window_start + predicted > seconds:
            break
        if now + predicted > deadline:
            break
        run_trace = 1 if trace and attempted % 2 == 1 else 0
        result, why, secs = run_driver(workload, seed, shards, run_trace,
                                       out_dir, deadline)
        attempted += 1
        durations.append(secs)
        if result is not None:
            why = failure(result, fingerprint)
        if why is not None:
            reasons.append(why)
        else:
            (traced if run_trace else timed).append(result)
    return attempted, reasons, timed, traced


def compare(old_path, new_path):
    """Print each end-to-end metric's change against its bound."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    diffs = [k for k in MACHINE_KEYS if old["env"].get(k) != new["env"].get(k)]
    if diffs or old["workload"] != new["workload"] or old["trace"] != new["trace"]:
        print("not comparable: env differs in " +
              ", ".join(diffs or ["workload/trace"]))
        return 3
    bounds = {m["name"]: m.get("bound")
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())
              ["end_to_end"]}
    worse_any = False
    for name, entry in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        a, b = old["metrics"][name]["value"], entry["value"]
        better = END_TO_END.get(name, PER_LAYER.get(name, ("", "lower")))[1]
        change = (b - a) / a if a else 0.0
        worse = change if better == "lower" else -change
        bound = bounds.get(name)
        verdict = "-"
        if bound is not None:
            verdict = "REGRESSION" if worse > bound else "ok"
            worse_any |= worse > bound
        print(f"{name:26s} {a:14.6g} -> {b:14.6g} {100 * change:+7.2f}% "
              f"bound {bound} {verdict}")
    return 1 if worse_any else 0


def main():
    # A terminated benchmark stops its build or driver run too:
    # subprocess.run kills the child when the wait is interrupted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")

    if not build():
        return 2
    attempted, reasons, timed, traced = measure(
        args.workload, args.seed, args.seconds, args.trace)
    for why in reasons:
        log(f"perfbench: failed run: {why}")

    runs = timed + traced
    env = env_record(args.seed, runs[0]["build"] if runs else {})
    print("env " + json.dumps(env, sort_keys=True))
    ok = not reasons and timed and (traced or not args.trace)
    table = PER_LAYER if args.trace else END_TO_END
    values, notes = {}, {}
    if ok:
        if args.trace:
            values = per_layer(traced, timed)
        else:
            values, notes = end_to_end(timed)
        print("fingerprint " + json.dumps(runs[0]["fingerprint"],
                                          sort_keys=True))
    metrics = {name: {"value": values.get(name, 0.0), "unit": spec[0]}
               for name, spec in table.items()}
    for name, spec in table.items():
        line = f"{args.workload:22s} {name:26s} {values.get(name, 0.0):16.6g} {spec[0]}"
        if args.trace:
            line += f"  -> {spec[2]} on {spec[3]}"
        if name in notes:
            line += f"  ({notes[name]})"
        print(line)
    print(f"{args.workload:22s} runs attempted {attempted}, "
          f"failed {len(reasons)}")
    if runs:
        # On a shared virtual machine, time the hypervisor steals
        # slows the lane barrier; this explains a slow window.
        stolen = sorted(r["steal"] for r in runs)
        print(f"{args.workload:22s} CPU share stolen by the hypervisor "
              f"per timed run: median {statistics.median(stolen):.3f}, "
              f"max {stolen[-1]:.3f}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "workload": args.workload, "trace": args.trace, "env": env,
         "attempted": attempted, "failed": len(reasons),
         "failures": reasons, "metrics": metrics,
         "runs": [{k: r[k] for k in ("host", "trace", "steal")} | {
             "layers": r.get("layers")} for r in runs]}, indent=1))
    print(json.dumps({"correct": bool(ok), "attempted": attempted,
                      "failed": len(reasons), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
