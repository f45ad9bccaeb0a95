#!/usr/bin/env python3
"""End-to-end job benchmark for the distributed GraphLab library.

Builds bench_e2e (CMakeLists.txt in this directory) from the checkout's
sources into $CARGO_TARGET_DIR (default .bench_build), then runs seeded
whole jobs one at a time (closed loop, concurrency 1), each in a fresh
child process.  A workload's inputs for --seed S are four input sets
(input seeds 4S .. 4S+3); jobs rotate through them, so one graph's quirks
do not set a run's medians.  Run from the repository root:

  python3 e2ebench/run.py --workload W --seed S --seconds T --trace 0|1
      One measured run of one workload: jobs back to back for T seconds.
      With --trace 0 the last stdout line holds the end-to-end metrics
      (medians over the jobs); with --trace 1 the first half of the time
      runs untraced jobs and the rest traced ones, and the line holds the
      per-layer metrics.

  python3 e2ebench/run.py [--runs N] [--seed S] [--json FILE]
                          [--trace-out DIR] [--compare BASE.json]
      The full protocol: N rounds (default 5), each running every
      workload's four input sets twice, workloads in an order that rotates
      between rounds, then one traced job per workload.  A round's value
      is the median over its jobs, as in a measured run.  Prints the
      tables, writes FILE (bench_json.h schema v1) and, with --compare,
      the verdict against a saved result set.

  python3 e2ebench/run.py --compare BASE.json --against NEW.json
      Compare two saved result sets without running anything.

Every job's answer is checked in the child, and jobs of one input seed
must give identical exact counts.  A failed, crashed or timed-out job, or
a mismatched count, makes the command exit nonzero.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ["pagerank_inproc", "pagerank_tcp", "pagerank_ft_tcp",
             "bp_locking", "als_tcp"]
INPUT_SETS = 4
ROUND_JOBS = 2 * INPUT_SETS  # jobs per workload in one protocol round

# End-to-end metrics: name -> (unit, better, bound).  The bound is the share
# of the baseline median by which the median may worsen before a change
# counts as a regression.  BENCHMARK.json at the repository root mirrors
# this table.
END_TO_END = {
    "job_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "net_mb": ("MB", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

# Per-layer metrics from the traced jobs: name -> (unit, better).
# README.md maps each one to the end-to-end metric and workload it moves.
LAYERS = {
    "apps.update_s": ("s", "lower"),
    "apps.update_us.p50": ("us", "lower"),
    "apps.update_us.p99": ("us", "lower"),
    "engine.updates": ("count", "lower"),
    "engine.sweeps": ("count", "lower"),
    "engine.color_steps": ("count", "lower"),
    "engine.updates_per_s": ("1/s", "higher"),
    "engine.busy_frac": ("frac", "higher"),
    "engine.sync_s": ("s", "lower"),
    "engine.overhead_s": ("s", "lower"),
    "engine.unattributed_frac": ("frac", "lower"),
    "sched.steals": ("count", "lower"),
    "graph.generate_s": ("s", "lower"),
    "graph.color_s": ("s", "lower"),
    "graph.partition_s": ("s", "lower"),
    "graph.ingest_s": ("s", "lower"),
    "graph.flush_s": ("s", "lower"),
    "graph.delta_batches": ("count", "lower"),
    "graph.coalesced_merges": ("count", "higher"),
    "rpc.connect_s": ("s", "lower"),
    "rpc.bytes": ("B", "lower"),
    "rpc.messages": ("count", "lower"),
    "rpc.bytes_per_update": ("B/update", "lower"),
    "rpc.msgs_per_update": ("msgs/update", "lower"),
    "rpc.dispatch_s": ("s", "lower"),
    "rpc.quiescence_s": ("s", "lower"),
    "fault.attempts": ("count", "lower"),
    "fault.checkpoints": ("count", "lower"),
    "fault.full_checkpoints": ("count", "lower"),
    "fault.checkpoint_s": ("s", "lower"),
    "fault.checkpoint_mb": ("MB", "lower"),
    "fault.recovery_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.dropped_events": ("count", "lower"),
}

# Counts that must repeat exactly for one input seed (name -> child key).
# The locking engine's lock traffic varies with timing.  The fault run's
# work counts vary too: now and then the checkpoint at the kill boundary
# commits without the dead machine (README.md, "Known issues in the
# library").
EXACT = {
    "pagerank_inproc": {"engine.updates": "engine.updates",
                        "engine.sweeps": "sweeps",
                        "rpc.bytes": "rpc.bytes_sent"},
    "pagerank_tcp": {"engine.updates": "engine.updates",
                     "engine.sweeps": "sweeps",
                     "rpc.bytes": "rpc.bytes_sent"},
    "pagerank_ft_tcp": {"fault.attempts": "fault.attempts",
                        "fault.recoveries": "fault.recoveries"},
    "bp_locking": {"engine.updates": "engine.updates"},
    "als_tcp": {"engine.updates": "engine.updates",
                "engine.sweeps": "sweeps",
                "rpc.bytes": "rpc.bytes_sent"},
}

CHILD_TIMEOUT_S = 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def input_seed(seed, job_index):
    return INPUT_SETS * seed + job_index % INPUT_SETS


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else (Path.cwd() / d)


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    out = build_dir() / "e2ebench"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("e2ebench: cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        sys.exit("e2ebench: build failed")
    return out / "bench_e2e"


# ---------------------------------------------------------------------------
# One job = one child process
# ---------------------------------------------------------------------------

def run_child(binary, workload, seed, scratch, trace_path=None,
              capacity=None):
    """Runs one job; returns the child's record plus peak RSS and status."""
    cmd = [str(binary), f"--child={workload}", f"--seed={seed}",
           f"--scratch={scratch}"]
    if trace_path is not None:
        cmd += [f"--trace-out={trace_path}", f"--trace-capacity={capacity}"]
    err_path = scratch / f"child_{workload}.err"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than Popen.wait: only it returns the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").strip().splitlines()
    rec = {}
    if lines:
        try:
            rec = json.loads(lines[-1])
        except json.JSONDecodeError:
            rec = {}
    rec["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    rec["failed"] = proc.returncode != 0 or not rec.get("ok", False)
    if rec["failed"]:
        why = rec.get("check") or f"exit code {proc.returncode}"
        log(f"FAILED {workload} input seed {seed}: {why}")
        for line in err_path.read_text(errors="replace").splitlines()[-5:]:
            log("  " + line)
    return rec


def end_to_end(rec):
    return {"job_s": rec["job_s"], "setup_s": rec["setup_s"],
            "net_mb": rec["rpc.bytes_sent"] / 1e6,
            "peak_rss_mb": rec["peak_rss_mb"]}


def exact_counts(workload, recs):
    """{input seed: {count: value}}; logs and flags counts that differ
    between jobs of one input seed."""
    out, consistent = {}, True
    for rec in recs:
        counts = {name: rec[key] for name, key in EXACT[workload].items()}
        first = out.setdefault(rec["seed"], counts)
        for name, value in counts.items():
            if first[name] != value:
                consistent = False
                log(f"NONDETERMINISTIC {workload} input seed {rec['seed']}: "
                    f"{name} {first[name]} vs {value}")
    return out, consistent


# ---------------------------------------------------------------------------
# Traced jobs: spans -> layer split
# ---------------------------------------------------------------------------

SPAN = re.compile(rb'\{"name":"([^"]*)","cat":"[a-z]*","ph":"([BE])",'
                  rb'"ts":([0-9.]+),"pid":(\d+),"tid":(\d+)')


def span_totals(path, t0_us, t1_us):
    """Sums paired B/E spans that start inside [t0_us, t1_us].

    Returns (total seconds by name, count on machine 0 by name, seconds by
    name spent inside a chromatic.color_step on the same thread).
    """
    total, count_m0, in_step = Counter(), Counter(), Counter()
    stacks = defaultdict(list)
    for m in SPAN.finditer(Path(path).read_bytes()):
        name, phase, ts, pid, tid = m.groups()
        stack = stacks[(pid, tid)]
        if phase == b"B":
            stack.append((name, float(ts)))
            continue
        if not stack:
            continue
        _, begin = stack.pop()
        if not t0_us <= begin <= t1_us:
            continue
        key = name.decode()
        seconds = (float(ts) - begin) / 1e6
        total[key] += seconds
        if pid == b"0":
            count_m0[key] += 1
        if any(n == b"chromatic.color_step" for n, _ in stack):
            in_step[key] += seconds
    return total, count_m0, in_step


def layer_metrics(rec, spans, untraced_job_s):
    """The per-layer split of one traced job (README.md, "Layer split")."""
    total, count_m0, in_step = spans
    job = rec["job_s"]
    worker_s = rec["worker_s"]  # each machine's workers x its time in the job
    update_s = rec["update_s"]
    updates = rec["engine.updates"]
    color_step_s = total["chromatic.color_step"]
    sync_s = 0.0
    if color_step_s > 0:
        sync_s = max(0.0, color_step_s - update_s -
                     in_step["graph.flush_deltas"] -
                     in_step["wait_quiescent"])
    # The locking engine's workers run inside locking.run on every machine.
    locking_s = rec["workers"] / rec["machines"] * total["locking.run"]
    overhead_s = max(0.0, locking_s - update_s) if locking_s > 0 else 0.0
    covered = (color_step_s + locking_s + total["fault.checkpoint"] +
               total["fault.recovery"])
    ft = "fault.attempts" in rec
    return {
        "apps.update_s": update_s,
        "apps.update_us.p50": rec["update_us_p50"],
        "apps.update_us.p99": rec["update_us_p99"],
        "engine.updates": updates,
        "engine.sweeps": rec["sweeps"],
        "engine.color_steps": count_m0["chromatic.color_step"],
        "engine.updates_per_s": updates / job,
        "engine.busy_frac": rec["busy_s"] / worker_s,
        "engine.sync_s": sync_s,
        "engine.overhead_s": overhead_s,
        "engine.unattributed_frac": max(0.0, 1.0 - covered / worker_s),
        "sched.steals": rec["sched.steals"],
        "graph.generate_s": rec["generate_s"],
        "graph.color_s": rec["color_s"],
        "graph.partition_s": rec["partition_s"],
        "graph.ingest_s": rec["ingest_s"],
        "graph.flush_s": total["graph.flush_deltas"],
        "graph.delta_batches": rec["graph.delta_batches_sent"],
        "graph.coalesced_merges": rec["graph.coalesced_merges"],
        "rpc.connect_s": rec["connect_s"],
        "rpc.bytes": rec["rpc.bytes_sent"],
        "rpc.messages": rec["rpc.messages_sent"],
        "rpc.bytes_per_update": rec["rpc.bytes_sent"] / max(1, updates),
        "rpc.msgs_per_update": rec["rpc.messages_sent"] / max(1, updates),
        "rpc.dispatch_s": total["dispatch"],
        "rpc.quiescence_s": total["wait_quiescent"],
        "fault.attempts": rec["fault.attempts"] if ft else 0,
        "fault.checkpoints": rec["fault.checkpoints"] if ft else 0,
        "fault.full_checkpoints": rec["fault.full_checkpoints"] if ft else 0,
        "fault.checkpoint_s": rec["fault.checkpoint_s"] if ft else 0.0,
        "fault.checkpoint_mb": (rec["fault.checkpoint_bytes"] / 1e6
                                if ft else 0.0),
        "fault.recovery_s": rec["fault.recovery_s"] if ft else 0.0,
        "trace.overhead_frac": job / untraced_job_s - 1.0,
        "trace.dropped_events": rec["trace_dropped"],
    }


def traced_job(binary, workload, seed, scratch, untraced, keep_dir=None):
    """One traced job on input seed `seed` and its layer split.

    Returns (record, layers); layers is None when the job failed.  The
    per-thread trace rings are sized from the untraced jobs' message count
    (a message costs about five events, spread over sender and receiver
    threads) and doubled until no event is evicted.
    """
    capacity = 2 * max(r["rpc.messages_sent"] for r in untraced) + 65536
    same_input = [r["job_s"] for r in untraced if r["seed"] == seed]
    untraced_job_s = statistics.median(
        same_input or [r["job_s"] for r in untraced])
    target = Path(keep_dir or scratch) / f"{workload}.trace.json"
    for _ in range(3):
        rec = run_child(binary, workload, seed, scratch, target, capacity)
        if rec["failed"] or rec["trace_dropped"] == 0:
            break
        log(f"{workload}: {rec['trace_dropped']} trace events evicted at "
            f"capacity {capacity}; retrying")
        capacity *= 2
    layers = None
    if not rec["failed"] and rec["trace_dropped"] == 0:
        spans = span_totals(target, rec["ready_us"], rec["done_us"])
        layers = layer_metrics(rec, spans, untraced_job_s)
    elif not rec["failed"]:
        log(f"{workload}: traced job invalid, trace events still evicted")
        rec["failed"] = True
    if keep_dir is None and target.exists():
        target.unlink()
    return rec, layers


# ---------------------------------------------------------------------------
# Statistics and output
# ---------------------------------------------------------------------------

def summarize(values):
    values = sorted(values)
    p25 = p75 = values[0]
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "p25": p25, "p75": p75,
            "min": values[0], "max": values[-1], "n": len(values)}


def iqr_frac(s):
    return (s["p75"] - s["p25"]) / s["median"] if s["median"] else 0.0


def summarize_jobs(recs):
    per_job = [end_to_end(r) for r in recs]
    return {name: summarize([p[name] for p in per_job])
            for name in END_TO_END}


def print_e2e_table(summaries):
    print(f"{'workload':<16} {'metric':<12} {'unit':<4} {'median':>10} "
          f"{'p25':>10} {'p75':>10} {'min':>10} {'max':>10} {'n':>3} "
          f"{'iqr%':>6}")
    for workload, per_metric in summaries.items():
        for name, s in per_metric.items():
            print(f"{workload:<16} {name:<12} {END_TO_END[name][0]:<4} "
                  f"{s['median']:>10.4f} {s['p25']:>10.4f} "
                  f"{s['p75']:>10.4f} {s['min']:>10.4f} {s['max']:>10.4f} "
                  f"{s['n']:>3} {100 * iqr_frac(s):>6.2f}")


def print_layer_table(layers):
    workloads = [w for w in layers if layers[w] is not None]
    print(f"{'layer metric':<26} {'unit':<11} " +
          " ".join(f"{w:>15}" for w in workloads))
    for name, (unit, _) in LAYERS.items():
        cells = " ".join(f"{layers[w][name]:>15.6g}" for w in workloads)
        print(f"{name:<26} {unit:<11} {cells}")


def result_json(meta, summaries, layers, exact, runs):
    rows = []
    for workload in summaries:
        rows.append({"row": "runs", "workload": workload, **runs[workload]})
        for name, s in summaries[workload].items():
            unit, better, bound = END_TO_END[name]
            rows.append({"row": "e2e", "workload": workload, "metric": name,
                         "unit": unit, "better": better, "bound": bound, **s})
        for seed, counts in sorted(exact[workload].items()):
            for name, value in counts.items():
                rows.append({"row": "exact", "workload": workload,
                             "input_seed": seed, "metric": name,
                             "value": value})
        for name, value in (layers.get(workload) or {}).items():
            rows.append({"row": "layer", "workload": workload,
                         "metric": name, "unit": LAYERS[name][0],
                         "value": value})
    return {"bench": "e2e", "schema_version": 1, "meta": meta, "rows": rows}


def compare(base, new):
    """Prints the verdict table; returns False when a median got worse by
    more than its bound or an exact count changed."""
    def index(doc, kind, *keys):
        return {tuple(r[k] for k in keys): r for r in doc["rows"]
                if r["row"] == kind}
    b_e2e = index(base, "e2e", "workload", "metric")
    n_e2e = index(new, "e2e", "workload", "metric")
    print(f"{'workload':<16} {'metric':<12} {'base':>10} {'iqr%':>6} "
          f"{'new':>10} {'iqr%':>6} {'change%':>8}  verdict")
    clean = True
    for key in sorted(b_e2e.keys() & n_e2e.keys()):
        b, n = b_e2e[key], n_e2e[key]
        _, better, bound = END_TO_END[key[1]]
        change = (n["median"] - b["median"]) / b["median"]
        worse = change if better == "lower" else -change
        if iqr_frac(b) > bound or iqr_frac(n) > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "worse"
            clean = False
        elif worse < -bound:
            verdict = "better"
        else:
            verdict = "within bound"
        print(f"{key[0]:<16} {key[1]:<12} {b['median']:>10.4f} "
              f"{100 * iqr_frac(b):>6.2f} {n['median']:>10.4f} "
              f"{100 * iqr_frac(n):>6.2f} {100 * change:>8.2f}  {verdict}")
    keys = ("workload", "input_seed", "metric")
    b_exact, n_exact = index(base, "exact", *keys), index(new, "exact", *keys)
    shared = sorted(b_exact.keys() & n_exact.keys())
    differ = [k for k in shared
              if b_exact[k]["value"] != n_exact[k]["value"]]
    for k in differ:
        print(f"EXACT COUNT DIFFERS {k[0]} input seed {k[1]} {k[2]}: "
              f"{b_exact[k]['value']} -> {n_exact[k]['value']}")
    print(f"exact counts: {len(shared) - len(differ)} of {len(shared)} "
          "identical")
    return clean and not differ


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def scratch_dir():
    d = build_dir() / "run"
    d.mkdir(parents=True, exist_ok=True)
    return d


def contract_run(args):
    """One workload for --seconds: the single measured run."""
    binary = build()
    scratch = scratch_dir()
    start = time.monotonic()
    untraced_until = args.seconds / 2 if args.trace else args.seconds
    jobs, failed = [], 0
    while failed == 0 and (len(jobs) < INPUT_SETS or
                           time.monotonic() - start < untraced_until):
        rec = run_child(binary, args.workload,
                        input_seed(args.seed, len(jobs)), scratch)
        failed += rec["failed"]
        if not rec["failed"]:
            jobs.append(rec)
    attempted = len(jobs) + failed
    traced = []
    while args.trace and failed == 0 and (
            not traced or time.monotonic() - start < args.seconds):
        seed = input_seed(args.seed, len(jobs) + len(traced))
        rec, layers = traced_job(binary, args.workload, seed, scratch, jobs)
        attempted += 1
        failed += rec["failed"]
        if layers is not None:
            traced.append((rec, layers))
    if not jobs or (args.trace and not traced):
        sys.exit(f"e2ebench: {args.workload}: no job succeeded")
    _, consistent = exact_counts(args.workload,
                                 jobs + [r for r, _ in traced])
    correct = consistent and failed == 0

    metrics = {}
    if args.trace:
        for name, (unit, _) in LAYERS.items():
            value = statistics.median(l[name] for _, l in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        summaries = summarize_jobs(jobs)
        print_e2e_table({args.workload: summaries})
        for name, (unit, _, _) in END_TO_END.items():
            metrics[name] = {"value": summaries[name]["median"], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def protocol_run(args):
    """N rounds, each running every workload's input sets twice (workload
    order rotating between rounds), then one traced job per workload.  A
    round's value of a metric is the median over its jobs; the summary is
    taken over rounds."""
    binary = build()
    scratch = scratch_dir()
    jobs = {w: [] for w in WORKLOADS}
    rounds = {w: [] for w in WORKLOADS}
    runs = {w: {"attempted": 0, "failed": 0} for w in WORKLOADS}
    for r in range(args.runs):
        shift = r % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            recs = [run_child(binary, workload, input_seed(args.seed, i),
                              scratch) for i in range(ROUND_JOBS)]
            ok_recs = [rec for rec in recs if not rec["failed"]]
            runs[workload]["attempted"] += len(recs)
            runs[workload]["failed"] += len(recs) - len(ok_recs)
            jobs[workload] += ok_recs
            if ok_recs:
                per_job = [end_to_end(rec) for rec in ok_recs]
                rounds[workload].append(
                    {name: statistics.median(p[name] for p in per_job)
                     for name in END_TO_END})
                log(f"round {r + 1}/{args.runs} {workload}: job_s "
                    f"{rounds[workload][-1]['job_s']:.3f}")
    keep = Path(args.trace_out) if args.trace_out else None
    if keep:
        keep.mkdir(parents=True, exist_ok=True)
    layers, exact, summaries = {}, {}, {}
    ok = True
    for workload in WORKLOADS:
        if not jobs[workload]:
            ok = False
            continue
        rec, layers[workload] = traced_job(
            binary, workload, input_seed(args.seed, 0), scratch,
            jobs[workload], keep)
        runs[workload]["attempted"] += 1
        runs[workload]["failed"] += rec["failed"]
        checked = jobs[workload] + ([] if rec["failed"] else [rec])
        exact[workload], consistent = exact_counts(workload, checked)
        summaries[workload] = {
            name: summarize([rv[name] for rv in rounds[workload]])
            for name in END_TO_END}
        ok = ok and consistent and runs[workload]["failed"] == 0

    print_e2e_table(summaries)
    print()
    print_layer_table(layers)
    meta = {"seed": args.seed, "runs": args.runs, "nproc": os.cpu_count(),
            "command": f"python3 e2ebench/run.py --runs {args.runs} "
                       f"--seed {args.seed}"}
    doc = result_json(meta, summaries, layers, exact, runs)
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
        log(f"wrote {args.json}")
    if args.compare:
        print()
        ok = compare(json.loads(Path(args.compare).read_text()), doc) and ok
    for workload in WORKLOADS:
        print(f"{workload}: attempted {runs[workload]['attempted']} "
              f"failed {runs[workload]['failed']}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--json")
    p.add_argument("--trace-out")
    p.add_argument("--compare")
    p.add_argument("--against")
    args = p.parse_args()
    if args.compare and args.against:
        same = compare(json.loads(Path(args.compare).read_text()),
                       json.loads(Path(args.against).read_text()))
        return 0 if same else 1
    if args.workload:
        return contract_run(args)
    return protocol_run(args)


if __name__ == "__main__":
    sys.exit(main())
