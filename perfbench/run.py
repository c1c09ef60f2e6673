#!/usr/bin/env python3
"""Benchmark of record for the LimitLESS simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

Builds perfbench/ (the simulator sources plus the perfbench measurement program) into
$CARGO_TARGET_DIR (default .bench_build), runs that program on one workload
for S seconds and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Lines before
it give the host context and, for --trace 1, each layer's share of the
traced Machine::run wall time. README.md describes every workload and
metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("weather64-schemes", "stress256-torus", "weather1024-torus-t4")

# Host-profiler scope -> layer. Only the tree of the thread that called
# Machine::run is attributed; it tiles that call's wall time.
LAYER_OF_SCOPE = {
    "machine.run": "sim",
    "eq.burst": "sim",
    "net.tick": "network",
    "mem.service": "mem",
    "cache.dispatch": "cache",
    "trap.dispatch": "kernel",
    "trap.emulate": "kernel",
    "machine.run_parallel": "pk",
    "pk.worker": "pk",
    "pk.plan": "pk",
    "pk.apply": "pk",
    "pk.drain": "pk",
    "pk.exec": "pk",
    "pk.barrier": "pk",
    "pk.tail": "pk",
}
LAYERS = ("sim", "network", "mem", "cache", "kernel", "pk")
RUN_ROOTS = ("machine.run", "machine.run_parallel")
ATTRIBUTION_TOLERANCE = 0.05


class BenchError(Exception):
    """Set-up failure: no result is printed and the exit code is 2."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the perfbench binary; return its path."""
    for rel in ("src/machine/machine.hh", "bench/bench_common.hh"):
        if not (ROOT / rel).is_file():
            raise BenchError(f"simulator source {rel} not found under {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return build_dir / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, passes=0,
               threads=0):
    """Run the perfbench binary; return (records, exit code)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if passes:
        cmd += ["--passes", str(passes)]
    if threads:
        cmd += ["--threads", str(threads)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"perfbench: binary timed out on {workload}")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a crash can truncate the last line
    return records, proc.returncode


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git history."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".hh", ".txt",
                                                   ".py"))
    files.append(ROOT / "bench" / "bench_common.hh")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_context(args, binary_ctx):
    ctx = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    ctx.update({k: v for k, v in binary_ctx.items() if k != "type"})
    return ctx


def passes_of(runs):
    """Group run records by pass: {pass: [record, ...]}."""
    by_pass = {}
    for r in runs:
        by_pass.setdefault(r["pass"], []).append(r)
    return by_pass


def total(records, key):
    return sum(r["counts"][key] for r in records)


def deterministic_mismatches(runs):
    """Machines whose counts differ between passes of one seed."""
    first = {}
    bad = set()
    for r in runs:
        ref = first.setdefault(r["machine"], r["counts"])
        if r["counts"] != ref:
            bad.add(r["machine"])
    pk_first = {}
    for r in runs:
        if "pk" in r:
            shape = (r["pk"]["windows"], r["pk"]["coupled_windows"],
                     r["pk"]["events"])
            if pk_first.setdefault(r["machine"], shape) != shape:
                bad.add(r["machine"])
    return sorted(bad)


def traced_pass_layers(records):
    """Self seconds per layer and per scope name on the thread that
    called Machine::run, summed over a traced pass's machines."""
    secs = Counter(dict.fromkeys(LAYERS + ("unattributed",), 0.0))
    scopes = Counter()
    for r in records:
        for path, self_ns in r["scopes"]:
            names = path.split(";")
            if names[0] not in RUN_ROOTS:
                continue  # a parallel-kernel worker thread's own tree
            layer = LAYER_OF_SCOPE.get(names[-1], "unattributed")
            secs[layer] += self_ns * 1e-9
            scopes[names[-1]] += self_ns * 1e-9
    return secs, scopes


def pk_pass(records):
    """Parallel-kernel figures of one traced pass (zeros when serial)."""
    out = {"windows": 0, "coupled_windows": 0, "barrier_s": 0.0,
           "barrier_frac": 0.0, "event_imbalance": 0.0}
    waits = 0.0
    span = 0.0
    for r in records:
        pk = r.get("pk")
        if not pk:
            continue
        out["windows"] += pk["windows"]
        out["coupled_windows"] += pk["coupled_windows"]
        out["barrier_s"] += max(pk["barrier_wait_s"])
        waits += sum(pk["barrier_wait_s"])
        span += pk["partitions"] * r["wall_s"]
        ev = pk["events"]
        out["event_imbalance"] = max(out["event_imbalance"],
                                     max(ev) / (sum(ev) / len(ev)))
    if span:
        out["barrier_frac"] = waits / span
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(measured, peak_rss_kb):
    sample = measured[0]
    node_cycles = sum(r["counts"]["nodes"] * r["counts"]["cycles"]
                      for r in sample)
    ops = total(sample, "proc.ops")
    walls = [sum(r["wall_s"] for r in p) for p in measured]
    setups = [sum(r["construct_s"] + r["install_s"] for r in p)
              for p in measured]
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "node_cycles_per_s": metric(
            statistics.median(node_cycles / w for w in walls),
            "node_cycles/s"),
        "mem_ops_per_s": metric(statistics.median(ops / w for w in walls),
                                "ops/s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024.0, "MB"),
        "sim_cycles": metric(total(sample, "cycles"), "cycles"),
        "remote_latency_cycles": metric(
            total(sample, "cache.remote_latency_sum") /
            total(sample, "cache.remote_misses"), "cycles"),
    }


def per_layer(measured, untraced, traced):
    """Per-layer metrics; counts from any pass, seconds from the traced
    passes (medians)."""
    c = measured[0]
    events = total(c, "events")
    flit_hops = total(c, "network.flit_hops")
    requests = total(c, "mem.requests")
    hits, misses = total(c, "cache.hits"), total(c, "cache.misses")
    homes = total(c, "mem.rreq") + total(c, "mem.wreq")
    layer = [traced_pass_layers(p) for p in traced]
    pks = [pk_pass(p) for p in traced]

    def med_layer(name):
        return statistics.median(secs[name] for secs, _ in layer)

    def med_scope(*names):
        return statistics.median(sum(sc.get(n, 0.0) for n in names)
                                 for _, sc in layer)

    sim_s = med_layer("sim")
    tick_s = med_layer("network")
    traced_wall = statistics.median(sum(r["wall_s"] for r in p)
                                    for p in traced)
    untraced_wall = statistics.median(sum(r["wall_s"] for r in p)
                                      for p in untraced)
    construct = statistics.median(sum(r["construct_s"] for r in p)
                                  for p in measured)
    install = statistics.median(sum(r["install_s"] for r in p)
                                for p in measured)
    return {
        "sim.events": metric(events, "count"),
        "sim.self_s": metric(sim_s, "s"),
        "sim.ns_per_event": metric(sim_s / events * 1e9, "ns/event"),
        "network.packets": metric(total(c, "network.packets"), "count"),
        "network.flit_hops": metric(flit_hops, "count"),
        "network.blocked": metric(total(c, "network.blocked"), "count"),
        "network.tick_s": metric(tick_s, "s"),
        "network.ns_per_flit_hop": metric(
            tick_s / flit_hops * 1e9 if flit_hops else 0.0, "ns/flit_hop"),
        "mem.requests": metric(requests, "count"),
        "mem.busy_nacks": metric(total(c, "mem.busy_nacks"), "count"),
        "mem.nack_ratio": metric(
            total(c, "mem.busy_nacks") / requests if requests else 0.0,
            "ratio"),
        "mem.invs_sent": metric(total(c, "mem.invs_sent"), "count"),
        "mem.evictions": metric(total(c, "mem.evictions"), "count"),
        "mem.service_s": metric(med_layer("mem"), "s"),
        "cache.misses": metric(misses, "count"),
        "cache.hit_ratio": metric(hits / (hits + misses), "ratio"),
        "cache.busy_retries": metric(total(c, "cache.busy_retries"),
                                     "count"),
        "cache.dispatch_s": metric(med_layer("cache"), "s"),
        "kernel.traps": metric(total(c, "mem.traps"), "count"),
        "kernel.trap_cycles": metric(total(c, "mem.trap_cycles"), "cycles"),
        "kernel.m": metric(total(c, "mem.traps") / homes if homes else 0.0,
                           "ratio"),
        "kernel.trap_s": metric(med_layer("kernel"), "s"),
        "proc.ops": metric(total(c, "proc.ops"), "count"),
        "proc.stall_cycles": metric(total(c, "proc.stall_cycles"),
                                    "cycles"),
        "proc.switches": metric(total(c, "proc.switches"), "count"),
        "pk.windows": metric(pks[0]["windows"], "count"),
        "pk.coupled_windows": metric(pks[0]["coupled_windows"], "count"),
        "pk.barrier_s": metric(
            statistics.median(pk["barrier_s"] for pk in pks), "s"),
        "pk.barrier_frac": metric(
            statistics.median(pk["barrier_frac"] for pk in pks), "ratio"),
        "pk.exec_s": metric(med_scope("pk.exec"), "s"),
        "pk.plan_apply_drain_s": metric(
            med_scope("pk.plan", "pk.apply", "pk.drain"), "s"),
        "pk.tail_s": metric(med_scope("pk.tail"), "s"),
        "pk.event_imbalance": metric(pks[0]["event_imbalance"], "ratio"),
        "machine.construct_s": metric(construct, "s"),
        "machine.install_s": metric(install, "s"),
        "trace.overhead_frac": metric(traced_wall / untraced_wall - 1.0,
                                      "ratio"),
    }


def attribution(traced):
    """Check that the layers tile each traced pass's Machine::run wall
    time; print the median pass's shares. Returns True when it holds."""
    ok = True
    rows = []
    for p in traced:
        wall = sum(r["wall_s"] for r in p)
        secs, _ = traced_pass_layers(p)
        covered = sum(secs[k] for k in LAYERS)
        rows.append((wall, secs, covered))
        if abs(covered - wall) > ATTRIBUTION_TOLERANCE * wall:
            ok = False
    rows.sort(key=lambda row: row[0])
    wall, secs, covered = rows[(len(rows) - 1) // 2]
    print(f"traced Machine::run wall time {wall:.4f} s "
          f"(median of {len(rows)} traced passes); layer shares:")
    for k in LAYERS + ("unattributed",):
        print(f"  {k:<13}{secs[k]:10.4f} s {100 * secs[k] / wall:7.2f}%")
    print(f"  {'sum':<13}{covered:10.4f} s {100 * covered / wall:7.2f}%"
          f"  attribution check (within {ATTRIBUTION_TOLERANCE:.0%}): "
          f"{'ok' if ok else 'FAILED'}")
    return ok


def measure(args):
    binary = build()
    records, code = run_binary(binary, args.workload, args.seed,
                               args.seconds, args.trace)
    binary_ctx = next((r for r in records if r["type"] == "context"), {})
    runs = [r for r in records if r["type"] == "run"]
    end = next((r for r in records if r["type"] == "end"), None)
    print(json.dumps({"context": host_context(args, binary_ctx)}))

    failed = sum(1 for r in runs if not r["completed"])
    attempted = len(runs)
    if code != 0 or end is None:
        # The run that crashed (a verify() panic, a deadlock) never
        # reported: count it as attempted and failed.
        attempted += 1
        failed += 1
        log(f"perfbench: binary exited with code {code}")
    correct = failed == 0
    mismatched = deterministic_mismatches(runs)
    if mismatched:
        correct = False
        log("perfbench: deterministic counts differ between passes of "
            "one seed on: " + ", ".join(mismatched))

    by_pass = passes_of(runs)
    measured = [by_pass[p] for p in sorted(by_pass) if p > 0]
    untraced = [p for p in measured if not p[0]["traced"]]
    traced = [p for p in measured if p[0]["traced"]]
    metrics = {}
    if correct:
        if args.trace:
            if not attribution(traced):
                correct = False
            metrics = per_layer(measured, untraced, traced)
        else:
            metrics = end_to_end(measured, end["peak_rss_kb"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def self_test(args):
    """Identity checks the benchmark's claims rest on."""
    binary = build()
    ok = True

    def counts(workload, seed, passes=1, threads=0):
        records, code = run_binary(binary, workload, seed, 0, 0,
                                   passes=passes, threads=threads)
        runs = [r for r in records if r["type"] == "run"]
        if code != 0 or not runs:
            raise BenchError(f"self-test: {workload} seed {seed} failed")
        return [r["counts"] for r in runs]

    def check(name, cond):
        nonlocal ok
        print(f"self-test {name}: {'ok' if cond else 'FAILED'}")
        ok = ok and cond

    # The parallel kernel must reproduce the serial machine exactly.
    # Event counts legitimately differ between kernels.
    par = counts("weather1024-torus-t4", args.seed)[0]
    ser = counts("weather1024-torus-t4", args.seed, threads=1)[0]
    del par["events"], ser["events"]
    check("weather1024-torus-t4 t4 == t1", par == ser)

    # Same seed repeats (two passes of one run); another seed differs.
    # Pass 0 runs machine 0 only, so runs 0 and 1 share one seed.
    a, again = counts("stress256-torus", args.seed, passes=2)[:2]
    b = counts("stress256-torus", args.seed + 1)[0]
    check("stress256-torus same seed repeats", a == again)
    check("stress256-torus other seed changes sim_cycles",
          a["cycles"] != b["cycles"])
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if args.self_test:
            return self_test(args)
        if not args.workload:
            ap.error("--workload is required")
        return measure(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
