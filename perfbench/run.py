#!/usr/bin/env python3
"""The ScaleWorld benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call configures and builds
the benchmark package (perfbench/CMakeLists.txt, which builds ../src) into
.bench_build/; later calls rebuild incrementally.

--trace 0 runs repetitions of the workload, each in its own process, for
about S seconds (at least three repetitions), checks every repetition, and
prints the end-to-end metrics named in BENCHMARK.json: host set-up time,
simulation rate and peak RSS as medians over the repetitions, and the
simulated results, which are identical in every repetition of a seed.
Set-up time and simulation rate are scaled by the host speed that a fixed
kernel measures between phases (perfbench/src/speed_probe.hpp), because
the shared host's speed drifts; the raw medians are printed beside them.

--trace 1 runs pairs of one untraced and one traced repetition for about S
seconds (at least one pair), checks that both leave byte-identical metrics
digests, and
prints the per-layer metrics named in BENCHMARK.json, taken from the
traced repetitions. The traced repetition writes its spans to
.bench_out/.

--selftest runs the percentile unit tests and a tiny-size pair of every
workload through the same checks.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every result, with provenance and
the per-repetition details, is also written to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REP_EXE = os.path.join(BUILD_DIR, "perfbench_rep")
TEST_EXE = os.path.join(BUILD_DIR, "perfbench_tests")
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ("tree2k_static", "dense_store", "dv_chaos")
MIN_REPS = 3
# A repetition that has not finished by then is a failure; the whole
# command must end within 180 s.
REP_TIMEOUT_S = 120
DEADLINE_S = 165

# These tail percentiles must have at least ten samples beyond them.
NAMED_TAILS = ("cbr_latency_p99_ms", "cbr_hops_p99", "handoff_p99_ms")
SIM_QUANTILES = ("cbr_latency_p50_ms", "cbr_latency_p99_ms", "cbr_hops_p50",
                 "cbr_hops_p99", "handoff_p50_ms", "handoff_p99_ms",
                 "recovery_p50_s", "recovery_p90_s")
# Simulated times are printed with their sample counts but left out of
# the gated metrics: every link costs exactly 1 ms, so they are whole
# numbers that can read the same for every seed (perfbench/design.json).
SIM_TIMES = (("cbr_latency_p50_ms", "sim_ms"), ("cbr_latency_p99_ms", "sim_ms"),
             ("handoff_p50_ms", "sim_ms"), ("handoff_p99_ms", "sim_ms"),
             ("recovery_p50_s", "sim_s"), ("recovery_p90_s", "sim_s"))
# Layer metrics measured by replaying run inputs through one layer alone.
REPLAYED = {"routing.lookup_ns", "core.cache_lookup_ns",
            "core.binding_find_ns", "sim.schedule_pop_ns", "net.codec_ns"}


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---- Build ----

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "perfbench_rep", "perfbench_tests"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


# ---- Provenance ----

def read_text(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def cmake_cache(key):
    for line in read_text(os.path.join(BUILD_DIR, "CMakeCache.txt")).splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def source_digest():
    """SHA-256 over src/ and perfbench/ (paths and contents), so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git(*args):
    try:
        p = subprocess.run(["git", "-C", ROOT] + list(args),
                           capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def provenance(workload, seed, seconds):
    commit = git("rev-parse", "HEAD") if os.path.exists(
        os.path.join(ROOT, ".git")) else None
    dirty = None
    if commit is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True,
                                     timeout=20).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            version = None
    ram_kib = None
    for line in read_text("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            ram_kib = int(line.split()[1])
    cpu = None
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "nproc": os.cpu_count(),
        "total_ram_gib": None if ram_kib is None else round(ram_kib / 2**20, 2),
        "cpu": cpu,
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


# ---- Repetitions ----

def run_rep(workload, seed, size, traced, tag, timeout):
    """One repetition in its own process; returns (result or None, problems)."""
    cmd = [REP_EXE, "--workload", workload, "--seed", str(seed), "--size",
           size, "--traced", "1" if traced else "0", "--out-dir", OUT_DIR,
           "--tag", tag]
    start = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, ["%s: timed out" % tag]
    wall = time.monotonic() - start
    if p.returncode != 0:
        return None, ["%s: exit %d: %s" % (tag, p.returncode, p.stderr.strip())]
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, ["%s: unreadable output" % tag]
    result["process_wall_s"] = wall
    result["tag"] = tag
    return result, check_rep(result)


def check_rep(r):
    """The output checks every repetition must pass."""
    problems = []
    c = r["checks"]
    if c["flows_over_delivered"] != 0:
        problems.append("%s: %d flows delivered more than they sent"
                        % (r["tag"], c["flows_over_delivered"]))
    if c["misdelivered"] != 0:
        problems.append("%s: %d CBR datagrams reached another flow's mobile"
                        % (r["tag"], c["misdelivered"]))
    if not c["cbr_sent_positive"]:
        problems.append("%s: no CBR traffic sent or delivered" % r["tag"])
    if r["size"] == "full":
        for name in NAMED_TAILS:
            q = r["sim"][name]
            if q["beyond"] < 10:
                problems.append("%s: %s has %d samples beyond it (< 10)"
                                % (r["tag"], name, q["beyond"]))
    return problems


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def same_digest(a, b):
    return read_bytes(os.path.join(OUT_DIR, a["tag"] + ".digest")) == \
        read_bytes(os.path.join(OUT_DIR, b["tag"] + ".digest"))


# ---- Metrics ----


def end_to_end(reps):
    """End-to-end metrics from untraced repetitions of one seed. Set-up
    time and simulation rate are scaled to the speed probe's nominal host
    speed (perfbench/src/speed_probe.hpp); the raw medians are host_*."""
    host = [r["host"] for r in reps]
    sim = reps[0]["sim"]
    m = {
        "setup_s": median([h["calibrated_setup_s"] for h in host]),
        "sim_rate": median([h["calibrated_sim_rate"] for h in host]),
        "peak_rss_mb": median([h["peak_rss_mb"] for h in host]),
        "delivery_ratio": sim["delivery_ratio"],
        "host_setup_s": median([h["setup_s"] for h in host]),
        "host_sim_rate": median([h["sim_rate"] for h in host]),
        "host_speed": median([h["window_speed"] for h in host]),
    }
    for name in SIM_QUANTILES:
        m[name] = sim[name]["value"]
    return m


def per_layer(untraced, traced):
    """Per-layer metrics from traced repetitions. Host timings are raw
    medians over the pairs, except trace_overhead, which compares two
    processes and so uses their calibrated windows. Counts are those of
    the seed (identical in each repetition)."""
    t0 = traced[0]
    counts, drops = t0["counts"], t0["drops"]
    cbr = max(drops["cbr_sent"], 1)
    events = max(counts["sim.events"], 1)

    def host(key):
        return median([t["host"][key] for t in traced])

    def layer(key):
        return median([t["layers"][key] for t in traced])

    slices = [median(t["host"]["slice_wall_ms"]) for t in traced]
    slice_max = [max(t["host"]["slice_wall_ms"]) for t in traced]
    overhead = median([t["host"]["calibrated_window_s"]
                       / u["host"]["calibrated_window_s"]
                       for u, t in zip(untraced, traced)])
    tunnels = counts["core.tunnels_built"]
    m = {
        "scenario.construct_s": host("construct_s"),
        "scenario.warmup_s": host("warmup_s"),
        "scenario.slice_wall_ms_p50": median(slices),
        "scenario.slice_wall_ms_max": median(slice_max),
        "sim.events": counts["sim.events"],
        "sim.events_per_cbr": counts["sim.events"] / cbr,
        "sim.ns_per_event": host("window_s") * 1e9 / events,
        "sim.schedule_pop_ns": layer("sim.schedule_pop_ns"),
        "net.frames": counts["net.frames"],
        "net.bytes": counts["net.bytes"],
        "net.frames_per_cbr": counts["net.frames"] / cbr,
        "net.codec_ns": layer("net.codec_ns"),
        "node.forwarded": counts["node.forwarded"],
        "node.forwards_per_cbr": counts["node.forwarded"] / cbr,
        "node.drop_ttl": counts["node.drop_ttl"],
        "node.drop_no_route": counts["node.drop_no_route"],
        "node.drop_arp": counts["node.drop_arp"],
        "routing.table_prefixes": counts["routing.table_prefixes"],
        "routing.lookup_ns": layer("routing.lookup_ns"),
        # Forwards times the replayed lookup cost, over the traced window
        # of the same process: the share of a run route lookup costs,
        # warm-cache.
        "routing.lookup_share": median([
            t["counts"]["node.forwarded"] * t["layers"]["routing.lookup_ns"]
            * 1e-9 / t["host"]["window_s"] for t in traced]),
        "dv.triggered_updates": counts["dv.triggered_updates"],
        "dv.periodic_rounds": counts["dv.periodic_rounds"],
        "dv.route_changes": counts["dv.route_changes"],
        "core.registrations": counts["core.registrations"],
        "core.tunnels_built": tunnels,
        "core.retunnels": counts["core.retunnels"],
        "core.updates_sent": counts["core.updates_sent"],
        "core.loops_detected": counts["core.loops_detected"],
        "core.route_opt_share": counts["core.ca_tunnels_built"] / tunnels
        if tunnels else 0.0,
        "core.cache_lookup_ns": layer("core.cache_lookup_ns"),
        "core.binding_find_ns": layer("core.binding_find_ns"),
        "store.wal_appends": counts["store.wal_appends"],
        "store.wal_syncs": counts["store.wal_syncs"],
        "store.wal_batches": counts["store.wal_batches"],
        "store.compaction_steps": counts["store.compaction_steps"],
        "store.lost_bindings": counts["store.lost_bindings"],
        "telemetry.snapshot_ms": layer("telemetry.snapshot_ms"),
        "telemetry.trace_overhead": overhead,
        "cbr.sent": drops["cbr_sent"],
        "cbr.delivered": drops["cbr_delivered"],
        "cbr.unaccounted": drops["cbr_unaccounted"],
    }
    return m


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def select(spec_metrics, values):
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        if name not in values:
            raise BenchError("metric %s is not measured" % name)
        out[name] = {"value": values[name], "unit": metric["unit"]}
    return out


# ---- Reports ----

def fmt(v):
    return ("%.6g" % v) if isinstance(v, float) else str(v)


def print_end_to_end(metrics, values, rep0, nreps):
    sim = rep0["sim"]
    print("  end-to-end, gated (host metrics: median of %d repetitions, "
          "scaled to nominal host speed; simulated metrics: identical in "
          "every repetition of the seed)" % nreps)
    for name, m in metrics.items():
        q = sim.get(name)
        extra = ""
        if isinstance(q, dict):
            extra = "  (n=%d, beyond=%d, highest tail p%g)" % (
                q["samples"], q["beyond"], q["highest_tail"])
        print("    %-26s %14s %-8s%s" % (name, fmt(m["value"]), m["unit"],
                                         extra))
    print("  host, raw (reported, not gated): setup %s s, sim_rate %s sim_s/s,"
          " host speed %s of nominal"
          % (fmt(values["host_setup_s"]), fmt(values["host_sim_rate"]),
             fmt(values["host_speed"])))
    print("  end-to-end, simulated time (reported, not gated):")
    for name, unit in SIM_TIMES:
        q = sim[name]
        shown = fmt(q["value"]) if q["samples"] else "n/a"
        print("    %-26s %14s %-8s  (n=%d, beyond=%d, highest tail p%g)"
              % (name, shown, unit, q["samples"], q["beyond"],
                 q["highest_tail"]))
    print("    %-26s %14s %-8s  (%d abandoned of %d attempts)"
          % ("registration_abandon_ratio",
             fmt(sim["registration_abandon_ratio"]), "ratio",
             sim["registrations_abandoned"],
             sim["registrations_completed"] + sim["registrations_abandoned"]))


def print_drops(rep0):
    d = rep0["drops"]
    print("  CBR accounting over the window (counts, not gated):")
    for key, v in d.items():
        print("    %-32s %d" % (key, v))


def print_layers(metrics, counts):
    print("  per-layer (traced run; * = warm-cache replay estimate):")
    for name, m in metrics.items():
        mark = "*" if name in REPLAYED or name == "routing.lookup_share" else " "
        print("   %s%-30s %14s %s" % (mark, name, fmt(m["value"]), m["unit"]))
    print("  per-layer, simulated time (reported, not in the metrics):")
    for name, samples in (("dv.convergence_p50_s", "dv.convergence_samples"),
                          ("dv.convergence_max_s", "dv.convergence_samples"),
                          ("store.ha_recovery_s", "store.ha_crashes")):
        n = counts[samples]
        shown = fmt(counts[name]) if n else "n/a"
        print("    %-30s %14s sim_s  (n=%d)" % (name, shown, n))


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def save(name, payload):
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


# ---- Modes ----

def bench(args):
    spec = load_spec()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.monotonic()
    prov = provenance(args.workload, args.seed, args.seconds)
    problems, untraced, traced = [], [], []
    attempted = failed = 0
    base = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    def elapsed():
        return time.monotonic() - started

    def rep(traced_run, tag):
        nonlocal attempted, failed
        attempted += 1
        r, p = run_rep(args.workload, args.seed, "full", traced_run, tag,
                       min(REP_TIMEOUT_S, DEADLINE_S - elapsed()))
        problems.extend(p)
        if r is None or p:
            failed += 1
        return r

    i = 0
    while True:
        if args.trace:
            u = rep(False, "%s-u%d" % (base, i))
            t = rep(True, "%s-t%d" % (base, i))
            if u is None or t is None:
                break
            if not same_digest(u, t):
                problems.append("traced and untraced runs of seed %d left "
                                "different metrics digests" % args.seed)
            untraced.append(u)
            traced.append(t)
            done = len(traced) >= 1
            per_round = u["process_wall_s"] + t["process_wall_s"]
        else:
            u = rep(False, "%s-r%d" % (base, i))
            if u is None:
                break
            untraced.append(u)
            done = len(untraced) >= MIN_REPS
            per_round = u["process_wall_s"]
        i += 1
        # Stop at the repetition boundary nearest to --seconds.
        if done and elapsed() + 0.5 * per_round >= args.seconds:
            break
        if elapsed() + per_round * 1.2 > DEADLINE_S:
            if not done:
                problems.append("out of time before the minimum repetitions")
            break

    for r in untraced[1:]:
        if not same_digest(untraced[0], r) or r["sim"] != untraced[0]["sim"]:
            problems.append("repetitions of seed %d disagree (%s vs %s)"
                            % (args.seed, untraced[0]["tag"], r["tag"]))

    metrics, values = {}, {}
    if untraced and (traced or not args.trace):
        if args.trace:
            values = per_layer(untraced, traced)
            metrics = select(spec["per_layer"], values)
        else:
            values = end_to_end(untraced)
            metrics = select(spec["end_to_end"], values)
    else:
        problems.append("no complete repetition")

    correct = not problems and failed == 0
    print("perfbench %s seed=%d trace=%d: %d repetitions in %.1f s"
          % (args.workload, args.seed, args.trace, attempted, elapsed()))
    print("  provenance: " + json.dumps(prov, sort_keys=True))
    if metrics and args.trace:
        print_layers(metrics, traced[0]["counts"])
        print("  spans: %s" % os.path.relpath(
            os.path.join(OUT_DIR, traced[0]["tag"] + ".spans.json"), ROOT))
    elif metrics:
        print_end_to_end(metrics, values, untraced[0], len(untraced))
    if untraced:
        print_drops(untraced[0])
    for p in problems:
        print("  CHECK FAILED: " + p)
    print("  checks: %s" % ("pass" if correct else "FAIL"))
    save("result-%s.json" % base, {
        "provenance": prov, "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems, "metrics": metrics,
        "values": values,
        "repetitions": untraced + traced})
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def selftest():
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = load_spec()
    problems = []
    if subprocess.run([TEST_EXE]).returncode != 0:
        problems.append("percentile unit tests failed")
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != WORKLOADS:
        problems.append("BENCHMARK.json workloads %s != %s"
                        % (names, list(WORKLOADS)))
    for workload in WORKLOADS:
        tag = "selftest-%s" % workload
        u, pu = run_rep(workload, 7, "tiny", False, tag + "-u", REP_TIMEOUT_S)
        t, pt = run_rep(workload, 7, "tiny", True, tag + "-t", REP_TIMEOUT_S)
        problems += pu + pt
        if u is None or t is None:
            continue
        if not same_digest(u, t):
            problems.append("%s: traced and untraced digests differ" % workload)
        try:
            select(spec["end_to_end"], end_to_end([u]))
            select(spec["per_layer"], per_layer([u], [t]))
        except BenchError as e:
            problems.append("%s: %s" % (workload, e))
        log("selftest %s: tiny pair %s" % (workload,
                                           "ok" if not pu + pt else "FAILED"))
    for p in problems:
        log("FAILED: " + p)
    log("selftest: %s" % ("pass" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 0:
            ap.error("--seed must be >= 0")
        return bench(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
