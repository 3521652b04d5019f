#!/usr/bin/env python3
"""Benchmark of the hybrid P2P simulator: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S

Run from the root of a checkout.  The script first builds the benchmark binary
hp2p_perfbench (perfbench/CMakeLists.txt, compiling ../src) into
.bench_build/, then runs it once for the named workload with the workload's
configuration from perfbench/workloads.json.  That process repeats untraced
experiments, each followed by a fixed reference kernel, for --seconds and,
with --trace 1, adds one profiled experiment and the outside net-layer
probes.  perfbench/README.md defines every metric.

Output: one "<workload> <metric> <value> <unit>" line per metric, one
"check <name>: ok|FAILED ..." line per output check, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  `attempted` counts the experiments run, `failed` those whose
outputs failed a check; lookup and join failures inside an experiment are
measured by op_success_ratio and bounded by a check.  --workload all runs every
workload (traced) and prints both metric sets; --scale toy shrinks each
workload to seconds for the smoke test.

Exit code 0 only when the build succeeded and every output check held.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hp2p_perfbench")
# hp2p_perfbench measures for --seconds, then may finish one more untraced
# call and, with --trace 1, a traced call and the net probes.
RUN_MARGIN_S = 140
MIN_ATTRIBUTED_FRACTION = 0.9
# End-to-end times are reported at reference speed: wall seconds scaled by
# REFERENCE_S / (the fixed reference kernel's time around the same call).
# The memory system of a shared host drifts by tens of percent over minutes,
# and the kernel's time tracks that drift, so the scaled times stay steady
# where raw ones do not.  Raw wall times are the exp.*_wall_s metrics.
REFERENCE_S = 0.13
COMPONENTS = ("membership", "ring", "flood", "data", "replication")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds hp2p_perfbench; returns False on failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4", "--target", "hp2p_perfbench"]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build failed:", err)
            return False
        if done.returncode != 0:
            log("build failed:", " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def measure(args, seed, seconds, trace):
    """Runs hp2p_perfbench once and returns its JSON record."""
    cmd = [BINARY] + args + ["--seed", str(seed), "--seconds", str(seconds),
                             "--trace", "1" if trace else "0"]
    # HP2P_AUDIT=1 would add periodic overlay audits to every call.
    env = {k: v for k, v in os.environ.items() if k != "HP2P_AUDIT"}
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=seconds + RUN_MARGIN_S, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("hp2p_perfbench exited with %d" % done.returncode)
    return json.loads(lines[-1])


def run_s(rep):
    return sum(p["wall_s"] for p in rep["phases"].values())


def phase(rep, name, key):
    return rep["phases"].get(name, {}).get(key, 0.0)


def op_fail_ratio(rep):
    failed = rep["lookups_failed"] + rep["joins_started"] - rep["joins_completed"]
    return failed / (rep["lookups_issued"] + rep["joins_started"])


def data_loss_ratio(rep):
    stored = rep["items_stored"]
    return 1.0 - rep["items_recoverable"] / stored if stored else 0.0


def speed_scale(record, i):
    """REFERENCE_S / the reference kernel's time around call i."""
    refs = record["ref_s"]
    around = refs[0] if i == 0 else (refs[i - 1] + refs[i]) / 2
    return REFERENCE_S / around


def scaled_median(record, seconds):
    """Median over the untraced calls of seconds(call) at reference speed."""
    return statistics.median(seconds(r) * speed_scale(record, i)
                             for i, r in enumerate(record["untraced"]))


def setup_s(rep):
    return rep["call_s"] - run_s(rep)


def end_to_end(record):
    first = record["untraced"][0]
    return {
        "run_s": (scaled_median(record, run_s), "s"),
        "setup_s": (scaled_median(record, setup_s), "s"),
        "peak_rss_mb": (record["peak_rss_bytes"] / 2**20, "MB"),
        "op_success_ratio": (1.0 - op_fail_ratio(first), "ratio"),
        "data_availability": (1.0 - data_loss_ratio(first), "ratio"),
    }


def per_layer(record, peers):
    reps = record["untraced"]
    u = reps[0]
    t = record["traced"]
    net = record["net"]
    prof = t["profile"]
    comps = prof["components"]
    median_run_s = statistics.median(run_s(r) for r in reps)

    def comp(name, key):
        return comps.get(name, {}).get(key, 0)

    def wall(name):
        return statistics.median(phase(r, name, "wall_s") for r in reps)

    msg_types = prof["message_types"].values()
    delivered = sum(m["messages"] for m in msg_types)
    traced_run_s = run_s(t)
    # Dispatch time the profiler attributes to no component: the kernel's own.
    kernel_ns = max(0, prof["dispatch_ns_total"] - prof["attributed_ns"])
    m = {
        "exp.run_wall_s": (median_run_s, "s"),
        "exp.setup_wall_s": (statistics.median(setup_s(r) for r in reps), "s"),
        "exp.ref_kernel_s": (statistics.median(record["ref_s"]), "s"),
        "exp.build_s": (wall("build"), "s"),
        "exp.populate_s": (wall("populate"), "s"),
        "exp.maintenance_s": (wall("maintenance"), "s"),
        "exp.lookup_s": (wall("lookup"), "s"),
        "exp.sim_s": (sum(p["sim_s"] for p in u["phases"].values()), "s"),
        "exp.lookup_phase_sim_s": (phase(u, "lookup", "sim_s"), "s"),
        "exp.workload.self_ms": (comp("workload", "cpu_ns") / 1e6, "ms"),
        "exp.op_fail_ratio": (op_fail_ratio(u), "ratio"),
        "exp.data_loss_ratio": (data_loss_ratio(u), "ratio"),
        "sim.events": (u["events"], "count"),
        "sim.events_per_s": (u["events"] / median_run_s, "1/s"),
        "sim.self_ns_per_event": (kernel_ns / t["events"], "ns"),
        "sim.allocs": (comp("kernel", "allocs") + comp("other", "allocs"), "count"),
        "net.underlay_build_s": (net["underlay_build_s"], "s"),
        "net.routing_mb": (net["routing_bytes"] / 2**20, "MB"),
        "net.latency_ns_p50": (net["latency_ns_p50"], "ns"),
        "net.latency_ns_p99": (net["latency_ns_p99"], "ns"),
        "net.latency_samples": (net["latency_samples"], "count"),
        "proto.messages": (u["messages_total"], "count"),
    }
    for cls in ("control", "query", "data", "heartbeat"):
        m["proto.messages." + cls] = (u["messages"][cls], "count")
    m["proto.bytes"] = (u["bytes"], "B")
    m["proto.drops"] = (u["drops"], "count")
    m["proto.self_ns_per_message"] = (
        sum(x["cpu_ns"] for x in msg_types) / delivered if delivered else 0.0, "ns")
    for c in COMPONENTS:
        m["hybrid.%s.self_ms" % c] = (comp(c, "cpu_ns") / 1e6, "ms")
        m["hybrid.%s.events" % c] = (comp(c, "events"), "count")
        m["hybrid.%s.allocs" % c] = (comp(c, "allocs"), "count")
        m["hybrid.%s.alloc_mb" % c] = (comp(c, "alloc_bytes") / 2**20, "MB")
    for key in ("replica_pushes", "re_replication_pushes",
                "anti_entropy_repairs", "read_repairs"):
        m["hybrid.replication." + key] = (u[key], "count")
    repairs = u["anti_entropy_repairs"] + u["read_repairs"]
    pushes = u["re_replication_pushes"]
    m["hybrid.replication.repair_yield"] = (repairs / pushes if pushes else 0.0, "ratio")
    m["hybrid.flood.query_msgs_per_lookup"] = (
        u["messages"]["query"] / max(1, u["lookups_issued"]), "count")
    m["hybrid.ring.hops_per_lookup"] = (
        u["success_hops"] / max(1, u["lookups_succeeded"]), "count")
    m["hybrid.bytes_per_peer"] = (record["peak_rss_bytes"] / peers, "B")
    m["common.allocs"] = (u["allocs"], "count")
    m["common.alloc_mb"] = (u["alloc_bytes"] / 2**20, "MB")
    traced_scaled = traced_run_s * speed_scale(record, len(reps))
    m["stats.trace_overhead"] = (traced_scaled / scaled_median(record, run_s), "ratio")
    m["profile.attributed_fraction"] = (prof["attributed_fraction"], "ratio")
    return m


DETERMINISTIC = ("events", "messages", "messages_total", "bytes", "drops",
                 "lookups_issued", "lookups_succeeded", "lookups_failed",
                 "joins_completed", "items_recoverable")


def ceiling(recorded, key, seed):
    """The recorded value of `key` for `seed`, or for a seed outside the
    recorded range the largest recorded value; returns (value, source)."""
    values = recorded[key]
    i = seed - recorded["first_seed"]
    if 0 <= i < len(values):
        return values[i], "seed %d" % seed
    return max(values), "max of %d seeds" % len(values)


def checks(record, config, seed):
    """Output checks: (name, ok, detail) triples."""
    reps = record["untraced"]
    first = reps[0]
    out = [("joins_complete",
            all(r["joins_completed"] == r["joins_started"] for r in reps),
            "%d/%d" % (first["joins_completed"], first["joins_started"]))]
    same = all(r[k] == first[k] for r in reps[1:] for k in DETERMINISTIC)
    out.append(("repetitions_identical", same, "%d runs" % len(reps)))
    if "traced" in record:
        t = record["traced"]
        keys = ("events", "messages", "lookups_succeeded")
        diff = [k for k in keys if t[k] != first[k]]
        out.append(("traced_matches_untraced", not diff,
                    "differs in " + ",".join(diff) if diff else
                    "events %d" % first["events"]))
        frac = t["profile"]["attributed_fraction"]
        out.append(("attributed_fraction", frac >= MIN_ATTRIBUTED_FRACTION,
                    "%.4f >= %.2f" % (frac, MIN_ATTRIBUTED_FRACTION)))
    for key, value in (("op_fail_ratio", op_fail_ratio(first)),
                       ("data_loss_ratio", data_loss_ratio(first))):
        limit, source = ceiling(config["recorded"], key, seed)
        out.append((key, value <= limit,
                    "%.6g <= %.6g recorded for %s" % (value, limit, source)))
    return out


def run_workload(name, spec, scale, seed, seconds, trace):
    """Measures one workload; returns (metrics by set, check list, experiments)."""
    config = spec[scale]
    record = measure(config["args"], seed, seconds, trace)
    peers = int(config["args"][config["args"].index("--peers") + 1])
    metrics = {"end_to_end": end_to_end(record)}
    if trace:
        metrics["per_layer"] = per_layer(record, peers)
    experiments = len(record["untraced"]) + (1 if trace else 0)
    return metrics, checks(record, config, seed), experiments


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    opts = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    names = list(workloads) if opts.workload == "all" else [opts.workload]
    if any(n not in workloads for n in names):
        log("unknown workload %s; choose from %s or all"
            % (opts.workload, ", ".join(workloads)))
        return 2
    if not build():
        return 1

    trace = opts.trace == 1 or opts.workload == "all"
    correct = True
    attempted = failed = 0
    final = {}
    for name in names:
        try:
            metrics, results, experiments = run_workload(
                name, workloads[name], opts.scale, opts.seed, opts.seconds, trace)
        except (RuntimeError, OSError, ValueError, KeyError,
                subprocess.TimeoutExpired) as err:
            log("%s: measurement failed: %s" % (name, err))
            return 1
        ok = all(passed for _, passed, _ in results)
        correct = correct and ok
        attempted += experiments
        failed += 0 if ok else experiments
        for set_name in ("end_to_end", "per_layer"):
            for metric, (value, unit) in metrics.get(set_name, {}).items():
                print("%s %s %r %s" % (name, metric, value, unit))
        for check, passed, detail in results:
            print("%s check %s: %s (%s)" % (name, check,
                                            "ok" if passed else "FAILED", detail))
        if opts.workload == "all":
            for set_name in ("end_to_end", "per_layer"):
                for metric, (value, unit) in metrics[set_name].items():
                    final[name + "/" + metric] = {"value": value, "unit": unit}
        else:
            chosen = metrics["per_layer" if trace else "end_to_end"]
            final = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
