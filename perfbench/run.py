#!/usr/bin/env python3
"""End-to-end benchmark for the aspen libraries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/driver.cpp against ../src (CMake, RelWithDebInfo, contract
level 1) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload, checks its outputs, and prints a detailed report
followed by one result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md).  The detailed report, with every metric tagged
host or sim and the environment block, is also saved under the build
directory's results/ for perfbench/compare.py.  Exit codes: 0 all checks
passed, 1 an output check failed, 2 usage or build error.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
RUN_BUDGET_S = 170.0

# name -> (reference seed, held-out seed).  The reference seed is the one
# the shapes were measured on; the held-out seed was not used while tuning,
# so a later claim can be re-checked on it.
WORKLOADS = {
    "flows_anp_k16": (7, 11),
    "survive_k8": (42, 43),
    "serve_k8": (17, 18),
}

# Every metric the benchmark emits: name -> (unit, tag, description).
# tag "host" is wall/CPU time or memory on the machine that ran it; "sim" is a
# deterministic simulated outcome or count.
E2E = {
    "setup_s": ("s", "host", "median set-up CPU time (user+sys, all "
                "threads): topology build plus ChaosCampaign and FlowPlane "
                "or SnapshotRegistry construction, or the failure-domain "
                "model"),
    "ops_per_cpu_s": ("1/s", "host", "flows admitted, samples or queries of "
                      "one campaign over its median CPU time (user+sys, all "
                      "threads)"),
    "peak_rss_mb": ("MB", "host", "VmHWM at the end of the workload"),
    "ops_per_s": ("1/s", "host", "flows admitted, samples or queries of one "
                  "campaign over its median wall time"),
    "setup_wall_s": ("s", "host", "median set-up wall time"),
    "failed_share": ("share", "sim", "lost+inflight/admitted, unanswered/"
                     "queries, or quarantined/samples"),
    "check_failures": ("count", "sim", "output checks that failed"),
}
# The end-to-end metrics on the result line (BENCHMARK.json end_to_end).
# The two times are CPU times: they leave out the time the host gave to
# others (vCPU steal, other processes), which wall times on a shared host
# do not.  The wall-time figures are in the detailed report.
E2E_GATED = ("setup_s", "ops_per_cpu_s", "peak_rss_mb")

PER_LAYER = {
    "topo.build_ms": ("ms", "host", "Topology::build in the traced run"),
    "fault.campaign_setup_ms": ("ms", "host", "ChaosCampaign constructor"),
    "fault.advance_ms": ("ms", "host", "ChaosCampaign::advance, total"),
    "fault.advance_ms.p50": ("ms", "host", "per action"),
    "fault.advance_ms.p99": ("ms", "host", "per action"),
    "fault.finish_ms": ("ms", "host", "ChaosCampaign::finish"),
    "sim.us_per_event": ("us", "host", "advance time / sim.events_dispatched"),
    "traffic.step_ms": ("ms", "host", "FlowPlane::step, total"),
    "traffic.step_ms.p50": ("ms", "host", "per epoch"),
    "traffic.step_ms.p99": ("ms", "host", "per epoch"),
    "traffic.admit_ms": ("ms", "host", "FlowPlane::admit_uniform, total"),
    "traffic.walks_per_s": ("1/s", "host", "flow.attempted / step time"),
    "routing.full_ms": ("ms", "host", "compute_updown_routes at N threads"),
    "routing.full_ms.t1": ("ms", "host", "compute_updown_routes at 1 thread"),
    "routing.full_speedup": ("x", "host", "full_ms.t1 / full_ms"),
    "routing.delta_apply_us.p50": ("us", "host", "DeltaSession::apply"),
    "routing.delta_apply_us.p99": ("us", "host", "DeltaSession::apply"),
    "routing.delta_rollback_us.p50": ("us", "host", "DeltaSession::rollback"),
    "routing.delta_rollback_us.p99": ("us", "host", "DeltaSession::rollback"),
    "routing.state_copy_us": ("us", "host", "copy of a pinned RoutingState"),
    "survive.steps_per_sample": ("count", "sim", "failure steps per sample"),
    "survive.full_rows_per_sample": ("count", "sim", "rows fully recomputed"),
    "survive.patched_switches_per_sample": ("count", "sim",
                                            "switch rows patched"),
    "survive.audits": ("count", "sim", "audited samples"),
    "survive.rollback_rebuilds": ("count", "sim", "digest drift at unwind"),
    "serve.execute_us.route.p50": ("us", "host", "execute_query, route"),
    "serve.execute_us.route.p99": ("us", "host", "execute_query, route"),
    "serve.execute_us.what_if.p50": ("us", "host", "execute_query, what-if"),
    "serve.execute_us.what_if.p99": ("us", "host", "execute_query, what-if"),
    "serve.execute_us.loss.p50": ("us", "host", "execute_query, loss"),
    "serve.execute_us.loss.p99": ("us", "host", "execute_query, loss"),
    "serve.seal_ms": ("ms", "host", "SnapshotRegistry::seal, median"),
    "serve.checkpoint_ms": ("ms", "host", "Server::checkpoint, median"),
    "serve.restore_ms": ("ms", "host", "Server::restore, median"),
    "serve.cache_hit_rate": ("share", "sim", "hits / (hits + misses)"),
    "serve.retry_ratio": ("x", "sim", "serve.requests / queries"),
    "serve.client_retransmits": ("count", "sim", "client retransmits"),
    "proc.sys_share": ("share", "host", "sys CPU / wall, untraced iteration"),
    "proc.minor_faults": ("count", "host", "minor page faults, untraced "
                          "iteration"),
    "proc.cpu_util": ("share", "host", "(user+sys) / (wall x threads)"),
    "trace.overhead_s": ("s", "host", "traced minus untraced wall time"),
    "trace.coverage": ("share", "host", "share of the traced workload's "
                       "wall time covered by library-call spans"),
}
# Counters read from the obs registry in the traced iteration.
COUNTERS = (
    "sim.events_dispatched", "anp.msgs_sent", "channel.sent_total",
    "chaos.checks", "flow.attempted", "flow.rerouted",
    "routing.full_recomputes", "routing.incremental_patches",
    "routing.rows_full_recompute", "routing.rows_patched",
    "routing.rows_escalated", "serve.requests", "serve.admitted",
    "serve.duplicate_replays", "serve.coalesced", "serve.seals",
    "serve.checkpoints", "serve.cache.hit", "serve.cache.miss",
)
for _name in COUNTERS:
    PER_LAYER[_name] = ("count", "sim", "obs counter")
# On survive_k8, the routing counters that the SurvivabilityAccumulators
# also keep: obs counter -> survive_report field.
SURVIVE_ROUTING = {
    "routing.rows_full_recompute": "full_rows",
    "routing.rows_patched": "patched_switches",
}
# Run-level bar on the traced run: the share of the traced iteration's wall
# time that library-call spans must cover.
MIN_COVERAGE = 0.9
# Layers whose self time the traced report breaks out as self_ms.<layer>.
LAYERS = ("run", "topo", "fault", "traffic", "routing", "analysis", "serve")
for _layer in LAYERS:
    PER_LAYER["self_ms." + _layer] = ("ms", "host",
                                      "self time of the layer's spans")
# The per-layer metrics on the result line (BENCHMARK.json per_layer):
# the ones measured on every workload.  routing.full_recomputes is not one:
# run_survivability pauses the obs registry around its sharded region, so
# on survive_k8 the routing counters are silent and the row counts come from
# the SurvivabilityAccumulators instead (see layer_metrics).
PER_LAYER_GATED = (
    "topo.build_ms", "routing.full_ms", "routing.full_ms.t1",
    "routing.full_speedup", "routing.delta_apply_us.p50",
    "routing.delta_apply_us.p99", "routing.delta_rollback_us.p50",
    "routing.delta_rollback_us.p99", "routing.state_copy_us",
    "routing.rows_full_recompute",
    "proc.sys_share", "proc.minor_faults", "proc.cpu_util",
    "trace.overhead_s", "trace.coverage", "self_ms.run", "self_ms.topo",
)


# ---- pure helpers (perfbench/test_run.py covers these) --------------------

def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 1]; None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = p * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def covered(intervals, start, end):
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    `spans` is a list of (name, start, end, parent_index) as the driver
    writes them; returns a list of self times in the same order.
    """
    children = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children[i], start, end)
            for i, (_, start, end, _) in enumerate(spans)]


def coverage(spans):
    """1 - self time of the `run` root / its duration: the share of the
    traced iteration spent inside library-call spans."""
    selfs = self_times(spans)
    run = next(i for i, (name, _, _, parent) in enumerate(spans)
               if name == "run" and parent < 0)
    return 1.0 - selfs[run] / (spans[run][2] - spans[run][1])


def descendants(spans, root):
    """Indices of every span below `root` (spans are written parent-first)."""
    inside = {root}
    out = []
    for i, (_, _, _, parent) in enumerate(spans):
        if parent in inside:
            inside.add(i)
            out.append(i)
    return out


def metric(name, value, catalogue):
    unit, tag, _ = catalogue[name]
    return {"value": value, "unit": unit, "tag": tag}


def gate(raw, recorded):
    """Runs the output checks.

    `recorded` maps str(seed) -> fingerprint for this workload.  Returns
    (lines, failed_ops): lines are (iteration index or None for a run-level
    check, name, ok, detail); failed_ops counts the operations of every
    iteration that failed a check, and all of them when a run-level check
    failed.
    """
    seed = str(raw["seed"])
    its = raw["iterations"]
    source = "recorded" if seed in recorded else "first iteration's"
    expected = recorded.get(seed, its[0]["fingerprint"])
    lines = []
    for i, it in enumerate(its):
        for c in it["checks"]:
            lines.append((i, f"iteration {i}: {c['name']}", c["ok"],
                          c["detail"]))
        lines.append((i, f"iteration {i}: fingerprint == {source}",
                      it["fingerprint"] == expected,
                      f"{it['fingerprint']} vs {expected}"))
    for c in raw.get("checks", []):
        lines.append((None, c["name"], c["ok"], c["detail"]))
    if "spans" in raw:
        cov = coverage([tuple(s) for s in raw["spans"]])
        lines.append((None, f"trace.coverage >= {MIN_COVERAGE}",
                      cov >= MIN_COVERAGE, f"{cov:.4f}"))
    bad = {i for i, _, ok, _ in lines if not ok}
    ops = [it["ops"] for it in its]
    failed_ops = sum(ops) if None in bad else sum(ops[i] for i in bad)
    return lines, failed_ops


def e2e_metrics(raw):
    its = raw["iterations"]
    setups = [it["setup_cpu_s"] for it in its] + raw["setup_only_cpu_s"]
    setups_wall = [it["setup_s"] for it in its] + raw["setup_only_s"]
    ops = sum(it["ops"] for it in its)

    def rate(key):
        return statistics.median(it["ops"] / it[key] for it in its)

    return {
        "setup_s": metric("setup_s", statistics.median(setups), E2E),
        "ops_per_cpu_s": metric("ops_per_cpu_s", rate("run_cpu_s"), E2E),
        "peak_rss_mb": metric("peak_rss_mb", raw["peak_rss_mb"], E2E),
        "ops_per_s": metric("ops_per_s", rate("run_s"), E2E),
        "setup_wall_s": metric("setup_wall_s", statistics.median(setups_wall),
                               E2E),
        "failed_share": metric("failed_share",
                               sum(it["failed"] for it in its) / ops, E2E),
    }


def layer_metrics(raw):
    spans = [tuple(s) for s in raw["spans"]]
    selfs = self_times(spans)
    roots = {name: i for i, (name, _, _, parent) in enumerate(spans)
             if parent < 0}
    out = {}

    def put(name, value):
        if value is not None:
            out[name] = metric(name, value, PER_LAYER)

    def durations(root, name, scale):
        if root not in roots:
            return []
        return [(spans[i][2] - spans[i][1]) * scale
                for i in descendants(spans, roots[root])
                if spans[i][0] == name]

    def total(root, name, scale):
        values = durations(root, name, scale)
        return sum(values) if values else None

    run = roots["run"]
    in_run = descendants(spans, run)
    for layer in LAYERS:
        members = [i for i in [run] + in_run
                   if spans[i][0].split(".")[0] == layer]
        put("self_ms." + layer, sum(selfs[i] for i in members) * 1e3)
    put("trace.coverage", coverage(spans))
    put("trace.overhead_s", raw["traced_wall_s"] - raw["untraced_wall_s"])

    put("topo.build_ms", total("run", "topo.build", 1e3))
    put("fault.campaign_setup_ms", total("run", "fault.campaign_setup", 1e3))
    advance = durations("run", "fault.advance", 1e3)
    if advance:
        put("fault.advance_ms", sum(advance))
        put("fault.advance_ms.p50", percentile(advance, 0.50))
        put("fault.advance_ms.p99", percentile(advance, 0.99))
    put("fault.finish_ms", total("run", "fault.finish", 1e3))
    step = durations("run", "traffic.step", 1e3)
    if step:
        put("traffic.step_ms", sum(step))
        put("traffic.step_ms.p50", percentile(step, 0.50))
        put("traffic.step_ms.p99", percentile(step, 0.99))
    put("traffic.admit_ms", total("run", "traffic.admit", 1e3))

    counters = raw["counters"].get("counters", {})
    survive = raw.get("survive_report")
    for name in COUNTERS:
        if survive and name.startswith("routing."):
            # Silent under run_survivability's PauseObs; report what the
            # accumulators kept, and nothing for the rest.
            if name in SURVIVE_ROUTING:
                put(name, survive[SURVIVE_ROUTING[name]])
        else:
            put(name, counters.get(name, 0))
    events = counters.get("sim.events_dispatched", 0)
    if advance and events:
        put("sim.us_per_event", sum(advance) * 1e3 / events)
    if step and counters.get("flow.attempted"):
        put("traffic.walks_per_s", counters["flow.attempted"] / sum(step) * 1e3)

    full = durations("probe.routing", "routing.full", 1e3)
    full_t1 = durations("probe.routing", "routing.full.t1", 1e3)
    put("routing.full_ms", statistics.median(full))
    put("routing.full_ms.t1", statistics.median(full_t1))
    put("routing.full_speedup",
        statistics.median(full_t1) / statistics.median(full))
    for name in ("delta_apply", "delta_rollback"):
        values = durations("probe.routing", "routing." + name, 1e6)
        put(f"routing.{name}_us.p50", percentile(values, 0.50))
        put(f"routing.{name}_us.p99", percentile(values, 0.99))
    put("routing.state_copy_us", statistics.median(
        durations("probe.routing", "routing.state_copy", 1e6)))

    if survive:
        samples = survive["samples"]
        put("survive.steps_per_sample", survive["sum_steps"] / samples)
        put("survive.full_rows_per_sample", survive["full_rows"] / samples)
        put("survive.patched_switches_per_sample",
            survive["patched_switches"] / samples)
        put("survive.audits", survive["audits"])
        put("survive.rollback_rebuilds", survive["rollback_rebuilds"])

    serve = raw.get("serve_report")
    if serve:
        for kind in ("route", "what_if", "loss"):
            values = durations("probe.serve", "serve.execute." + kind, 1e6)
            put(f"serve.execute_us.{kind}.p50", percentile(values, 0.50))
            put(f"serve.execute_us.{kind}.p99", percentile(values, 0.99))
        for name in ("seal", "checkpoint", "restore"):
            values = durations("probe.serve", "serve." + name, 1e3)
            if values:
                put(f"serve.{name}_ms", statistics.median(values))
        lookups = serve["cache_hits"] + serve["cache_misses"]
        put("serve.cache_hit_rate",
            serve["cache_hits"] / lookups if lookups else 0.0)
        put("serve.retry_ratio",
            counters.get("serve.requests", 0) / raw["shape"]["ops"])
        put("serve.client_retransmits", serve["retransmits"])

    proc = raw["proc"]
    put("proc.sys_share", proc["sys_s"] / proc["wall_s"])
    put("proc.minor_faults", proc["minor_faults"])
    put("proc.cpu_util", (proc["user_s"] + proc["sys_s"]) /
        (proc["wall_s"] * raw["env"]["threads"]))
    return out


def largest_self(raw, root):
    """Span name with the largest summed self time below `root`."""
    spans = [tuple(s) for s in raw["spans"]]
    selfs = self_times(spans)
    roots = {name: i for i, (name, _, _, parent) in enumerate(spans)
             if parent < 0}
    if root not in roots:
        return None
    by_name = {}
    for i in descendants(spans, roots[root]):
        by_name[spans[i][0]] = by_name.get(spans[i][0], 0.0) + selfs[i]
    return max(by_name, key=by_name.get) if by_name else None


# ---- environment -----------------------------------------------------------

def source_digest():
    """sha256 over the library sources, the program's revision in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def environment(raw):
    env = dict(raw["env"])
    env.update({
        "workload": raw["workload"],
        "seed": raw["seed"],
        "revision": git_revision(),
        "source_digest": source_digest(),
        "note": "Tier-1 default build (RelWithDebInfo, ASPEN_AUDIT_LEVEL 1); "
                "Release does not compile warning-clean on GCC 12.2",
    })
    return env


# The environment fields that name the code under test rather than the
# machine; compare.py lets only these differ.
REVISION_FIELDS = ("revision", "source_digest")


# ---- build and run ---------------------------------------------------------

def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() \
        / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no aspen sources at {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = min(4, os.cpu_count() or 1)
    steps.append(["cmake", "--build", str(out), "-j", str(jobs),
                  "--target", "aspen_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "aspen_perfbench"


def load_recorded(workload):
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text()).get(workload, {})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        fail(f"driver ran past the {RUN_BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"driver exited {proc.returncode}")
    raw = json.loads(proc.stdout)

    recorded = load_recorded(args.workload)
    checks, failed_ops = gate(raw, recorded)
    failures = sum(1 for _, _, ok, _ in checks if not ok)

    e2e = e2e_metrics(raw)
    e2e["check_failures"] = metric("check_failures", failures, E2E)
    report = {
        "env": environment(raw),
        "shape": raw["shape"],
        "seeds": dict(zip(("reference", "held_out"), WORKLOADS[args.workload])),
        "iterations": [{k: it[k] for k in ("setup_s", "run_s", "setup_cpu_s",
                                           "run_cpu_s", "ops", "failed",
                                           "fingerprint")}
                       for it in raw["iterations"]],
        "fingerprint_recorded": str(args.seed) in recorded,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for _, n, ok, d in checks],
        "end_to_end": e2e,
    }
    result_metrics = {n: {"value": e2e[n]["value"], "unit": e2e[n]["unit"]}
                      for n in E2E_GATED}
    if args.trace == 1:
        layers = layer_metrics(raw)
        report["per_layer"] = layers
        report["largest_self"] = {"run": largest_self(raw, "run"),
                                  "probe.serve": largest_self(raw,
                                                              "probe.serve")}
        result_metrics = {n: {"value": layers[n]["value"],
                              "unit": layers[n]["unit"]}
                          for n in PER_LAYER_GATED}

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failures == 0,
        "attempted": sum(it["ops"] for it in raw["iterations"]),
        "failed": failed_ops,
        "metrics": result_metrics,
    }))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
