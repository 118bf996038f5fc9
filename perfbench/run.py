#!/usr/bin/env python3
"""Campaign benchmark: inject / soak / fleet end to end, layer by layer.

    python3 perfbench/run.py --workload inject|soak|fleet --seed N \
        --seconds T --trace 0|1

Builds the harbor libraries and the benchmark runner from source (CMake,
RelWithDebInfo, into .bench_build/perfbench or $CARGO_TARGET_DIR/perfbench),
runs one workload for about T seconds, checks the simulated results, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
no spans. --trace 1 spends half of T on the untraced runner and half on the
traced one, and reports the per-layer metrics, including the tracing
overhead (traced minus untraced wall time per campaign run).

Every run writes its full record (environment, every metric, the failures
by name, the span ledger, workload-specific layer metrics) to
.perfbench_out/<workload>-seed<N>-trace<0|1>.json.

Correctness: every campaign run in a process must give identical simulated
results; the traced and untraced runners must agree; and where
perfbench/expected.json records the seed, the results must equal the record
(sim_cycles, inject outcome counts and escapes per mode, soak ok /
executed_cycles / fork digests, fleet digests and monitor verdicts).
Re-record after an intended change of simulated behaviour with

    python3 perfbench/run.py --record-expected FIRST LAST

Timings from an unoptimised or sanitizer build are refused (exit 3).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("inject", "soak", "fleet")
RUNNER_TIMEOUT_S = 170
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configure and build both runners; returns the build dir."""
    bdir = build_dir()
    r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    r = subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return bdir


def environment(bdir):
    """Compiler, build type, sanitizer flags and nproc of this build."""
    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
        cache.get("CMAKE_EXE_LINKER_FLAGS", ""),
    ]))
    sanitizer_flags = [f for f in flags.split() if f.startswith("-fsanitize")]
    return {
        "compiler": cache.get("CMAKE_CXX_COMPILER", "?"),
        "build_type": build_type,
        "cxx_flags": flags,
        "sanitizer_flags": sanitizer_flags,
        "optimized": True,
        "nproc": len(os.sched_getaffinity(0)),
    }


def add_binary_report(env, build_info):
    """What the runner says about its own compilation."""
    env["compiler"] += f" ({build_info['compiler']})"
    env["optimized"] = build_info["optimized"]
    if build_info["sanitizer"]:
        env["sanitizer_flags"].append(build_info["sanitizer"])


def refuse_unfit(env):
    if env["build_type"] not in OPTIMISED_BUILD_TYPES or not env["optimized"]:
        fail(f"refusing to publish timings from a '{env['build_type']}' build "
             "(needs Release or RelWithDebInfo)", 3)
    if env["sanitizer_flags"]:
        fail(f"refusing to publish timings from a sanitizer build: {env['sanitizer_flags']}", 3)


def launch(binary, workload, seed, seconds=None, reps=None):
    args = [str(binary), "--workload", workload, "--seed", str(seed)]
    args += ["--reps", str(reps)] if reps else ["--seconds", repr(seconds)]
    try:
        r = subprocess.run(args, capture_output=True, text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"{binary.name} exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def exact(run):
    """The simulated results that must repeat exactly."""
    return {k: run[k] for k in ("check", "sim_cycles", "instructions", "attempted", "failed")}


def median(xs):
    return statistics.median(xs)


def tail(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "p50": median(xs) if xs else 0.0, "tail_pct": 50.0, "tail": 0.0}
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            out["tail_pct"] = p
            out["tail"] = xs[min(n - 1, int(p / 100 * n))]
            break
    else:
        out["tail"] = out["p50"]
    return out


def end_to_end(run):
    setup = [s / 1e9 for s in run["setup_ns"]]
    walls = [w / 1e9 for w in run["wall_ns"]]
    cpus = [c / 1e9 for c in run["cpu_ns"]]
    inner = [s / 1e9 for s in run.get("inner_setup_ns", [])] or [median(setup)] * len(walls)
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(walls), "s"),
        "cpu_s": (median(cpus), "s"),
        "units_per_s": (median(run["units"] / (w - s) for w, s in zip(walls, inner)), "1/s"),
        "sim_cycles_per_s": (median(run["sim_cycles"] / w for w in walls), "1/s"),
        "sim_cycles": (run["sim_cycles"], "count"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(workload, plain, traced):
    """Per-layer metrics from the traced run (every workload reports each)."""
    t = traced["traced"]
    reps = t["reps"]
    spans = t["spans"]
    counters = {k: v / reps for k, v in t["counters"].items()}
    probe = t["probe"]
    camp = traced["campaign"]

    def rate(cfg):
        return probe[cfg]["ns"] / probe[cfg]["cycles"]

    def mean_us(name):
        s = spans[name]
        return s["total_ns"] / s["count"] / 1e3 if s["count"] else 0.0

    if workload == "soak":
        ring_acc = camp["umpu.ring_accepted"] + camp["sfi.ring_accepted"]
        ring_drop = camp["umpu.ring_dropped"] + camp["sfi.ring_dropped"]
    else:
        ring_acc, ring_drop = counters["ring_accepted"], counters["ring_dropped"]
    units = tail([u / 1e6 for u in t["unit_ns"]])
    outcomes = {k: 0 for k in ("benign", "contained", "rejected", "hung", "escape")}
    if workload == "inject":
        for mode in ("umpu", "sfi"):
            for k in outcomes:
                outcomes[k] += traced["check"][mode][k]

    m = {
        "avr.exec_ns_per_cycle": (rate("bare"), "ns"),
        "avr.run_ns_per_cycle": (spans["avr.device_run"]["self_ns"] / reps / traced["sim_cycles"], "ns"),
        "avr.decode_ns": (probe["decode_ns_per_instr"], "ns"),
        "avr.instructions": (traced["instructions"], "count"),
        "umpu.fabric_ns_per_cycle": (rate("fabric") - rate("bare"), "ns"),
        "umpu.mmc_checks": (counters["mmc_checks"], "count"),
        "umpu.denies": (counters["umpu_denies"], "count"),
        "trace.tracer_ns_per_cycle": (rate("traced") - rate("fabric"), "ns"),
        "trace.ring_accepted": (ring_acc, "count"),
        "trace.ring_dropped": (ring_drop, "count"),
        "trace.ring_retained_frac": ((ring_acc - ring_drop) / ring_acc if ring_acc else 1.0, "frac"),
        "trace.overhead_s": (median(traced["wall_ns"]) / 1e9 - median(plain["wall_ns"]) / 1e9, "s"),
        "prof.profiler_ns_per_cycle": (rate("profiled") - rate("fabric"), "ns"),
        "runtime.testbed_setup_us": (mean_us("runtime.testbed_ctor"), "us"),
        "runtime.call_us": (mean_us("runtime.call"), "us"),
        "asm.assemble_us": (mean_us("asm.assemble"), "us"),
        "sfi.rewrite_us": (mean_us("sfi.rewrite"), "us"),
        "sfi.verify_us": (mean_us("sfi.verify"), "us"),
        "sfi.verify_rejects": (counters["verify_rejects"], "count"),
        "analysis.elision_us": (mean_us("analysis.elision"), "us"),
        "sos.dispatches": (counters["dispatches"], "count"),
        "sos.faults": (counters["dispatch_faults"], "count"),
        "ota.flash_ops": (counters["flash_programs"] + counters["flash_erases"], "count"),
        "ota.erases": (counters["flash_erases"], "count"),
        "campaign.unit_ms.p50": (units["p50"], "ms"),
        "campaign.unit_ms.tail": (units["tail"], "ms"),
        "campaign.unit_ms.n": (units["n"], "count"),
    }
    for k, v in outcomes.items():
        m[f"inject.outcome.{k}"] = (v, "count")
    m["fleet.events"] = (camp.get("events", 0), "count")
    m["fleet.frames_sent"] = (camp.get("frames_sent", 0), "count")
    return m, units


def workload_layers(workload, traced, units):
    """Layer metrics that only exist on the workload whose path has them."""
    t = traced["traced"]
    reps = t["reps"]
    spans = t["spans"]
    camp = traced["campaign"]

    def per_call_us(name):
        s = spans[name]
        return s["total_ns"] / s["count"] / 1e3 if s["count"] else None

    out = {}
    if workload == "inject":
        out["inject.plan_s"] = spans["inject.plan"]["total_ns"] / reps / 1e9
        out["inject.oracle_us"] = per_call_us("inject.oracle_diff")
        covered = camp["umpu.guards_covered"] + camp["sfi.guards_covered"]
        total = camp["umpu.guards_total"] + camp["sfi.guards_total"]
        out["prof.guard_sites_covered_frac"] = covered / total if total else 1.0
        out["inject.mutant_ms"] = units
    if workload in ("soak", "fleet"):
        out["sos.dispatch_us"] = spans["sos.dispatch"]["total_ns"] / max(1, t["counters"]["dispatches"]) / 1e3
        out["ota.install_us"] = (spans["ota.install"]["total_ns"] / t["counters"]["store_installs"] / 1e3
                                 if t["counters"]["store_installs"] else None)
        out["ota.recover_us"] = per_call_us("ota.recover")
    if workload == "soak":
        out["soak.epoch_ms"] = units
        out["soak.checkpoint_ms"] = tail([c / 1e6 for c in t["checkpoint_ns"]])
        ex = camp["umpu.executed_cycles"] + camp["sfi.executed_cycles"]
        out["soak.executed_frac"] = ex / (ex + camp["umpu.skipped_cycles"] + camp["sfi.skipped_cycles"])
        out["sos.restarts"] = camp["umpu.restarts"] + camp["sfi.restarts"]
    if workload == "fleet":
        out["fleet.event_ns"] = spans["fleet.node_event"]["total_ns"] / max(1, spans["fleet.node_event"]["count"])
        out["fleet.checkpoint_ms"] = units
        out["fleet.chunk_useful_frac"] = (camp["chunks_staged"] / camp["chunks_served"]
                                          if camp["chunks_served"] else None)
    return out


def span_ledger(traced, wall_s):
    t = traced["traced"]
    reps = t["reps"]
    return {name: {"count": s["count"] / reps,
                   "total_ms": s["total_ns"] / reps / 1e6,
                   "self_ms": s["self_ns"] / reps / 1e6,
                   "self_share": s["self_ns"] / reps / 1e9 / wall_s}
            for name, s in t["spans"].items() if s["count"]}


def record_expected(first, last):
    bdir = build()
    runner = bdir / "perfbench-runner"
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for w in WORKLOADS:
        for seed in range(first, last + 1):
            table.setdefault(w, {})[str(seed)] = exact(launch(runner, w, seed, reps=1))
            print(f"recorded {w} seed {seed}", file=sys.stderr)
            EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", nargs=2, type=int, metavar=("FIRST", "LAST"))
    a = ap.parse_args()
    if a.record_expected:
        record_expected(*a.record_expected)
        return 0
    if not a.workload or a.seconds <= 0:
        ap.error("--workload and a positive --seconds are required")

    bdir = build()
    env = environment(bdir)
    refuse_unfit(env)
    if a.trace:
        plain = launch(bdir / "perfbench-runner", a.workload, a.seed, seconds=a.seconds / 2)
        traced = launch(bdir / "perfbench-runner-traced", a.workload, a.seed, seconds=a.seconds / 2)
    else:
        plain = launch(bdir / "perfbench-runner", a.workload, a.seed, seconds=a.seconds)
        traced = None
    add_binary_report(env, plain["build"])
    refuse_unfit(env)

    problems = []
    if not plain["stable"] or (traced and not traced["stable"]):
        problems.append("campaign runs in one process disagree on simulated results")
    if traced and exact(traced) != exact(plain):
        problems.append("traced and untraced runs disagree on simulated results")
    expected = json.loads(EXPECTED.read_text()).get(a.workload, {}) if EXPECTED.exists() else {}
    record = expected.get(str(a.seed))
    if record is not None and record != exact(plain):
        problems.append(f"simulated results differ from perfbench/expected.json (seed {a.seed})")
    correct = not problems

    e2e = end_to_end(plain)
    result = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "environment": env, "correct": correct, "problems": problems,
        "checked_against_record": record is not None,
        "campaign_runs": len(plain["wall_ns"]), "setup_runs": len(plain["setup_ns"]),
        "unit": plain["unit"], "units_per_run": plain["units"],
        "attempted": plain["attempted"], "failed": plain["failed"],
        "failed_frac": plain["failed"] / plain["attempted"],
        "failures": plain["failures"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "samples_s": {k: [x / 1e9 for x in plain[f"{k}_ns"]] for k in ("setup", "wall", "cpu")},
        "check": plain["check"], "campaign": plain["campaign"],
    }
    if traced:
        layers, units = per_layer(a.workload, plain, traced)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["workload_layers"] = workload_layers(a.workload, traced, units)
        result["spans"] = span_ledger(traced, median(traced["wall_ns"]) / 1e9)
        result["traced_campaign_runs"] = traced["traced"]["reps"]
        result["probe"] = traced["traced"]["probe"]
        metrics = layers
    else:
        metrics = e2e

    declared = [m["name"] for m in json.loads(SPEC.read_text())["per_layer" if traced else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {a.workload} seed {a.seed}: {env['compiler']}, {env['build_type']}, "
          f"nproc {env['nproc']}, {len(plain['wall_ns'])} campaign runs")
    for name, (v, unit) in metrics.items():
        print(f"  {name:28s} {v:.6g} {unit}")
    print(f"  failed {plain['failed']}/{plain['attempted']} ({result['failed_frac']:.3g})")
    for f in plain["failures"]:
        print(f"  FAILURE {f}")
    for p in problems:
        print(f"  INCORRECT {p}")
    print(f"  result file {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
