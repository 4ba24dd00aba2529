#!/usr/bin/env python3
"""End-to-end benchmark for rdp: the one command that builds rdp_bench,
runs the workloads, checks their outputs and prints every metric.

  python3 bench/e2e/run.py [--seed=S] [--out=F] [--trace] [--smoke]
      Every workload in BENCHMARK.json, processes interleaved round-robin
      across workloads. Prints each metric by name with its unit, writes
      the raw samples to F (default build-e2e/results-seed<S>.json) and exits
      non-zero if any check failed. --trace adds one traced process per
      workload (Chrome trace + per-layer self-time table under
      build-e2e/traces/). --smoke runs 1/50-size inputs once each.

  python3 bench/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
      One workload, measured for about T seconds. The last line of stdout
      is one JSON object {"correct", "attempted", "failed", "metrics"}
      holding every end-to-end metric (--trace 0) or every per-layer
      metric (--trace 1, which runs the traced process alone) of
      BENCHMARK.json.

  python3 bench/e2e/run.py --compare A.json[,A2.json...] B.json[,B2.json...]
      Per (metric, workload): improved, unchanged, regressed or unresolved,
      judged against the bounds in BENCHMARK.json over the runs (fresh
      processes) pooled from each side's result files.

rdp_bench is built from ../../src into build-e2e/ at the checkout root
(CMake, Release). See bench/e2e/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "rdp_bench"
REFERENCE_RESULTS = ROOT / "docs" / "RESULTS.md"

# Fresh processes per workload and run. Each gets an equal share of the
# run's seconds for its timed passes, after its own set-up and warm-up.
PROCESSES = 3
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850

# A shared host's speed drifts by up to 1.5x over minutes. rdp_bench times
# a fixed reference kernel (fill and sort 4 MiB, no library code) right
# after every pass, and adj_wall_s / setup_s scale each time t by the
# kernel time k next to it: t * (REFERENCE_KERNEL_S / k) ** exponent.
# The exponent is how a workload's pass follows the host. Most workloads
# slow down with the kernel (1: over four ten-seed sweeps the widest
# spread fell from 32% raw to 8% on serve-steady and from 19% to 11% on
# repro-paper). phase2-variants does not (0: raw spreads 2.4-14%,
# kernel-divided up to 35%).
REFERENCE_KERNEL_S = 0.05
HOST_SPEED_EXPONENT = {"serve-steady": 1, "serve-burst": 1, "batch-paper": 1,
                       "phase2-variants": 0, "repro-paper": 1}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Build and run rdp_bench.


def build():
    """Configures (once) and builds build-e2e/rdp_bench. Raises on failure."""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured from another checkout
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "rdp_bench"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_process(workload, seed, seconds, smoke, trace_path=None):
    """One rdp_bench process; returns its JSON report, or a stub that records
    why it produced none."""
    work_dir = BUILD / "work" / workload
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={work_dir}",
           f"--reference={REFERENCE_RESULTS}"]
    if smoke:
        cmd.append("--smoke")
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={trace_path}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else None
        error = None if report else f"exit {proc.returncode} with no report"
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        report, error = None, str(exc)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return report or {"error": f"{workload}: {error}", "checks_attempted": 1,
                      "checks_failed": 1}


# ---------------------------------------------------------------------------
# Metrics.


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def adjusted_walls(report):
    """Each pass's wall time, adjusted by the reference kernel time next to it."""
    exponent = HOST_SPEED_EXPONENT[report["workload"]]
    return [w * (REFERENCE_KERNEL_S / k) ** exponent
            for w, k in zip(report["wall_s"], report["reference_s"])]


def adjusted_setup(report):
    """Set-up time, adjusted by the process's median reference kernel time."""
    exponent = HOST_SPEED_EXPONENT[report["workload"]]
    kernel = statistics.median(report["reference_s"])
    return report["setup_s"] * (REFERENCE_KERNEL_S / kernel) ** exponent


def layer_metric_name(key):
    """rdp_bench layer keys to metric names: 'serve.dispatch' -> 'serve.dispatch_s',
    'sim.dispatch.ls-group-8' -> 'sim.dispatch_s.ls-group-8'."""
    parts = key.split(".", 2)
    parts[1] += "_s"
    return ".".join(parts)


def summarize(workload, runs, traced):
    """Folds the processes of one workload into metrics and check counts."""
    processes = runs + ([traced] if traced else [])
    reports = [r for r in processes if "error" not in r]
    attempted = sum(r["checks_attempted"] for r in processes)
    failed = sum(r["checks_failed"] for r in processes)
    failures = [r["error"] for r in processes if "error" in r]
    for r in reports:
        failures += r["failures"]
    # Outputs are deterministic in the seed: every process must agree.
    for r in reports[1:]:
        for key in ("digest", "exact"):
            attempted += 1
            if r[key] != reports[0][key]:
                failed += 1
                failures.append(f"{workload}: {key} differs between processes")

    out = {"workload": workload, "attempted": attempted, "failed": failed,
           "failures": failures, "end_to_end": {}, "exact": {}, "per_layer": {}}
    if reports:
        out["exact"] = dict(reports[0]["exact"])
    timed = [r for r in runs if "error" not in r]
    if timed:
        summarize_end_to_end(out["end_to_end"], timed, failed / attempted)
    if traced and "error" not in traced:
        summarize_per_layer(out, traced, failed / attempted)
    return out


def summarize_end_to_end(e2e, timed, failed_frac):
    """Timings of the untraced processes, with quartiles and samples."""
    walls = [w for r in timed for w in adjusted_walls(r)]
    setups = [adjusted_setup(r) for r in timed]
    rss = [r["peak_rss_mb"] for r in timed]
    raw_walls = [w for r in timed for w in r["wall_s"]]
    raw_setups = [r["setup_s"] for r in timed]
    references = [k for r in timed for k in r["reference_s"]]
    for name, samples, value in (("adj_wall_s", walls, statistics.median(walls)),
                                 ("setup_s", setups, statistics.median(setups)),
                                 ("peak_rss_mb", rss, max(rss)),
                                 ("raw_wall_s", raw_walls, statistics.median(raw_walls)),
                                 ("raw_setup_s", raw_setups, statistics.median(raw_setups)),
                                 ("reference_s", references, statistics.median(references))):
        q1, q3 = quartiles(samples)
        e2e[name] = {"value": value, "q1": q1, "q3": q3, "n": len(samples),
                     "samples": samples}
    tasks = timed[0]["tasks_per_pass"]
    if tasks:
        e2e["tasks_per_sec"] = {"value": tasks / e2e["adj_wall_s"]["value"], "n": len(walls)}
    e2e["failed_frac"] = {"value": failed_frac}


def summarize_per_layer(out, traced, failed_frac):
    """Per-layer medians over the traced process's traced passes."""
    per = out["per_layer"]
    median = {k: statistics.median(v) for k, v in traced["layers_s"].items()}
    for key, value in median.items():
        per[layer_metric_name(key)] = value
    for key, value in traced["setup_layers_s"].items():
        per[layer_metric_name(key)] = value
    per["sim.warmup_s"] = traced["warmup_wall_s"] - statistics.median(traced["wall_s"])
    per["host.reference_s"] = statistics.median(traced["reference_s"])
    if "serve.dispatch" in median:
        per["serve.ns_per_task"] = median["serve.dispatch"] / traced["tasks_per_pass"] * 1e9
        per["serve.offline_ratio"] = (median["serve.offline_reference"] /
                                      median["serve.dispatch"])
    for key, series in traced["observed"].items():
        per[key] = statistics.median(series)
    per.update(traced["exact"])
    if traced["untraced_wall_s"]:  # the traced process alternates passes
        per["trace.overhead_ratio"] = (statistics.median(traced["wall_s"]) /
                                       statistics.median(traced["untraced_wall_s"]))
    per["failed_frac"] = failed_frac
    out["trace"] = traced.get("trace")
    out["selftime_table"] = traced.get("selftime_table")


def print_summary(summary, spec, seed):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(tasks_per_sec="tasks/s", raw_wall_s="s", raw_setup_s="s", reference_s="s")
    e2e = summary["end_to_end"]
    print(f"== {summary['workload']}  seed {seed}  "
          f"({e2e.get('adj_wall_s', {}).get('n', 0)} timed passes) ==")
    for name, m in e2e.items():
        extra = ""
        if "q1" in m:
            extra = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
        print(f"  {name:<34} {m['value']:<14.6g} {units.get(name, ''):<8}{extra}")
    for name, value in sorted(summary["exact"].items()):
        print(f"  {name:<34} {value:<14.10g} {units.get(name, ''):<8}  exact")
    if summary["per_layer"]:
        print("  -- per layer (traced process) --")
        for name, value in sorted(summary["per_layer"].items()):
            if name in units and name not in summary["exact"]:
                print(f"  {name:<34} {value:<14.6g} {units[name]}")
        print(f"  trace: {summary['trace']}\n  self time: {summary['selftime_table']}")
    print(f"  checks: {summary['attempted'] - summary['failed']} of "
          f"{summary['attempted']} passed")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")


def trace_path(workload, seed):
    return BUILD / "traces" / f"{workload}-seed{seed}.trace.json"


# ---------------------------------------------------------------------------
# Modes.


def measure(names, args, spec, untraced=True):
    """Runs the workloads' processes round-robin (so drift on a shared
    machine spreads evenly across workloads), then one traced process each
    if asked; prints every summary and writes the raw samples to --out.
    untraced=False runs the traced process alone, for the whole budget."""
    processes = 1 if args.smoke else PROCESSES
    share = 0 if args.smoke else args.seconds / processes  # 0: one timed pass
    runs = {name: [] for name in names}
    for index in range(processes if untraced else 0):
        for name in names:
            log(f"run.py: {name} process {index + 1}/{processes}")
            runs[name].append(run_process(name, args.seed, share, args.smoke))
    traced = {}
    if args.trace:
        traced_share = share if untraced or args.smoke else args.seconds
        for name in names:
            log(f"run.py: {name} traced process")
            traced[name] = run_process(name, args.seed, traced_share, args.smoke,
                                       trace_path(name, args.seed))

    results = {"seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
               "processes": processes if untraced else 0, "workloads": {}}
    for name in names:
        summary = summarize(name, runs[name], traced.get(name))
        print_summary(summary, spec, args.seed)
        summary["runs"] = runs[name] + ([traced[name]] if name in traced else [])
        results["workloads"][name] = summary
    suffix = f"-{names[0]}" if len(names) == 1 else ""
    out = Path(args.out) if args.out else BUILD / f"results{suffix}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {out}")
    return results["workloads"]


def single_run(args, spec):
    """One workload; the last stdout line is the JSON result."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"run.py: unknown workload '{args.workload}' (one of {', '.join(names)})")
        return 2
    # Per-layer metrics all come from the traced process, so --trace 1
    # spends the whole budget on it.
    summary = measure([args.workload], args, spec, untraced=not args.trace)[args.workload]
    if args.trace:
        metrics = {m["name"]: {"value": summary["per_layer"].get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": summary["end_to_end"].get(m["name"], {})
                               .get("value", 0.0), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = summary["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


def full_run(args, spec):
    summaries = measure([w["name"] for w in spec["workloads"]], args, spec)
    failed = sum(s["failed"] for s in summaries.values())
    print("ALL CHECKS PASSED" if failed == 0 else f"{failed} CHECKS FAILED")
    return 0 if failed == 0 else 1


def verdict(a, b, better, bound):
    """Judges B against A over run values: a median worse than the
    bound regresses; a run-to-run spread wider than the bound leaves the
    metric unresolved unless one side wins every pairing; a gain needs 90%
    of pairings and a median shift larger than A's interquartile range."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1 if better == "lower" else -1
    change = sign * (mb - ma) / ma  # > 0 means worse
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    spread = max((a3 - a1) / ma, (b3 - b1) / mb)
    pairs = [sign * (y - x) for x in a for y in b]
    wins = sum(p < 0 for p in pairs) / len(pairs)
    losses = sum(p > 0 for p in pairs) / len(pairs)
    if spread > bound:
        verdict_ = "improved" if wins == 1 else "regressed" if losses == 1 else "unresolved"
    elif change > bound:
        verdict_ = "regressed"
    elif change < 0 and abs(mb - ma) > a3 - a1 and wins >= 0.9:
        verdict_ = "improved"
    else:
        verdict_ = "unchanged"
    return verdict_, change, spread


def run_values(summary, metric):
    """One value per untraced process: every process is a fresh run of the
    workload, so these are the runs the verdict compares."""
    runs = [r for r in summary["runs"] if "error" not in r and not r["traced"]]
    if metric == "adj_wall_s":
        return [statistics.median(adjusted_walls(r)) for r in runs]
    if metric == "setup_s":
        return [adjusted_setup(r) for r in runs]
    return [r[metric] for r in runs]


def compare(paths_a, paths_b, spec):
    """Compares result files: each side is one file or a comma-separated
    list of files of the same commit, whose processes are pooled."""
    def load(paths):
        pooled = {}
        for path in paths.split(","):
            for name, summary in json.loads(Path(path).read_text())["workloads"].items():
                pooled.setdefault(name, []).append(summary)
        return pooled

    a, b = load(paths_a), load(paths_b)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload, side_a in a.items():
        side_b = b.get(workload)
        if not side_b:
            rows.append((workload, "*", "", "", "", "", "unresolved"))
            continue
        for m in spec["end_to_end"]:
            va = [v for s in side_a for v in run_values(s, m["name"])]
            vb = [v for s in side_b for v in run_values(s, m["name"])]
            if not va or not vb:
                rows.append((workload, m["name"], "", "", "", "", "unresolved"))
                continue
            v, change, spread = verdict(va, vb, m["better"], m["bound"])
            rows.append((workload, m["name"], f"{statistics.median(va):.6g}",
                         f"{statistics.median(vb):.6g}", f"{change:+.2%}",
                         f"{spread:.2%}", v))
        names = sorted({k for s in side_a + side_b for k in s["exact"]})
        for name in names:
            values_a = {json.dumps(s["exact"].get(name)) for s in side_a}
            values_b = {json.dumps(s["exact"].get(name)) for s in side_b}
            va, vb = side_a[0]["exact"].get(name), side_b[0]["exact"].get(name)
            if len(values_a | values_b) == 1:
                v = "unchanged"
            elif va is None or vb is None or len(values_a) > 1 or len(values_b) > 1:
                v = "unresolved"
            else:
                v = "improved" if (vb < va) == (better.get(name) == "lower") else "regressed"
            rows.append((workload, name, f"{va}", f"{vb}", "", "exact", v))
    header = ("workload", "metric", "A", "B", "B vs A", "spread", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    counts = {v: sum(r[-1] == v for r in rows)
              for v in ("improved", "unchanged", "regressed", "unresolved")}
    print("  ".join(f"{k}: {n}" for k, n in counts.items()))
    return 1 if counts["regressed"] else 0


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (result JSON on the last line)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1/50-size inputs, one pass")
    parser.add_argument("--out", help="results file of a full run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare, spec)
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        log(f"run.py: build failed: {exc}")
        return 1
    if args.workload:
        return single_run(args, spec)
    return full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
