"""Record a baseline: every workload over several seeds, plus one traced run
each, with machine metadata.

    python3 perfbench/baseline.py [--runs 10] [--out perfbench/baseline.json]
                                  [--workloads mc,verify,states,cli]
                                  [--against OLD.json]

Seeds are 1..runs; the seed loop is outermost, so each workload's runs are
spread over the whole session rather than bunched together.  For every
end-to-end metric the file records the ten values, their median and
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) /
median next to the metric's bound.  A later change may call a metric
unchanged only where the spread is below the bound; elsewhere the metric is
unresolved.  With --against, each median is also compared with the same
metric in an earlier baseline, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{r.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "resolved": spread <= bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--against", default=None, help="earlier baseline to compare medians with")
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            res, _ = run_once(w, seed, spec["run_seconds"], 0)
            results[w].append(res)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    out = {"machine": machine(), "run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for w in names:
        runs = results[w]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m: summary([r["metrics"][m]["value"] for r in runs], bounds[m]) for m in bounds
            },
        }
        if not args.no_trace:
            res, lines = run_once(w, 1, spec["run_seconds"], 1)
            entry["trace"] = {"correct": res["correct"], "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
            entry["trace"]["exact_counters"] = [ln for ln in lines if "exact counter" in ln]
        out["workloads"][w] = entry

    ok = True
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)
        for w in names:
            for m, s in out["workloads"][w]["end_to_end"].items():
                before = old["workloads"][w]["end_to_end"][m]["median"]
                better = next(x["better"] for x in spec["end_to_end"] if x["name"] == m)
                change = (s["median"] - before) / before
                worse = change if better == "lower" else -change
                s["against_median"] = before
                s["worse_by"] = worse
                ok &= worse <= bounds[m]

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for w in names:
        for m, s in out["workloads"][w]["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <- spread above bound/3"
            cmp = f", worse by {s['worse_by']:+.3f}" if "worse_by" in s else ""
            print(f"{w:7s} {m:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f} (bound {s['bound']}){cmp}{flag}")
            ok &= m == "setup_s" or s["resolved"]
        ok &= out["workloads"][w]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
