"""revcube benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc|verify|states|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; revcube is imported from its src/
directory, nothing needs installing.  Inputs come from the seed alone (see
gen.py).  With --trace 0 the run is split into SUB_RUNS fresh worker
processes that share the --seconds budget; each times its own set-up, so
set-up is measured SUB_RUNS times and reported as the median.  With --trace 1
one worker runs the workload's fixed traced operations and reports the
per-layer metrics.  Human-readable lines come first, with each metric's
quartiles over the sub-runs; the last line is the JSON result whose metrics
are the ones BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SUB_RUNS = 5
DEADLINE_S = 170.0
STATES = 4096
CLI_VARIANTS = 8
WORKLOADS = ("mc", "verify", "states", "cli")


class BenchError(Exception):
    pass


def cli_cases(seed: int, tmp: str) -> list[dict]:
    """The CLI cases, with each state text written to a file under tmp."""
    import gen

    cases = gen.make_cli_cases(seed, CLI_VARIANTS)
    for i, case in enumerate(cases):
        if "text" in case:
            case["file"] = os.path.join(tmp, f"case{i}.txt")
            with open(case["file"], "w", encoding="ascii") as fh:
                fh.write(case.pop("text"))
    return cases


def make_inputs(workload: str, seed: int, tmp: str) -> dict:
    import gen

    if workload == "mc":
        return {"seeds": [int(x) for x in gen.rng_for(seed, 0).integers(0, 2**32, 64)]}
    if workload == "states":
        return {"states": gen.make_states(seed, STATES)}
    if workload == "cli":
        return {"cases": cli_cases(seed, tmp)}
    return {}


def run_worker(workload: str, mode: str, budget: float, offset: int, payload: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, mode, repr(budget), str(offset)]
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(payload, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker ran past the deadline") from None
    sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(result["revcube_file"]).startswith(src):
        raise BenchError(f"revcube imported from {result['revcube_file']}, not {src}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, capped at p99 (further out, a shared machine's stalls decide
    the value).  Below 20 samples that percentile would not reach the
    median, so the maximum stands in."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    k = min(n - 11, math.ceil(0.99 * n) - 1)
    return 100.0 * (k + 1) / n, xs[k]


def measured(workload: str, runs: list[dict]) -> tuple[dict, list[tuple]]:
    """End-to-end metrics pooled over the sub-runs that ran operations, and
    report rows (name, value, unit, per-sub-run values, note)."""
    active = [r for r in runs if r["attempted"]]
    lat = [x for r in active for x in r["latencies"]]
    pct, tail_s = tail(lat)

    def per_run(f):
        return [f(r) for r in active]

    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in active),
        "throughput": sum(r["units"] for r in active) / sum(lat),
        "latency_ms_p50": statistics.median(lat) * 1e3,
        "latency_ms_tail": tail_s * 1e3,
    }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    rows = [
        ("setup_s", e2e["setup_s"], "s", [r["setup_s"] for r in runs], ""),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", per_run(lambda r: r["rss_mb"]), ""),
        ("fail_ratio", failed / attempted, "ratio", per_run(lambda r: r["failed"] / r["attempted"]), f"{failed}/{attempted}"),
    ]
    tail_note = f"p{pct:.2f}, n={len(lat)}"
    if workload == "mc":
        for name in ("samples_per_s", "mechanical_samples_per_s", "workers2_samples_per_s"):
            rate = sum(r["parts"][name][0] for r in active) / sum(r["parts"][name][1] for r in active)
            rows.append((f"mc.{name}", rate, "1/s", per_run(lambda r: r["parts"][name][0] / r["parts"][name][1]), ""))
    elif workload == "verify":
        rows.append(("verify.wall_s", statistics.median(lat), "s", per_run(lambda r: statistics.median(r["latencies"])), f"n={len(lat)}"))
    elif workload == "states":
        rows += [
            ("states.queries_per_s", e2e["throughput"], "1/s", per_run(lambda r: r["units"] / sum(r["latencies"])), ""),
            ("states.query_us_p50", e2e["latency_ms_p50"] * 1e3, "us", per_run(lambda r: statistics.median(r["latencies"]) * 1e6), f"n={len(lat)}"),
            ("states.query_us_tail", tail_s * 1e6, "us", per_run(lambda r: tail(r["latencies"])[1] * 1e6), tail_note),
        ]
    elif workload == "cli":

        def commands(r):
            return [s for _, _, times in r["parts"].values() for s in times]

        cmd = [s for r in active for s in commands(r)]
        cmd_pct, cmd_tail = tail(cmd)
        rows += [
            ("cli.cmd_ms_p50", statistics.median(cmd) * 1e3, "ms", per_run(lambda r: statistics.median(commands(r)) * 1e3), f"n={len(cmd)}"),
            ("cli.cmd_ms_tail", cmd_tail * 1e3, "ms", per_run(lambda r: tail(commands(r))[1] * 1e3), f"p{cmd_pct:.2f}, n={len(cmd)}"),
        ]
    rows += [
        ("throughput", e2e["throughput"], "1/s", per_run(lambda r: r["units"] / sum(r["latencies"])), ""),
        ("latency_ms_p50", e2e["latency_ms_p50"], "ms", per_run(lambda r: statistics.median(r["latencies"]) * 1e3), f"n={len(lat)}"),
        ("latency_ms_tail", e2e["latency_ms_tail"], "ms", per_run(lambda r: tail(r["latencies"])[1] * 1e3), tail_note),
    ]
    return e2e, rows


def print_rows(workload: str, rows: list[tuple]) -> None:
    for name, value, unit, values, note in rows:
        q1, _, q3 = quartiles(values)
        extra = f"  [{note}]" if note else ""
        print(f"{workload} {name} = {value:.6g} {unit}  (sub-run q1 {q1:.6g}, q3 {q3:.6g}, k={len(values)}){extra}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "revcube", "__init__.py")):
        print(f"error: no revcube sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        inputs = make_inputs(args.workload, args.seed, tmp)
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            inputs["trace_path"] = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            inputs["cli_cases"] = cli_cases(args.seed, tmp)
            res = run_worker(args.workload, "trace", 0.0, 0, json.dumps(inputs), deadline)
            values, wanted = res["metrics"], spec["per_layer"]
            attempted, failed = res["attempted"], res["failed"]
            correct = failed == 0 and res["exact_counters_repeat"]
            for name, count in res["exact_counters"].items():
                print(f"{args.workload} exact counter {name} = {count} (repeats: {res['exact_counters_repeat']})")
        else:
            payload = json.dumps(inputs)
            runs: list[dict] = []
            spent = 0.0
            for k in range(SUB_RUNS):
                budget = max(0.0, (args.seconds - spent) / (SUB_RUNS - k))
                runs.append(run_worker(args.workload, "measure", budget, 1000 * k, payload, deadline))
                spent += sum(runs[-1]["latencies"])
            values, rows = measured(args.workload, runs)
            print_rows(args.workload, rows)
            wanted = spec["end_to_end"]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = failed == 0
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(scratch)

    metrics = {}
    for m in wanted:
        # a per-layer metric of a layer this workload never reaches reads 0
        value = values.get(m["name"], 0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"{args.workload} {m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
