"""One fresh process running one workload; started by run.py.

    python3 perfbench/worker.py WORKLOAD measure BUDGET_S OFFSET  < inputs.json
    python3 perfbench/worker.py WORKLOAD trace 0 0                < inputs.json

`measure` times set-up from before `import revcube`, then runs operations
from index OFFSET until the next one would overrun BUDGET_S seconds (at
least one when the budget is positive).  `trace` runs the workload's fixed
traced operations three times: traced cold, traced warm, then untraced, and
derives the per-layer metrics.  Either prints one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from workloads import WORKLOADS  # noqa: E402

MAX_TRACEBACKS = 3


class Runner:
    """Calls operations, turning an exception into a failed operation."""

    def __init__(self) -> None:
        self.errors = 0

    def call(self, op, i: int):
        try:
            return op(i)
        except Exception:
            self.errors += 1
            if self.errors <= MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
            return 1, 1, 0, {}


def measure(wl, budget: float, offset: int, runner: Runner) -> dict:
    latencies, parts = [], {}
    units = attempted = failed = 0
    start = time.perf_counter()
    i = offset
    while budget > 0:
        t = time.perf_counter()
        f, a, u, p = runner.call(wl.op, i)
        d = time.perf_counter() - t
        latencies.append(d)
        units += u
        attempted += a
        failed += f
        for name, (pu, ps) in p.items():
            acc = parts.setdefault(name, [0, 0.0, []])
            acc[0] += pu
            acc[1] += ps
            acc[2].append(ps)
        i += 1
        if time.perf_counter() - start + d > budget:
            break
    return {
        "latencies": latencies,
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "parts": parts,
    }


# -- traced run -----------------------------------------------------------------

EXACT_COUNTERS = (
    "perm.compose",
    "oracle.solvable_set",
    "oracle.mini_mul",
    "cube.mul",
    "counting.stream",
)


def _pass(setup, op, n: int, runner: Runner, tracer=None) -> tuple[float, int, int, dict]:
    """Set-up plus operations 0..n-1; returns (seconds, attempted, failed, parts)."""
    start = time.perf_counter()
    if tracer:
        tracer.qid = -1
    setup()
    attempted = failed = 0
    parts = {}
    for i in range(n):
        if tracer:
            tracer.qid = i
        f, a, _, p = runner.call(op, i)
        attempted += a
        failed += f
        for name, (_, s) in p.items():
            parts.setdefault(name, []).append(s)
    return time.perf_counter() - start, attempted, failed, parts


def _cli_subprocess_metrics(wl, runner: Runner, cycles: int = 3) -> tuple[dict, int, int]:
    """Start-up probes of the command line.  They do not depend on the
    workload, so every traced run takes them."""
    metrics = {}
    for name, args in (("cli.interp_ms", ["-c", "pass"]), ("cli.import_ms", ["-c", "import revcube"])):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            r = wl.run(args)
            times.append(time.perf_counter() - start)
            if r.returncode != 0:
                raise RuntimeError(f"{args} failed: {r.stderr.strip()}")
        metrics[name] = statistics.median(times) * 1e3
    _, attempted, failed, per_cmd = _pass(lambda: None, wl.op, cycles, runner)
    for name, times in per_cmd.items():
        metrics[f"cli.{name}.ms_p50"] = statistics.median(times) * 1e3
    return metrics, attempted, failed


def trace(name: str, wl, cli_wl, runner: Runner, out_path: str) -> dict:
    from tracer import Tracer, replay_us

    if name == "cli":
        setup, op = wl.setup_inprocess, wl.op_inprocess
    else:
        setup, op = wl.setup, wl.op
    n = wl.TRACE_OPS
    tracers = []
    attempted = failed = 0
    seconds = []
    for _ in range(2):
        tr = Tracer()
        tr.instrument()
        try:
            s, a, f, _ = _pass(setup, op, n, runner, tr)
        finally:
            tr.restore()
        tracers.append(tr)
        seconds.append(s)
        attempted += a
        failed += f
    untraced, a, f, parts = _pass(setup, op, n, runner)
    attempted += a
    failed += f
    cold, warm = tracers

    counts_cold, counts = cold.counts(), warm.counts()
    mismatched = [
        c for c in EXACT_COUNTERS if counts_cold.get(c, 0) != counts.get(c, 0)
    ]
    if mismatched:
        print(f"exact counters differ between traced passes: {mismatched}", file=sys.stderr)

    self_s = warm.self_seconds()

    def per_call(span: str, scale: float) -> float:
        calls = counts.get(span, 0)
        return self_s.get(span, 0.0) / calls * scale if calls else 0.0

    from revcube import cube, oracle, perm, wreath  # noqa: F401

    builds = counts.get("sims.build_bsgs", 0)
    solvable_calls = counts.get("oracle.solvable_set", 0)
    cube_samples = warm.samples["cube.mul"]
    wreath_mul = wreath.WreathElem.__mul__
    cube_us = replay_us(
        (cube.CubeState.__mul__, cube_samples),
        (wreath_mul, [(a.edges, b.edges) for a, b in cube_samples]),
        (wreath_mul, [(a.corners, b.corners) for a, b in cube_samples]),
    )
    metrics = {
        "perm.compose.calls": counts["perm.compose"],
        "perm.compose.calls_per_build": warm.hot_within("sims.build_bsgs", "perm.compose") / builds if builds else 0,
        "perm.compose.us": replay_us((perm.compose, warm.samples["perm.compose"])),
        "wreath.mul.calls": counts["wreath.mul"],
        "wreath.mul.us": replay_us((wreath_mul, warm.samples["wreath.mul"])),
        "geometry.validate_geometry.ms": per_call("geometry.validate_geometry", 1e3),
        # the generator tables are built once per process: the cold pass pays
        "geometry.move_components.ms": cold.self_seconds().get("geometry.move_components", 0.0) * 1e3,
        "cube.parse_state.us": per_call("cube.parse_state", 1e6),
        "cube.is_solvable.us": per_call("cube.is_solvable", 1e6),
        "cube.classify.us": per_call("cube.classify", 1e6),
        "cube.representative.us": per_call("cube.representative", 1e6),
        "cube.mul.calls": counts["cube.mul"],
        "cube.mul.us": cube_us,
        "counting.streams": counts.get("counting.stream", 0),
        "sims.build_bsgs.s": per_call("sims.build_bsgs", 1.0),
        "sims.contains.us": per_call("sims.contains", 1e6),
        "sims.embed.us": per_call("sims.embed", 1e6),
        "oracle.class_count.s": per_call("oracle.class_count", 1.0),
        "oracle.class_count_flip_free.s": per_call("oracle.class_count_flip_free", 1.0),
        "oracle.sweep_closed_form.s": per_call("oracle.sweep_closed_form", 1.0),
        "oracle.check_subgroup_constructions.s": per_call("oracle.check_subgroup_constructions", 1.0),
        "oracle.solvable_set.s": per_call("oracle.solvable_set", 1.0),
        "oracle.solvable_set.calls": solvable_calls,
        "oracle.solvable_set.useful_ratio": warm.distinct_keys("oracle.solvable_set") / solvable_calls if solvable_calls else 0,
        "oracle.mini_mul.calls": counts["oracle.mini_mul"],
        "trace.overhead_ratio": seconds[1] / untraced,
    }
    metrics.update(_counting_probes(name, wl, runner, parts))
    extra, a, f = _cli_subprocess_metrics(cli_wl, runner)
    metrics.update(extra)
    attempted += a
    failed += f
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "spans": warm.dump()}, fh)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "exact_counters_repeat": not mismatched,
        "exact_counters": {c: counts.get(c, 0) for c in EXACT_COUNTERS},
    }


def _counting_probes(name: str, wl, runner: Runner, parts: dict) -> dict:
    """Untraced probes of the Monte Carlo layer, for the mc workload."""
    if name != "mc":
        return {}
    counting = wl.counting
    out = {}
    for metric, mode in (("counting.stream_ms", "marked"), ("counting.mechanical_stream_ms", "mechanical")):
        times = []
        for k in range(5):
            start = time.perf_counter()
            counting.estimate_probability(mode, counting.STREAM_SIZE, wl.seeds[k], 1)
            times.append(time.perf_counter() - start)
        out[metric] = statistics.median(times) * 1e3
    w1 = sum(parts["samples_per_s"])
    w2 = sum(parts["workers2_samples_per_s"])
    out["counting.workers2_speedup"] = w1 / w2
    return out


def main() -> int:
    name, mode, budget, offset = sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4])
    inputs = json.load(sys.stdin)
    runner = Runner()
    if mode == "trace":
        wl = WORKLOADS[name](inputs, ROOT)
        cli_wl = WORKLOADS["cli"]({"cases": inputs["cli_cases"]}, ROOT)
        result = trace(name, wl, cli_wl, runner, inputs["trace_path"])
    else:
        t0 = time.perf_counter()
        wl = WORKLOADS[name](inputs, ROOT)
        wl.setup()
        setup_s = time.perf_counter() - t0
        result = measure(wl, budget, offset, runner)
        result["setup_s"] = setup_s
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    import revcube

    result["revcube_file"] = revcube.__file__
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
