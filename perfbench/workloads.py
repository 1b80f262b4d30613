"""The four workloads.  Each is one closed-loop caller: the next operation
starts only after the previous one returned.

A workload object is made in a fresh worker process from inputs that
`run.py` generated from the seed.  `setup()` imports revcube and does all
work before the first timed operation.  `op(i)` runs operation i, checks its
output, and returns (failed checks, attempted checks, units of work, parts),
where parts maps a sub-result name to (units, seconds).  Module level
imports are stdlib only, so that the worker's clock starts before numpy and
revcube load.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time
from fractions import Fraction


class Mc:
    """Monte Carlo estimates, one round = marked and mechanical on one
    worker, then marked on two, all with the same sample count and seed."""

    N = 1 << 19
    CONFIGS = (
        ("samples_per_s", "marked", 1),
        ("mechanical_samples_per_s", "mechanical", 1),
        ("workers2_samples_per_s", "marked", 2),
    )
    EXACT = {"marked": Fraction(1, 12288), "mechanical": Fraction(1, 3)}
    TRACE_OPS = 1

    def __init__(self, inputs: dict, root: str) -> None:
        self.seeds = inputs["seeds"]

    def setup(self) -> None:
        from revcube import counting

        self.counting = counting
        # first calls pay for the thread pool and numpy's generator paths
        for _, mode, workers in self.CONFIGS:
            counting.estimate_probability(
                mode, 2 * counting.STREAM_SIZE, self.seeds[-1], workers
            )

    def op(self, i: int):
        seed = self.seeds[i % len(self.seeds)]
        n = self.N
        parts, hits = {}, {}
        for name, mode, workers in self.CONFIGS:
            start = time.perf_counter()
            est, _ = self.counting.estimate_probability(mode, n, seed, workers)
            parts[name] = (n, time.perf_counter() - start)
            hits[name] = est * n
        # the estimate depends on (mode, n, seed) only, not on the workers
        failed = hits["samples_per_s"] != hits["workers2_samples_per_s"]
        for name, mode, _ in self.CONFIGS:
            p = self.EXACT[mode]
            sigma = math.sqrt(n * p * (1 - p))
            failed += hits[name].denominator != 1 or abs(float(hits[name] - n * p)) > 5 * sigma
        return failed, len(self.CONFIGS), len(self.CONFIGS) * n, parts


class Verify:
    """The full self-check, in process, with stdout captured."""

    TRACE_OPS = 1

    def __init__(self, inputs: dict, root: str) -> None:
        pass

    def setup(self) -> None:
        from revcube import cli

        self.cli = cli

    def op(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["verify", "--level", "full"])
        ok = code == 0 and out.getvalue().endswith("all checks passed\n")
        return int(not ok), 1, 1, {}


class States:
    """State-file queries: parse, solvability, class, canonical round trip,
    a short word of moves, and sifting for flip-free states."""

    TRACE_OPS = 300

    def __init__(self, inputs: dict, root: str) -> None:
        self.states = inputs["states"]

    def setup(self) -> None:
        from revcube import cube, sims

        self.cube, self.sims = cube, sims
        self.moves = {m.value: m for m in cube.Move}
        self.sgs = sims.build_bsgs([sims.embed(g) for g in cube.all_generators()])

    def op(self, i: int):
        s = self.states[i % len(self.states)]
        cube = self.cube
        t = cube.parse_state(s["text"])
        solvable = cube.is_solvable(t)
        cls = cube.classify(t)
        back = cube.classify(cube.representative(cls))
        moved = cube.classify(
            cube.apply_word([self.moves[m] for m in s["word"]], start=t)
        )
        ok = (
            solvable == s["solvable"]
            and cls.to_string() == s["cls"]
            and back == cls
            and moved == cls
        )
        if s["flip_free"]:
            ok = self.sgs.contains(self.sims.embed(t)) == s["licit"] and ok
        return int(not ok), 1, 1, {}


def _cli_ok(case: dict, code: int, out: str, err: str) -> bool:
    if code != case["code"]:
        return False
    if case["out"] is None:
        lines = out.splitlines()
        return bool(lines) and lines[-1] == case["last"]
    if case["code"] == 2:
        # bad input: nothing on stdout, one line on stderr
        return out == "" and len(err.splitlines()) == 1 and err.startswith("error:")
    return out == case["out"]


class Cli:
    """`python -m revcube ...` subprocesses, one at a time.  One operation is
    one cycle through the ten commands of a case variant."""

    TRACE_OPS = 1
    CYCLE = 10

    def __init__(self, inputs: dict, root: str) -> None:
        self.cases = inputs["cases"]
        src = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def run(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=60,
        )

    def setup(self) -> None:
        # a user's first command in a session pays the cold start
        r = self.run(["-m", "revcube", "count"])
        if r.returncode != 0:
            raise RuntimeError(f"revcube count failed: {r.stderr.strip()}")

    def _cycle(self, i: int, command):
        failed, parts = 0, {}
        for j in range(i * self.CYCLE, (i + 1) * self.CYCLE):
            case = self.cases[j % len(self.cases)]
            argv = [case.get("file", a) if a == "FILE" else a for a in case["argv"]]
            start = time.perf_counter()
            code, out, err = command(argv)
            parts[case["name"]] = (1, time.perf_counter() - start)
            failed += not _cli_ok(case, code, out, err)
        return failed, self.CYCLE, self.CYCLE, parts

    def _subprocess(self, argv: list[str]):
        r = self.run(["-m", "revcube", *argv])
        return r.returncode, r.stdout, r.stderr

    def op(self, i: int):
        return self._cycle(i, self._subprocess)

    # in-process variant, for the traced run (spans cannot reach a child)

    def setup_inprocess(self) -> None:
        from revcube import cli

        self.cli = cli

    def _inprocess(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def op_inprocess(self, i: int):
        return self._cycle(i, self._inprocess)


WORKLOADS = {"mc": Mc, "verify": Verify, "states": States, "cli": Cli}
