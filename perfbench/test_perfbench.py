"""Checks of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import Cli, States  # noqa: E402

from revcube import cube  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_labels_match_the_package(seed):
    states = gen.make_states(seed, 200)
    rng = gen.rng_for(seed, 9)
    states += [gen.make_state(rng, kind) for kind in ("solvable", "uniform", "flip_free") for _ in range(30)]
    kinds = {"solvable": 0, "flip_free": 0, "licit": 0}
    for s in states:
        t = cube.parse_state(s["text"])
        assert cube.is_solvable(t) == s["solvable"]
        assert cube.classify(t).to_string() == s["cls"]
        assert cube.preserves_marking(t) == s["flip_free"]
        if s["flip_free"]:
            assert cube.is_licit(t) == s["licit"]
        for k in kinds:
            kinds[k] += bool(s[k])
    # every label takes both values, so no check is vacuous
    assert 0 < kinds["solvable"] < len(states)
    assert 0 < kinds["licit"] < kinds["flip_free"]


def test_inputs_depend_only_on_the_seed():
    assert gen.make_states(5, 20) == gen.make_states(5, 20)
    assert gen.make_states(5, 20) != gen.make_states(6, 20)
    assert gen.make_cli_cases(5, 2) == gen.make_cli_cases(5, 2)


def test_canonical_text_matches_the_package():
    for cls in ("000000000000:0", "012012012012:2", "221100221100:1"):
        rep = cube.representative(cube.StateClass.from_string(cls))
        assert gen.canonical_text(cls) == cube.format_state(rep)


def _fail_ratio(wl) -> float:
    wl.setup()
    res = worker.measure(wl, 0.3, 0, worker.Runner())
    return res["failed"] / res["attempted"]


def test_states_pass_at_this_commit():
    assert _fail_ratio(States({"states": gen.make_states(3, 64)}, ROOT)) == 0


def test_wrong_predicate_drives_fail_ratio_up(monkeypatch):
    original = cube.is_solvable
    monkeypatch.setattr(cube, "is_solvable", lambda t: not original(t))
    assert _fail_ratio(States({"states": gen.make_states(3, 64)}, ROOT)) > 0


def test_wrong_classifier_fails_cli_cases(monkeypatch, tmp_path):
    cases = gen.make_cli_cases(4, 1)
    for i, case in enumerate(cases):
        if "text" in case:
            case["file"] = str(tmp_path / f"case{i}.txt")
            (tmp_path / f"case{i}.txt").write_text(case.pop("text"))
    wl = Cli({"cases": cases}, ROOT)
    wl.setup_inprocess()
    assert wl.op_inprocess(0)[0] == 0
    original = cube.classify

    def shifted(t):
        c = original(t)
        return cube.StateClass(c.pair_labels, (c.twist + 1) % 3)

    monkeypatch.setattr(cube, "classify", shifted)
    assert wl.op_inprocess(0)[0] > 0


def test_tail_rule():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail([float(i) for i in range(19)]) == (100.0, 18.0)
    pct, value = run.tail([float(i) for i in range(50)])
    assert (pct, value) == (80.0, 39.0)  # ten samples beyond
    pct, value = run.tail([float(i) for i in range(10000)])
    assert (pct, value) == (99.0, 9899.0)  # capped at p99


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert r.returncode != 0
    assert r.stdout == ""
