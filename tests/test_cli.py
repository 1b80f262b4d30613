import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from revcube import cli, counting, cube, oracle, sims

from conftest import run_cli


def run_module(*args):
    """`python -m revcube ARGS` as a real process, to cover the entry point."""
    cmd = [sys.executable, "-m", "revcube", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_count():
    r = run_module("count")
    assert r.returncode == 0
    assert r.stdout.strip() == "1594323"
    r = run_cli("count", "--mode", "mechanical")
    assert r.returncode == 0
    assert r.stdout.strip() == "3"


def test_prob_exact():
    r = run_cli("prob")
    assert r.returncode == 0
    assert r.stdout.strip() == "1/12288"
    r = run_cli("prob", "--mode", "mechanical")
    assert r.returncode == 0
    assert r.stdout.strip() == "1/3"


def test_prob_mc_pinned():
    r = run_cli("prob", "--mc", "100000", "--seed", "5", "--workers", "2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    # pins from the scalar rebuild (tests/test_counting.py), 8 hits; ci95 is
    # the textbook Wilson form at p = 8e-5, n = 1e5, z = 1.96
    assert lines == [
        "estimate: 1/12500",
        "stderr: 2.828314e-05",
        "ci95: 4.053804e-05 1.578703e-04",
    ]


def test_prob_mc_worker_invariance():
    a = run_cli("prob", "--mode", "mechanical", "--mc", "131072", "--seed", "9")
    b = run_cli(
        "prob", "--mode", "mechanical", "--mc", "131072", "--seed", "9",
        "--workers", "4",
    )
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def assert_bad_input(r):
    # exit 2, nothing on stdout, exactly one stderr line and no usage text
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr


def test_prob_mc_bad_args():
    for argv in (
        ("prob", "--mc", "0"),
        ("prob", "--mc", "abc"),
        ("prob", "--mc", "1_000"),
        ("prob", "--mc", "9" * 5000),
        ("prob", "--mc", "100", "--workers", "0"),
        ("prob", "--workers", "0"),
        ("prob", "--mode", "painted"),
        ("count", "--mode", "foo"),
        ("verify", "--level", "x"),
        ("solvable",),
    ):
        assert_bad_input(run_cli(*argv))


def test_random_assembly_deterministic(tmp_path):
    a = run_cli("random-assembly", "--seed", "3")
    b = run_cli("random-assembly", "--seed", "3")
    c = run_cli("random-assembly", "--seed", "4")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout
    t = cube.parse_state(a.stdout)
    assert cube.classify(t).to_string() == "201000200000:2"


def test_random_assembly_seed_env(monkeypatch):
    monkeypatch.setenv("REVCUBE_SEED", "3")
    a = run_cli("random-assembly")
    monkeypatch.delenv("REVCUBE_SEED")
    b = run_cli("random-assembly", "--seed", "3")
    assert a.stdout == b.stdout
    # explicit flag wins over the environment
    monkeypatch.setenv("REVCUBE_SEED", "77")
    c = run_cli("random-assembly", "--seed", "3")
    assert c.stdout == b.stdout
    monkeypatch.setenv("REVCUBE_SEED", "notanumber")
    d = run_cli("random-assembly")
    assert d.returncode == 2
    assert "REVCUBE_SEED" in d.stderr


def test_negative_seed_rejected(monkeypatch):
    r = run_cli("prob", "--mc", "10", "--seed", "-1")
    assert r.returncode == 2
    assert r.stderr.splitlines() == [
        "error: --seed must be a non-negative integer, got '-1'"
    ]
    monkeypatch.setenv("REVCUBE_SEED", "-5")
    r = run_cli("random-assembly")
    assert r.returncode == 2
    assert r.stderr.splitlines() == [
        "error: REVCUBE_SEED must be a non-negative integer, got '-5'"
    ]
    # only plain ASCII digits: no sign, underscore, space or other digits;
    # a seed past int()'s 4300-digit limit is bad input too
    for bad in ("+1_0", "1_0", " 7", "abc", "\u0661", "9" * 5000):
        for source, argv in (
            ("--seed", ["random-assembly", "--seed", bad]),
            ("REVCUBE_SEED", ["random-assembly"]),
            # the exact probability needs no seed, but it is still checked
            ("--seed", ["prob", "--seed", bad]),
            ("REVCUBE_SEED", ["prob"]),
        ):
            monkeypatch.setenv("REVCUBE_SEED", bad)
            r = run_cli(*argv)
            assert r.returncode == 2, (source, bad)
            assert r.stdout == ""
            want = f"error: {source} must be a non-negative integer, got {bad!r}\n"
            assert r.stderr == want


def test_random_assembly_mechanical_flip_free():
    r = run_cli("random-assembly", "--mode", "mechanical", "--seed", "6")
    t = cube.parse_state(r.stdout)
    assert t.edges.twists == (0,) * 24


def test_solvable_exit_codes(tmp_path):
    solved = tmp_path / "solved.txt"
    solved.write_text(cube.format_state(cube.identity_state()))
    r = run_module("solvable", str(solved))
    assert r.returncode == 0
    assert r.stdout.strip() == "solvable"

    scrambled = tmp_path / "scrambled.txt"
    g = cube.apply_word([cube.Move.U, cube.Move.MR, cube.Move.F])
    scrambled.write_text(cube.format_state(g))
    assert run_cli("solvable", str(scrambled)).returncode == 0

    from revcube.wreath import WreathElem
    from revcube import perm

    ident = cube.identity_state()
    twist = cube.CubeState(
        ident.edges,
        WreathElem(3, (1,) + (0,) * 7, perm.identity(8)),
        ident.centers,
    )
    bad = tmp_path / "twisted.txt"
    bad.write_text(cube.format_state(twist))
    r = run_module("solvable", str(bad))
    assert r.returncode == 1
    assert r.stdout.startswith("unsolvable: ")
    assert r.stdout.strip().endswith(":1")


def test_solvable_mechanical_rejects_flips(tmp_path):
    from revcube.wreath import WreathElem
    from revcube import perm

    ident = cube.identity_state()
    flipped = cube.CubeState(
        WreathElem(2, (1, 1) + (0,) * 22, perm.identity(24)),
        ident.corners,
        ident.centers,
    )
    f = tmp_path / "flipped.txt"
    f.write_text(cube.format_state(flipped))
    r = run_cli("solvable", str(f), "--mode", "mechanical")
    assert_bad_input(r)
    assert r.stderr == f"error: {f}: not mechanically admissible (edge flips present)\n"
    # the same file is fine in marked mode (a pure pair flip is solvable)
    assert run_cli("solvable", str(f)).returncode == 0


def test_malformed_file_and_missing_file(tmp_path):
    good = cube.format_state(cube.identity_state()).splitlines()
    good[0] = "edges_flip: 0 0"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(good) + "\n")
    r = run_cli("solvable", str(bad))
    assert r.returncode == 2
    assert "line 1" in r.stderr
    r = run_cli("invariant", str(tmp_path / "missing.txt"))
    assert r.returncode == 2


def test_non_ascii_state_file(tmp_path):
    text = cube.format_state(cube.identity_state())
    text = text.replace("edges_flip", "edges_fl\u00efp")
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(text.encode("latin-1"))
    r = run_cli("solvable", str(bad))
    assert r.returncode == 2
    assert r.stderr.splitlines() == [f"error: {bad}: non-ASCII byte 0xef at offset 8"]


def test_state_file_line_ends_are_parse_states(tmp_path):
    # the CLI parses a file's text as parse_state does: "\r\n" ends a line
    # (the "\r" is whitespace), a lone "\r" does not
    text = run_cli("random-assembly", "--seed", "3").stdout
    crlf, cr = tmp_path / "crlf.txt", tmp_path / "cr.txt"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    cr.write_bytes(text.replace("\n", "\r").encode())
    r = run_cli("invariant", str(crlf))
    assert (r.returncode, r.stdout) == (0, "201000200000:2\n")
    r = run_cli("invariant", str(cr))
    assert_bad_input(r)
    assert r.stderr == f"error: {cr}: line 2, token 0: expected 5 lines, got 1\n"


def test_long_token_is_a_positioned_error(tmp_path):
    lines = cube.format_state(cube.identity_state()).splitlines()
    lines[0] = lines[0].replace(" 0", " " + "1" * 5000, 1)
    f = tmp_path / "long.txt"
    f.write_text("\n".join(lines) + "\n")
    r = run_cli("solvable", str(f))
    assert_bad_input(r)
    assert r.stderr.startswith(f"error: {f}: line 1, token 1: ")
    # the token is shown as a prefix and its length, not echoed whole
    line = r.stderr.splitlines()[0].replace(str(f), "")
    assert len(line) < 120 and "5000" in line


def test_oversized_state_file_is_refused(tmp_path):
    # at most STATE_FILE_LIMIT characters are read, so an endless file ends too
    big = tmp_path / "big.txt"
    with open(big, "wb") as fh:
        fh.truncate(cli.STATE_FILE_LIMIT + 1)  # sparse: NUL bytes read back
    paths = [big] + [p for p in ("/dev/zero",) if os.path.exists(p)]
    for path in paths:
        r = run_cli("solvable", str(path))
        assert_bad_input(r)
        assert r.stderr == f"error: {path}: longer than {cli.STATE_FILE_LIMIT} characters\n"


def test_invariant_canonical_round_trip(tmp_path):
    r = run_cli("random-assembly", "--seed", "12")
    state = tmp_path / "state.txt"
    state.write_text(r.stdout)
    cls = run_cli("invariant", str(state)).stdout.strip()
    assert len(cls) == 14 and cls[12] == ":"

    canon = run_cli("canonical", cls)
    assert canon.returncode == 0
    rep = tmp_path / "rep.txt"
    rep.write_text(canon.stdout)
    assert run_cli("invariant", str(rep)).stdout.strip() == cls


def test_canonical_identity_class_is_solvable(tmp_path):
    canon = run_cli("canonical", "000000000000:0")
    rep = tmp_path / "rep.txt"
    rep.write_text(canon.stdout)
    assert run_cli("solvable", str(rep)).returncode == 0


def test_canonical_rejects_malformed():
    r = run_cli("canonical", "00:9")
    assert_bad_input(r)
    assert r.stderr == "error: malformed class string '00:9'\n"
    assert run_cli("canonical", "0000000000003:1").returncode == 2


def verify_digest(level):
    """sha256 of `revcube verify --level LEVEL` stdout, read from the
    `sha256sum -c` file that CI checks the installed script against."""
    lines = (Path(__file__).parent / "verify.sha256").read_text().splitlines()
    return dict(reversed(line.split()) for line in lines)[f"verify-{level}.txt"]


def test_verify_quick():
    r = run_cli("verify", "--level", "quick")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert all(l.startswith("ok: ") for l in lines[:-1])
    assert lines[-1] == "all checks passed"
    assert sum(l.startswith("ok: geometry") for l in lines) == 5
    assert "ok: mini class count = 9" in lines
    assert "ok: mini flip-free class count = 3" in lines
    assert "ok: marked solvable probability = 1/12288" in lines
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == verify_digest("quick")


def test_verify_catches_a_coarse_pair_table(monkeypatch):
    # (0,1) and (1,0) merged: classify then reaches only 2^12 * 3 classes
    coarse = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1}
    monkeypatch.setattr(cube, "_PAIR_LABEL", coarse)
    r = run_cli("verify", "--level", "quick")
    assert r.returncode == 3
    assert "FAIL: pair-flip orbit table (3 classes, merged (0,0)~(1,1))" in r.stdout


def test_verify_full():
    r = run_cli("verify")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert all(l.startswith("ok: ") for l in lines[:-1])
    assert lines[-1] == "all checks passed"
    assert len(lines) == 59
    assert "ok: mini class count = 27" in lines
    assert "ok: marked class count = 1594323" in lines
    assert "ok: slice-move group order matches the closed formula" in lines
    assert "ok: strong generating set is consistent" in lines
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == verify_digest("full")


def small_models(monkeypatch):
    """Full verify on the 1/1/1 mini model, for tests about the other rows."""
    small = oracle.MiniModel
    monkeypatch.setattr(oracle, "MiniModel", lambda *shape: small(1, 1, 1))


def test_verify_full_runs_the_structure_check(monkeypatch):
    def broken(self):
        raise AssertionError("x")

    monkeypatch.setattr(sims.StrongGenSet, "check_structure", broken)
    small_models(monkeypatch)
    r = run_cli("verify")
    assert r.returncode == 3
    assert "FAIL: strong generating set is consistent (x)" in r.stdout
    assert r.stdout.endswith("1 check(s) failed\n")


def test_verify_sift_row_judges_every_sample(monkeypatch):
    # a predicate that lies on the last of the 1000 sift samples (after the
    # twelve generator rows) fails that row alone
    calls = []
    honest = cube.is_licit

    def lying(t):
        calls.append(t)
        return honest(t) != (len(calls) == 12 + 1000)

    monkeypatch.setattr(cube, "is_licit", lying)
    small_models(monkeypatch)
    r = run_cli("verify")
    assert r.returncode == 3
    assert "FAIL: sifting agrees with the licitness predicate (1000 samples)" in r.stdout
    assert r.stdout.endswith("1 check(s) failed\n")
    assert len(calls) == 12 + 1000


def test_verify_homomorphism_row_judges_every_pair(monkeypatch):
    # a characteristic that is wrong on the product of the last of the 200
    # pairs fails that row alone
    samples = list(cube.random_assemblies(cli._rng(20260818), 400, "mechanical"))
    last = samples[-2] * samples[-1]
    honest = cube.characteristic

    def broken(t):
        twist, sign = honest(t)
        return ((twist + 1) % 3, sign) if t == last else (twist, sign)

    monkeypatch.setattr(cube, "characteristic", broken)
    small_models(monkeypatch)
    r = run_cli("verify")
    assert r.returncode == 3
    assert "FAIL: characteristic is a homomorphism (200 random pairs)" in r.stdout
    assert r.stdout.endswith("1 check(s) failed\n")


@pytest.mark.parametrize(
    "target, mutant, command, printed, failing",
    [
        (  # the 11th power in place of the 12th
            "edge_pair_class_count",
            lambda: len(oracle.pair_orbits()) ** (cube.NUM_EDGE_PAIRS - 1),
            "count",
            "531441",
            ["marked class count = 1594323 (got 531441)"],
        ),
        (  # 12 placements per center block in place of 24
            "num_relabelings",
            lambda mode="marked": counting._marked_only(2**cube.NUM_EDGE_PAIRS, mode)
            * 12**cube.NUM_CENTER_BLOCKS,
            "prob",
            "1/786432",
            [
                "marked solvable probability = 1/12288 (got 1/786432)",
                "mechanical solvable probability = 1/3 (got 1/192)",
            ],
        ),
        (  # the licit relabelings not halved
            "num_relabelings_licit",
            lambda: 24**cube.NUM_CENTER_BLOCKS,
            "prob",
            "1/24576",
            [
                "marked solvable probability = 1/12288 (got 1/24576)",
                "mechanical solvable probability = 1/3 (got 1/6)",
            ],
        ),
    ],
    ids=["eleventh-power", "twelve-per-block", "no-halving"],
)
def test_verify_catches_a_wrong_printed_number(
    monkeypatch, target, mutant, command, printed, failing
):
    # a one-line slip in counting changes what count or prob prints; full
    # verify fails on the rows that compare those numbers with the closed forms
    monkeypatch.setattr(counting, target, mutant)
    assert run_cli(command).stdout == printed + "\n"
    small_models(monkeypatch)
    r = run_cli("verify")
    assert r.returncode == 3
    assert [l for l in r.stdout.splitlines() if l.startswith("FAIL")] == [
        f"FAIL: {row}" for row in failing
    ]
    assert r.stdout.endswith(f"{len(failing)} check(s) failed\n")


def test_word_draw_matches_scalar_draws():
    # the class-invariant row draws each 8-move word in one call; numpy gives
    # the values and leaves the generator where 8 scalar draws would, also
    # between the row's other draws (numpy's behaviour, not a documented promise)
    batched, scalar = cli._rng(20260818), cli._rng(20260818)
    for _ in range(100):
        for rng in (batched, scalar):
            cube.random_assembly(rng)
            cube.random_relabeling(rng)
        assert batched.integers(0, 12, size=8).tolist() == [
            int(scalar.integers(0, 12)) for _ in range(8)
        ]
    assert batched.bit_generator.state == scalar.bit_generator.state


def test_unknown_command():
    assert_bad_input(run_module("frobnicate"))
    assert_bad_input(run_cli())


def test_numpy_loads_only_when_a_command_draws(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text(run_cli("random-assembly", "--seed", "3").stdout)
    script = f"""
import contextlib, io, sys
import revcube
from revcube import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["count"], ["count", "--mode", "mechanical"], ["prob"],
                 ["solvable", {str(state)!r}], ["invariant", {str(state)!r}],
                 ["canonical", "201000200000:2"]):
        cli.main(argv)
    exact = "numpy" in sys.modules, "concurrent.futures" in sys.modules
    cli.main(["random-assembly", "--seed", "3"])
print(*exact, "numpy" in sys.modules)
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "False", "True"]


def test_closed_stdout_exits_141_quietly():
    # a reader that is gone before the first write: exit as a SIGPIPE kill
    # (128 + 13), not 1 ("unsolvable"), and no traceback
    for argv in (["count"], ["verify", "--level", "quick"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        cmd = [sys.executable, "-m", "revcube", *argv]
        r = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, text=True)
        os.close(write_end)
        assert (r.returncode, r.stderr) == (141, ""), argv


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_transcript():
    """(argv, output file or None, expected stdout lines) for each `$ revcube`
    line of the README's command-line block, a trailing `# comment` removed.
    The expected lines are those up to the next `$` line."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1]
    runs = []
    for line in block.split("\n```", 1)[0].splitlines():
        if line.startswith("$ "):
            command, _, target = line[2:].partition(" > ")
            argv = shlex.split(command, comments=True)
            assert argv[0] == "revcube", line
            runs.append((argv[1:], target.strip() or None, []))
        else:
            runs[-1][2].append(line)
    return runs


def test_readme_transcript(tmp_path, monkeypatch):
    # each command runs in one directory, in order, so `> state.txt` feeds
    # the lines after it; a `...` line stands for any run of lines
    monkeypatch.chdir(tmp_path)
    runs = readme_transcript()
    assert len(runs) >= 10
    for argv, target, want in runs:
        r = run_cli(*argv)
        assert r.stderr == "", argv
        assert r.returncode == (1 if want and want[0].startswith("unsolvable:") else 0)
        if target is not None:
            (tmp_path / target).write_text(r.stdout)
            assert want == [], argv
            continue
        got = r.stdout.splitlines()
        if "..." in want:
            head, tail = want[: want.index("...")], want[want.index("...") + 1 :]
            assert got[: len(head)] == head, argv
            assert got[len(got) - len(tail) :] == tail, argv
        else:
            assert got == want, argv
