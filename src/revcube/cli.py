"""Command line front end.

Exit codes: 0 success (or solvable), 1 unsolvable, 2 invalid input,
3 internal verification failure, 141 stdout closed by its reader.  Seeds
come from --seed, falling back to the REVCUBE_SEED environment variable,
then 0; either is plain decimal digits.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, NoReturn

from . import counting, cube, geometry, oracle, sims

EXIT_OK = 0
EXIT_UNSOLVABLE = 1
EXIT_BAD_INPUT = 2
EXIT_VERIFY_FAILED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE
STATE_FILE_LIMIT = 2**20  # characters read from a state file; more is invalid input


def _fail(message: str) -> NoReturn:
    """The one exit for invalid input: one stderr line, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit 2, no usage text."""

    def error(self, message: str) -> NoReturn:
        _fail(f"{self.prog}: {message}")


def _positive(text: str) -> int:
    n = cube._natural(text)
    if not n:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return n


def _rng(seed: int):
    import numpy as np  # only commands that draw pay for loading numpy
    return np.random.default_rng(seed)


def _seed_from(args: argparse.Namespace) -> int:
    if args.seed is not None:
        text, source = args.seed, "--seed"
    else:
        text, source = os.environ.get("REVCUBE_SEED"), "REVCUBE_SEED"
        if text is None:
            return 0
    seed = cube._natural(text)
    if seed is None:
        _fail(f"{source} must be a non-negative integer, got {text!r}")
    return seed


def _read_state(path: str) -> cube.CubeState:
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:  # line ends kept for parse_state
            text = fh.read(STATE_FILE_LIMIT + 1)
    except OSError as e:
        _fail(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        _fail(f"{path}: non-ASCII byte 0x{e.object[e.start]:02x} at offset {e.start}")
    if len(text) > STATE_FILE_LIMIT:
        _fail(f"{path}: longer than {STATE_FILE_LIMIT} characters")
    try:
        return cube.parse_state(text)
    except ValueError as e:
        _fail(f"{path}: {e}")


def _cmd_count(args: argparse.Namespace) -> int:
    print(counting.num_classes(args.mode))
    return EXIT_OK


def _cmd_prob(args: argparse.Namespace) -> int:
    seed = _seed_from(args)
    if args.mc is not None:
        est, err = counting.estimate_probability(args.mode, args.mc, seed, args.workers)
        print(f"estimate: {est.numerator}/{est.denominator}")
        print(f"stderr: {err:.6e}")
        lo, hi = counting.wilson_interval(int(est * args.mc), args.mc)
        print(f"ci95: {lo:.6e} {hi:.6e}")
    else:
        p = counting.exact_probability(args.mode)
        print(f"{p.numerator}/{p.denominator}")
    return EXIT_OK


def _cmd_solvable(args: argparse.Namespace) -> int:
    t = _read_state(args.file)
    if args.mode == "mechanical" and not cube.preserves_marking(t):
        _fail(f"{args.file}: not mechanically admissible (edge flips present)")
    if cube.is_solvable(t):
        print("solvable")
        return EXIT_OK
    print(f"unsolvable: {cube.classify(t).to_string()}")
    return EXIT_UNSOLVABLE


def _cmd_invariant(args: argparse.Namespace) -> int:
    print(cube.classify(_read_state(args.file)).to_string())
    return EXIT_OK


def _cmd_canonical(args: argparse.Namespace) -> int:
    try:
        cls = cube.StateClass.from_string(args.cls)
    except ValueError as e:
        _fail(str(e))
    sys.stdout.write(cube.format_state(cube.representative(cls)))
    return EXIT_OK


def _cmd_random_assembly(args: argparse.Namespace) -> int:
    t = cube.random_assembly(_rng(_seed_from(args)), args.mode)
    sys.stdout.write(cube.format_state(t))
    return EXIT_OK


# ---------------------------------------------------------------------------
# self checks


def _check_row(name: str, check: Callable[[], None]) -> tuple[str, bool, str]:
    """A verify row for a check that raises AssertionError on failure."""
    try:
        check()
    except AssertionError as e:
        return name, False, str(e)  # the message is the row's detail
    return name, True, ""


def _closed_classes(pairs: int) -> int:
    """Closed form: 3^(p+1) visibly distinct classes with p edge pairs."""
    return 3 ** (pairs + 1)


def _closed_probability(pairs: int) -> Fraction:
    """Closed form: an assembly with p edge pairs is solvable with chance 1/(3*2^p)."""
    return Fraction(1, 3 * 2**pairs)


def _verify_rows(level: str) -> Iterable[tuple[str, bool, str]]:
    rows = geometry.validate_geometry()
    for name, ok, detail in rows:
        yield f"geometry: {name}", ok, detail
    if not all(ok for _, ok, _ in rows):
        return  # every later row is built from the same piece model

    ident = cube.identity_state()
    for m in cube.Move:
        g = cube.generator(m)
        g2 = g * g
        yield f"generator {m.value} has order 4", g2 != ident and g2 * g2 == ident, ""
        ok = cube.preserves_marking(g)
        yield f"generator {m.value} preserves the marking", ok, ""
        yield f"generator {m.value} is licit", cube.is_licit(g), ""

    rng = _rng(20260818)
    ok = True
    samples = cube.random_assemblies(rng, 400, "mechanical")
    for a, b in zip(samples, samples):  # consecutive pairs
        ta, sa = cube.characteristic(a)
        tb, sb = cube.characteristic(b)
        if cube.characteristic(a * b) != ((ta + tb) % 3, sa * sb):
            ok = False
            break
    yield "characteristic is a homomorphism (200 random pairs)", ok, ""

    moves = list(cube.Move)
    solved = cube.classify(ident)
    for _ in range(100):
        t = cube.random_assembly(rng)
        i = cube.random_relabeling(rng)
        word = [moves[m] for m in rng.integers(0, 12, size=8).tolist()]
        c = cube.classify(t)
        ok = cube.classify(i * cube.apply_word(word, start=t)) == c  # i * t * word
        ok = ok and cube.is_solvable(t) == (c == solved)
        if not ok:
            break
    yield "class invariant constant under relabeling and licit moves", ok, ""

    po = oracle.pair_orbits()
    merged: dict = {}  # one pair's four flip patterns, grouped by their class
    _, *rest = cube._IDENTITY_ROWS
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        key = cube.classify(cube._from_rows(bits * cube.NUM_EDGE_PAIRS, *rest))
        merged[key] = merged.get(key, ()) + (bits,)
    ok = po == [((0, 0), (1, 1)), ((0, 1),), ((1, 0),)] == sorted(merged.values())
    points, group, act = oracle.pair_flip_action()
    ok = ok and oracle.burnside_count(points, group, act) == 3
    yield "pair-flip orbit table (3 classes, merged (0,0)~(1,1))", ok, ""

    ts = oracle.twist_sign_orbits()
    ok = len(ts) == 3 and all(len(o) == 2 for o in ts)
    points, group, act = oracle.twist_sign_action()
    ok = ok and oracle.burnside_count(points, group, act) == 3
    yield "twist-sign orbit table (3 classes, sign collapses)", ok, ""

    # the closed forms, checked exhaustively on a mini model; flip-free is p = 0
    model = oracle.MiniModel(2, 2, 1) if level == "full" else oracle.MiniModel(1, 1, 1)
    name = f"mini model {model.pairs}/{model.corners}/{model.blocks} subgroups"
    yield _check_row(name, model.check_subgroup_constructions)
    want, got = _closed_classes(model.pairs), model.class_count()
    yield f"mini class count = {want}", got == want, f"got {got}"
    want, got = _closed_classes(0), model.class_count(flip_free=True)
    yield f"mini flip-free class count = {want}", got == want, f"got {got}"
    total, bad = model.sweep_closed_form()
    name = f"closed-form solvability matches brute force on {total} elements"
    yield name, bad == 0, f"{bad} mismatches"
    want, got_p = _closed_probability(model.pairs), model.solvable_probability()
    yield f"mini solvable probability = {want}", got_p == want, f"got {got_p}"
    want, got_p = _closed_probability(0), model.solvable_probability(flip_free=True)
    yield f"mini flip-free probability = {want}", got_p == want, f"got {got_p}"

    # the numbers `count` and `prob` print are the same closed forms at full size
    for mode, pairs in (("marked", cube.NUM_EDGE_PAIRS), ("mechanical", 0)):
        want, got = _closed_classes(pairs), counting.num_classes(mode)
        yield f"{mode} class count = {want}", got == want, f"got {got}"
        want, got_p = _closed_probability(pairs), counting.exact_probability(mode)
        yield f"{mode} solvable probability = {want}", got_p == want, f"got {got_p}"

    if level == "full":
        sgs = sims.build_bsgs([sims.embed(g) for g in cube.all_generators()])
        name, got = "slice-move group order matches the closed formula", sgs.order()
        yield name, got == counting.num_licit(), f"got {got}"
        yield _check_row("strong generating set is consistent", sgs.check_structure)
        samples = cube.random_assemblies(rng, 1000, "mechanical")
        ok = all(sgs.contains(sims.embed(t)) == cube.is_licit(t) for t in samples)
        yield "sifting agrees with the licitness predicate (1000 samples)", ok, ""


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, ok, detail in _verify_rows(args.level):
        if ok:
            print(f"ok: {name}")
        else:
            failures += 1
            suffix = f" ({detail})" if detail else ""
            print(f"FAIL: {name}{suffix}")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revcube",
        description="Solvability, counting and probabilities for 4x4x4 cube assemblies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=cube.MODES,
            default="marked",
            help="marked tracks every sticker, mechanical ignores flips "
            "(default: marked)",
        )

    p = sub.add_parser("count", help="number of visibly distinct assembly classes")
    add_mode(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("prob", help="probability that a random assembly is solvable")
    add_mode(p)
    p.add_argument("--mc", type=_positive, metavar="N", help="Monte Carlo with N samples")
    p.add_argument("--seed", help="random seed (default: REVCUBE_SEED or 0)")
    p.add_argument("--workers", type=_positive, default=1, help="stream scheduling only")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("solvable", help="decide solvability of a state file")
    p.add_argument("file")
    add_mode(p)
    p.set_defaults(func=_cmd_solvable)

    p = sub.add_parser("invariant", help="print the class string of a state file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("canonical", help="print the canonical state of a class")
    p.add_argument("cls", metavar="CLASS", help="12 pair labels, colon, twist")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("random-assembly", help="sample a uniform assembly")
    add_mode(p)
    p.add_argument("--seed", help="random seed (default: REVCUBE_SEED or 0)")
    p.set_defaults(func=_cmd_random_assembly)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument(
        "--level",
        choices=("quick", "full"),
        default="full",
        help="full uses the 2/2/1 mini model and adds the strong generating "
        "set's order, structure check and sifting rows (default: full)",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone: keep the flush at exit quiet, exit as a SIGPIPE kill would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
