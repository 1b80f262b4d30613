"""Seeded inputs for the revcube benchmark, made with numpy alone.

Nothing here imports revcube.  Every label comes from how a state was built,
so a change to the package's samplers or predicates leaves both the inputs
and the expected answers unchanged.
"""

from __future__ import annotations

import numpy as np

NUM_EDGES = 24
NUM_PAIRS = 12
NUM_CORNERS = 8
NUM_CENTERS = 24

# slice quarter-turn names, as `revcube.cube.Move` spells them
MOVES = ("B", "MB", "MF", "F", "L", "ML", "MR", "R", "D", "MD", "MU", "U")

ROWS = ("edges_flip", "edges_perm", "corners_twist", "corners_perm", "centers_perm")

# exact answers the package must reproduce
CLASSES = {"marked": 3**13, "mechanical": 3}
PROBABILITY = {"marked": (1, 12288), "mechanical": (1, 3)}

# label of one edge pair's flip bits: equal bits merge, (0,1) and (1,0) differ
_PAIR_LABEL = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 2}
_PAIR_BITS = {0: (0, 0), 1: (0, 1), 2: (1, 0)}


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, input stream)."""
    return np.random.default_rng([seed, stream])


def state_text(rows) -> str:
    """State-file text of five rows: flips, edge perm, twists, corner perm,
    center perm."""
    return "".join(
        f"{label}: " + " ".join(str(int(x)) for x in row) + "\n"
        for label, row in zip(ROWS, rows)
    )


def _perm(rng: np.random.Generator, n: int) -> tuple[list[int], int]:
    """Uniform permutation by Fisher-Yates swaps, with its parity counted
    from the swaps that moved something."""
    p = list(range(n))
    odd = 0
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1))):
        if i != j:
            p[i], p[j] = p[j], p[i]
            odd ^= 1
    return p, odd


def class_string(bits, twists) -> str:
    labels = "".join(
        str(_PAIR_LABEL[(int(bits[2 * k]), int(bits[2 * k + 1]))])
        for k in range(NUM_PAIRS)
    )
    return f"{labels}:{sum(int(t) for t in twists) % 3}"


def make_state(rng: np.random.Generator, kind: str | None = None) -> dict:
    """One labelled state.

    Kinds: "solvable" (equal bits in each edge pair, twist sum 0 mod 3),
    "uniform" (every field uniform) and "flip_free" (no flips; half of them
    forced licit: twist sum 0 and equal corner and center permutation signs).
    """
    if kind is None:
        u = rng.random()
        kind = "solvable" if u < 0.4 else "uniform" if u < 0.8 else "flip_free"
    force_licit = False
    if kind == "solvable":
        bits = np.repeat(rng.integers(0, 2, NUM_PAIRS), 2)
        twists = rng.integers(0, 3, NUM_CORNERS)
        twists[-1] = -twists[:-1].sum() % 3
    elif kind == "uniform":
        bits = rng.integers(0, 2, NUM_EDGES)
        twists = rng.integers(0, 3, NUM_CORNERS)
    elif kind == "flip_free":
        bits = np.zeros(NUM_EDGES, dtype=np.int64)
        twists = rng.integers(0, 3, NUM_CORNERS)
        force_licit = bool(rng.integers(0, 2))
        if force_licit:
            twists[-1] = -twists[:-1].sum() % 3
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    eperm, _ = _perm(rng, NUM_EDGES)
    cperm, codd = _perm(rng, NUM_CORNERS)
    zperm, zodd = _perm(rng, NUM_CENTERS)
    if force_licit and codd != zodd:
        # one more transposition flips the center sign
        zperm[0], zperm[1] = zperm[1], zperm[0]
        zodd ^= 1
    twist = int(twists.sum()) % 3
    pairs_equal = bool((bits[0::2] == bits[1::2]).all())
    flip_free = not bits.any()
    word = [MOVES[int(m)] for m in rng.integers(0, len(MOVES), int(rng.integers(3, 9)))]
    return {
        "text": state_text((bits, eperm, twists, cperm, zperm)),
        "cls": class_string(bits, twists),
        "solvable": pairs_equal and twist == 0,
        "flip_free": flip_free,
        "licit": flip_free and twist == 0 and codd == zodd,
        "word": word,
    }


def make_states(seed: int, count: int) -> list[dict]:
    rng = rng_for(seed, 1)
    return [make_state(rng) for _ in range(count)]


def canonical_text(cls: str) -> str:
    """The canonical state of a class string: identity permutations, pair
    bits from the labels, all twist on corner 0."""
    bits = [b for c in cls[:NUM_PAIRS] for b in _PAIR_BITS[int(c)]]
    twists = [int(cls[-1])] + [0] * (NUM_CORNERS - 1)
    return state_text(
        (bits, range(NUM_EDGES), twists, range(NUM_CORNERS), range(NUM_CENTERS))
    )


def _malformed(rng: np.random.Generator) -> str:
    """A state file with one token the parser must reject: not an integer,
    out of range, or missing."""
    lines = make_state(rng)["text"].splitlines()
    line = int(rng.integers(0, len(lines)))
    tokens = lines[line].split(" ")
    tokens[1 + int(rng.integers(0, len(tokens) - 1))] = ("x", "-1", "99", "")[
        int(rng.integers(0, 4))
    ]
    lines[line] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def make_cli_cases(seed: int, variants: int) -> list[dict]:
    """One cycle of CLI commands per variant.  Each case names the command,
    its argv (FILE stands for the case's state file), the state text to
    write, and the exact expected exit code and stdout (None: only the last
    line is checked, against `last`)."""
    rng = rng_for(seed, 2)
    cases = []
    for _ in range(variants):
        solv = make_state(rng, "solvable")
        while True:
            uns = make_state(rng, "uniform")
            if not uns["solvable"]:
                break
        inv = make_state(rng)
        cls = "".join(str(int(x)) for x in rng.integers(0, 3, NUM_PAIRS))
        cls += f":{int(rng.integers(0, 3))}"
        cases += [
            {"name": "count", "argv": ["count"], "code": 0, "out": f"{CLASSES['marked']}\n"},
            {
                "name": "count_mechanical",
                "argv": ["count", "--mode", "mechanical"],
                "code": 0,
                "out": f"{CLASSES['mechanical']}\n",
            },
            {"name": "prob", "argv": ["prob"], "code": 0, "out": "%d/%d\n" % PROBABILITY["marked"]},
            {
                "name": "prob_mechanical",
                "argv": ["prob", "--mode", "mechanical"],
                "code": 0,
                "out": "%d/%d\n" % PROBABILITY["mechanical"],
            },
            {"name": "solvable", "argv": ["solvable", "FILE"], "text": solv["text"], "code": 0, "out": "solvable\n"},
            {
                "name": "unsolvable",
                "argv": ["solvable", "FILE"],
                "text": uns["text"],
                "code": 1,
                "out": f"unsolvable: {uns['cls']}\n",
            },
            {"name": "invariant", "argv": ["invariant", "FILE"], "text": inv["text"], "code": 0, "out": f"{inv['cls']}\n"},
            {"name": "canonical", "argv": ["canonical", cls], "code": 0, "out": canonical_text(cls)},
            {"name": "malformed", "argv": ["solvable", "FILE"], "text": _malformed(rng), "code": 2, "out": ""},
            {"name": "verify_quick", "argv": ["verify", "--level", "quick"], "code": 0, "out": None, "last": "all checks passed"},
        ]
    return cases
