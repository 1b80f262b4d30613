"""In-memory spans and counters wrapped around revcube from outside.

`instrument()` replaces module attributes (such as `perm.compose`,
`cube.parse_state`, `sims.build_bsgs`) and class attributes (such as
`CubeState.__mul__`, `MiniModel.class_count`, `StrongGenSet.contains`) with
wrappers, and `Tracer.restore()` puts the originals back.  Nothing under
src/ is edited.

A span records name, start, end, parent span, query id, an optional key and
how far each hot counter moved while it was open.  The hottest call sites
(`perm.compose`, `oracle.mini_mul`, `WreathElem.__mul__`, `CubeState.__mul__`)
only count, so the wrappers do not swamp what they measure; they also keep
a thinned systematic sample of their arguments, which `replay_us` times
untraced afterwards to give a per-call cost.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

SAMPLE_CAP = 256

# (metric name, revcube module, class or None, attribute)
HOT = (
    ("perm.compose", "perm", None, "compose"),
    ("oracle.mini_mul", "oracle", None, "mini_mul"),
    ("wreath.mul", "wreath", "WreathElem", "__mul__"),
    ("cube.mul", "cube", "CubeState", "__mul__"),
)

SPANS = (
    ("cube.parse_state", "cube", None, "parse_state"),
    ("cube.is_solvable", "cube", None, "is_solvable"),
    ("cube.classify", "cube", None, "classify"),
    ("cube.representative", "cube", None, "representative"),
    ("cube.apply_word", "cube", None, "apply_word"),
    ("geometry.validate_geometry", "geometry", None, "validate_geometry"),
    ("geometry.move_components", "geometry", None, "move_components"),
    ("sims.build_bsgs", "sims", None, "build_bsgs"),
    ("sims.embed", "sims", None, "embed"),
    ("sims.contains", "sims", "StrongGenSet", "contains"),
    ("counting.estimate_probability", "counting", None, "estimate_probability"),
    # one Monte Carlo stream; private, so it is wrapped only when present
    ("counting.stream", "counting", None, "_stream_hits"),
    ("oracle.class_count", "oracle", "MiniModel", "class_count"),
    ("oracle.class_count_flip_free", "oracle", "MiniModel", "class_count_flip_free"),
    ("oracle.sweep_closed_form", "oracle", "MiniModel", "sweep_closed_form"),
    (
        "oracle.check_subgroup_constructions",
        "oracle",
        "MiniModel",
        "check_subgroup_constructions",
    ),
    ("oracle.solvable_set", "oracle", "MiniModel", "solvable_set"),
    ("cli.main", "cli", None, "main"),
)

# spans whose first argument (the model) is recorded, to tell repeated
# work on one model from work on distinct models
KEYED = {"oracle.solvable_set"}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[int, tuple] = {}
        self.qid = -1
        self.hot = [0] * len(HOT)
        self.samples: dict[str, list[tuple]] = {name: [] for name, *_ in HOT}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        spans, hot, ids, stack_of = self.spans, self.hot, self._ids, self._stack
        keyed = name in KEYED
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            before = tuple(hot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (
                    name,
                    start,
                    end,
                    parent,
                    self.qid,
                    args[0] if keyed else None,
                    tuple(b - a for a, b in zip(before, hot)),
                )

        return wrapper

    def _counter(self, index: int, fn):
        hot = self.hot
        samples = self.samples[HOT[index][0]]
        stride = [1]

        def wrapper(*args):
            hot[index] += 1
            if (hot[index] - 1) % stride[0] == 0:
                samples.append(args)
                if len(samples) == SAMPLE_CAP:
                    del samples[1::2]
                    stride[0] *= 2
            return fn(*args)

        return wrapper

    def _patch(self, owner: object, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def instrument(self) -> None:
        def owner(mod: str, cls: str | None):
            m = importlib.import_module(f"revcube.{mod}")
            return getattr(m, cls) if cls else m

        for i, (_, mod, cls, attr) in enumerate(HOT):
            self._patch(owner(mod, cls), attr, lambda fn, i=i: self._counter(i, fn))
        for name, mod, cls, attr in SPANS:
            target = owner(mod, cls)
            if not hasattr(target, attr):
                continue
            self._patch(target, attr, lambda fn, name=name: self._span(name, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per hot counter and per span name."""
        out = {name: n for (name, *_), n in zip(HOT, self.hot)}
        for rec in self.spans.values():
            out[rec[0]] = out.get(rec[0], 0) + 1
        return out

    def self_seconds(self) -> dict[str, float]:
        """Per span name, total duration minus the time direct child spans
        cover."""
        child = defaultdict(float)
        for _, start, end, parent, *_ in self.spans.values():
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, *_) in self.spans.items():
            out[name] += end - start - child[sid]
        return out

    def hot_within(self, span_name: str, counter: str) -> int:
        """Hot-counter calls made while spans of one name were open."""
        index = [name for name, *_ in HOT].index(counter)
        return sum(rec[6][index] for rec in self.spans.values() if rec[0] == span_name)

    def distinct_keys(self, span_name: str) -> int:
        return len({rec[5] for rec in self.spans.values() if rec[0] == span_name})

    def dump(self) -> list[dict]:
        names = [name for name, *_ in HOT]
        return [
            {
                "id": sid,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "query": qid,
                "counts": dict(zip(names, deltas)),
            }
            for sid, (name, start, end, parent, qid, _, deltas) in sorted(
                self.spans.items()
            )
        ]


def replay_us(*pairs, rounds: int = 7, min_seconds: float = 0.02) -> float:
    """Mean microseconds per call over recorded argument tuples, timed with
    no wrapper in place: the first (fn, samples) pair minus the others,
    each round timing every pair back to back, median over rounds; 0 when
    nothing was recorded."""
    if not pairs[0][1]:
        return 0.0

    def once(fn, samples):
        reps = 0
        start = time.perf_counter()
        while True:
            for args in samples:
                fn(*args)
            reps += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                return elapsed / (reps * len(samples)) * 1e6

    diffs = []
    for _ in range(rounds):
        first, *rest = (once(fn, samples) for fn, samples in pairs)
        diffs.append(first - sum(rest))
    return statistics.median(diffs)
