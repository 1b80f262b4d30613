"""Group-theoretic model of 4x4x4 cube assemblies.

The package answers three questions about a cube taken apart and
reassembled at random: whether a given assembly can be solved by turns,
how many visibly distinct assemblies there are, and with what
probability a uniform random assembly is solvable.  Two regimes are
supported throughout, chosen by one ``mode`` argument (default
``marked``): ``marked`` distinguishes the two stickers of an edge pair,
``mechanical`` ignores edge flips altogether.
"""

from .counting import (
    estimate_probability,
    exact_probability,
    num_assemblies,
    num_classes,
    num_licit,
    num_relabelings,
)
from .cube import (
    CubeState,
    Move,
    StateClass,
    all_generators,
    apply_word,
    characteristic,
    classify,
    format_state,
    generator,
    identity_state,
    is_licit,
    is_relabeling,
    is_solvable,
    parse_state,
    preserves_marking,
    random_assembly,
    random_relabeling,
    representative,
    StateFileError,
)
from .wreath import WreathElem

__version__ = "0.1.0"

__all__ = [
    "CubeState",
    "Move",
    "StateClass",
    "StateFileError",
    "WreathElem",
    "all_generators",
    "apply_word",
    "characteristic",
    "classify",
    "estimate_probability",
    "exact_probability",
    "format_state",
    "generator",
    "identity_state",
    "is_licit",
    "is_relabeling",
    "is_solvable",
    "num_assemblies",
    "num_classes",
    "num_licit",
    "num_relabelings",
    "parse_state",
    "preserves_marking",
    "random_assembly",
    "random_relabeling",
    "representative",
]
