"""Bundled rank-1 solvable algebras with adapted bases.

r2: the two-dimensional algebra [X, Y] = Y (single root 1).
roots123: [X, Y_i] = i * Y_i with [Y1, Y2] = Y3 (roots 1, 2, 3).
zero_root: [X, Y1] = Y1, [X, Y2] = 0 (roots 1, 0; nontrivial H2(g, K)).
"""

from importlib import resources

NAMES = ("r2", "roots123", "zero_root")


def path(name: str) -> str:
    """Filesystem path of a catalog entry (for CLI examples)."""
    if name not in NAMES:
        raise KeyError(f"unknown catalog entry {name!r}; have {NAMES}")
    return str(resources.files(__package__).joinpath(f"{name}.json"))
