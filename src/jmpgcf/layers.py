"""Selection of the propagation depths used for scoring.

Odd hops from a user reach item nodes, even hops reach user nodes.  For
a sample of users the mean fraction of the opposite-type (odd) or
same-type (even) node space reachable at exactly each hop is measured,
and the first odd and first even hop whose mean coverage reaches the
threshold are selected.  Hops advance by +2 within each parity so every
odd/even depth is considered.  The sampled users are traversed together
as bitsets, 64 per breadth-first pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset
from .graph import build_adjacency

__all__ = [
    "LayerSelectionConfig",
    "LayerSelectionError",
    "SelectedLayers",
    "hop_coverages",
    "select_layers",
]


@dataclass(frozen=True)
class LayerSelectionConfig:
    alpha: float = 0.5
    sample_size: int = 100
    max_hops: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.max_hops < 2:
            raise ValueError("max_hops must be >= 2")


@dataclass(frozen=True)
class SelectedLayers:
    l_odd: int
    l_even: int

    def __post_init__(self):
        if self.l_odd < 1 or self.l_odd % 2 == 0:
            raise ValueError(f"l_odd must be a positive odd layer, got {self.l_odd}")
        if self.l_even < 1 or self.l_even % 2 == 1:
            raise ValueError(f"l_even must be a positive even layer, got {self.l_even}")

    @property
    def depth(self) -> int:
        return max(self.l_odd, self.l_even)


class LayerSelectionError(RuntimeError):
    """No hop within the cap reached the coverage threshold."""

    def __init__(self, message, odd_coverage, even_coverage):
        super().__init__(message)
        self.odd_coverage = dict(odd_coverage)
        self.even_coverage = dict(even_coverage)


_BLOCK = 64  # sources per pass: one bit each in a uint64 word per node


def _exact_hop_counts(adjacency, sources, max_depth):
    """Nodes at shortest-path distance exactly h in ``adjacency``, summed over ``sources``.

    Entry ``h - 1`` of the result is the count for h = 1..max_depth.
    Multi-source BFS over bitsets: the distinct ``sources`` are traversed
    64 per pass, each node holding one uint64 frontier word and one seen
    word in which bit s stands for source s.  A level ORs the frontier
    words of each row's neighbours, and the bits not yet seen are the
    nodes first reached at that depth.
    """
    indptr = adjacency.row_offsets
    # numpy casts an int32 index array to intp on every gather; one copy
    # per call is cheaper than that cast at every level
    indices = adjacency.col_indices.astype(np.intp, copy=False)
    num_nodes = len(indptr) - 1
    totals = np.zeros(max_depth, dtype=np.int64)
    # reduceat yields indices[start] for an empty segment, so only rows
    # with at least one stored entry are reduced
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    for first in range(0, len(sources), _BLOCK):
        block = sources[first:first + _BLOCK]
        seen = np.zeros(num_nodes, dtype=np.uint64)
        seen[block] = np.left_shift(np.uint64(1), np.arange(len(block), dtype=np.uint64))
        frontier = seen.copy()
        for depth in range(max_depth):
            reached = np.zeros(num_nodes, dtype=np.uint64)
            reached[rows] = np.bitwise_or.reduceat(frontier[indices], starts)
            frontier = reached & ~seen
            count = int(np.bitwise_count(frontier).sum())
            if count == 0:
                break
            totals[depth] += count
            seen |= frontier
    return totals


def _sample_users(ds, cfg):
    rng = np.random.default_rng(cfg.seed)
    if ds.num_users <= cfg.sample_size:
        return np.arange(ds.num_users)
    return rng.choice(ds.num_users, size=cfg.sample_size, replace=False)


def hop_coverages(ds: InteractionDataset, cfg: LayerSelectionConfig):
    """Mean per-hop coverage over the sampled users.

    Returns ``(odd, even)`` dicts mapping hop to the mean fraction of
    the item space (odd hops) or user space (even hops) at exactly that
    distance.  The sampled users are traversed together as bitsets, 64
    per breadth-first pass.
    """
    if ds.num_users == 0 or ds.num_items == 0:
        raise ValueError("dataset must contain at least one user and one item")
    sampled = _sample_users(ds, cfg)
    totals = _exact_hop_counts(build_adjacency(ds), sampled, cfg.max_hops)
    odd, even = {}, {}
    for hop in range(1, cfg.max_hops + 1):
        space = ds.num_items if hop % 2 == 1 else ds.num_users
        coverage = totals[hop - 1] / space / len(sampled)
        (odd if hop % 2 == 1 else even)[hop] = float(coverage)
    return odd, even


def select_layers(
    ds: InteractionDataset, cfg: LayerSelectionConfig, coverages=None
) -> SelectedLayers:
    """First odd and first even hop whose mean coverage reaches ``alpha``.

    ``coverages`` may pass precomputed :func:`hop_coverages` output to
    avoid rescanning.
    """
    odd, even = coverages if coverages is not None else hop_coverages(ds, cfg)
    l_odd = next((h for h in sorted(odd) if odd[h] >= cfg.alpha), None)
    l_even = next((h for h in sorted(even) if even[h] >= cfg.alpha), None)
    if l_odd is None or l_even is None:
        missing = " and ".join(
            name for name, found in (("odd", l_odd), ("even", l_even)) if found is None
        )
        raise LayerSelectionError(
            f"no {missing} hop <= {cfg.max_hops} reached coverage {cfg.alpha}; "
            f"best odd {max(odd.values()):.4f}, best even {max(even.values()):.4f}",
            odd,
            even,
        )
    return SelectedLayers(l_odd=l_odd, l_even=l_even)
