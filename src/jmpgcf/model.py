"""Trainable embeddings, linear propagation, and preference scoring.

One base embedding table per popularity granularity is propagated
through its granularity's normalized adjacency; scores are sums of
inner products taken at the selected odd and even layers, optionally
weighted per granularity.  There are no per-layer weight matrices and
no nonlinearities anywhere in the forward path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import PopularityConfig, SparseMatrix, spmm
from .layers import SelectedLayers

__all__ = [
    "CheckpointFormatError",
    "Checkpoint",
    "ModelParameters",
    "PropagationOutput",
    "init_parameters",
    "load_checkpoint",
    "propagate",
    "save_checkpoint",
    "score_all_items",
    "score_pair",
    "score_users",
]

CHECKPOINT_MAGIC = "JMPGCF1"


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file cannot be parsed."""


@dataclass(eq=False)
class ModelParameters:
    """Per-granularity base embedding tables plus the granularity config.

    ``base_embeddings`` holds one (m+n, embed_dim) float64 table per
    granularity, or a single table when ``shared_base`` is set (all
    granularities then propagate from the same trainable table).
    """

    num_users: int
    num_items: int
    embed_dim: int
    popularity: PopularityConfig
    base_embeddings: list[np.ndarray]
    shared_base: bool = False

    def __post_init__(self):
        expected = 1 if self.shared_base else self.popularity.num_granularities
        if len(self.base_embeddings) != expected:
            raise ValueError(
                f"expected {expected} base tables, got {len(self.base_embeddings)}"
            )
        rows = self.num_users + self.num_items
        for table in self.base_embeddings:
            if table.shape != (rows, self.embed_dim):
                raise ValueError(
                    f"table shape {table.shape} != ({rows}, {self.embed_dim})"
                )

    def base_for(self, k: int) -> np.ndarray:
        return self.base_embeddings[0 if self.shared_base else k]


def init_parameters(
    num_users, num_items, embed_dim, cfg: PopularityConfig, seed, shared_base=False
) -> ModelParameters:
    """Xavier-uniform initialization: entries i.i.d. on [-a, a] with
    a = sqrt(6 / (2 * embed_dim)); deterministic for a fixed seed."""
    if embed_dim < 1:
        raise ValueError("embed_dim must be >= 1")
    rng = np.random.default_rng(seed)
    limit = math.sqrt(6.0 / (2 * embed_dim))
    rows = num_users + num_items
    count = 1 if shared_base else cfg.num_granularities
    tables = [rng.uniform(-limit, limit, size=(rows, embed_dim)) for _ in range(count)]
    return ModelParameters(
        num_users=num_users,
        num_items=num_items,
        embed_dim=embed_dim,
        popularity=cfg,
        base_embeddings=tables,
        shared_base=shared_base,
    )


@dataclass(eq=False)
class PropagationOutput:
    """Propagated embedding matrices per granularity and layer.

    ``chains[k][l]`` is the (m+n, embed_dim) matrix after l propagation
    steps at granularity k (index 0 is the base table); entries may be
    None for non-selected layers when the chain was not retained.
    """

    num_users: int
    num_items: int
    layers: SelectedLayers
    chains: list[list[np.ndarray]]
    matrices: list[SparseMatrix]
    default_weights: tuple[float, ...]
    shared_base: bool

    @property
    def num_granularities(self) -> int:
        return len(self.chains)

    @property
    def depth(self) -> int:
        return len(self.chains[0]) - 1

    def layer(self, k: int, l: int) -> np.ndarray:
        mat = self.chains[k][l]
        if mat is None:
            raise RuntimeError(f"layer {l} of granularity {k} was not retained")
        return mat


def propagate(
    params: ModelParameters,
    matrices,
    layers: SelectedLayers,
    depth=None,
    retain_chain=True,
    granularities=None,
) -> PropagationOutput:
    """Run linear propagation for every granularity up to ``depth``.

    Each step multiplies the previous layer by the granularity's
    normalized adjacency.  ``depth`` defaults to the deeper selected
    layer.  With ``retain_chain=False`` only the selected layers are
    kept (enough for scoring, not for gradients).  ``granularities``
    restricts the work to a subset (phases early in the schedule never
    read the finer chains); other chains are present but empty.
    """
    if depth is None:
        depth = layers.depth
    if depth < layers.depth:
        raise ValueError(f"depth {depth} below deepest selected layer {layers.depth}")
    if len(matrices) != params.popularity.num_granularities:
        raise ValueError(
            f"expected {params.popularity.num_granularities} matrices, got {len(matrices)}"
        )
    wanted = (
        set(range(params.popularity.num_granularities))
        if granularities is None
        else set(granularities)
    )
    keep = {0, layers.l_odd, layers.l_even}
    chains = []
    for k in range(params.popularity.num_granularities):
        if k not in wanted:
            chains.append([None] * (depth + 1))
            continue
        current = params.base_for(k)
        chain = [current]
        for l in range(1, depth + 1):
            current = spmm(matrices[k], current)
            chain.append(current if retain_chain or l in keep else None)
        chains.append(chain)
    return PropagationOutput(
        num_users=params.num_users,
        num_items=params.num_items,
        layers=layers,
        chains=chains,
        matrices=list(matrices),
        default_weights=params.popularity.granularity_weights,
        shared_base=params.shared_base,
    )


def score_users(out: PropagationOutput, users, items=None, weights=None, granularities=None):
    """Preference scores of ``users`` against ``items`` (default: every item).

    Per granularity k and selected layer, the term is
    w_k * (e_users @ e_items.T), accumulated in granularity then layer
    order; the result's shape follows numpy indexing of ``users`` and
    ``items`` (a scalar for one user and one item).
    """
    if weights is None:
        weights = out.default_weights
    if granularities is None:
        granularities = range(out.num_granularities)
    m = out.num_users
    scores = None
    for k in granularities:
        for l in (out.layers.l_odd, out.layers.l_even):
            emb = out.layer(k, l)
            item_rows = emb[m:] if items is None else emb[m + np.asarray(items)]
            part = weights[k] * (emb[users] @ item_rows.T)
            scores = part if scores is None else scores + part
    return scores


def score_pair(out: PropagationOutput, u, i, weights=None, granularities=None) -> float:
    """Preference score: per granularity, the user/item inner products at
    the odd and even selected layers, weighted and summed."""
    if not 0 <= u < out.num_users:
        raise IndexError(f"user index {u} out of range")
    if not 0 <= i < out.num_items:
        raise IndexError(f"item index {i} out of range")
    return float(score_users(out, u, i, weights, granularities))


def score_all_items(out: PropagationOutput, u, weights=None, granularities=None) -> np.ndarray:
    """Vector of scores for user ``u`` against every item."""
    if not 0 <= u < out.num_users:
        raise IndexError(f"user index {u} out of range")
    return score_users(out, u, None, weights, granularities)


@dataclass(eq=False)
class Checkpoint:
    params: ModelParameters
    layers: SelectedLayers
    phase: int
    epoch: int


def save_checkpoint(path, params: ModelParameters, layers: SelectedLayers, phase, epoch):
    """Write header line + per-granularity tables as little-endian float64.

    A shared base table is written once per granularity so the file
    layout is independent of the sharing mode.
    """
    cfg = params.popularity
    header = (
        f"{CHECKPOINT_MAGIC} {params.num_users} {params.num_items} {params.embed_dim} "
        f"{cfg.max_granularity} {float(cfg.granularity_unit)!r} "
        f"{layers.l_odd} {layers.l_even} {phase} {epoch}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for k in range(cfg.num_granularities):
            fh.write(np.ascontiguousarray(params.base_for(k), dtype="<f8").tobytes())


def load_checkpoint(path, shared_base=False, granularity_weights=None) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint` (bit-exact)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 10 or header[0] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad checkpoint header")
        try:
            m, n, embed_dim, max_k = (int(x) for x in header[1:5])
            unit = float(header[5])
            l_odd, l_even, phase, epoch = (int(x) for x in header[6:10])
        except ValueError as exc:
            raise CheckpointFormatError(f"{path}: bad header field ({exc})") from None
        cfg = PopularityConfig(
            granularity_unit=unit,
            max_granularity=max_k,
            granularity_weights=granularity_weights,
        )
        rows = m + n
        table_bytes = rows * embed_dim * 8
        tables = []
        for k in range(max_k + 1):
            raw = fh.read(table_bytes)
            if len(raw) != table_bytes:
                raise CheckpointFormatError(f"{path}: truncated table {k}")
            tables.append(np.frombuffer(raw, dtype="<f8").reshape(rows, embed_dim).copy())
        if fh.read(1):
            raise CheckpointFormatError(f"{path}: trailing bytes after last table")
    if shared_base and any(
        not np.array_equal(table.view(np.int64), tables[0].view(np.int64)) for table in tables[1:]
    ):
        raise CheckpointFormatError(
            f"{path}: shared_base requested, but the stored tables differ "
            "(the checkpoint holds one table per granularity)"
        )
    params = ModelParameters(
        num_users=m,
        num_items=n,
        embed_dim=embed_dim,
        popularity=cfg,
        base_embeddings=tables[:1] if shared_base else tables,
        shared_base=shared_base,
    )
    return Checkpoint(
        params=params,
        layers=SelectedLayers(l_odd=l_odd, l_even=l_even),
        phase=phase,
        epoch=epoch,
    )
