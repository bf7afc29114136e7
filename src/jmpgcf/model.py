"""Trainable embeddings, linear propagation, and preference scoring.

One base embedding table per popularity granularity is propagated
through its granularity's normalized adjacency; scores are sums of
inner products taken at the selected odd and even layers, optionally
weighted per granularity.  There are no per-layer weight matrices and
no nonlinearities anywhere in the forward path.

That sum is one inner product of stacked factors.  With the selected
layers of every granularity side by side, ``[e^{k,odd} | e^{k,even}]``
for k in order (``PropagationOutput.factor``), a user's row, each
block scaled by its w_k, against an item's row gives the score:
:func:`score_users` scales the users' rows and takes one GEMM, which
equals the term-by-term sum up to rounding.  Only :func:`propagate`
with ``retain_chain=False`` lays that factor out, so only such an
output can be scored; a training output keeps just the layers its loss
and gradient read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .graph import PopularityConfig, SparseMatrix, side_by_side, spmm, stage_threads
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
    "score_users",
]

CHECKPOINT_MAGIC = "JMPGCF1"
# the header's fields after the magic, in order, and the least valid
# value of each count among them
_HEADER_FIELDS = ("m", "n", "embed_dim", "max_granularity", "granularity_unit",
                  "l_odd", "l_even", "phase", "epoch")
_HEADER_LEAST = {"m": 0, "n": 0, "embed_dim": 1, "phase": 0, "epoch": 0}


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
    steps at granularity k (index 0 is the base table), or None for a
    layer that nothing reads and so was not kept.

    A training output (``retain_chain=True``) keeps the base, the
    selected layers and layer depth - 1, and defers its deepest layer:
    for each granularity in ``deferred``, ``chains[k][depth]`` stays None
    until :meth:`layer` computes and caches it.  A training step reads
    that layer only at its batch's rows, as ``A_k[rows] @ chains[k][depth
    - 1]``, without computing it in full (see :mod:`training`).

    An eager output (``retain_chain=False``) keeps the base and the
    selected layers of every granularity.  ``factor`` holds them side by
    side: granularity k's block is columns [2kd, 2(k+1)d) for d =
    embed_dim, odd layer first, and each of those ``chains[k][l]`` is a
    view of its half block.  Only an output with a factor can be scored
    (:func:`score_users`).
    """

    num_users: int
    num_items: int
    layers: SelectedLayers
    chains: list[list[np.ndarray]]
    matrices: list[SparseMatrix]
    default_weights: tuple[float, ...]
    shared_base: bool
    deferred: frozenset[int] = frozenset()
    factor: np.ndarray | None = field(default=None, repr=False)
    # what a training step computed for its last batch (training._batch_terms)
    _batch_cache: object = field(default=None, repr=False)

    @property
    def num_granularities(self) -> int:
        return len(self.chains)

    @property
    def depth(self) -> int:
        return len(self.chains[0]) - 1

    def _is_pending(self, k: int, l: int) -> bool:
        return l == self.depth and k in self.deferred and self.chains[k][l] is None

    def layer(self, k: int, l: int) -> np.ndarray:
        """Layer ``l`` of granularity ``k``; a deferred layer is computed
        in full on the first read and kept."""
        if self._is_pending(k, l):
            self.chains[k][l] = spmm(self.matrices[k], self.chains[k][l - 1])
        mat = self.chains[k][l]
        if mat is None:
            raise RuntimeError(f"layer {l} of granularity {k} was not retained")
        return mat

    def stacked_factor(self) -> np.ndarray:
        """``factor``, or a RuntimeError for an output that cannot be scored."""
        if self.factor is None:
            raise RuntimeError(
                "only an output of propagate(retain_chain=False) can be scored: "
                "this one has no stacked factor"
            )
        return self.factor


def propagate(
    params: ModelParameters,
    matrices,
    layers: SelectedLayers,
    retain_chain=True,
    granularities=None,
) -> PropagationOutput:
    """Run linear propagation for every granularity up to the deeper
    selected layer.

    Each step multiplies the previous layer by the granularity's
    normalized adjacency, and a step's output is kept only if something
    reads it later.  With ``retain_chain=True`` (training) those are the
    selected layers and the layer below the deepest; the deepest layer
    itself is deferred: it is computed on first read, or only at the
    batch's rows (see :class:`PropagationOutput`).  With
    ``retain_chain=False`` every selected layer of every granularity is
    computed here, into its block of the stacked factor (granularity k at
    columns [2kd, 2(k+1)d)); only such an output can be scored.
    ``granularities`` restricts a training output to a subset (phases
    early in the schedule never read the finer chains); other chains are
    present but empty.  An eager output takes no proper subset
    (ValueError): scoring leaves a granularity out by a zero weight.  The
    chains are computed side by side, or on one thread when a hop splits by
    rows (:func:`graph.stage_threads`), each hop into a buffer made on the
    calling thread before any chain starts: one per kept layer and chain,
    and two per thread for the others.
    """
    count = params.popularity.num_granularities
    if len(matrices) != count:
        raise ValueError(f"expected {count} matrices, got {len(matrices)}")
    chosen = set(range(count) if granularities is None else granularities)
    wanted = tuple(k for k in range(count) if k in chosen)
    if not retain_chain and len(wanted) < count:
        raise ValueError("propagate(retain_chain=False) stacks every granularity, not a subset")
    depth = layers.depth
    selected = (layers.l_odd, layers.l_even)
    keep = {*selected, depth - 1} if retain_chain else set(selected)
    computed = depth - 1 if retain_chain else depth
    dim = params.embed_dim
    shape = (params.num_users + params.num_items, dim)
    kept = [l for l in range(1, computed + 1) if retain_chain and l in keep]
    factor = None
    if not retain_chain:
        factor = np.empty((shape[0], 2 * count * dim))

    def chain_of(k, outputs, spare):
        # A hop writes into outputs[l] when the chain keeps layer l as it
        # is, and otherwise into the one of its thread's two spare buffers
        # that the layer it reads is not in.
        current = params.base_for(k)
        chain = [current]
        for l in range(1, computed + 1):
            current = spmm(matrices[k], current, outputs[l] if l in outputs else spare[l % 2])
            if l not in keep:
                chain.append(None)
            elif retain_chain:
                chain.append(current)
            else:
                start = (2 * k + selected.index(l)) * dim
                block = factor[:, start:start + dim]
                block[...] = current
                chain.append(block)
        return chain + [None] * (depth - computed)

    built = side_by_side(
        (partial(chain_of, k, {l: np.empty(shape) for l in kept}) for k in wanted),
        lambda: (np.empty(shape), np.empty(shape)) if len(kept) < computed else (),
        stage_threads([matrices[k] for k in wanted], dim))
    built = dict(zip(wanted, built))
    chains = [built.get(k, [None] * (depth + 1)) for k in range(count)]
    return PropagationOutput(
        num_users=params.num_users,
        num_items=params.num_items,
        layers=layers,
        chains=chains,
        matrices=list(matrices),
        default_weights=params.popularity.granularity_weights,
        shared_base=params.shared_base,
        deferred=frozenset(wanted) if retain_chain else frozenset(),
        factor=factor,
    )


def score_users(out: PropagationOutput, users, items=None, weights=None, *, result=None):
    """Preference scores of ``users`` against ``items`` (default: every item).

    The score sums w_k * <e_u^{k,l}, e_i^{k,l}> over granularities k and
    the selected layers l, which is <[w_k * e_u^k]_k, [e_i^k]_k> over the
    stacked factor (:class:`PropagationOutput`).  ``weights`` (default:
    the output's) holds one w_k per granularity; a weight of 0 leaves its
    granularity out.  A copy of the users' rows has each granularity's
    block multiplied by w_k (no multiply runs when every weight is 1.0);
    one GEMM against the item rows then gives every score, into
    ``result`` (a float64 array of the scores' shape) when given.  That
    equals the term-by-term sum up to rounding.  The result's shape
    follows numpy indexing of ``users`` and ``items`` (a scalar for one
    user and one item).  A user or item index outside its range is an
    IndexError: the factor's rows join the users and the items, so it
    would otherwise score a row of the other kind.
    """
    factor = out.stacked_factor()
    scale = np.asarray(out.default_weights if weights is None else weights, dtype=np.float64)
    if scale.shape != (out.num_granularities,):
        raise ValueError(
            f"expected {out.num_granularities} granularity weights, got {scale.size}"
        )
    m = out.num_users
    for kind, index, count in (("user", users, m), ("item", items, out.num_items)):
        index = np.asarray([] if index is None else index)
        if index.size and not 0 <= index.min() <= index.max() < count:
            raise IndexError(f"{kind} index outside [0, {count})")
    user_rows = factor[users]
    if np.any(scale != 1.0):
        # out of place: for one user, factor[users] is a view of the factor
        user_rows = user_rows * np.repeat(scale, factor.shape[1] // scale.size)
    item_rows = factor[m:] if items is None else factor[m + np.asarray(items)]
    return np.matmul(user_rows, item_rows.T, out=result)


def score_all_items(out: PropagationOutput, u) -> np.ndarray:
    """Vector of scores for user ``u`` against every item."""
    return score_users(out, u)


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
            fields = {name: _header_value(name, text)
                      for name, text in zip(_HEADER_FIELDS, header[1:])}
            cfg = PopularityConfig(granularity_unit=fields["granularity_unit"],
                                   max_granularity=fields["max_granularity"])
            layers = SelectedLayers(l_odd=fields["l_odd"], l_even=fields["l_even"])
        except ValueError as exc:  # GraphConfigError is one
            raise CheckpointFormatError(f"{path}: bad header field ({exc})") from None
        m, n, embed_dim = fields["m"], fields["n"], fields["embed_dim"]
        # weights of the wrong count are the caller's error: GraphConfigError
        cfg = replace(cfg, granularity_weights=granularity_weights)
        rows = m + n
        table_bytes = rows * embed_dim * 8
        tables = []
        for k in range(cfg.num_granularities):
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
    return Checkpoint(params=params, layers=layers, phase=fields["phase"], epoch=fields["epoch"])


def _header_value(name, text):
    """The value of the checkpoint header field ``name`` written as
    ``text`` (``ValueError``, naming the field, for a bad one)."""
    try:
        value = float(text) if name == "granularity_unit" else int(text)
    except ValueError:
        raise ValueError(f"{name} is not a number: {text!r}") from None
    least = _HEADER_LEAST.get(name)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value
