"""Multi-grained popularity-aware graph convolution collaborative filtering.

Pipeline: load interaction data, build popularity-scaled propagation
matrices over the joined user/item graph, pick the scoring layers by
neighborhood coverage, train per-granularity embeddings with a
separated pairwise ranking loss under a stacked phase schedule, and
evaluate full-ranking top-K recommendation quality.
"""

from .data import DatasetFormatError, InteractionDataset, load_dataset, save_dataset, split_validation
from .graph import (
    GraphConfigError,
    PopularityConfig,
    SparseMatrix,
    build_adjacency,
    build_normalized_adjacency,
    propagation_matrices,
    spmm,
    transpose,
)
from .layers import (
    LayerSelectionConfig,
    LayerSelectionError,
    SelectedLayers,
    count_k_hop_neighbors,
    hop_coverages,
    select_layers,
)
from .model import (
    Checkpoint,
    CheckpointFormatError,
    ModelParameters,
    PropagationOutput,
    init_parameters,
    load_checkpoint,
    propagate,
    save_checkpoint,
    score_all_items,
    score_pair,
)
from .training import (
    OptimizerState,
    PhaseSchedule,
    TrainConfig,
    TrainingDivergedError,
    TripleBatch,
    TripleSampler,
    backward,
    init_optimizer_state,
    optimizer_step,
    separated_bpr_loss,
    train,
)
from .evaluation import MetricsReport, evaluate, ndcg_at_k, rank_user, recall_at_k

__version__ = "0.1.0"
