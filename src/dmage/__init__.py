"""dmage: deep manifold attributed graph embedding.

Learns low-dimensional node embeddings by matching geodesic similarities —
shortest-path distances over feature-weighted edges, passed through a
calibrated Student-t kernel — between the input graph and the latent space.
Ships the full pipeline: distance/similarity precomputation, the FC+FCA
embedding network with hand-rolled reverse-mode gradients, per-epoch edge
augmentation, Bregman-divergence training, and clustering/link-prediction
evaluation.
"""

from .augmentation import AugmentationConfig, AugmentationWarning, AugmentedEdges, augment
from .container import (
    ContainerFormatError,
    load_checkpoint,
    load_matrix,
    save_checkpoint,
    save_matrix,
)
from .distances import (
    DegenerateGraphWarning,
    GeodesicDistanceMatrix,
    complete_graph_distances,
    geodesic_distances,
    pairwise_distance,
)
from .evaluation import (
    ClusteringReport,
    LinkPredReport,
    LinkPredSplit,
    auc_ap,
    cluster_eval,
    clustering_metrics,
    edge_scores,
    kmeans,
    linkpred_eval,
    linkpred_split,
)
from .graph import (
    AttributedGraph,
    DistanceMetric,
    GraphFormatError,
    adjacency,
    hop_neighborhoods,
    knn_graph,
    load_graph,
)
from .losses import (
    BregmanKind,
    LossTerms,
    bregman_logistic,
    bregman_sed,
    fused_loss,
)
from .network import (
    GradientTape,
    LayerSpec,
    NetworkParams,
    StaleTapeError,
    aggregation_matrix,
    backward,
    default_stack,
    forward,
    init_network,
)
from .similarity import (
    CalibrationParams,
    CalibrationWarning,
    SimilarityMatrix,
    calibrate_all,
    calibrate_sigma,
    conditional_similarity,
    symmetrize,
    t_kernel,
)
from .synthetic import two_block_sbm
from .training import (
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    embed,
    precompute,
    read_embeddings,
    train,
    write_embeddings,
    write_loss_history,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AttributedGraph",
    "AugmentationConfig",
    "AugmentationWarning",
    "AugmentedEdges",
    "BregmanKind",
    "CalibrationParams",
    "CalibrationWarning",
    "ClusteringReport",
    "ContainerFormatError",
    "DegenerateGraphWarning",
    "DistanceMetric",
    "GeodesicDistanceMatrix",
    "GradientTape",
    "GraphFormatError",
    "LayerSpec",
    "LinkPredReport",
    "LinkPredSplit",
    "LossTerms",
    "NetworkParams",
    "SimilarityMatrix",
    "StaleTapeError",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "adjacency",
    "aggregation_matrix",
    "auc_ap",
    "augment",
    "backward",
    "bregman_logistic",
    "bregman_sed",
    "calibrate_all",
    "calibrate_sigma",
    "cluster_eval",
    "clustering_metrics",
    "complete_graph_distances",
    "conditional_similarity",
    "default_stack",
    "edge_scores",
    "embed",
    "forward",
    "fused_loss",
    "geodesic_distances",
    "hop_neighborhoods",
    "init_network",
    "kmeans",
    "knn_graph",
    "linkpred_eval",
    "linkpred_split",
    "load_checkpoint",
    "load_graph",
    "load_matrix",
    "pairwise_distance",
    "precompute",
    "read_embeddings",
    "save_checkpoint",
    "save_matrix",
    "symmetrize",
    "t_kernel",
    "train",
    "two_block_sbm",
    "write_embeddings",
    "write_loss_history",
]
