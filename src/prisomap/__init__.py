"""Manifold-learning toolkit: window-capped isometric mapping with baselines.

Public API re-exports the main operations of each subsystem; see the CLI
(`prisomap --help`) for the end-to-end pipeline.
"""

from .bench import isomap, pr_isomap
from .datasets import (
    LabeledDataset,
    ManifoldSample,
    gen_swiss_roll,
    load_csv,
    load_idx,
    save_csv,
    standardize,
    swiss_roll_unrolled,
)
from .embed import (
    Embedding,
    classical_mds,
    pca,
)
from .evaluate import (
    EvalReport,
    evaluate_embedding,
    knn_classify_cv,
    residual_variance,
    stress,
    trustworthiness_continuity,
    uniformity_cv,
)
from .geodesics import (
    UNREACHABLE,
    all_pairs,
)
from .graph import (
    NeighborGraph,
    components,
    knn_graph,
    pr_density,
)
from .linalg import EigenResult, symmetric_eig

__version__ = "0.1.0"

__all__ = [
    "LabeledDataset",
    "ManifoldSample",
    "gen_swiss_roll",
    "load_csv",
    "load_idx",
    "save_csv",
    "standardize",
    "swiss_roll_unrolled",
    "Embedding",
    "classical_mds",
    "isomap",
    "pca",
    "pr_isomap",
    "EvalReport",
    "evaluate_embedding",
    "knn_classify_cv",
    "residual_variance",
    "stress",
    "trustworthiness_continuity",
    "uniformity_cv",
    "UNREACHABLE",
    "all_pairs",
    "NeighborGraph",
    "components",
    "knn_graph",
    "pr_density",
    "EigenResult",
    "symmetric_eig",
    "__version__",
]
