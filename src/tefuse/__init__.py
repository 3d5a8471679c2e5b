"""Hierarchical fusion of multivariate time series by transfer-entropy similarity.

The pipeline reduces a multivariate series to a hierarchy of fused
"supernode" variables while preserving the ability to estimate a designated
target variable at every level:

1. continuous channels are symbolized by maximum entropy (quantile)
   partitioning (:mod:`tefuse.sdf`),
2. symbol histories become window keys, folded in mixed radix, which the
   entropies and the estimator count alike (:mod:`tefuse.infotheory`;
   :mod:`tefuse.embedding` exposes the radix encoding itself),
3. directed information flow toward the target is measured with plug-in
   transfer entropy (:mod:`tefuse.infotheory`),
4. the pair of channels whose fusion best preserves that flow is merged and
   repartitioned (:mod:`tefuse.fusion`), and the process repeats until the
   requested number of supernodes remains (:mod:`tefuse.clustering`),
5. a conditional-frequency estimator scores target predictions at every
   level of the resulting tree (:mod:`tefuse.estimate`).

:mod:`tefuse.cli` exposes the pipeline as the ``tefuse`` command.
"""

__version__ = "0.1.0"

from .clustering import (
    MergeRecord,
    MergeTree,
    cluster,
    export_tree,
    leaf_sequences,
    replay_merges,
    score_pair,
    tree_from_json,
)
from .embedding import StateSequence, decode_state, embed
from .errors import (
    DegenerateInput,
    EmptyAfterFiltering,
    LengthMismatch,
    MalformedArtifact,
    MissingColumn,
    PipelineError,
    SequenceTooShort,
    TreeDatasetMismatch,
    UnparseableHeader,
    UnreadableCsv,
)
from .estimate import EvaluationReport, LevelScore, discretize_target, evaluate_levels
from .fusion import MergedSequence, fuse, merge_pair
from .infotheory import (
    causation_entropy_pair,
    transfer_entropies,
    transfer_entropy,
)
from .ingest import (
    Dataset,
    RunConfig,
    append_noise_channels,
    load_csv,
    read_config_file,
    split_index,
)
from .sdf import (
    Partition,
    SymbolSequence,
    fit_mep_partition,
    fit_uniform_partition,
    symbolize,
)

__all__ = [
    "__version__",
    # ingest
    "Dataset", "RunConfig", "load_csv", "split_index",
    "append_noise_channels", "read_config_file",
    # sdf
    "Partition", "SymbolSequence", "fit_mep_partition",
    "fit_uniform_partition", "symbolize",
    # embedding
    "StateSequence", "embed", "decode_state",
    # infotheory
    "transfer_entropy", "transfer_entropies", "causation_entropy_pair",
    # fusion
    "MergedSequence", "merge_pair", "fuse",
    # clustering
    "MergeRecord", "MergeTree", "score_pair", "cluster", "export_tree",
    "tree_from_json", "leaf_sequences", "replay_merges",
    # estimate
    "EvaluationReport", "LevelScore", "discretize_target", "evaluate_levels",
    # errors
    "PipelineError", "MissingColumn", "UnparseableHeader", "UnreadableCsv",
    "EmptyAfterFiltering", "DegenerateInput", "LengthMismatch",
    "SequenceTooShort", "TreeDatasetMismatch", "MalformedArtifact",
]
