"""Duplicate-person detection and merging for temporal activity networks.

The pipeline: load activity records into a 2-mode temporal multigraph,
screen character pairs whose relation structure matches exactly
(structure error zero), confirm real duplicates with temporally
weighted activity-path similarity, then merge each confirmed group onto
one representative vertex with full provenance.
"""

__version__ = "0.1.0"

from .graph import (
    GraphError,
    NetworkBundle,
    OneModeNetwork,
    OneModeRelation,
    TemporalActivityNetwork,
    TemporalEdge,
    TimeInterval,
    Vertex,
    VertexKind,
    project_one_mode,
    rebuild,
)
from .ingest import (
    DatasetManifest,
    IngestError,
    LoadReport,
    TransactionRecord,
    export,
    load,
    load_records,
)
from .merge import (
    MergeAudit,
    MergedNetwork,
    MergePlan,
    VerificationReport,
    apply_merge,
    plan_merge,
    verify_merge,
)
from .screening import (
    CandidateSet,
    NameFilter,
    StructureError,
    screen_candidates,
    structure_error,
)
from .similarity import (
    PairScores,
    RedundantGroupSet,
    SimilarityResult,
    TapPath,
    combine_subnetwork_scores,
    edge_weight,
    enumerate_paths,
    neighbor_weight_vector,
    resolve_now,
    similarity_for_pairs,
    simtap,
    simtap_beta,
    threshold_groups,
)

__all__ = [
    "__version__",
    "GraphError",
    "NetworkBundle",
    "OneModeNetwork",
    "OneModeRelation",
    "TemporalActivityNetwork",
    "TemporalEdge",
    "TimeInterval",
    "Vertex",
    "VertexKind",
    "project_one_mode",
    "rebuild",
    "DatasetManifest",
    "IngestError",
    "LoadReport",
    "TransactionRecord",
    "export",
    "load",
    "load_records",
    "MergeAudit",
    "MergedNetwork",
    "MergePlan",
    "VerificationReport",
    "apply_merge",
    "plan_merge",
    "verify_merge",
    "CandidateSet",
    "NameFilter",
    "StructureError",
    "screen_candidates",
    "structure_error",
    "PairScores",
    "RedundantGroupSet",
    "SimilarityResult",
    "TapPath",
    "combine_subnetwork_scores",
    "edge_weight",
    "enumerate_paths",
    "neighbor_weight_vector",
    "resolve_now",
    "similarity_for_pairs",
    "simtap",
    "simtap_beta",
    "threshold_groups",
]
