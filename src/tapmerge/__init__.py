"""Duplicate-person detection and merging for temporal activity networks.

The pipeline: load activity records into a 2-mode temporal multigraph,
screen character pairs whose relation structure matches exactly
(structure error zero), confirm real duplicates with temporally
weighted activity-path similarity, then merge each confirmed group onto
one representative vertex with full provenance.

`import tapmerge` loads no stage: the first use of a public name, or of
a stage submodule such as `tapmerge.merge`, imports its home module.
"""

__version__ = "0.1.0"

# each stage submodule that `tapmerge.<stage>` resolves, and the public names it defines
_EXPORTS = {
    "graph": (
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
    ),
    "ingest": ("DatasetManifest", "IngestError", "LoadReport", "TransactionRecord", "export", "load", "load_records"),
    "merge": ("MergeAudit", "MergedNetwork", "MergePlan", "VerificationReport", "apply_merge", "plan_merge", "verify_merge"),
    "screening": ("CandidateSet", "NameFilter", "StructureError", "screen_candidates", "structure_error"),
    "similarity": (
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
    ),
    "unionfind": (),
}
# each public name -> its home module
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    """Import the home module of a public name, or the stage submodule `name`, and keep the value here."""
    module = _HOMES.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__`, not `importlib`, which would also load `warnings`; it binds the submodule here
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_EXPORTS})
