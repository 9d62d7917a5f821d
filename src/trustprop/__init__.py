"""Topic-gated vector reputation propagation over agent service graphs."""

from .errors import DegenerateVectorError, ValidationError
from .gates import (
    ConfidenceGateConfig,
    EntropyGateConfig,
    GateStack,
    KlGateConfig,
    MagnitudeGateConfig,
)
from .graph import Agent, AgentTable, Edge, EdgeTable, NormalizedGraph, WeightConfig, normalize
from .harness import Corpus, CorpusSpec, generate_corpus, run_scenario
from .operators import OperatorKind, transfer, verify_lipschitz
from .propagation import (
    DomainMatrices,
    PropagationConfig,
    ReputationState,
    build_domain_matrices,
    build_negative_matrices,
    run,
    steady_state_bound,
    warm_start,
)
from .retrieval import Query, pipeline_search, precision_at_k, score_dot, score_mixed
from .vectorspace import center_and_normalize, cosine, fit_centering

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "AgentTable",
    "ConfidenceGateConfig",
    "Corpus",
    "CorpusSpec",
    "DegenerateVectorError",
    "DomainMatrices",
    "Edge",
    "EdgeTable",
    "EntropyGateConfig",
    "GateStack",
    "KlGateConfig",
    "MagnitudeGateConfig",
    "NormalizedGraph",
    "OperatorKind",
    "PropagationConfig",
    "Query",
    "ReputationState",
    "ValidationError",
    "WeightConfig",
    "build_domain_matrices",
    "build_negative_matrices",
    "center_and_normalize",
    "cosine",
    "fit_centering",
    "generate_corpus",
    "normalize",
    "pipeline_search",
    "precision_at_k",
    "run",
    "run_scenario",
    "score_dot",
    "score_mixed",
    "steady_state_bound",
    "transfer",
    "verify_lipschitz",
    "warm_start",
    "__version__",
]
