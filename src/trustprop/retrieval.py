"""Query-time scoring: single-score strategies, BM25, rank fusion, pipeline.

``rank`` is the one place a strategy name is turned into a ranking.

Converged reputation vectors double as a retrieval index.  The direct dot
product R[j].q mixes topical alignment with accumulated magnitude; the mixed
strategies expose that trade-off explicitly; the pipeline fuses lexical and
embedding channels with reciprocal-rank fusion and reranks by log-damped
magnitude.

``ranked`` is the one ordering function for every ranked list, here and in
the harness: score descending, then id ascending with ids compared as
Python strings (``"a10"`` before ``"a9"``, ``"a"`` before ``"a\\x00"``),
only among tied scores.  So each list is a deterministic function of its
inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from collections import Counter
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .graph import STRING, VECTOR, Agent, AgentTable, Field, check_fields, field_table, strings
from .propagation import ReputationState
from .vectorspace import row_norms

RRF_K = 60
BM25_K1 = 1.2
BM25_B = 0.75

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    embedding: np.ndarray
    expected_domains: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        check_fields(self, QUERY_FIELDS)
        if not np.isfinite(self.embedding).all():
            raise ValidationError(f"query {self.id}: embedding must be finite")


QUERY_FIELDS = field_table(
    Query,
    Field("id", STRING),
    Field("text", STRING),
    Field("embedding", VECTOR),
    Field("expected_domains", strings(frozenset)),
)


RankedList = list[tuple[str, float]]


def ranked(ids: Sequence[str], scores: Sequence[float] | np.ndarray) -> RankedList:
    """(id, score) pairs by score descending, then id ascending, then input
    position; scores come out as Python floats.

    One numeric sort orders the scores.  Only the entries whose score ties
    another's (equal values, so ``-0.0`` ties ``0.0``; NaNs tie each other
    and come last) are sorted again, by score then id, with the ids in an
    object array so that they compare as Python strings: a NumPy ``U`` array
    ignores trailing NULs.  The list is the one ``np.lexsort((ids,
    -scores))`` orders.  Ids and scores of different lengths are rejected.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(ids) != len(scores):
        raise ValidationError(f"ranked: {len(ids)} ids but {len(scores)} scores")
    ids = np.asarray(ids, dtype=object)
    keys = -scores
    order = np.argsort(keys)
    ranked_keys = keys[order]
    nan = np.isnan(ranked_keys)
    tied = (ranked_keys[1:] == ranked_keys[:-1]) | (nan[1:] & nan[:-1])
    if tied.any():
        # Only the members of tied runs need the full sort: taken in input
        # order, by key then id, they fill their runs' slots.
        at = np.flatnonzero(np.concatenate(([False], tied)) | np.concatenate((tied, [False])))
        pos = np.sort(order[at])
        order[at] = pos[np.lexsort((ids[pos], keys[pos]))]
    return list(zip(ids[order].tolist(), scores[order].tolist()))


def rank_scores(scores: Mapping[str, float]) -> RankedList:
    """``ranked`` over the items of an id->score mapping."""
    return ranked(list(scores), list(scores.values()))


# --- single-score strategies --------------------------------------------------


def score_dot(state: ReputationState, query: Query) -> RankedList:
    """Rank by R[j] . q — magnitude and direction in one number."""
    return ranked(state.id_array(), state.vectors @ _query_vector(state, query))


VARIANTS = ("power", "log_damped")


def score_mixed(
    state: ReputationState,
    query: Query,
    beta_mix: float,
    variant: str = "power",
) -> RankedList:
    """Cosine-based score with tunable magnitude influence.

    ``power``:      cos(R, q) * ||R||^beta_mix   (0 -> pure cosine, 1 -> dot)
    ``log_damped``: cos(R, q) * (1 + beta_mix * ln(1 + ||R||))

    Zero-magnitude agents score 0 under both variants.  A ``beta_mix`` that
    takes the factor of an agent with a magnitude to 0 or past the floats
    is rejected: every score would be 0 or inf, ranked by id alone.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown mixed variant {variant!r}")
    if not 0 <= beta_mix < math.inf:
        raise ValidationError("beta_mix must be finite and >= 0")
    q = _query_vector(state, query)
    norms = state.magnitudes()
    dots = state.vectors @ q
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
    factor = 1.0  # both variants at beta_mix = 0
    if beta_mix:
        with np.errstate(over="ignore"):  # an overflow is rejected below
            if variant == "power":
                factor = norms**beta_mix
            else:
                factor = 1.0 + beta_mix * np.log1p(norms)
        lost = np.flatnonzero((norms > 0) & ((factor == 0) | ~np.isfinite(factor)))
        if lost.size:
            aid, value = state.agent_ids[lost[0]], float(factor[lost[0]])
            raise ValidationError(
                f"beta_mix {beta_mix!r} takes the {variant} factor of agent {aid!r} "
                f"to {value!r}; it must stay finite and above 0"
            )
    return ranked(state.id_array(), np.where(norms > 0, cos * factor, 0.0))


def _query_vector(state: ReputationState, query: Query) -> np.ndarray:
    q = query.embedding
    if q.shape[0] != state.vectors.shape[1]:
        raise ValidationError(
            f"query dim {q.shape[0]} does not match state width {state.vectors.shape[1]}"
        )
    return q


# --- lexical channel ----------------------------------------------------------


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return _TOKEN_RE.findall(text.lower())


def bm25_scores(descriptions: Mapping[str, str], query_text: str) -> RankedList:
    """Okapi BM25 (k1=1.2, b=0.75) of the query against agent descriptions.

    Each description is tokenized once into a term-frequency ``Counter``:
    its length, the document frequencies and its score are read from it.
    A score sums its terms in query order, repeats included.  Agents whose
    description shares no term with the query are excluded rather than
    listed at score zero.
    """
    terms = tokenize(query_text)
    if not terms:
        raise ValidationError("query has no usable terms")
    tfs = {aid: Counter(tokenize(text)) for aid, text in descriptions.items()}
    if not tfs:
        return []
    avgdl = sum(tf.total() for tf in tfs.values()) / len(tfs)
    vocab = set(terms)
    df = Counter(t for tf in tfs.values() for t in tf.keys() & vocab)
    idf = {t: math.log(1.0 + (len(tfs) - n + 0.5) / (n + 0.5)) for t, n in df.items()}
    scores: dict[str, float] = {}
    for aid, tf in tfs.items():
        hits = [t for t in terms if t in tf]
        if hits:
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * tf.total() / avgdl)
            s = 0.0
            for t in hits:
                s += idf[t] * tf[t] * (BM25_K1 + 1.0) / (tf[t] + norm)
            scores[aid] = s
    return rank_scores(scores)


# --- fusion and pipeline ------------------------------------------------------


def rrf_merge(lists: Sequence[RankedList], k: int = RRF_K) -> RankedList:
    """Reciprocal-rank fusion: score(a) = sum over lists of 1/(k + rank_a)."""
    if not 0 < k < math.inf:
        raise ValidationError("rrf k must be finite and > 0")
    scores: dict[str, float] = {}
    for ranked in lists:
        for rank, (aid, _) in enumerate(ranked, start=1):
            scores[aid] = scores.get(aid, 0.0) + 1.0 / (k + rank)
    return rank_scores(scores)


def pipeline_search(
    state: ReputationState,
    agents: AgentTable | Sequence[Agent],
    query: Query,
) -> RankedList:
    """Three-channel retrieval with rank fusion and magnitude rerank.

    Channels: BM25 over agent descriptions, cosine of the query against
    profile embeddings, cosine against unit-normalized reputation vectors.
    Fused ranks are reweighted by ln(1 + ||R[j]||), so unknown agents cannot
    win on lexical overlap alone.
    """
    agents = AgentTable.of(agents)
    row = dict(zip(agents.id, range(len(agents))))
    missing = [aid for aid in state.agent_ids if aid not in row]
    if missing:
        raise ValidationError(f"agents missing for state ids: {missing[:3]}")
    q = _query_vector(state, query)
    qn = float(row_norms(q[None, :])[0])
    if qn == 0.0:
        raise ValidationError("query embedding is zero")

    ids = state.agent_ids
    rows = list(map(row.__getitem__, ids))
    # The stacked (1, E) @ (E, 1) products equal the per-profile dot
    # products bit for bit; a plain P @ q does not.
    profiles = agents.profile[rows].reshape(len(ids), q.size)
    profile_cos = (profiles[:, None, :] @ q[:, None]).ravel() / (row_norms(profiles) * qn)
    norms = state.magnitudes()
    dots = state.vectors @ q
    cos = np.divide(dots, norms * qn, out=np.zeros_like(dots), where=norms > 0)
    descriptions = dict(zip(ids, map(agents.description.__getitem__, rows)))
    fused = dict(rrf_merge(
        [bm25_scores(descriptions, query.text), ranked(ids, profile_cos), ranked(ids, cos)]
    ))
    # math.log1p, not np.log1p: the two differ in the last bit on some inputs.
    reranked = [fused[aid] * math.log1p(n) for aid, n in zip(ids, norms.tolist())]
    return ranked(ids, reranked)


# --- dispatch -----------------------------------------------------------------


STRATEGIES = ("dot", "cosine", "mixed", "pipeline")


def rank(
    state: ReputationState,
    query: Query,
    strategy: str = "dot",
    agents: AgentTable | Sequence[Agent] | None = None,
    beta_mix: float = 0.5,
    variant: str = "power",
) -> RankedList:
    """Rank every agent for ``query`` with one of ``STRATEGIES``.

    ``cosine`` is ``mixed`` at beta_mix = 0 with the power variant;
    ``pipeline`` needs the agent records for its lexical and profile
    channels.
    """
    if strategy == "dot":
        return score_dot(state, query)
    if strategy == "cosine":
        return score_mixed(state, query, 0.0, "power")
    if strategy == "mixed":
        return score_mixed(state, query, beta_mix, variant)
    if strategy == "pipeline":
        if agents is None:
            raise ValidationError("pipeline strategy requires agent records")
        return pipeline_search(state, agents, query)
    raise ValidationError(
        f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}"
    )


# --- evaluation ---------------------------------------------------------------


def precision_at_k(
    ranked: RankedList,
    agents: AgentTable | Sequence[Agent],
    expected_domains: frozenset[str] | set[str],
    k: int = 5,
    mode: str = "strict",
) -> float:
    """Fraction of the top k whose domain matches the expectation.

    ``strict`` counts primary-domain matches only; ``multilabel`` accepts
    secondary domains too.  The divisor is always k, even for short lists.
    """
    if mode not in ("strict", "multilabel"):
        raise ValidationError(f"unknown precision mode {mode!r}")
    if k <= 0:
        raise ValidationError("k must be positive")
    if not expected_domains:
        raise ValidationError("expected_domains is empty")
    agents = AgentTable.of(agents)
    row = dict(zip(agents.id, range(len(agents))))
    hits = 0
    for aid, _ in ranked[:k]:
        i = row.get(aid)
        if i is None:
            raise ValidationError(f"ranked agent {aid!r} not in agents")
        if agents.primary_domain[i] in expected_domains:
            hits += 1
        elif mode == "multilabel" and any(
            d in expected_domains for d in agents.secondary_domains[i]
        ):
            hits += 1
    return hits / k
