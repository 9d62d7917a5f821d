"""Tests for retrieval scoring, BM25, rank fusion, and precision@k."""

import math

import numpy as np
import pytest

from trustprop.errors import ValidationError
from trustprop.graph import Agent
from trustprop.propagation import ReputationState
from trustprop.retrieval import (
    Query,
    bm25_scores,
    pipeline_search,
    precision_at_k,
    rank,
    rank_scores,
    rrf_merge,
    score_dot,
    score_mixed,
    tokenize,
)


def make_state(rows, ids):
    return ReputationState(
        vectors=np.asarray(rows, dtype=np.float64),
        agent_ids=tuple(ids),
        mode="continuous",
        converged=True,
    )


def make_agent(agent_id, profile, domain="d", secondary=(), description=""):
    p = np.asarray(profile, dtype=np.float64)
    return Agent(
        id=agent_id,
        primary_domain=domain,
        profile=p / np.linalg.norm(p),
        teleport=np.zeros_like(p),
        exogenous=np.zeros_like(p),
        secondary_domains=tuple(secondary),
        description=description,
    )


def query(embedding, text="q", qid="q0", expected=()):
    return Query(id=qid, text=text, embedding=embedding, expected_domains=frozenset(expected))


# ---------------------------------------------------------------- scoring


def test_rank_scores_sorts_desc_then_id_asc():
    ranked = rank_scores({"b": 1.0, "a": 1.0, "c": 2.0})
    assert [aid for aid, _ in ranked] == ["c", "a", "b"]


def test_score_dot_values_and_order():
    state = make_state([[2.0, 0.0], [0.5, 0.5], [0.0, 0.0]], ["a", "b", "z"])
    ranked = score_dot(state, query(np.array([1.0, 0.0])))
    assert ranked[0] == ("a", pytest.approx(2.0))
    assert ranked[1] == ("b", pytest.approx(0.5))
    assert ranked[2] == ("z", pytest.approx(0.0))


def test_score_mixed_beta_zero_ignores_magnitude():
    # small but perfectly aligned beats large but misaligned at beta 0
    state = make_state([[0.001, 0.0], [3.0, 3.0]], ["small", "large"])
    ranked = score_mixed(state, query(np.array([1.0, 0.0])), beta_mix=0.0)
    assert ranked[0][0] == "small"
    ranked = score_mixed(state, query(np.array([1.0, 0.0])), beta_mix=1.0)
    assert ranked[0][0] == "large"


def test_score_mixed_matches_cosine_and_dot_orderings():
    rng = np.random.default_rng(31)
    vecs = rng.normal(size=(12, 4))
    vecs[3] = 0.0  # one silent agent
    ids = [f"a{i:02d}" for i in range(12)]
    state = make_state(vecs, ids)
    q = query(rng.normal(size=4))
    dots = state.vectors @ q.embedding
    norms = np.linalg.norm(state.vectors, axis=1)
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
    by_cos = [a for a, _ in rank_scores(dict(zip(ids, cos)))]
    by_dot = [a for a, _ in score_dot(state, q)]
    assert [a for a, _ in score_mixed(state, q, 0.0)] == by_cos
    assert [a for a, _ in score_mixed(state, q, 1.0)] == by_dot


def test_score_mixed_log_damped_monotone_in_magnitude():
    state = make_state([[1.0, 0.0], [4.0, 0.0]], ["small", "large"])
    q = query(np.array([1.0, 0.0]))
    ranked = score_mixed(state, q, beta_mix=0.5, variant="log_damped")
    scores = dict(ranked)
    assert scores["large"] == pytest.approx(1.0 + 0.5 * math.log(5.0), abs=1e-12)
    assert scores["small"] == pytest.approx(1.0 + 0.5 * math.log(2.0), abs=1e-12)


def test_score_mixed_validates_arguments():
    state = make_state([[1.0, 0.0]], ["a"])
    q = query(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        score_mixed(state, q, beta_mix=-0.5)
    with pytest.raises(ValidationError):
        score_mixed(state, q, beta_mix=0.5, variant="cubic")
    with pytest.raises(ValidationError):
        score_dot(state, query(np.array([1.0, 0.0, 0.0])))


# ---------------------------------------------------------------- lexical


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("Hello, world! x2") == ["hello", "world", "x2"]
    assert tokenize("...") == []


def test_bm25_equal_length_single_term_hits_idf():
    descriptions = {"a": "alpha beta", "b": "gamma delta"}
    ranked = bm25_scores(descriptions, "alpha")
    # tf=1 in a doc of average length makes the tf factor exactly 1, leaving
    # pure idf: ln(1 + (2 - 1 + 0.5) / (1 + 0.5)) = ln 2.
    assert ranked == [("a", pytest.approx(math.log(2.0), abs=1e-12))]


def test_bm25_excludes_zero_overlap_agents():
    descriptions = {"a": "alpha beta", "b": "gamma delta", "c": "alpha alpha"}
    ranked = bm25_scores(descriptions, "alpha")
    ids = [aid for aid, _ in ranked]
    assert "b" not in ids
    assert set(ids) == {"a", "c"}
    assert ranked[0][0] == "c"  # higher term frequency wins


def test_bm25_validates_query_and_handles_empty_corpus():
    with pytest.raises(ValidationError):
        bm25_scores({"a": "alpha"}, "!!!")
    assert bm25_scores({}, "alpha") == []


# ---------------------------------------------------------------- fusion


def test_rrf_rank_one_in_two_lists():
    lists = [[("x", 9.0)], [("x", 0.2)], [("y", 1.0)]]
    fused = dict(rrf_merge(lists))
    assert fused["x"] == pytest.approx(2.0 / 61.0, abs=1e-15)
    assert fused["y"] == pytest.approx(1.0 / 61.0, abs=1e-15)


def test_rrf_three_list_fixture():
    l1 = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
    l2 = [("b", 9.9), ("a", 5.0), ("d", 0.1)]
    l3 = [("d", 7.0)]
    fused = rrf_merge([l1, l2, l3])
    assert [aid for aid, _ in fused] == ["a", "b", "d", "c"]
    scores = dict(fused)
    assert scores["a"] == pytest.approx(1.0 / 61.0 + 1.0 / 62.0, abs=1e-15)
    assert scores["b"] == pytest.approx(scores["a"], abs=1e-15)  # exact tie, id wins
    assert scores["d"] == pytest.approx(1.0 / 63.0 + 1.0 / 61.0, abs=1e-15)
    assert scores["c"] == pytest.approx(1.0 / 63.0, abs=1e-15)


def test_rrf_rejects_non_positive_k():
    with pytest.raises(ValidationError):
        rrf_merge([[("a", 1.0)]], k=0)


# ---------------------------------------------------------------- pipeline


def _pipeline_fixture(zero_out=None):
    profiles = np.eye(3)
    words = ["alpha", "beta", "gamma"]
    agents = [
        make_agent(f"a{i}", profiles[i], description=f"{words[i]} systems")
        for i in range(3)
    ]
    rows = 0.5 * profiles
    if zero_out is not None:
        rows = rows.copy()
        rows[zero_out] = 0.0
    state = make_state(rows, [a.id for a in agents])
    return agents, state


def test_pipeline_unanimous_channels_agree():
    agents, state = _pipeline_fixture()
    ranked = pipeline_search(state, agents, query(np.eye(3)[0], text="alpha"))
    assert ranked[0][0] == "a0"


def test_pipeline_zero_magnitude_agent_cannot_win_on_text():
    agents, state = _pipeline_fixture(zero_out=0)
    ranked = pipeline_search(state, agents, query(np.eye(3)[0], text="alpha"))
    assert ranked[-1][0] == "a0"
    assert ranked[-1][1] == 0.0


def test_pipeline_validates_inputs():
    agents, state = _pipeline_fixture()
    with pytest.raises(ValidationError):
        pipeline_search(state, agents[:2], query(np.eye(3)[0], text="alpha"))
    with pytest.raises(ValidationError):
        pipeline_search(state, agents, query(np.zeros(3), text="alpha"))


# ---------------------------------------------------------------- dispatch


def test_rank_dispatches_each_strategy():
    agents, state = _pipeline_fixture()
    q = query(np.array([0.6, 0.8, 0.0]), text="beta")
    assert rank(state, q) == score_dot(state, q)
    assert rank(state, q, "cosine") == score_mixed(state, q, 0.0, "power")
    mixed = rank(state, q, "mixed", beta_mix=0.3, variant="log_damped")
    assert mixed == score_mixed(state, q, 0.3, "log_damped")
    assert rank(state, q, "pipeline", agents) == pipeline_search(state, agents, q)
    with pytest.raises(ValidationError):
        rank(state, q, "pipeline")  # needs the agent records
    with pytest.raises(ValidationError):
        rank(state, q, "oracle", agents)


# ---------------------------------------------------------------- precision


def _domain_agents():
    profiles = np.eye(6)
    domains = ["med", "med", "law", "law", "fin", "fin"]
    secondary = [(), ("law",), (), (), ("med",), ()]
    return [
        make_agent(f"a{i}", profiles[i], domain=domains[i], secondary=secondary[i])
        for i in range(6)
    ]


def test_precision_strict_counts_primary_only():
    agents = _domain_agents()
    ranked = [(f"a{i}", 1.0 - 0.1 * i) for i in range(6)]
    assert precision_at_k(ranked, agents, {"med"}, k=5) == pytest.approx(2.0 / 5.0)
    assert precision_at_k(ranked, agents, {"med", "law"}, k=5) == pytest.approx(4.0 / 5.0)


def test_precision_multilabel_accepts_secondary_domains():
    agents = _domain_agents()
    ranked = [(f"a{i}", 1.0 - 0.1 * i) for i in range(6)]
    # a4 has med as a secondary domain and sits in the top 5
    strict = precision_at_k(ranked, agents, {"med"}, k=5, mode="strict")
    multi = precision_at_k(ranked, agents, {"med"}, k=5, mode="multilabel")
    assert multi == pytest.approx(strict + 1.0 / 5.0)


def test_precision_divides_by_k_even_for_short_lists():
    agents = _domain_agents()
    ranked = [("a0", 1.0), ("a1", 0.9), ("a2", 0.8), ("a3", 0.7)]
    assert precision_at_k(ranked, agents, {"med", "law"}, k=5) == pytest.approx(0.8)


def test_precision_validates_inputs():
    agents = _domain_agents()
    ranked = [("a0", 1.0)]
    with pytest.raises(ValidationError):
        precision_at_k(ranked, agents, {"med"}, k=0)
    with pytest.raises(ValidationError):
        precision_at_k(ranked, agents, set(), k=5)
    with pytest.raises(ValidationError):
        precision_at_k(ranked, agents, {"med"}, k=5, mode="lenient")
    with pytest.raises(ValidationError):
        precision_at_k([("ghost", 1.0)], agents, {"med"}, k=5)
