"""Tests for config parsing, JSONL round trips, centering and snapshots."""

import copy
import json

import numpy as np
import pytest

from trustprop.errors import ValidationError
from trustprop.files import (
    CONFIG_DEFAULTS,
    agents_from_jsonl,
    agents_to_jsonl,
    center_corpus,
    config_digest,
    corpus_spec,
    edges_from_jsonl,
    edges_to_jsonl,
    load_config,
    parse_config,
    propagation_config,
    queries_from_jsonl,
    queries_to_jsonl,
    residuals_to_csv,
    snapshot_from_json,
    snapshot_to_json,
    weight_config,
)
from trustprop.propagation import PropagationConfig, ReputationState, run
from trustprop.graph import normalize


# ---------------------------------------------------------------- config


def test_parse_config_defaults_and_overrides():
    cfg = parse_config("")
    assert cfg["propagation.alpha"] == 0.85
    assert cfg["corpus.blind_edges"] == 612
    cfg = parse_config(
        """
        # comment line
        propagation.alpha = 0.5

        gates.kl.enabled = yes
        corpus.seed = 7
        """
    )
    assert cfg["propagation.alpha"] == 0.5
    assert cfg["gates.kl.enabled"] is True
    assert cfg["corpus.seed"] == 7


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValidationError):
        parse_config("propagation.alpha 0.5")
    with pytest.raises(ValidationError):
        parse_config("nonsense.key = 1")
    with pytest.raises(ValidationError):
        parse_config("propagation.alpha = lots")
    with pytest.raises(ValidationError):
        parse_config("gates.kl.enabled = maybe")


def test_parse_config_rejects_unknown_retrieval_choices():
    with pytest.raises(ValidationError, match="retrieval.strategy"):
        parse_config("retrieval.strategy = oracle")
    with pytest.raises(ValidationError, match="retrieval.variant"):
        parse_config("retrieval.variant = cubic")
    cfg = parse_config("retrieval.strategy = pipeline\nretrieval.variant = log_damped")
    assert (cfg["retrieval.strategy"], cfg["retrieval.variant"]) == ("pipeline", "log_damped")


def test_load_config_none_gives_defaults(tmp_path):
    assert load_config(None) == parse_config("")
    p = tmp_path / "run.conf"
    p.write_text("corpus.seed = 11\n")
    assert load_config(p)["corpus.seed"] == 11


def test_config_digest_tracks_values_not_formatting():
    a = parse_config("propagation.alpha = 0.5")
    b = parse_config("#x\npropagation.alpha =   0.5")
    c = parse_config("propagation.alpha = 0.6")
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)
    assert len(config_digest(a)) == 64


def test_builders_cover_all_sections():
    cfg = parse_config(
        """
        propagation.operator = hybrid
        propagation.hybrid_gamma = 0.25
        propagation.hybrid_mode = interpolate
        gates.confidence.enabled = true
        weights.blind_discount = 0.4
        corpus.n_agents = 20
        corpus.hubs = 2
        corpus.dormant = 2
        corpus.malicious = 2
        corpus.specialists = 2
        corpus.labeled_edges = 10
        corpus.payment_edges = 2
        corpus.blind_edges = 30
        """
    )
    prop = propagation_config(cfg)
    assert prop.operator.variant == "hybrid"
    assert prop.operator.hybrid_gamma == 0.25
    assert prop.gates.confidence.enabled
    assert weight_config(cfg).blind_discount == 0.4
    spec = corpus_spec(cfg)
    assert spec.n_agents == 20
    assert spec.archetype_counts["active"] == 14  # remainder after other roles
    # defaults round-trip into equal dataclasses
    assert propagation_config(parse_config("")) == PropagationConfig()


# ---------------------------------------------------------------- jsonl


def _sample_records(corpus):
    return corpus.agents[:6], corpus.edges[:8], corpus.queries[:3]


def test_agents_jsonl_round_trip(corpus):
    agents, _, _ = _sample_records(corpus)
    text = agents_to_jsonl(agents)
    back = agents_from_jsonl(text)
    assert len(back) == len(agents)
    for a, b in zip(agents, back):
        assert a.id == b.id
        assert a.primary_domain == b.primary_domain
        assert a.secondary_domains == b.secondary_domains
        assert a.archetype == b.archetype
        assert a.owner_key == b.owner_key
        assert a.description == b.description
        assert np.array_equal(a.profile, b.profile)
        assert np.array_equal(a.teleport, b.teleport)
        assert np.array_equal(a.exogenous, b.exogenous)


def test_edges_jsonl_round_trip(corpus):
    _, edges, _ = _sample_records(corpus)
    flag = edges[0].__class__(
        sender=edges[0].sender,
        receiver=edges[0].receiver,
        kind="flag",
        severity=0.9,
        verified=True,
    )
    text = edges_to_jsonl(list(edges) + [flag])
    back = edges_from_jsonl(text)
    for a, b in zip(list(edges) + [flag], back):
        assert (a.sender, a.receiver, a.kind) == (b.sender, b.receiver, b.kind)
        assert a.base_weight == b.base_weight
        assert a.payment == b.payment
        assert a.verified == b.verified
        assert a.severity == b.severity
        assert a.confidence == b.confidence
        if a.content is None:
            assert b.content is None
        else:
            assert np.array_equal(a.content, b.content)


def test_queries_jsonl_round_trip(corpus):
    _, _, queries = _sample_records(corpus)
    back = queries_from_jsonl(queries_to_jsonl(queries))
    for a, b in zip(queries, back):
        assert a.id == b.id
        assert a.text == b.text
        assert a.expected_domains == b.expected_domains
        assert np.array_equal(a.embedding, b.embedding)


def test_jsonl_serialization_is_byte_stable(corpus):
    agents, edges, queries = _sample_records(corpus)
    assert agents_to_jsonl(agents) == agents_to_jsonl(list(agents))
    assert edges_to_jsonl(edges) == edges_to_jsonl(list(edges))
    assert queries_to_jsonl(queries) == queries_to_jsonl(list(queries))


def test_jsonl_rejects_malformed_input():
    with pytest.raises(ValidationError):
        agents_from_jsonl('{"id": "a"}\n')  # missing fields
    with pytest.raises(ValidationError):
        edges_from_jsonl('{"sender": "a"}\n')


# ---------------------------------------------------------------- centering


def test_center_corpus_restores_unit_fields(corpus):
    agents, edges, queries = _sample_records(corpus)
    new_agents, new_edges, new_queries, mean = center_corpus(agents, edges, queries)
    assert mean.shape == (corpus.spec.embedding_dim,)
    for a in new_agents:
        assert abs(np.linalg.norm(a.profile) - 1.0) < 1e-9
    for e in new_edges:
        if e.content is not None:
            assert abs(np.linalg.norm(e.content) - 1.0) < 1e-9
    for q in new_queries:
        assert abs(np.linalg.norm(q.embedding) - 1.0) < 1e-9


def test_center_corpus_preserves_prior_magnitudes(corpus):
    agents, edges, _ = _sample_records(corpus)
    new_agents, _, _, _ = center_corpus(agents, edges)
    for before, after in zip(agents, new_agents):
        assert np.linalg.norm(after.teleport) == pytest.approx(
            float(np.linalg.norm(before.teleport)), abs=1e-12
        )
        assert np.linalg.norm(after.exogenous) == pytest.approx(
            float(np.linalg.norm(before.exogenous)), abs=1e-12
        )


def test_center_corpus_requires_some_embeddings():
    with pytest.raises(ValidationError):
        center_corpus([], [])


# ---------------------------------------------------------------- snapshots


def test_snapshot_round_trip_is_bit_exact(corpus, graph):
    state = run(graph, PropagationConfig())
    digest = config_digest(parse_config(""))
    text = snapshot_to_json(state, digest)
    back, got_digest, mean = snapshot_from_json(text)
    assert got_digest == digest
    assert back.agent_ids == state.agent_ids
    assert back.mode == state.mode
    assert back.iterations == state.iterations
    assert back.converged == state.converged
    assert back.residuals == state.residuals
    assert np.array_equal(back.vectors, state.vectors)
    assert mean.size == 0
    # serializing the deserialized state reproduces the bytes
    assert snapshot_to_json(back, got_digest) == text


def test_snapshot_records_mean_and_dims():
    state = ReputationState(
        vectors=np.array([[1.0, 2.0]]), agent_ids=("a",), mode="discrete"
    )
    text = snapshot_to_json(state, "d1", mean=np.array([0.5, 0.5]))
    assert '"D": 2' in text
    back, _, mean = snapshot_from_json(text)
    assert np.array_equal(mean, [0.5, 0.5])
    assert back.mode == "discrete"


def test_snapshot_rejects_inconsistent_dims():
    state = ReputationState(vectors=np.array([[1.0, 2.0]]), agent_ids=("a",))
    good = json.loads(snapshot_to_json(state, "d1"))
    text = snapshot_to_json(state, "d1").replace('"N": 1', '"N": 2')
    with pytest.raises(ValidationError):
        snapshot_from_json(text)
    # Missing fields are validation errors too, never a KeyError.
    broken = [
        lambda o: o.pop("dims"),
        lambda o: o.pop("agents"),
        lambda o: o["dims"].pop("N"),
        lambda o: o["dims"].pop("E"),
        lambda o: o["agents"][0].pop("id"),
        lambda o: o["agents"][0].pop("r"),
    ]
    for breaks in broken:
        obj = copy.deepcopy(good)
        breaks(obj)
        with pytest.raises(ValidationError):
            snapshot_from_json(json.dumps(obj))
    with pytest.raises(ValidationError):
        snapshot_from_json("[]")


def test_residuals_csv_layout():
    text = residuals_to_csv([0.5, 0.25])
    assert text == "iteration,residual\n1,0.5\n2,0.25\n"


# ---------------------------------------------------------------- integration


def test_round_tripped_corpus_propagates_identically(corpus, baseline):
    agents = agents_from_jsonl(agents_to_jsonl(corpus.agents))
    edges = edges_from_jsonl(edges_to_jsonl(corpus.edges))
    graph2 = normalize(agents, edges)
    state2 = run(graph2, PropagationConfig())
    assert np.array_equal(state2.vectors, baseline.vectors)
    assert state2.iterations == baseline.iterations
