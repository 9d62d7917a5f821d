"""Tests for config parsing, JSONL round trips, centering and snapshots."""

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustprop.cli import corpus_spec
from trustprop.errors import DegenerateVectorError, ValidationError
from trustprop.files import (
    CONFIG_DEFAULTS,
    agents_from_jsonl,
    agents_to_jsonl,
    center_corpus,
    config_digest,
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
from trustprop.graph import Agent, Edge, normalize
from trustprop.retrieval import Query
from trustprop.vectorspace import DEGENERATE_NORM, fit_centering


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
    # JSON allows U+2028, U+2029 and U+0085 raw inside strings, so only "\n"
    # ends a line; "\r\n" line ends and blank lines are accepted too.
    records = [json.loads(line) for line in text.splitlines()]
    records[0]["description"] = "ends\u2028a\u2029line\x85here"
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    raw = "\n" + lines[0] + "\r\n\r\n  \n" + "\r\n".join(lines[1:]) + "\r\n\n"
    back = agents_from_jsonl(raw)
    assert [b.id for b in back] == [a.id for a in agents]
    assert back[0].description == "ends\u2028a\u2029line\x85here"


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
    # Line numbers count every "\n", blank lines included.
    with pytest.raises(ValidationError, match="queries line 3: invalid json"):
        queries_from_jsonl('{"id": "q", "text": "t", "embedding": [1.0]}\r\n\n{"id": \n')


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


def _reference_center_corpus(agents, edges, queries):
    """Per-record centering: one 1-D norm and one division per vector."""
    cloud = [a.profile for a in agents]
    cloud += [e.content for e in edges if e.content is not None]
    cloud += [q.embedding for q in queries]
    model = fit_centering(cloud)

    def unit(v):
        shifted = v - model.mean
        norm = float(np.linalg.norm(shifted))
        if norm < DEGENERATE_NORM:
            raise DegenerateVectorError("degenerate")
        return shifted / norm

    def scaled(v):
        norm = float(np.linalg.norm(v))
        return v if norm == 0.0 else norm * unit(v)

    return (
        [(unit(a.profile), scaled(a.teleport), scaled(a.exogenous)) for a in agents],
        [None if e.content is None else unit(e.content) for e in edges],
        [unit(q.embedding) for q in queries],
        model.mean,
    )


# (agents, dim, seed, per-agent (teleport scale, exogenous scale), edge kinds, queries)
_CENTER_SPEC = st.tuples(
    st.integers(0, 5),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.2, 1.0]), st.sampled_from([0.0, 0.5])),
        min_size=5, max_size=5,
    ),
    st.lists(st.sampled_from(["labeled", "blind", "flag"]), max_size=8),
    st.integers(0, 3),
)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(spec=_CENTER_SPEC)
@example(spec=(3, 2, 4, [(0.0, 0.0)] * 5, [], 0))  # zero teleport and exogenous rows
@example(spec=(1, 3, 5, [(1.0, 0.5)] * 5, [], 0))  # one vector: degenerate
@example(spec=(0, 3, 6, [(1.0, 0.5)] * 5, ["labeled", "blind", "labeled"], 2))
def test_center_corpus_equals_per_record_reference(spec):
    n, dim, seed, priors, kinds, n_queries = spec
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.standard_normal(dim) + 1.0
        return v / np.linalg.norm(v)

    agents = [
        Agent(id=f"a{i}", primary_domain="d", profile=unit(),
              teleport=priors[i][0] * unit(), exogenous=priors[i][1] * unit())
        for i in range(n)
    ]
    edges = [
        Edge(sender="x", receiver="y", kind=kind,
             content=unit() if kind == "labeled" else None,
             severity=0.5 if kind == "flag" else None)
        for kind in kinds
    ]
    queries = [Query(id=f"q{i}", text="", embedding=2.0 * unit()) for i in range(n_queries)]
    if not agents and "labeled" not in kinds and not queries:
        return  # nothing to center; covered by the test above
    try:
        expected = _reference_center_corpus(agents, edges, queries)
    except DegenerateVectorError:
        with pytest.raises(DegenerateVectorError):
            center_corpus(agents, edges, queries)
        return
    new_agents, new_edges, new_queries, mean = center_corpus(agents, edges, queries)
    ref_agents, ref_contents, ref_embeddings, ref_mean = expected
    assert np.array_equal(mean, ref_mean)
    for a, (profile, teleport, exogenous) in zip(new_agents, ref_agents, strict=True):
        assert np.array_equal(a.profile, profile)
        assert np.array_equal(a.teleport, teleport)
        assert np.array_equal(a.exogenous, exogenous)
    for e, content in zip(new_edges, ref_contents, strict=True):
        assert (e.content is None) == (content is None)
        assert content is None or np.array_equal(e.content, content)
    for q, embedding in zip(new_queries, ref_embeddings, strict=True):
        assert np.array_equal(q.embedding, embedding)


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


_SNAPSHOT = (
    '{"dims": {"N": 2, "E": 2}, "mean": [0.5, 0.5], '
    '"agents": [{"id": "a", "r": [1.0, 0.0]}, {"id": "b", "r": [0.0, 1.0]}], '
    '"residuals": [0.5, 0.25]}'
)


@pytest.mark.parametrize(
    "old, new",
    [
        ("[1.0, 0.0]", "[NaN, 0.0]"),
        ("[0.0, 1.0]", "[0.0, Infinity]"),
        ("[1.0, 0.0]", "[1e999, 0.0]"),
        ("[0.5, 0.5]", "[0.5, -Infinity]"),
        ("[0.5, 0.25]", "[0.5, NaN]"),
    ],
    ids=["nan_row", "inf_row", "overflow_row", "inf_mean", "nan_residual"],
)
def test_snapshot_rejects_non_finite_values(old, new):
    snapshot_from_json(_SNAPSHOT)  # the unbroken snapshot loads
    with pytest.raises(ValidationError, match="must be finite"):
        snapshot_from_json(_SNAPSHOT.replace(old, new, 1))


def test_snapshot_rejects_duplicate_and_non_string_ids():
    with pytest.raises(ValidationError, match="duplicate agent id 'a'"):
        snapshot_from_json(_SNAPSHOT.replace('"id": "b"', '"id": "a"'))
    with pytest.raises(ValidationError, match="ids must be strings"):
        snapshot_from_json(_SNAPSHOT.replace('"id": "b"', '"id": 7'))


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
