"""Tests for config parsing, JSONL round trips, centering and snapshots."""

import copy
import csv
import dataclasses
import io
import json
import math
import struct
import unittest.mock
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trustprop.files
from trustprop.cli import corpus_spec
from trustprop.errors import DegenerateVectorError, ValidationError
from trustprop.files import (
    CONFIG_DEFAULTS,
    SNAPSHOT_AGENT_FIELDS,
    MAX_DEPTH,
    SNAPSHOT_FIELDS,
    _loads,
    _nested_deeper,
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
    csv_text,
    snapshot_from_json,
    snapshot_to_json,
    weight_config,
)
from trustprop.propagation import PropagationConfig, ReputationState, run
from trustprop.graph import (
    AGENT_FIELDS, EDGE_FIELDS, EDGE_KINDS, Agent, Edge, WeightConfig, normalize,
)
from trustprop.harness import CorpusSpec, generate_corpus
from trustprop.retrieval import QUERY_FIELDS, Query
from trustprop.vectorspace import DEGENERATE_NORM, fit_centering, overflow_safe_norms


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
    archetypes = Counter(a.archetype for a in generate_corpus(spec).agents)
    assert archetypes["active"] == 14  # remainder after other roles
    # defaults round-trip into equal dataclasses
    assert propagation_config(parse_config("")) == PropagationConfig()
    assert corpus_spec(parse_config("")) == CorpusSpec()
    assert weight_config(parse_config("")) == WeightConfig()


# ---------------------------------------------------------------- jsonl


def _sample_records(corpus):
    return corpus.agents[:6], corpus.edges[:8], corpus.queries[:3]


def test_agents_jsonl_round_trip(corpus):
    agents, _, _ = _sample_records(corpus)
    full = dataclasses.replace(  # every field away from its default
        agents[0], id="full", secondary_domains=("e", "f"), archetype="hub", owner_key="k",
        description="every field set",
        profile=np.repeat(agents[0].profile, 2)[::2],  # a strided view
    )
    agents = list(agents) + [full]
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
        base_weight=0.5,
        payment=True,
        confidence=0.75,
    )
    labeled = next(e for e in edges if e.kind == "labeled")
    full = dataclasses.replace(labeled, base_weight=2.5, payment=True, confidence=0.25)
    edges = list(edges) + [full, flag]
    text = edges_to_jsonl(edges)
    back = edges_from_jsonl(text)
    assert len(back) == len(edges)
    for a, b in zip(edges, back):
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
    full = Query(id="full", text="t", embedding=queries[0].embedding,
                 expected_domains=frozenset({"b", "a"}))
    queries = list(queries) + [full]
    back = queries_from_jsonl(queries_to_jsonl(queries))
    assert len(back) == len(queries)
    for a, b in zip(queries, back):
        assert a.id == b.id
        assert a.text == b.text
        assert a.expected_domains == b.expected_domains
        assert np.array_equal(a.embedding, b.embedding)


@pytest.mark.parametrize(
    "record, table", [(Agent, AGENT_FIELDS), (Edge, EDGE_FIELDS), (Query, QUERY_FIELDS)]
)
def test_field_tables_list_exactly_the_dataclass_fields(record, table):
    fields = dataclasses.fields(record)
    assert sorted(f.key for f in table) == sorted(f.name for f in fields)
    assert {f.key: f.default for f in table} == {f.name: f.default for f in fields}


def test_snapshot_field_tables_list_exactly_the_written_keys():
    state = ReputationState(vectors=np.array([[1.0, 2.0]]), agent_ids=("a",))
    obj = json.loads(snapshot_to_json(state, "d", np.array([0.5, 0.5])))
    assert list(obj) == [f.key for f in SNAPSHOT_FIELDS]
    assert list(obj["agents"][0]) == [f.key for f in SNAPSHOT_AGENT_FIELDS]


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


_AGENT = {
    "id": "a", "primary_domain": "d", "secondary_domains": ["e"],
    "profile": [1.0, 0.0], "teleport": [0.5, 0.0], "exogenous": [0.0, 0.0],
    "owner_key": "k", "description": "x",
}
_EDGE = {"sender": "a", "receiver": "b", "kind": "labeled", "content": [0.0, 1.0]}
_DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize(
    "read, good, line, message",
    [
        (agents_from_jsonl, _AGENT, "[1]", "agents line 2: expected a JSON object, got list"),
        (edges_from_jsonl, _EDGE, "[1]", "edges line 2: expected a JSON object, got list"),
        (queries_from_jsonl, None, '"q"', "queries line 2: expected a JSON object, got str"),
        (agents_from_jsonl, _AGENT, _DEEP, "agents line 2: expected a JSON object, got list"),
        (edges_from_jsonl, _EDGE, _DEEP, "edges line 2: expected a JSON object, got list"),
        # Rejected by orjson for the NaN, as deep as it is.
        (edges_from_jsonl, _EDGE, "[" * 5000 + "NaN" + "]" * 5000, "edges line 2: invalid json ("),
    ],
    ids=["agents_list", "edges_list", "queries_str", "agents_deep", "edges_deep", "deep_nan"],
)
def test_jsonl_line_that_is_not_an_object_is_rejected(read, good, line, message):
    first = json.dumps(good or {"id": "q", "text": "t", "embedding": [1.0]})
    assert len(read(first + "\n")) == 1
    with pytest.raises(ValidationError) as info:
        read(first + "\n" + line + "\n")
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("id", ["x"], "id must be a string, got list"),
        ("id", 7, "id must be a string, got int"),
        ("primary_domain", 3, "primary_domain must be a string, got int"),
        ("secondary_domains", "abc", "secondary_domains must be a list of strings, got str"),
        ("secondary_domains", 5, "secondary_domains must be a list of strings, got int"),
        ("secondary_domains", ["e", ["f"]], "secondary_domains entry must be a string, got list"),
        ("description", None, "description must be a string, got NoneType"),
        ("owner_key", 1, "owner_key must be a string, got int"),
    ],
)
def test_agent_string_fields_must_be_strings(field, value, message):
    rec = dict(_AGENT, **{field: value})
    with pytest.raises(ValidationError, match=f"^agents line 1: {message}$"):
        agents_from_jsonl(json.dumps(rec) + "\n")


_QUERY = {"id": "q", "text": "t", "embedding": [1.0], "expected_domains": ["d"]}


@pytest.mark.parametrize(
    "read, what, good, fields, message",
    [
        (queries_from_jsonl, "queries", _QUERY, {"embedding": "1"},
         "embedding must be a vector of numbers, got str"),
        (queries_from_jsonl, "queries", _QUERY, {"text": ["x"]},
         "text must be a string, got list"),
        (queries_from_jsonl, "queries", _QUERY, {"text": 5}, "text must be a string, got int"),
        (queries_from_jsonl, "queries", _QUERY, {"expected_domains": "abc"},
         "expected_domains must be a list of strings, got str"),
        (queries_from_jsonl, "queries", _QUERY, {"expected_domains": [1]},
         "expected_domains entry must be a string, got int"),
        (agents_from_jsonl, "agents", _AGENT, {"profile": ["1.0", "0.0"]},
         "profile must be a vector of numbers, not str"),
        (agents_from_jsonl, "agents", _AGENT, {"teleport": [True, False]},
         "teleport must be a vector of numbers, not bool"),
        (agents_from_jsonl, "agents", _AGENT, {"id": "b", "exogenous": [0.0, None]},
         "exogenous must be a vector of numbers, not NoneType"),
        (edges_from_jsonl, "edges", _EDGE, {"content": ["0.0", "1.0"]},
         "content must be a vector of numbers, not str"),
        (edges_from_jsonl, "edges", _EDGE, {"base_weight": 10**400}, "invalid json ("),
        (agents_from_jsonl, "agents", _AGENT, {}, "duplicate agent id 'a'"),
        (queries_from_jsonl, "queries", _QUERY, {}, "duplicate query id 'q'"),
    ],
    ids=["query_embedding_str", "query_text_list", "query_text_int", "query_domains_str",
         "query_domains_int", "profile_strs", "teleport_bools", "exogenous_null",
         "content_strs", "huge_base_weight", "duplicate_agent_id", "duplicate_query_id"],
)
def test_jsonl_field_types_are_checked(read, what, good, fields, message):
    first = json.dumps(good) + "\n"
    assert len(read(first)) == 1
    with pytest.raises(ValidationError) as info:
        read(first + json.dumps({**good, **fields}) + "\n")
    _assert_message(str(info.value), f"{what} line 2: {message}")


@pytest.mark.parametrize("field", ["sender", "receiver"])
@pytest.mark.parametrize("value", [["b"], 2, None])
def test_edge_endpoints_must_be_strings(field, value):
    rec = dict(_EDGE, **{field: value})
    message = f"^edges line 1: {field} must be a string, got {type(value).__name__}$"
    with pytest.raises(ValidationError, match=message):
        edges_from_jsonl(json.dumps(rec) + "\n")


def test_records_check_string_fields_outside_jsonl_too():
    with pytest.raises(ValidationError, match="secondary_domains must be a list"):
        Agent(id="a", primary_domain="d", secondary_domains="abc",
              profile=[1.0], teleport=[0.0], exogenous=[0.0])
    with pytest.raises(ValidationError, match="sender must be a string"):
        Edge(sender=("a",), receiver="b", kind="blind")


@pytest.mark.parametrize("entry", [1e200, -1e300, 1.7976931348623157e308])
def test_huge_unit_vector_entries_are_rejected_without_a_warning(entry):
    # The squares overflow: a norm that overflows is not unit length.
    vector = [entry, 0.0, 0.0]
    agent = {"id": "a", "primary_domain": "d", "profile": vector,
             "teleport": [0.0] * 3, "exogenous": [0.0] * 3, "archetype": "active"}
    edge = {"sender": "a", "receiver": "b", "kind": "labeled", "content": vector}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^agents line 1: agent a: profile must be unit length$"):
            agents_from_jsonl(json.dumps(agent) + "\n")
        with pytest.raises(ValidationError, match="^edges line 1: labeled edge content must be unit length$"):
            edges_from_jsonl(json.dumps(edge) + "\n")
        with pytest.raises(ValidationError, match="^agent a: profile must be unit length$"):
            Agent(**{**agent, "profile": np.array(vector)})
        with pytest.raises(ValidationError, match="^labeled edge content must be unit length$"):
            Edge(**{**edge, "content": np.array(vector)[::-1]})


# ---------------------------------------------------------------- table readers


def _reference_read(text, what):
    """The per-line reader: each line's ``Agent(**rec)``/``Edge(**rec)``, a
    repeated agent id rejected at its line, and a profile or content whose dim
    is not the first one's rejected with the message ``normalize`` gave."""
    cls, fields = (Agent, AGENT_FIELDS) if what == "agents" else (Edge, EDGE_FIELDS)
    records, ids, dim = [], set(), None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        prefix = f"{what} line {lineno}: "
        rec = _reference_loads(line)
        if rec is _REJECTED:
            return f"{prefix}invalid json ("
        if not isinstance(rec, dict):
            return f"{prefix}expected a JSON object, got {type(rec).__name__}"
        missing = [f.key for f in fields if f.default is dataclasses.MISSING and f.key not in rec]
        if missing:
            return f"{prefix}missing field {missing[0]!r}"
        try:
            record = cls(**{f.key: rec[f.key] for f in fields if f.key in rec})
        except (TypeError, ValueError, OverflowError) as exc:
            return f"{prefix}{exc}"
        if what == "agents":
            if record.id in ids:
                return f"{prefix}duplicate agent id {record.id!r}"
            ids.add(record.id)
            dim = record.profile.shape if dim is None else dim
            if record.profile.shape != dim:
                return "inconsistent embedding dims across agents"
        elif record.content is not None:
            dim = record.content.shape if dim is None else dim
            if record.content.shape != dim:
                return f"edge {record.sender} -> {record.receiver}: wrong content dim"
        records.append(record)
    return records


def _bits(value):
    """A field value to compare: floats (and vectors) as their bit patterns."""
    if isinstance(value, np.ndarray):
        return ("vector", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, int)) and not isinstance(value, bool):
        return ("number", struct.pack("<d", float(value)))
    return (type(value).__name__, value)


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 0.1
    return (v / np.linalg.norm(v)).tolist()


def _good_lines(what, n, dim, seed):
    rng = np.random.default_rng(seed)
    if what == "agents":
        return [
            {"id": f"a{i}", "primary_domain": "d", "secondary_domains": ["e"] * (i % 2),
             "profile": _unit(rng, dim), "teleport": [0.5 * x for x in _unit(rng, dim)],
             "exogenous": [0.0] * dim, "archetype": ("hub", "active")[i % 2],
             **({"owner_key": "k"} if i % 3 == 0 else {}), "description": f"agent {i}"}
            for i in range(n)
        ]
    lines = []
    for i in range(n):
        kind = ("labeled", "labeled", "blind", "flag")[i % 4]
        rec = {"sender": f"a{i}", "receiver": f"a{i + 1}", "kind": kind, "base_weight": 1.5}
        if kind == "labeled":
            rec["content"] = _unit(rng, dim)
        rec["payment"] = i % 2 == 0
        if kind == "flag":
            rec.update(verified=True, severity=0.25)
        if i % 4 == 1:
            rec["confidence"] = 0.5
        lines.append(rec)
    return lines


def _set(value):
    def mutate(rec, key):
        rec[key] = value
    return mutate


def _vector_entry(value):
    def mutate(rec, key):
        vec = rec.get(key)
        if isinstance(vec, list) and vec:
            rec[key] = [value] + vec[1:]
    return mutate


def _scale(factor):
    def mutate(rec, key):
        if isinstance(rec.get(key), list):
            rec[key] = [factor * x if type(x) is float else x for x in rec[key]]
    return mutate


def _ragged(rec, key):
    if isinstance(rec.get(key), list):
        rec[key] = rec[key][:-1]


# Field mutations, drawn for the key a line op names: vector keys take the
# vector ones, other keys the scalar ones.
_SCALAR_MUTATIONS = [
    _set(7), _set(["x"]), _set(None), _set(True), _set(2), _set(10**400), _set(float("inf")),
    _set(float("nan")), _set(0.0), _set(-1.0), _set(1.5), _set("1.0"), _set(""),
    _set("bogus"), _set("abc"),
]
_VECTOR_MUTATIONS = [
    _vector_entry("0.5"), _vector_entry(True), _vector_entry(None), _vector_entry([1.0]),
    _vector_entry(0), _vector_entry(float("nan")), _vector_entry(float("inf")),
    _vector_entry(10**400), _scale(2.0), _scale(1), _scale(0.0), _ragged, _set("1.0"),
    _set(None), _set(1.0),
]
_VECTOR_KEYS = ("profile", "teleport", "exogenous", "content")
_AGENT_KEYS = [f.key for f in AGENT_FIELDS]
_EDGE_KEYS = [f.key for f in EDGE_FIELDS]


def _mutate(rec, previous, op, key, mutation, kind):
    """``rec`` after one line op; ``previous`` is the line before it, if any."""
    if op == "field":
        mutations = _VECTOR_MUTATIONS if key in _VECTOR_KEYS else _SCALAR_MUTATIONS
        mutations[mutation % len(mutations)](rec, key)
    elif op == "drop":
        rec.pop(key, None)
    elif op == "unknown":
        rec["extra"] = [1, {"x": None}]
    elif op == "duplicate" and previous:
        rec.update({k: previous[k] for k in ("id", "sender") if k in rec and k in previous})
    elif op == "self_edge" and "sender" in rec:
        rec["receiver"] = rec["sender"]
    elif op == "relabel" and "kind" in rec:
        rec["kind"] = kind
    elif op == "redim":  # every vector one entry longer, still valid on its own
        for name in ("profile", "teleport", "exogenous", "content"):
            if isinstance(rec.get(name), list):
                rec[name] = rec[name] + [0.0]
    return rec


# (line, op, field mutation, key, kind): the line, mutation and key are taken
# modulo the number of lines, mutations and keys.
_LINE_OPS = st.tuples(
    st.integers(0, 6),
    st.sampled_from(["field", "field", "field", "field", "drop", "unknown", "duplicate",
                     "self_edge", "relabel", "redim", "blank", "not_object", "invalid"]),
    st.integers(0, 15),
    st.integers(0, 8),
    st.sampled_from(EDGE_KINDS),
)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(
    what=st.sampled_from(["agents", "edges"]),
    n=st.integers(1, 7),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    ops=st.lists(_LINE_OPS, max_size=3),
    block_rows=st.sampled_from([1, 2, 3, 4096]),
)
@example(what="agents", n=0, dim=2, seed=0, ops=[], block_rows=4096)
@example(what="edges", n=0, dim=2, seed=0, ops=[], block_rows=4096)
# A repeated id on the line whose dims differ from the first line's.
@example(what="agents", n=3, dim=2, seed=0, block_rows=2,
         ops=[(2, "duplicate", 0, 0, "flag"), (2, "redim", 0, 0, "flag")])
# A content dim other than the first content's, in a later block.
@example(what="edges", n=7, dim=3, seed=1, block_rows=2, ops=[(5, "redim", 0, 0, "flag")])
# Edge rules the draws reach rarely: a content that is not unit length, a flag
# without severity or with one out of range, a base weight beyond the floats.
@example(what="edges", n=4, dim=2, seed=2, block_rows=3, ops=[(1, "field", 8, 4, "flag")])
@example(what="edges", n=4, dim=2, seed=2, block_rows=3, ops=[(3, "drop", 0, 7, "flag")])
@example(what="edges", n=4, dim=2, seed=2, block_rows=3, ops=[(3, "field", 10, 7, "flag")])
@example(what="edges", n=4, dim=2, seed=2, block_rows=3, ops=[(2, "field", 5, 3, "flag")])
def test_table_readers_equal_the_per_line_reference(what, n, dim, seed, ops, block_rows):
    keys = _AGENT_KEYS if what == "agents" else _EDGE_KEYS
    recs = _good_lines(what, n, dim, seed)
    lines = [json.dumps(rec) for rec in recs]
    for line, op, mutation, key_index, kind in ops:
        if not lines:
            break
        i = line % len(lines)
        if op == "blank":
            lines[i] = " \r"
        elif op == "not_object":
            lines[i] = "[1]"
        elif op == "invalid":
            lines[i] = lines[i][:-1]
        else:
            previous = recs[i - 1] if i else None
            recs[i] = _mutate(dict(recs[i]), previous, op, keys[key_index % len(keys)],
                              mutation, kind)
            lines[i] = json.dumps(recs[i])
    text = "\n".join(lines) + "\n"
    expected = _reference_read(text, what)
    read = agents_from_jsonl if what == "agents" else edges_from_jsonl
    with unittest.mock.patch.object(trustprop.files, "READ_BLOCK_ROWS", block_rows):
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as info:
                read(text)
            _assert_message(str(info.value), expected)
            return
        table = read(text)
    assert len(table) == len(expected)
    for got, ref in zip(table, expected):
        assert type(got) is type(ref)
        for key in keys:
            assert _bits(getattr(got, key)) == _bits(getattr(ref, key)), key


@pytest.mark.parametrize("block_rows", [1, 2, 4096])
def test_agents_reader_rejects_an_id_that_an_earlier_block_holds(block_rows):
    # Every line is clean on its own; only the repeat of a1 breaks a rule.
    lines = [json.dumps(rec) for rec in _good_lines("agents", 4, 2, 0)]
    lines[3] = lines[3].replace('"a3"', '"a1"')
    text = "\n".join(lines) + "\n"
    assert _reference_read(text, "agents") == "agents line 4: duplicate agent id 'a1'"
    with unittest.mock.patch.object(trustprop.files, "READ_BLOCK_ROWS", block_rows):
        with pytest.raises(ValidationError, match="^agents line 4: duplicate agent id 'a1'$"):
            agents_from_jsonl(text)


# ---------------------------------------------------------------- json reader


def _same(a, b):
    """Equal in value and type at every level; floats bit for bit, keys in order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


# What ``_reference_loads`` returns for a text the reader must reject.
_REJECTED = object()


def _writable(value):
    """Whether ``_dumps`` could write ``value``: no NaN or infinity, and no
    string, key or value, holding a lone surrogate."""
    if isinstance(value, dict):
        return all(map(_writable, value)) and all(map(_writable, value.values()))
    if isinstance(value, list):
        return all(map(_writable, value))
    if isinstance(value, (int, float)):
        try:
            return math.isfinite(value)
        except OverflowError:  # an int past the floats, whose literal reads as inf
            return False
    if isinstance(value, str):
        return not any("\ud800" <= c <= "\udfff" for c in value)
    return True


def _reference_loads(text):
    """``json.loads``'s value where ``_dumps`` could have written it, else
    ``_REJECTED``: a text json.loads rejects, or whose value holds a NaN,
    an infinity or a lone surrogate."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        return _REJECTED
    return value if _writable(value) else _REJECTED


def _assert_message(got, expected):
    """``got`` is ``expected``; an expected "invalid json (" is followed by
    orjson's wording."""
    if expected.endswith("invalid json ("):
        assert got.startswith(expected) and got.endswith(")"), got
    else:
        assert got == expected


def _assert_reads_as_json_loads(text):
    expected = _reference_loads(text)
    if expected is _REJECTED:
        with pytest.raises(ValidationError) as info:
            _loads(text, "here")
        assert str(info.value).startswith("here: invalid json (")
    else:
        assert _same(_loads(text, "here"), expected)


# Lone surrogates (category Cs) included: the reader rejects them.
_STRINGS = st.text(
    st.characters()
    | st.characters(categories=["Cs"])
    | st.sampled_from("\u2028\u2029\x85\"\\\x00é")
)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308])
    | _STRINGS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_STRINGS, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(value=_JSON_VALUES, ensure_ascii=st.booleans(), indent=st.sampled_from([None, 2]))
def test_reader_equals_json_loads(value, ensure_ascii, indent):
    # NaN and infinities are written as bare tokens, which the reader rejects.
    _assert_reads_as_json_loads(json.dumps(value, ensure_ascii=ensure_ascii, indent=indent))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(bits=st.integers(0, 2**64 - 1), digits=st.integers(1, 25))
def test_reader_parses_floats_bit_for_bit(bits, digits):
    x = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
    _assert_reads_as_json_loads(repr(x) if math.isfinite(x) else "1e999")
    _assert_reads_as_json_loads(f"{x:.{digits}e}" if math.isfinite(x) else "-1e999")


@pytest.mark.parametrize(
    "text",
    [
        "NaN",
        "[Infinity, -Infinity]",
        '{"r": [1e999, -1e999, 1E400]}',
        "1.7976931348623159e308",
        '"\\udc00"',
        '{"id": "\\ud800x"}',
        '"\udc00"',
        pytest.param("1" * 5000, id="5000_digits"),
        "\ufeff{}",
        '{"a": 1, "a": 2}',
        '{"a": 1} x',
        "[1, 2]]",
        '"tab\there"',
        '"a\x01b"',
        '{"a": 1}\r',
        "",
        " ",
        "[1,]",
        "01",
        "1.",
        "-0",
        "-0.0",
        "1e-400",
        "0.1000000000000000055511151231257827021181583404541015625",
        "9223372036854775807",
        "-9223372036854775808",
        "18446744073709551615",
        '"\u2028\u2029\x85"',
        '"\\u0000"',
        '"\\ud83d\\ude00"',
        '"\ud83d\ude00"',
        "0." + "0" * 48 + "1e400",
        "123456789012345678901234567890e-10",
    ],
)
def test_reader_adversarial_lines_match_json_loads(text):
    _assert_reads_as_json_loads(text)


def test_reader_reads_integers_beyond_64_bits_as_floats():
    # json.loads gives an int.
    assert _loads("18446744073709551616", "") == 2.0**64
    assert type(_loads("-9223372036854775809", "")) is float


def _depth(value):
    """How many arrays and objects ``value`` nests, one inside the next."""
    depth, level = 0, [value]
    while level := [v for v in level if isinstance(v, (list, dict))]:
        depth += 1
        level = [child for v in level for child in (v.values() if isinstance(v, dict) else v)]
    return depth


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(value=_JSON_VALUES, ensure_ascii=st.booleans(), limit=st.integers(0, 4))
@example(value={"[": ['"[{', "\\", ["]}\\\""]]}, ensure_ascii=True, limit=1)
def test_depth_scan_counts_nesting_not_brackets_in_strings(value, ensure_ascii, limit):
    text = json.dumps(value, ensure_ascii=ensure_ascii)
    assert _nested_deeper(text, limit) == (_depth(value) > limit)


@pytest.mark.parametrize("opener, inner, closer", [("[", "", "]"), ('{"a": ', "0", "}")])
def test_reader_takes_max_depth_levels_and_rejects_one_more(opener, inner, closer):
    def nested(depth):
        return opener * depth + inner + closer * depth

    for depth in (MAX_DEPTH - 1, MAX_DEPTH):
        assert _depth(_loads(nested(depth), "here")) == depth
    # Texts deep enough to overflow the C stack are tested in a subprocess,
    # in tests/test_cli.py, so that a regression does not end the test run.
    message = f"^here: invalid json \\(nested more than {MAX_DEPTH} levels\\)$"
    with pytest.raises(ValidationError, match=message):
        _loads(nested(MAX_DEPTH + 1), "here")


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
    mean = fit_centering(cloud)

    def unit(v):
        shifted = v - mean
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
        mean,
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


def test_a_snapshot_reads_back_read_only_and_keeps_its_magnitudes(graph):
    state = run(graph, PropagationConfig())
    back, _, _ = snapshot_from_json(snapshot_to_json(state, "d"))
    assert not back.vectors.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        back.vectors[0, 0] = 1.0
    norms = back.magnitudes()
    assert norms.tobytes() == overflow_safe_norms(back.vectors).tobytes()
    assert norms.tobytes() == state.magnitudes().tobytes()
    assert back.magnitudes() is norms and not norms.flags.writeable


_SNAPSHOT_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-30, 1e30, 1.7976931348623157e308, 0.1, 1.0]
)


# The edges of the float bands orjson once spelled otherwise than json.dumps
# (0 < |x| < 1e-4 and |x| >= 1e16), the smallest subnormal and normal, and
# the largest float.
_BAND_EDGES = [
    sign * x
    for x in (1e-4, math.nextafter(1e-4, 0), 1e16, math.nextafter(1e16, 0), 0.0, 5e-324,
              np.finfo(float).tiny, np.finfo(float).max)
    for sign in (1.0, -1.0)
]


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_ROUND_TRIP_FLOATS = (
    _SNAPSHOT_FLOATS
    | st.sampled_from(_BAND_EDGES)
    | st.integers(0, 2**64 - 1).map(_float_of_bits).filter(math.isfinite)
)


def _assert_round_trip(state, digest, mean):
    """The snapshot reads back to ``state`` bit for bit, and rewrites to its bytes."""
    text = snapshot_to_json(state, digest, mean)
    back, got_digest, got_mean = snapshot_from_json(text)
    assert back.agent_ids == state.agent_ids and got_digest == digest
    assert (back.mode, back.iterations, back.converged) == (
        state.mode, state.iterations, state.converged
    )
    assert back.vectors.shape == state.vectors.shape
    assert back.vectors.tobytes() == state.vectors.tobytes()
    expected_mean = np.zeros(0) if mean is None else mean
    assert got_mean.tobytes() == expected_mean.tobytes()
    assert np.array(back.residuals).tobytes() == np.array(state.residuals, dtype=float).tobytes()
    assert snapshot_to_json(back, got_digest, got_mean) == text


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    shape=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    values=st.lists(_ROUND_TRIP_FLOATS, min_size=16, max_size=16),
    ids=st.lists(st.text(max_size=6), min_size=4, max_size=4, unique=True),
    with_mean=st.booleans(),
    residuals=st.lists(_ROUND_TRIP_FLOATS, max_size=3),
    mode=st.sampled_from(["continuous", "discrete"]),
    digest=st.text(max_size=8),
)
@example(shape=(0, 0), values=[0.0] * 16, ids=["a", "b", "c", "d"], with_mean=False,
         residuals=[], mode="continuous", digest="")
@example(shape=(2, 0), values=[0.0] * 16, ids=['q"\\', "\n\u2028é", "c", "d"], with_mean=True,
         residuals=[0.5], mode="discrete", digest='"agents": []')
@example(shape=(4, 4), values=_BAND_EDGES, ids=["a", "b", "c", "d"], with_mean=True,
         residuals=[-0.0, 5e-324], mode="continuous", digest="")
def test_snapshot_round_trip_is_bit_exact_and_byte_stable(
    shape, values, ids, with_mean, residuals, mode, digest
):
    n, width = shape
    state = ReputationState(
        vectors=np.array(values[: n * width], dtype=float).reshape(n, width),
        agent_ids=tuple(ids[:n]),
        mode=mode,
        iterations=len(residuals),
        residuals=tuple(residuals),
        converged=bool(residuals),
    )
    mean = np.array(values[-width:] if width else [], dtype=float) if with_mean else None
    _assert_round_trip(state, digest, mean)


def test_snapshot_round_trip_on_every_exponent():
    # Random finite bit patterns, and a row per decade of the float range.
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=(256, 64), dtype=np.uint64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, -0.0)
    decades = rng.uniform(-1.0, 1.0, (629, 8)) * 10.0 ** np.arange(-320, 309)[:, None]
    for vectors in (bits, decades):
        ids = tuple(f"a{i}" for i in range(len(vectors)))
        state = ReputationState(vectors=vectors, agent_ids=ids, residuals=tuple(vectors[0]))
        _assert_round_trip(state, "d", vectors[-1])


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "vectors, mean, residuals, name",
    [
        ([[1.0, _INF]], None, (), "agent rows"),
        ([[_NAN, 0.0]], None, (), "agent rows"),
        ([[1.0, 0.0]], [0.5, -_INF], (), "mean"),
        ([[1.0, 0.0]], None, (0.5, _INF), "residuals"),
        ([[1.0, 0.0]], None, (_NAN,), "residuals"),
    ],
    ids=["inf_row", "nan_row", "inf_mean", "inf_residual", "nan_residual"],
)
def test_snapshot_writer_rejects_non_finite_values(vectors, mean, residuals, name):
    # orjson would write null, which reads back as no number at all.
    state = ReputationState(vectors=np.array(vectors), agent_ids=("a",), residuals=residuals)
    mean = None if mean is None else np.array(mean)
    with pytest.raises(ValidationError, match=f"snapshot: {name} must be finite"):
        snapshot_to_json(state, "d", mean)


def test_writer_rejects_a_lone_surrogate_naming_it():
    # json.loads reads "\ud800" escapes into a lone surrogate; UTF-8 has none.
    state = ReputationState(vectors=np.zeros((2, 1)), agent_ids=("a", "b\ud800"))
    with pytest.raises(ValidationError, match=r"snapshot: 'b\\ud800' holds a lone surrogate"):
        snapshot_to_json(state, "d")
    state = ReputationState(vectors=np.zeros((1, 1)), agent_ids=("a",))
    with pytest.raises(ValidationError, match=r"snapshot: '\\udc00' holds a lone surrogate"):
        snapshot_to_json(state, "\udc00")
    agent = Agent(id="a", primary_domain="d", profile=np.array([1.0]), teleport=np.zeros(1),
                  exogenous=np.zeros(1), description="x\udfff")
    with pytest.raises(ValidationError, match=r"agents: 'x\\udfff' holds a lone surrogate"):
        agents_to_jsonl([agent])
    query = Query(id="q", text="t", embedding=np.array([1.0]),
                  expected_domains=frozenset({"d", "\ud800"}))
    with pytest.raises(ValidationError, match=r"queries: '\\ud800' holds a lone surrogate"):
        queries_to_jsonl([query])


def test_snapshot_records_mean_and_dims():
    state = ReputationState(
        vectors=np.array([[1.0, 2.0]]), agent_ids=("a",), mode="discrete"
    )
    text = snapshot_to_json(state, "d1", mean=np.array([0.5, 0.5]))
    assert '"D": 2' in text
    back, _, mean = snapshot_from_json(text)
    assert np.array_equal(mean, [0.5, 0.5])
    assert back.mode == "discrete"


@pytest.mark.parametrize(
    "vectors, ids",
    [(np.zeros((0, 3)), ()), (np.zeros((2, 0)), ("a", "b")), (np.zeros((0, 0)), ())],
    ids=["no_agents", "width_0", "both"],
)
def test_snapshot_of_an_empty_state_reads_back(vectors, ids):
    state = ReputationState(vectors=vectors, agent_ids=ids)
    text = snapshot_to_json(state, "d")
    back, _, mean = snapshot_from_json(text)
    assert back.vectors.shape == vectors.shape and back.agent_ids == ids
    assert snapshot_to_json(back, "d", mean) == text


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
    with pytest.raises(ValidationError, match=r"^snapshot: invalid json \("):
        snapshot_from_json(_SNAPSHOT.replace(old, new, 1))


def test_snapshot_rejects_duplicate_and_non_string_ids():
    with pytest.raises(ValidationError, match="duplicate agent id 'a'"):
        snapshot_from_json(_SNAPSHOT.replace('"id": "b"', '"id": "a"'))
    with pytest.raises(ValidationError, match="ids must be strings"):
        snapshot_from_json(_SNAPSHOT.replace('"id": "b"', '"id": 7'))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"residuals": {"a": 1}}, "snapshot: residuals must be a vector of numbers, got dict"),
        ({"mode": "bogus"}, "snapshot: mode must be one of continuous, discrete, got 'bogus'"),
        ({"iterations": "many"}, "snapshot: iterations must be an integer, got str"),
        ({"converged": "no"}, "snapshot: converged must be a boolean, got str"),
        ({"config_digest": 5}, "snapshot: config_digest must be a string, got int"),
        ({"agents": [{"id": "a", "r": [True, False]}, {"id": "b", "r": [0.0, 1.0]}]},
         "snapshot agent 0: r must be a vector of numbers, not bool"),
        ({"agents": [{"id": "a", "r": [1.0, 0.0]}, {"id": "b", "r": [0.0]}]},
         "snapshot dims disagree with agent rows"),
        ({"mean": [0.5]}, "snapshot: mean dim does not match the agent rows"),
        ({"dims": {"N": True, "E": 2}, "agents": [{"id": "a", "r": [1.0, 0.0]}]},
         "snapshot dims: N must be an integer, got bool"),
        ({"dims": {"N": 2.0, "E": 2}}, "snapshot dims: N must be an integer, got float"),
        ({"dims": {"N": 2, "E": 2.0}}, "snapshot dims: E must be an integer, got float"),
        ({"dims": {"N": 0, "D": -1}, "agents": [], "mean": []}, "snapshot dims must be >= 0"),
    ],
    ids=["residuals_dict", "mode_bogus", "iterations_str", "converged_str", "digest_int",
         "row_bools", "ragged_rows", "mean_dim", "n_bool", "n_float", "width_float",
         "width_negative"],
)
def test_snapshot_fields_are_type_checked(fields, message):
    with pytest.raises(ValidationError) as info:
        snapshot_from_json(json.dumps({**json.loads(_SNAPSHOT), **fields}))
    assert str(info.value) == message


def test_snapshot_reports_a_missing_field_before_a_mistyped_one():
    # As a JSONL line does: every field's presence, then each field's type.
    obj = {**json.loads(_SNAPSHOT), "mean": "x"}
    del obj["agents"]
    with pytest.raises(ValidationError, match="^snapshot: missing field 'agents'$"):
        snapshot_from_json(json.dumps(obj))


def test_residuals_csv_layout():
    text = residuals_to_csv([0.5, 0.25])
    assert text == "iteration,residual\n1,0.5\n2,0.25\n"


def test_csv_text_quotes_only_what_a_reader_needs_and_reads_back():
    plain = [["id", "rank", "score"], ["a07", 3, repr(0.1)], ["", "x y", "-0.0"]]
    assert csv_text(plain) == "id,rank,score\na07,3,0.1\n,x y,-0.0\n"
    odd = [["a,b", 'say "hi"', "two\nlines"], ["cr\rhere", "crlf\r\n", "plain"], ["", ",", '"']]
    assert list(csv.reader(io.StringIO(csv_text(odd), newline=""))) == odd


# ---------------------------------------------------------------- integration


def test_round_tripped_corpus_propagates_identically(corpus, baseline):
    agents = agents_from_jsonl(agents_to_jsonl(corpus.agents))
    edges = edges_from_jsonl(edges_to_jsonl(corpus.edges))
    graph2 = normalize(agents, edges)
    state2 = run(graph2, PropagationConfig())
    assert np.array_equal(state2.vectors, baseline.vectors)
    assert state2.iterations == baseline.iterations
