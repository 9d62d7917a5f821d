"""Tests for graph records, evidence weights and row normalization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustprop.errors import ValidationError
from trustprop.graph import (
    ARCHETYPES,
    EDGE_KINDS,
    Agent,
    AgentTable,
    Edge,
    EdgeTable,
    VectorRows,
    WeightConfig,
    blind_proxies,
    flag_weight,
    normalize,
    raw_weight,
)
from trustprop.vectorspace import DEGENERATE_NORM

E2 = np.array([1.0, 0.0])


def make_agent(agent_id, profile=None, owner_key=None, archetype="active"):
    p = E2 if profile is None else np.asarray(profile, dtype=np.float64)
    return Agent(
        id=agent_id,
        primary_domain="d",
        profile=p,
        teleport=0.1 * p,
        exogenous=np.zeros_like(p),
        archetype=archetype,
        owner_key=owner_key,
    )


def labeled(sender, receiver, base=1.0, content=E2, payment=False, confidence=None):
    return Edge(
        sender=sender,
        receiver=receiver,
        kind="labeled",
        base_weight=base,
        content=content,
        payment=payment,
        confidence=confidence,
    )


# ---------------------------------------------------------------- records


def test_agent_rejects_non_unit_profile():
    with pytest.raises(ValidationError):
        make_agent("a", profile=[2.0, 0.0])
    for bad in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValidationError):
            make_agent("a", profile=bad)


def test_agent_rejects_mismatched_prior_dims():
    with pytest.raises(ValidationError):
        Agent(
            id="a",
            primary_domain="d",
            profile=E2,
            teleport=np.zeros(3),
            exogenous=np.zeros(2),
        )
    # Non-finite priors are rejected as well.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            Agent(id="a", primary_domain="d", profile=E2,
                  teleport=np.array([bad, 0.0]), exogenous=np.zeros(2))
        with pytest.raises(ValidationError):
            Agent(id="a", primary_domain="d", profile=E2,
                  teleport=np.zeros(2), exogenous=np.array([0.0, bad]))


def test_agent_rejects_unknown_archetype_and_empty_id():
    with pytest.raises(ValidationError):
        make_agent("a", archetype="wizard")
    with pytest.raises(ValidationError):
        make_agent("")


def test_edge_kind_contracts():
    # labeled needs unit content, blind and flag must not carry content
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="labeled")
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="labeled", content=[3.0, 0.0])
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="labeled", content=[np.nan, 0.0])
    with pytest.raises(ValidationError, match="must be a vector"):
        # (2, 1) content has a unit Frobenius norm but is not a vector
        Edge(sender="a", receiver="b", kind="labeled", content=[[1.0], [0.0]])
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="blind", content=E2)
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="flag", content=E2, severity=0.5)
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="mystery")


def test_edge_severity_contracts():
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="flag")  # severity required
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="flag", severity=1.5)
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="b", kind="labeled", content=E2, severity=0.5)
    # flag edges may target the reporter's own id? no-self rule covers only
    # labeled/blind; a flag against oneself is odd but not structural.
    Edge(sender="a", receiver="b", kind="flag", severity=0.0)


def test_edge_rejects_self_loops_and_bad_confidence():
    with pytest.raises(ValidationError):
        labeled("a", "a")
    with pytest.raises(ValidationError):
        Edge(sender="a", receiver="a", kind="blind")
    with pytest.raises(ValidationError):
        labeled("a", "b", confidence=1.2)
    with pytest.raises(ValidationError):
        labeled("a", "b", confidence=np.nan)
    # base_weight must be finite and positive
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            labeled("a", "b", base=bad)


@pytest.mark.parametrize("bad", [None, "1.5", True, False, np.bool_(True)])
def test_edge_rejects_non_numeric_base_weight(bad):
    with pytest.raises(ValidationError, match="base_weight must be a number"):
        labeled("a", "b", base=bad)


@pytest.mark.parametrize("bad", ["0.5", True, np.bool_(False)])
def test_edge_rejects_non_numeric_severity_and_confidence(bad):
    with pytest.raises(ValidationError, match="severity must be a number"):
        Edge(sender="a", receiver="b", kind="flag", severity=bad)
    with pytest.raises(ValidationError, match="confidence must be a number"):
        labeled("a", "b", confidence=bad)


@pytest.mark.parametrize("bad", ["false", "true", 0, 1, 1.0, None])
def test_edge_rejects_non_boolean_payment_and_verified(bad):
    with pytest.raises(ValidationError, match="payment must be a boolean"):
        labeled("a", "b", payment=bad)
    with pytest.raises(ValidationError, match="verified must be a boolean"):
        Edge(sender="a", receiver="b", kind="flag", severity=0.5, verified=bad)


def test_edge_accepts_python_and_numpy_booleans():
    for flag in (True, False, np.bool_(True), np.bool_(False)):
        edge = labeled("a", "b", payment=flag)
        assert raw_weight(edge, WeightConfig(), False) == (3.0 if flag else 1.0)
        Edge(sender="a", receiver="b", kind="flag", severity=0.5, verified=flag)


def test_edge_keeps_numeric_values_unconverted():
    edge = Edge(
        sender="a", receiver="b", kind="labeled", base_weight=2, content=E2,
        confidence=np.float64(0.5),
    )
    assert type(edge.base_weight) is int
    assert type(edge.confidence) is np.float64
    flag = Edge(sender="a", receiver="b", kind="flag", severity=1)
    assert type(flag.severity) is int


# ---------------------------------------------------------------- weights


def test_raw_weight_payment_triples():
    cfg = WeightConfig()
    assert raw_weight(labeled("a", "b", payment=True), cfg, False) == pytest.approx(3.0)
    assert raw_weight(labeled("a", "b"), cfg, False) == pytest.approx(1.0)


def test_raw_weight_blind_discount():
    cfg = WeightConfig()
    e = Edge(sender="a", receiver="b", kind="blind")
    assert raw_weight(e, cfg, False) == pytest.approx(0.3)


def test_raw_weight_stacks_all_multipliers():
    cfg = WeightConfig()
    e = Edge(sender="a", receiver="b", kind="blind", base_weight=2.0, payment=True)
    assert raw_weight(e, cfg, True) == pytest.approx(2.0 * 3.0 * 0.3 * 0.1)


def test_raw_weight_rejects_flags():
    with pytest.raises(ValidationError):
        raw_weight(Edge(sender="a", receiver="b", kind="flag", severity=0.5), WeightConfig(), False)


def test_flag_weight_verified_and_zero_severity():
    cfg = WeightConfig()
    hot = Edge(sender="a", receiver="b", kind="flag", severity=0.95, verified=True)
    assert flag_weight(hot, 1.0, cfg) == pytest.approx(0.95 * 6.0)
    cold = Edge(sender="a", receiver="b", kind="flag", severity=0.0, verified=True)
    assert flag_weight(cold, 1.0, cfg) == 0.0
    assert flag_weight(hot, 0.5, cfg) == pytest.approx(0.95 * 6.0 * 0.5)
    with pytest.raises(ValidationError):
        flag_weight(hot, -0.1, cfg)


def test_weight_config_validation():
    with pytest.raises(ValidationError):
        WeightConfig(payment_multiplier=0.5)
    with pytest.raises(ValidationError):
        WeightConfig(blind_discount=0.0)
    with pytest.raises(ValidationError):
        WeightConfig(same_owner_discount=1.5)
    with pytest.raises(ValidationError):
        WeightConfig(verified_flag_multiplier=0.9)
    for name in ("payment_multiplier", "verified_flag_multiplier"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match=name):
                WeightConfig(**{name: bad})


def _proxy(a, b):
    """blind_proxies on a 1-row input: the proxy of the edge a -> b."""
    profiles = np.vstack([a.profile, b.profile])
    return blind_proxies(profiles, np.array([0]), np.array([1]))[0]


def test_blind_proxy_is_normalized_midpoint():
    a = make_agent("a", profile=[1.0, 0.0])
    b = make_agent("b", profile=[0.0, 1.0])
    proxy = _proxy(a, b)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(proxy, expected, atol=1e-12)


def test_blind_proxy_antipodal_falls_back_to_sender():
    a = make_agent("a", profile=[1.0, 0.0])
    b = make_agent("b", profile=[-1.0, 0.0])
    np.testing.assert_array_equal(_proxy(a, b), a.profile)


# ---------------------------------------------------------------- normalize


def test_normalize_rows_sum_to_one_or_zero():
    agents = [make_agent(x) for x in "abcd"]
    edges = [
        labeled("a", "b", base=3.0),
        labeled("a", "c", base=1.0),
        Edge(sender="b", receiver="a", kind="blind"),
    ]
    g = normalize(agents, edges)
    sums = np.bincount(g.pos_sender, weights=g.pos_weight, minlength=g.n_agents)
    np.testing.assert_allclose(sums[:2], 1.0, atol=1e-12)
    np.testing.assert_allclose(sums[2:], 0.0, atol=1e-12)


def test_normalize_new_edge_dilutes_existing_weights():
    agents = [make_agent(x) for x in "abcd"]
    base_edges = [labeled("a", "b", base=3.0), labeled("a", "c", base=1.0)]
    before = normalize(agents, base_edges)
    after = normalize(agents, base_edges + [labeled("a", "d", base=1.0)])
    np.testing.assert_allclose(before.pos_weight, [0.75, 0.25], atol=1e-12)
    np.testing.assert_allclose(after.pos_weight, [0.6, 0.2, 0.2], atol=1e-12)
    assert np.all(after.pos_weight[:2] < before.pos_weight)


def test_normalize_same_owner_requires_matching_keys():
    a = make_agent("a", owner_key="k1")
    b = make_agent("b", owner_key="k1")
    c = make_agent("c", owner_key="k2")
    d = make_agent("d")  # no owner recorded
    g = normalize([a, b, c, d], [labeled("a", "b"), labeled("a", "c"), labeled("a", "d")])
    # raw weights 0.1, 1, 1 -> normalized
    np.testing.assert_allclose(g.pos_weight, np.array([0.1, 1.0, 1.0]) / 2.1, atol=1e-12)


def test_normalize_keeps_parallel_edges_separate():
    a = make_agent("a")
    b = make_agent("b")
    c1 = np.array([1.0, 0.0])
    c2 = np.array([0.0, 1.0])
    g = normalize([a, b], [labeled("a", "b", content=c1), labeled("a", "b", content=c2)])
    assert g.n_pos_edges == 2
    np.testing.assert_allclose(g.pos_weight, [0.5, 0.5], atol=1e-12)
    np.testing.assert_array_equal(g.pos_content[0], c1)
    np.testing.assert_array_equal(g.pos_content[1], c2)


def test_normalize_blind_edges_get_proxy_content():
    a = make_agent("a", profile=[1.0, 0.0])
    b = make_agent("b", profile=[0.0, 1.0])
    g = normalize([a, b], [Edge(sender="a", receiver="b", kind="blind")])
    assert g.pos_blind[0]
    np.testing.assert_allclose(
        g.pos_content[0], np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12
    )


def test_normalize_flag_rows_per_reporter():
    agents = [make_agent(x) for x in "abc"]
    edges = [
        Edge(sender="a", receiver="b", kind="flag", severity=0.8),
        Edge(sender="a", receiver="c", kind="flag", severity=0.2),
    ]
    g = normalize(agents, edges, reporter_reputations={"a": 2.0})
    assert g.n_neg_edges == 2
    np.testing.assert_allclose(g.neg_weight, [0.8, 0.2], atol=1e-12)
    neg_sums = np.bincount(g.neg_sender, weights=g.neg_weight, minlength=g.n_agents)
    np.testing.assert_allclose(neg_sums[0], 1.0, atol=1e-12)


def test_normalize_drops_zero_weight_flags():
    agents = [make_agent(x) for x in "ab"]
    g = normalize(agents, [Edge(sender="a", receiver="b", kind="flag", severity=0.0)])
    assert g.n_neg_edges == 0


def test_normalize_missing_reporter_reputation_defaults_to_one():
    agents = [make_agent(x) for x in "ab"]
    g = normalize(agents, [Edge(sender="a", receiver="b", kind="flag", severity=0.5)])
    assert g.n_neg_edges == 1


def test_normalize_confidence_nan_where_absent():
    agents = [make_agent(x) for x in "abc"]
    g = normalize(agents, [labeled("a", "b", confidence=0.7), labeled("a", "c")])
    assert g.pos_confidence[0] == pytest.approx(0.7)
    assert np.isnan(g.pos_confidence[1])


def test_normalize_rejects_bad_references():
    agents = [make_agent("a"), make_agent("b")]
    with pytest.raises(ValidationError):
        normalize(agents, [labeled("a", "zz")])
    with pytest.raises(ValidationError):
        normalize([make_agent("a"), make_agent("a")], [])
    with pytest.raises(ValidationError):
        normalize([], [])


def test_normalize_stacks_priors_in_agent_order():
    a = make_agent("a", profile=[1.0, 0.0])
    b = make_agent("b", profile=[0.0, 1.0])
    g = normalize([a, b], [])
    np.testing.assert_array_equal(g.teleport, np.vstack([a.teleport, b.teleport]))
    assert g.teleport.shape == (2, 2)
    assert g.index == {"a": 0, "b": 1}


# ------------------------------------------------- batch vs per-edge reference


def _reference_normalize(agents, edges, cfg, reps):
    """The per-edge loop: one proxy and one content row per positive edge."""
    index = {a.id: i for i, a in enumerate(agents)}
    reps = reps or {}
    pos, neg = [], []
    for edge in edges:
        si, ri = index[edge.sender], index[edge.receiver]
        sender, receiver = agents[si], agents[ri]
        if edge.kind == "flag":
            w = flag_weight(edge, float(reps.get(edge.sender, 1.0)), cfg)
            if w > 0.0:
                neg.append((si, ri, w))
            continue
        same_owner = sender.owner_key is not None and sender.owner_key == receiver.owner_key
        if edge.kind == "blind":
            mid = 0.5 * (sender.profile + receiver.profile)
            norm = float(np.linalg.norm(mid))
            content = sender.profile.copy() if norm < DEGENERATE_NORM else mid / norm
        else:
            content = edge.content
        conf = float(edge.confidence) if edge.confidence is not None else np.nan
        pos.append((si, ri, raw_weight(edge, cfg, same_owner), content,
                    edge.kind == "blind", conf))
    dim = agents[0].profile.shape[0]

    def normalized(senders, weights):
        senders = np.asarray(senders, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if senders.size:
            row = np.zeros(len(agents))
            np.add.at(row, senders, weights)
            weights = weights / row[senders]
        return senders, weights

    pos_sender, pos_weight = normalized([p[0] for p in pos], [p[2] for p in pos])
    neg_sender, neg_weight = normalized([n[0] for n in neg], [n[2] for n in neg])
    return dict(
        pos_sender=pos_sender,
        pos_receiver=np.asarray([p[1] for p in pos], dtype=np.int64),
        pos_weight=pos_weight,
        pos_content=np.vstack([p[3] for p in pos]) if pos else np.zeros((0, dim)),
        pos_blind=np.asarray([p[4] for p in pos], dtype=bool),
        pos_confidence=np.asarray([p[5] for p in pos], dtype=np.float64),
        neg_sender=neg_sender,
        neg_receiver=np.asarray([n[1] for n in neg], dtype=np.int64),
        neg_weight=neg_weight,
        teleport=np.vstack([a.teleport for a in agents]),
        exogenous=np.vstack([a.exogenous for a in agents]),
    )


_KINDS = ("labeled", "blind", "flag")
# (sender, receiver offset, kind, base weight, payment, confidence, severity, verified)
_EDGE = st.tuples(
    st.integers(0, 5),
    st.integers(0, 4),
    st.sampled_from(_KINDS),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.booleans(),
    st.sampled_from([None, 0.0, 0.4, 1.0]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.booleans(),
)
_GRAPH = st.tuples(
    st.integers(1, 6),  # agents
    st.integers(1, 4),  # embedding dim
    st.integers(0, 2**32 - 1),  # seed for the vectors
    st.lists(st.sampled_from([None, "k0", "k1"]), min_size=6, max_size=6),  # owner keys
    st.lists(st.booleans(), min_size=6, max_size=6),  # profile antipodal to the previous one
    st.one_of(st.none(), st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=6, max_size=6)),
    st.lists(_EDGE, max_size=16),
)


def _records(spec, kinds=None):
    """(agents, edges, reporter reputations) for a drawn spec.

    ``kinds`` overrides every drawn positive edge kind (all-blind, all-labeled).
    """
    n, dim, seed, owners, antipodal, reps, raw = spec
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    agents, profile = [], None
    for i in range(n):
        profile = -profile if i and antipodal[i] else unit()
        agents.append(Agent(
            id=f"a{i}", primary_domain="d", profile=profile,
            teleport=rng.uniform(0.0, 1.0) * profile, exogenous=0.3 * unit(),
            owner_key=owners[i],
        ))
    edges = []
    for sender, offset, kind, base, payment, conf, severity, verified in raw if n > 1 else []:
        s = sender % n
        r = (s + 1 + offset % (n - 1)) % n
        if kind == "flag":
            edges.append(Edge(sender=f"a{s}", receiver=f"a{r}", kind="flag",
                              base_weight=base, severity=severity, verified=verified))
            continue
        kind = kinds or kind
        edges.append(Edge(
            sender=f"a{s}", receiver=f"a{r}", kind=kind, base_weight=base,
            content=unit() if kind == "labeled" else None, payment=payment,
            confidence=conf,
        ))
    rep_map = None if reps is None else {f"a{i}": reps[i] for i in range(n)}
    return agents, edges, rep_map


# Antipodal neighbours a0/a1 and a2/a3 with blind edges between them, shared
# owners, paid and confident edges, and flags from a zero-reputation reporter.
_MIXED = (
    4, 3, 5, ["k0", "k0", None, "k1"], [False, True, False, True, False, False],
    [1.0, 0.0, 2.0, 0.5, 1.0, 1.0],
    [(0, 0, "blind", 1.0, True, None, 0.0, False),
     (1, 3, "blind", 3.0, False, 0.4, 0.0, False),
     (2, 0, "blind", 1.0, False, None, 0.0, False),
     (0, 1, "labeled", 0.5, True, 1.0, 0.0, False),
     (1, 0, "flag", 1.0, False, None, 1.0, True),
     (2, 1, "flag", 1.0, False, None, 0.3, False),
     (0, 2, "labeled", 1.0, False, None, 0.0, False)],
)


@pytest.mark.parametrize("kinds", [None, "blind", "labeled"], ids=["mixed", "all_blind", "all_labeled"])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(spec=_GRAPH)
@example(spec=(3, 2, 0, [None] * 6, [False] * 6, None, []))
@example(spec=_MIXED)
def test_normalize_equals_per_edge_reference(kinds, spec):
    agents, edges, reps = _records(spec, kinds)
    cfg = WeightConfig()
    graph = normalize(agents, edges, cfg, reps)
    for name, expected in _reference_normalize(agents, edges, cfg, reps).items():
        got = getattr(graph, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert np.array_equal(got, expected, equal_nan=True), name


def test_normalize_fills_blind_proxies_across_chunks(monkeypatch):
    # More blind edges than one proxy block, interleaved with labeled ones.
    monkeypatch.setattr("trustprop.graph.PROXY_CHUNK_ROWS", 3)
    raw = [(i % 5, i % 4, "labeled" if i % 4 == 0 else "blind", 1.0, i % 3 == 0, None, 0.0, False)
           for i in range(14)]
    spec = (5, 3, 9, [None] * 6, [False, True, False, False, True, False], None, raw)
    agents, edges, reps = _records(spec)
    graph = normalize(agents, edges, WeightConfig(), reps)
    expected = _reference_normalize(agents, edges, WeightConfig(), reps)["pos_content"]
    assert np.array_equal(graph.pos_content, expected)


# ---------------------------------------------------------------- tables


def _same_value(got, want):
    """Equal values of equal types; arrays and floats bit for bit."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, VectorRows):
        for a, b in zip(got, want):
            _same_value(a, b)
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert got == want


_TEXT = st.text(alphabet="ab\u00e9", max_size=3)
# -0.0, subnormals and huge values, so that a float is compared bit for bit.
_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324])
_UNIT_FLOAT = st.floats(0.0, 1.0) | st.just(-0.0)


def _vectors(dim, elements):
    return st.lists(elements, min_size=dim, max_size=dim).map(np.array)


def _units(dim):
    nonzero = _vectors(dim, st.floats(-1.0, 1.0)).filter(lambda v: np.linalg.norm(v) > 0.1)
    return nonzero.map(lambda v: v / np.linalg.norm(v))


@st.composite
def _table_records(draw):
    dim = draw(st.integers(1, 3))
    agents = [
        Agent(
            id=draw(_TEXT.filter(bool)), primary_domain=draw(_TEXT),
            profile=draw(_units(dim)), teleport=draw(_vectors(dim, _FLOAT)),
            exogenous=draw(_vectors(dim, _FLOAT)),
            secondary_domains=tuple(draw(st.lists(_TEXT, max_size=2))),
            archetype=draw(st.sampled_from(ARCHETYPES)),
            owner_key=draw(st.none() | _TEXT), description=draw(_TEXT),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(EDGE_KINDS))
        sender = draw(_TEXT)
        edges.append(Edge(
            sender=sender,
            receiver=draw(_TEXT.filter(lambda r: kind == "flag" or r != sender)),
            kind=kind,
            base_weight=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
            content=draw(_units(dim)) if kind == "labeled" else None,
            payment=draw(st.booleans()), verified=draw(st.booleans()),
            severity=draw(_UNIT_FLOAT) if kind == "flag" else None,
            confidence=draw(st.none() | _UNIT_FLOAT),
        ))
    return agents, edges


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(records=_table_records(), cut=st.integers(0, 8))
@example(records=([], []), cut=0)
def test_tables_give_back_their_records(records, cut):
    for table, rows in zip((AgentTable, EdgeTable), records):
        whole = table.of(rows)
        assert table.of(whole) is whole
        back = list(whole)
        assert len(back) == len(whole) == len(rows)
        for got, want in zip(back, rows):
            assert type(got) is type(want)
            for f in table.fields:
                _same_value(getattr(got, f.key), getattr(want, f.key))
        joined = table.concat([table.of(rows[:cut]), table.of(rows[cut:])])
        for f in table.fields:
            _same_value(getattr(joined, f.key), getattr(whole, f.key))
