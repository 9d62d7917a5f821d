"""Tests for retrieval scoring, BM25, rank fusion, and precision@k."""

import math
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustprop.errors import ValidationError
from trustprop.graph import Agent
from trustprop.harness import magnitude_percentiles
from trustprop.propagation import ReputationState
from trustprop.retrieval import (
    BM25_B,
    BM25_K1,
    RRF_K,
    Query,
    bm25_scores,
    pipeline_search,
    precision_at_k,
    rank,
    rank_scores,
    ranked,
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


def test_ranked_orders_ids_as_python_strings():
    ids = ["a9", "a10", "a\x00", "a", "b"]
    got = ranked(ids, np.array([1.0, 1.0, 0.0, -0.0, 2.0]))
    assert got == [("b", 2.0), ("a10", 1.0), ("a9", 1.0), ("a", -0.0), ("a\x00", 0.0)]
    assert all(type(score) is float for _, score in got)
    assert ranked([], np.array([])) == []
    empty = make_state(np.zeros((0, 2)), [])
    assert pipeline_search(empty, [], query(np.array([1.0, 0.0]), text="alpha")) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_query_rejects_non_finite_embedding(bad):
    with pytest.raises(ValidationError, match="must be finite"):
        query(np.array([1.0, bad]))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_mixed_and_rrf_reject_a_non_finite_or_negative_parameter(bad):
    # NaN passes a plain ``x < 0`` check; it would score every agent NaN.
    state = make_state([[1.0, 0.0]], ["a"])
    q = query(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError, match="^beta_mix must be finite and >= 0$"):
        score_mixed(state, q, beta_mix=bad)
    with pytest.raises(ValidationError, match="^beta_mix must be finite and >= 0$"):
        rank(state, q, "mixed", beta_mix=bad)
    with pytest.raises(ValidationError, match="^rrf k must be finite and > 0$"):
        rrf_merge([[("a", 1.0)]], k=bad)


@pytest.mark.parametrize(
    "norms, beta_mix, variant, value",
    [
        ([0.003, 0.49], 2000.0, "power", "0.0"),  # gen-corpus norms: ranked by id before
        ([0.5, 1e10], 100.0, "power", "inf"),
        ([0.5, 10.0], 1e308, "log_damped", "inf"),
    ],
    ids=["power_underflow", "power_overflow", "log_damped_overflow"],
)
def test_mixed_rejects_a_beta_mix_whose_factor_leaves_the_floats(norms, beta_mix, variant, value):
    # Every score would be 0 or inf, and the ranking the order of the ids.
    lost = "a" if value == "0.0" else "b"
    state = make_state([[n, 0.0] for n in norms] + [[0.0, 0.0]], ["a", "b", "zero"])
    q = query(np.array([1.0, 0.0]))
    message = "^" + re.escape(
        f"beta_mix {beta_mix!r} takes the {variant} factor of agent '{lost}' to {value}; "
        "it must stay finite and above 0"
    ) + "$"
    with pytest.raises(ValidationError, match=message):
        score_mixed(state, q, beta_mix, variant)
    with pytest.raises(ValidationError, match=message):
        rank(state, q, "mixed", beta_mix=beta_mix, variant=variant)


@pytest.mark.parametrize("variant", ["power", "log_damped"])
def test_mixed_takes_a_large_beta_mix_that_every_factor_survives(variant):
    # A zero row's power factor is 0 at any beta_mix; it scores 0 as before.
    state = make_state([[0.5, 0.0], [0.25, 0.25], [0.0, 0.0]], ["a", "b", "zero"])
    q = query(np.array([1.0, 0.0]))
    got = score_mixed(state, q, 60.0, variant)
    norms = np.linalg.norm(state.vectors, axis=1)
    factor = norms**60.0 if variant == "power" else 1.0 + 60.0 * np.log1p(norms)
    assert [aid for aid, _ in got] == ["a", "b", "zero"]
    assert dict(got)["zero"] == 0.0 and 0.0 < dict(got)["b"] < dict(got)["a"]
    assert dict(got)["a"] == factor[0]


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


# ---------------------------------------------------------------- one ordering
#
# The orderings below are the per-function sorts that ``ranked`` replaced,
# kept verbatim so the test pins every ranked list to them bit for bit.


def _old_rank_scores(scores):
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def _old_score_dot(state, q):
    dots = state.vectors @ q.embedding
    return _old_rank_scores({aid: float(dots[i]) for i, aid in enumerate(state.agent_ids)})


def _old_score_mixed(state, q, beta_mix, variant):
    norms = np.linalg.norm(state.vectors, axis=1)
    dots = state.vectors @ q.embedding
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
    if variant == "power":
        with np.errstate(divide="ignore"):
            factor = np.where(norms > 0, norms**beta_mix, 0.0)
    else:
        factor = 1.0 + beta_mix * np.log1p(norms)
    scores = np.where(norms > 0, cos * factor, 0.0)
    return _old_rank_scores({aid: float(scores[i]) for i, aid in enumerate(state.agent_ids)})


def _old_bm25_scores(descriptions, query_text):
    terms = tokenize(query_text)
    docs = {aid: tokenize(text) for aid, text in descriptions.items()}
    n_docs = len(docs)
    avgdl = sum(len(toks) for toks in docs.values()) / n_docs
    df = Counter()
    for toks in docs.values():
        seen = set(toks)
        for t in set(terms):
            if t in seen:
                df[t] += 1
    idf = {
        t: math.log(1.0 + (n_docs - df[t] + 0.5) / (df[t] + 0.5))
        for t in set(terms)
        if df[t] > 0
    }
    scores = {}
    for aid, toks in docs.items():
        if not toks:
            continue
        tf = Counter(toks)
        s = 0.0
        overlap = False
        for t in terms:
            if t not in idf or tf[t] == 0:
                continue
            overlap = True
            freq = tf[t]
            denom = freq + BM25_K1 * (1.0 - BM25_B + BM25_B * len(toks) / avgdl)
            s += idf[t] * freq * (BM25_K1 + 1.0) / denom
        if overlap:
            scores[aid] = s
    return _old_rank_scores(scores)


def _old_rrf_merge(lists, k):
    scores = {}
    for ranked_list in lists:
        for pos, (aid, _) in enumerate(ranked_list, start=1):
            scores[aid] = scores.get(aid, 0.0) + 1.0 / (k + pos)
    return _old_rank_scores(scores)


def _old_pipeline_search(state, agents, q):
    by_id = {a.id: a for a in agents}
    qv = q.embedding
    qn = float(np.linalg.norm(qv))
    descriptions = {aid: by_id[aid].description for aid in state.agent_ids}
    channels = [_old_bm25_scores(descriptions, q.text)]
    profile_scores = {}
    for aid in state.agent_ids:
        p = by_id[aid].profile
        profile_scores[aid] = float(p @ qv) / (float(np.linalg.norm(p)) * qn)
    channels.append(_old_rank_scores(profile_scores))
    norms = np.linalg.norm(state.vectors, axis=1)
    dots = state.vectors @ qv
    cos = np.divide(dots, norms * qn, out=np.zeros_like(dots), where=norms > 0)
    channels.append(
        _old_rank_scores({aid: float(cos[i]) for i, aid in enumerate(state.agent_ids)})
    )
    fused = _old_rrf_merge(channels, RRF_K)
    norm_by_id = {aid: float(norms[i]) for i, aid in enumerate(state.agent_ids)}
    return _old_rank_scores(
        {aid: score * math.log1p(norm_by_id.get(aid, 0.0)) for aid, score in fused}
    )


def _old_magnitude_percentiles(state):
    mags = state.magnitudes()
    order = sorted(
        range(len(state.agent_ids)), key=lambda i: (-mags[i], state.agent_ids[i])
    )
    n = len(order)
    return {state.agent_ids[i]: 100.0 * (pos + 1) / n for pos, i in enumerate(order)}


# String order differs from numeric order ("10" < "9", "a10" < "a9"), and a
# NumPy "U" array would treat "a", "a\x00" and "a\x00\x00" as equal.
_IDS = ("a", "a\x00", "a\x00\x00", "b", "B", "9", "10", "a9", "a10", "\u00e9")
# Few distinct values, so scores tie and rows come out zero often.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0]),
    st.floats(-4.0, 4.0).map(lambda x: round(x, 3)),
)
# "zeta" is in no description, so some queries overlap none of them.
_WORDS = ("alpha", "beta", "gamma", "delta")


@st.composite
def _retrieval_case(draw):
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=8, unique=True))
    # Short rows tie often; 64-wide rows are where a batched product or
    # norm would round differently from the per-row one.
    dim = draw(st.one_of(st.integers(1, 4), st.just(64)))
    if dim == 64:
        vec = st.integers(0, 2**32 - 1).map(lambda s: np.random.default_rng(s).normal(size=64))
    else:
        vec = st.lists(_VALUES, min_size=dim, max_size=dim).map(np.array)
    state = make_state([draw(vec) for _ in ids], ids)
    # Agents share profiles, so profile cosines tie too.
    pool = [p if np.linalg.norm(p) > 0 else np.eye(dim)[0]
            for p in draw(st.lists(vec, min_size=1, max_size=3))]
    agents = []
    for aid in ids:
        profile = draw(st.sampled_from(pool))
        words = draw(st.lists(st.sampled_from(_WORDS), max_size=4))
        agents.append(make_agent(aid, profile, description=" ".join(words)))
    text = draw(st.lists(st.sampled_from(_WORDS + ("zeta",)), min_size=1, max_size=4))
    q = query(draw(vec), text=" ".join(text))
    # RRF inputs: up to three ranked lists, each a prefix of a permutation.
    prefix = st.permutations(ids).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: [(aid, 0.0) for aid in p[:k]])
    )
    lists = draw(st.lists(prefix, max_size=3))
    scores = dict(zip(ids, draw(st.lists(_VALUES, min_size=len(ids), max_size=len(ids)))))
    return state, agents, q, lists, scores


def _same(got, want):
    assert got == want
    assert repr(got) == repr(want)  # Python floats on both sides, zeros signed alike


_TIED_IDS = ["10", "9", "a\x00", "a"]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    case=_retrieval_case(),
    beta_mix=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    k=st.integers(1, 100),
)
@example(
    case=(
        make_state([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-0.0, 0.0]], _TIED_IDS),
        [make_agent(aid, [1.0, 0.0], description="alpha") for aid in _TIED_IDS],
        query(np.array([1.0, 0.0]), text="zeta"),
        [[("9", 0.0), ("10", 0.0)], [("10", 0.0)]],
        {"10": 0.0, "9": -0.0, "a\x00": 1.0, "a": 1.0},
    ),
    beta_mix=0.5,
    k=60,
)
def test_ranked_lists_match_the_per_function_sorts(case, beta_mix, k):
    state, agents, q, lists, scores = case
    _same(score_dot(state, q), _old_score_dot(state, q))
    _same(rank(state, q, "cosine"), _old_score_mixed(state, q, 0.0, "power"))
    for variant in ("power", "log_damped"):
        _same(
            score_mixed(state, q, beta_mix, variant),
            _old_score_mixed(state, q, beta_mix, variant),
        )
    descriptions = {a.id: a.description for a in agents}
    _same(bm25_scores(descriptions, q.text), _old_bm25_scores(descriptions, q.text))
    _same(rrf_merge(lists, k), _old_rrf_merge(lists, k))
    _same(rank_scores(scores), _old_rank_scores(scores))
    pct = magnitude_percentiles(state)
    _same(list(pct.items()), list(_old_magnitude_percentiles(state).items()))
    if np.linalg.norm(q.embedding) > 0:
        _same(pipeline_search(state, agents, q), _old_pipeline_search(state, agents, q))
    else:
        with pytest.raises(ValidationError, match="query embedding is zero"):
            pipeline_search(state, agents, q)


def _float_bits(x):
    return struct.pack("<d", x)


_PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF0_0000_0000_0123))[0]
# The special values, so that -0.0 ties 0.0, NaNs of any sign or payload tie
# each other, and infinities tie their own kind.
_RANK_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, _PAYLOAD_NAN, 1.0]),
    st.floats(),
)


@st.composite
def _ranked_inputs(draw):
    n = draw(st.integers(0, 120))
    ids = draw(st.one_of(
        # duplicates, and ids that differ only by trailing NULs
        st.lists(st.sampled_from(_IDS), min_size=n, max_size=n),
        st.permutations([f"a{i}" for i in range(n)]),
    ))
    # A pool of one value ties every score; a few values make long runs.
    pool = draw(st.lists(_RANK_SCORES, min_size=1, max_size=4))
    scores = draw(st.one_of(
        st.lists(st.sampled_from(pool), min_size=n, max_size=n),
        st.lists(_RANK_SCORES, min_size=n, max_size=n),
    ))
    return ids, np.array(scores, dtype=np.float64)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_ranked_inputs())
@example(([], np.array([])))
@example((["a"], np.array([math.nan])))
@example((["a\x00", "a", "a", "b"], np.array([-0.0, 0.0, -0.0, math.nan])))
def test_ranked_is_the_lexsort_order(case):
    ids, scores = case
    order = np.lexsort((np.asarray(ids, dtype=object), -scores))
    want = [(ids[i], float(scores[i])) for i in order]
    got = ranked(ids, scores)
    assert repr(got) == repr(want)
    assert [_float_bits(x) for _, x in got] == [_float_bits(x) for _, x in want]
    assert all(type(aid) is str and type(x) is float for aid, x in got)
    assert repr(ranked(tuple(ids), scores.tolist())) == repr(got)


def test_ranked_rejects_ids_and_scores_of_different_lengths():
    with pytest.raises(ValidationError, match="2 ids but 1 scores"):
        ranked(["a", "b"], np.array([1.0]))
    with pytest.raises(ValidationError, match="0 ids but 3 scores"):
        ranked([], [1.0, 2.0, 3.0])


# Besides small values: zeros of both signs, NaN, and rows whose squares
# overflow float64, as in the ``ranked`` tests above.
_STATE_VALUES = st.one_of(
    _VALUES, st.sampled_from([0.0, -0.0, math.nan, 1e306, -1e306, 1e200, 1e-310])
)


@st.composite
def _state_rows_case(draw):
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=8, unique=True))
    dim = draw(st.integers(1, 4))
    rows = [draw(st.lists(_STATE_VALUES, min_size=dim, max_size=dim)) for _ in ids]
    agents = [
        make_agent(aid, np.eye(dim)[k % dim], description=draw(st.sampled_from(_WORDS)))
        for k, aid in enumerate(ids)
    ]
    q = query(np.array(draw(st.lists(_VALUES, min_size=dim, max_size=dim))), text="alpha beta")
    return rows, ids, agents, q


def _bits_of(ranked_list):
    return [(aid, _float_bits(x)) for aid, x in ranked_list]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=_state_rows_case(), beta_mix=st.sampled_from([0.0, 0.5, 2.5]))
@example(
    case=(
        [[0.0, -0.0], [math.nan, 1.0], [1e306, 1e306], [-0.0, 0.0], [1.0, 0.0]],
        ["10", "9", "a\x00", "a", "b"],
        [make_agent(aid, [1.0, 0.0], description="alpha") for aid in ["10", "9", "a\x00", "a", "b"]],
        query(np.array([1.0, 0.5]), text="alpha"),
    ),
    beta_mix=0.5,
)
def test_a_read_only_state_ranks_as_its_writeable_copy(case, beta_mix):
    # The read-only state keeps its magnitudes and id array across reads;
    # the writeable one derives them on every read.  Same lists, same bits.
    rows, ids, agents, q = case
    kept, fresh = make_state(rows, ids), make_state(rows, ids)
    kept.vectors.flags.writeable = False

    def mixed(state, variant):
        try:
            return _bits_of(score_mixed(state, q, beta_mix, variant))
        except ValidationError as exc:  # a factor that overflows, as 1e306 ** 2.5
            return str(exc)

    def lists(state):
        out = [score_dot(state, q), rank(state, q, "cosine")]
        if np.linalg.norm(q.embedding) > 0:
            out.append(pipeline_search(state, agents, q))
        return [_bits_of(got) for got in out] + [mixed(state, v) for v in ("power", "log_damped")]

    with np.errstate(all="ignore"):
        want = lists(fresh)
        for _ in range(2):  # the second pass reads what the first one kept
            assert lists(kept) == want
    assert kept.magnitudes() is kept.magnitudes()
    assert fresh.magnitudes() is not fresh.magnitudes()
