"""Tests for the damped fixed-point engines (continuous and discrete)."""

import itertools
import logging
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustprop import propagation
from trustprop.errors import ValidationError
from trustprop.gates import (
    ConfidenceGateConfig,
    EntropyGateConfig,
    GateStack,
    KlGateConfig,
    SMOOTHING,
    MagnitudeGateConfig,
    entropy_factor,
    stack_batch,
    topic_distribution_batch,
)
from trustprop.graph import Agent, Edge, normalize
from trustprop.harness import CorpusSpec, generate_corpus
from trustprop.operators import OperatorKind, transfer_batch
from trustprop.propagation import (
    PropagationConfig,
    build_domain_matrices,
    build_negative_matrices,
    centroids_from_agents,
    init_state,
    ReputationState,
    project_to_domains,
    residual_ratios,
    run,
    self_alignment,
    steady_state_bound,
    step_continuous,
    step_discrete,
    warm_start,
)
from trustprop.vectorspace import overflow_safe_norms

from conftest import assert_within_steady_bound

EX = np.array([1.0, 0.0])
SQUARED = OperatorKind("squared_gating")


def make_agent(agent_id, teleport_scale=0.1, exo_scale=0.0, profile=EX):
    p = np.asarray(profile, dtype=np.float64)
    return Agent(
        id=agent_id,
        primary_domain="d",
        profile=p,
        teleport=teleport_scale * p,
        exogenous=exo_scale * p,
    )


def labeled(sender, receiver, base=1.0, content=EX):
    return Edge(sender=sender, receiver=receiver, kind="labeled", base_weight=base, content=content)


def _scalar_random_graph(seed):
    """Random weighted digraph whose edges all share a single content axis.

    On such a graph both engines reduce to scalar reputation flow on the
    first coordinate, which a plain-Python oracle can replicate.
    """
    rng = np.random.default_rng([seed, 7])
    n = int(rng.integers(5, 51))
    m = int(rng.integers(n, 4 * n))
    agents = [make_agent(f"n{i:02d}", teleport_scale=1.0 / n) for i in range(n)]
    links: dict[int, dict[int, float]] = {}
    edges = []
    for _ in range(m):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            continue
        wt = float(rng.integers(1, 4))
        links.setdefault(i, {})
        links[i][j] = links[i].get(j, 0.0) + wt
        edges.append(labeled(f"n{i:02d}", f"n{j:02d}", base=wt))
    return n, agents, edges, links


def _scalar_pagerank_oracle(n, links, alpha, tol=1e-13, iters=20000):
    """Dict-and-loop damped power iteration, independent of the engines."""
    w = {
        i: {j: wt / sum(outs.values()) for j, wt in outs.items()}
        for i, outs in links.items()
    }
    r = [1.0 / n] * n
    for _ in range(iters):
        new = [(1.0 - alpha) / n] * n
        for i, outs in w.items():
            ri = r[i]
            for j, wij in outs.items():
                new[j] += alpha * wij * ri
        delta = max(abs(a - b) for a, b in zip(new, r))
        r = new
        if delta < tol:
            break
    return r


# ----------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValidationError):
        PropagationConfig(alpha=1.0)
    with pytest.raises(ValidationError):
        PropagationConfig(alpha=0.0)
    with pytest.raises(ValidationError):
        PropagationConfig(epsilon=0.0)
    with pytest.raises(ValidationError):
        PropagationConfig(max_iters=0)
    with pytest.raises(ValidationError):
        PropagationConfig(beta=-0.1)
    for name in ("epsilon", "beta"):  # NaN fails every comparison
        with pytest.raises(ValidationError, match=name):
            PropagationConfig(**{name: np.nan})
    with pytest.raises(ValidationError):
        PropagationConfig(mode="quantum")


def test_an_infinite_kl_lambda_is_rejected_before_the_run():
    # Two agents with one profile, joined by blind edges: every edge cosine
    # is 1, and the gate exp(-lam * 0) would be NaN mid-iteration at lam = inf.
    p = np.array([1.0, 0.0])
    agents = [Agent(id=f"a{i}", primary_domain="d", profile=p, teleport=0.5 * p,
                    exogenous=0.0 * p) for i in range(2)]
    graph = normalize(agents, [Edge(sender="a0", receiver="a1", kind="blind"),
                               Edge(sender="a1", receiver="a0", kind="blind")])
    finite = KlGateConfig(enabled=True, lam=1e300)
    assert run(graph, PropagationConfig(gates=GateStack(kl=finite))).converged
    with pytest.raises(ValidationError, match="^lambda must be finite and >= 0$"):
        KlGateConfig(enabled=True, lam=np.inf)


def test_negative_stability_check():
    PropagationConfig(alpha=0.85, beta=0.15).check_negative_stability()  # 0.9775
    with pytest.raises(ValidationError):
        PropagationConfig(alpha=0.9, beta=0.15).check_negative_stability()


# ----------------------------------------------------------------- basics


def test_init_state_is_teleport_plus_exogenous():
    g = normalize([make_agent("a", 0.4, 0.2), make_agent("b", 0.1)], [])
    state = init_state(g, PropagationConfig())
    np.testing.assert_array_equal(state.vectors, g.teleport + g.exogenous)
    assert state.agent_ids == ("a", "b")
    assert state.iterations == 0 and not state.converged


def test_zero_edge_graph_fixed_point_in_two_steps():
    g = normalize([make_agent("a", 0.4, 0.2), make_agent("b", 0.1)], [])
    state = run(g, PropagationConfig())
    assert state.converged
    assert state.iterations == 2
    assert state.residuals[-1] == 0.0
    expected = (1.0 - 0.85) * g.teleport + g.exogenous
    np.testing.assert_array_equal(state.vectors, expected)


def test_couple_c_with_damping_changes_fixed_point():
    g = normalize([make_agent("a", 0.4, 0.2)], [])
    cfg = PropagationConfig(couple_c_with_damping=True)
    state = run(g, cfg)
    np.testing.assert_allclose(
        state.vectors, (1.0 - 0.85) * (g.teleport + g.exogenous), atol=1e-15
    )


def test_two_agent_ring_matches_linear_solve():
    a = make_agent("a", 0.3, 0.1)
    b = make_agent("b", 0.2, 0.0)
    g = normalize([a, b], [labeled("a", "b"), labeled("b", "a")])
    cfg = PropagationConfig(operator=SQUARED, epsilon=1e-12, max_iters=2000)
    state = run(g, cfg)
    # squared gating with content e_x is the identity on the active axis, so
    # the fixed point solves (I - alpha W^T) r = (1 - alpha) T + C directly.
    wt = np.array([[0.0, 1.0], [1.0, 0.0]])
    rhs = (1.0 - 0.85) * g.teleport[:, 0] + g.exogenous[:, 0]
    expected = np.linalg.solve(np.eye(2) - 0.85 * wt.T, rhs)
    np.testing.assert_allclose(state.vectors[:, 0], expected, atol=1e-8)
    np.testing.assert_allclose(state.vectors[:, 1], 0.0, atol=1e-15)


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_continuous_engine_matches_scalar_oracle(seed):
    n, agents, edges, links = _scalar_random_graph(seed)
    g = normalize(agents, edges)
    cfg = PropagationConfig(operator=SQUARED, epsilon=1e-12, max_iters=5000)
    state = run(g, cfg)
    assert state.converged
    oracle = _scalar_pagerank_oracle(n, links, 0.85)
    np.testing.assert_allclose(state.vectors[:, 0], oracle, atol=1e-8)


def test_step_continuous_requires_matching_mode():
    g = normalize([make_agent("a")], [])
    cfg = PropagationConfig(mode="discrete")
    cents = np.array([EX])
    mats = build_domain_matrices(g, cents)
    state = init_state(g, cfg, mats)
    with pytest.raises(ValidationError):
        step_continuous(state, g, PropagationConfig())
    with pytest.raises(ValidationError):
        step_continuous(init_state(g, PropagationConfig()), g, cfg)


def _foreign_state(state, case):
    """``state`` altered so that it no longer belongs to its graph."""
    v, ids = state.vectors, state.agent_ids
    if case == "row_too_few":
        return replace(state, vectors=v[:-1], agent_ids=ids[:-1])
    if case == "row_too_many":
        return replace(state, vectors=np.vstack([v, v[:1]]), agent_ids=ids + ("extra",))
    if case == "width_8":
        return replace(state, vectors=np.zeros((len(ids), 8)))
    return replace(state, vectors=v[::-1].copy(), agent_ids=ids[::-1])


_FOREIGN_CASES = [
    (case, entry)
    for case in ("row_too_few", "row_too_many", "width_8", "reversed")
    for entry in ("run_continuous", "step_continuous", "run_discrete", "step_discrete")
]


@pytest.mark.parametrize("case,entry", _FOREIGN_CASES)
def test_state_that_does_not_belong_to_the_graph_is_rejected(case, entry):
    agents = [make_agent(a) for a in "abc"]
    g = normalize(agents, [labeled("a", "b"), labeled("b", "c"), labeled("c", "a")])
    if entry.endswith("continuous"):
        cfg, inputs = PropagationConfig(), {}
    else:
        cfg = PropagationConfig(mode="discrete")
        inputs = {"matrices": build_domain_matrices(g, np.array([EX]))}
    state = _foreign_state(init_state(g, cfg, **inputs), case)
    with pytest.raises(ValidationError):
        if entry.startswith("run"):
            run(g, cfg, initial=state, **inputs)
        elif entry == "step_continuous":
            step_continuous(state, g, cfg)
        else:
            step_discrete(state, inputs["matrices"], cfg)


def test_run_reports_non_convergence_instead_of_raising(graph):
    state = run(graph, PropagationConfig(max_iters=3))
    assert not state.converged
    assert state.iterations == 3
    assert len(state.residuals) == 3


def test_run_from_a_converged_state_reports_only_its_own_convergence(graph, baseline, caplog):
    # Each step's state starts out not converged; a run that starts from a
    # converged state must not carry that state's flag through its own steps.
    cfg = PropagationConfig(max_iters=2)
    with caplog.at_level(logging.WARNING, logger="trustprop.propagation"):
        state = run(graph, cfg, initial=replace(baseline, vectors=50 * baseline.vectors))
    assert state.residuals[-1] > cfg.epsilon
    assert not state.converged
    assert state.iterations == baseline.iterations + 2
    assert "propagation did not converge" in caplog.text



def test_non_convergence_warning_counts_only_this_runs_iterations(graph, baseline, caplog):
    # The initial state's own iterations are in state.iterations, not in
    # the count the warning gives for this run.
    assert baseline.iterations > 2
    with caplog.at_level(logging.WARNING, logger="trustprop.propagation"):
        state = run(graph, PropagationConfig(max_iters=2),
                    initial=replace(baseline, vectors=50 * baseline.vectors))
    assert state.iterations == baseline.iterations + 2
    assert [r.getMessage().split(" (")[0] for r in caplog.records] == [
        "propagation did not converge in 2 iterations"
    ]

def test_normalize_each_iter_converges_to_unit_rows(graph):
    state = run(graph, PropagationConfig(normalize_each_iter=True))
    assert state.converged
    norms = np.linalg.norm(state.vectors, axis=1)
    assert bool(np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0)))


def test_residual_sequence_decreases_on_corpus(baseline):
    assert baseline.converged
    ratios = residual_ratios(baseline.residuals, skip=1)
    assert ratios and max(ratios) < 1.0


def test_residual_ratios_helper():
    assert residual_ratios([4.0, 2.0, 1.0, 0.5], skip=1) == pytest.approx([0.5, 0.5])
    assert residual_ratios([4.0, 2.0, 1.0, 0.5], skip=0) == pytest.approx([0.5, 0.5, 0.5])
    assert residual_ratios([1.0], skip=1) == []


def test_fixed_point_unique_across_inits():
    n, agents, edges, _ = _scalar_random_graph(5)
    g = normalize(agents, edges)
    cfg = PropagationConfig(epsilon=1e-10, max_iters=5000)
    cold = run(g, cfg)
    rng = np.random.default_rng(99)
    warm = init_state(g, cfg)
    warm.vectors = np.abs(rng.normal(size=warm.vectors.shape))
    hot = run(g, cfg, initial=warm)
    assert cold.converged and hot.converged
    diff = np.linalg.norm(cold.vectors - hot.vectors, axis=1).max()
    assert diff < 1e-8


def test_steady_state_bound_formula():
    t = np.zeros((3, 2))
    t[0, 0] = 1.0
    c = np.zeros((3, 2))
    c[1, 1] = 1.0
    assert steady_state_bound(t, c, 0.85) == pytest.approx(1.0 + 1.0 / 0.15, abs=1e-12)
    assert steady_state_bound(t, np.zeros_like(c), 0.5) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        steady_state_bound(t, c, 1.0)


def test_steady_state_bound_of_a_row_whose_squares_overflow():
    t = np.zeros((3, 4))
    t[0, 0] = 1.0
    c = np.zeros((3, 4))
    c[1, 0] = 1e306
    assert steady_state_bound(t, c, 0.85) == pytest.approx(1.0 + 1e306 / 0.15, rel=1e-15)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_steady_state_bound_keeps_the_bits_of_the_frobenius_norms(layout):
    rng = np.random.default_rng(5)
    t, c = (np.asarray(rng.standard_normal((50, 64)), order=layout) for _ in range(2))
    plain = float(np.linalg.norm(t)) + float(np.linalg.norm(c)) / (1.0 - 0.85)
    assert steady_state_bound(t, c, 0.85) == plain


def test_corpus_run_respects_steady_state_bound(graph, baseline):
    assert_within_steady_bound(baseline, graph.teleport, graph.exogenous)


# ----------------------------------------------------------------- discrete


def test_project_to_domains_simple_rows():
    cents = np.eye(2)
    vecs = np.array([
        [1.0, 0.0],        # all mass to d0
        [0.6, 0.8],        # split by positive cosines, norm preserved as L1
        [0.0, 0.0],        # zero row stays
        [-1.0, 0.0],       # no positive similarity -> stays zero
    ])
    out = project_to_domains(vecs, cents)
    np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out[1], [0.6 / 1.4, 0.8 / 1.4], atol=1e-12)
    assert out[1].sum() == pytest.approx(1.0, abs=1e-12)  # row norm was 1
    np.testing.assert_array_equal(out[2], [0.0, 0.0])
    np.testing.assert_array_equal(out[3], [0.0, 0.0])


def test_project_to_domains_keeps_a_row_whose_squares_overflow():
    # 1e306 and 1e150 rows of one direction: only the first row's squares
    # overflow, and its buckets are the second's scaled by 1e156.
    rng = np.random.default_rng(5)
    cents = rng.standard_normal((4, 64))
    direction = np.abs(rng.standard_normal(64))
    out = project_to_domains(np.vstack([1e306 * direction, 1e150 * direction]), cents)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out[0], 1e156 * out[1], rtol=1e-13)
    assert out[0].sum() == pytest.approx(1e306 * np.linalg.norm(direction), rel=1e-13)


# The cosines to the centroids as each caller wrote them out before
# ``vectorspace.centroid_cosines`` was shared: the references for bit equality.
def _reference_topic_distribution(vs, centroids):
    vs = np.asarray(vs, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    norms = np.linalg.norm(vs, axis=1, keepdims=True)
    cnorms = np.linalg.norm(cents, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    cos = (vs @ cents.T) / (safe * cnorms[None, :])
    cos = np.where(norms > 0, cos, 0.0)
    z = np.exp(cos - cos.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    return (p + SMOOTHING) / (1.0 + p.shape[1] * SMOOTHING)


def _reference_project_to_domains(vectors, centroids):
    vectors = np.asarray(vectors, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    cnorms = np.linalg.norm(cents, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    cos = (vectors @ cents.T) / (safe[:, None] * cnorms[None, :])
    sims = np.maximum(cos, 0.0)
    totals = sims.sum(axis=1)
    out = np.zeros_like(sims)
    ok = (totals > 0) & (norms > 0)
    out[ok] = sims[ok] / totals[ok, None] * norms[ok, None]
    return out


# Per row: a random direction at a random scale, zeros, -0.0s, or entries
# of 1e-200 whose squares underflow, so that the row's norm is 0.
_ROW_KINDS = st.sampled_from(["random", "random", "zero", "negative_zero", "tiny"])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(_ROW_KINDS, max_size=8),
    n_domains=st.integers(1, 5),
    dim=st.integers(1, 6),
)
def test_centroid_cosines_keep_both_callers_bit_for_bit(seed, kinds, n_domains, dim):
    rng = np.random.default_rng(seed)
    rows = {
        "random": lambda: rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4),
        "zero": lambda: np.zeros(dim),
        "negative_zero": lambda: np.full(dim, -0.0),
        "tiny": lambda: rng.choice([-1e-200, 1e-200], dim),
    }
    vs = np.array([rows[kind]() for kind in kinds]).reshape(len(kinds), dim)
    cents = rng.standard_normal((n_domains, dim)) + 0.1  # no zero centroid
    for got, want in (
        (topic_distribution_batch(vs, cents), _reference_topic_distribution(vs, cents)),
        (project_to_domains(vs, cents), _reference_project_to_domains(vs, cents)),
    ):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _domain(mats, d):
    """M_d, the (N, N) block of domain d in the transition over (agent, domain) pairs."""
    n_domains = len(mats.centroids)
    return mats.transition[d::n_domains, d::n_domains]


def _domains(mats):
    return [_domain(mats, d) for d in range(len(mats.centroids))]


def test_build_domain_matrices_single_domain_is_row_normalized_adjacency():
    n, agents, edges, links = _scalar_random_graph(13)
    g = normalize(agents, edges)
    mats = build_domain_matrices(g, np.array([EX]), top_k=1)
    dense = np.zeros((n, n))
    np.add.at(dense, (g.pos_sender, g.pos_receiver), g.pos_weight)
    np.testing.assert_allclose(_domain(mats, 0).toarray(), dense, atol=1e-12)


def test_build_domain_matrices_top2_splits_equidistant_edge():
    agents = [make_agent(x) for x in "abc"]
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    edges = [labeled("a", "b", content=EX), labeled("a", "c", content=diag)]
    mats = build_domain_matrices(normalize(agents, edges), np.eye(2), top_k=2)
    m0 = _domain(mats, 0).toarray()
    m1 = _domain(mats, 1).toarray()
    # domain 0 collects the on-axis edge (0.5) plus half the diagonal edge
    # (0.25), then row-normalizes to 2/3 and 1/3.
    np.testing.assert_allclose(m0[0], [0.0, 2.0 / 3.0, 1.0 / 3.0], atol=1e-9)
    np.testing.assert_allclose(m1[0], [0.0, 0.0, 1.0], atol=1e-9)


def test_build_domain_matrices_no_positive_similarity_falls_back_to_argmax():
    agents = [make_agent(x) for x in "ab"]
    anti = -np.array([1.0, 1.0]) / np.sqrt(2.0)
    mats = build_domain_matrices(
        normalize(agents, [labeled("a", "b", content=anti)]), np.eye(2), top_k=1
    )
    assert _domain(mats, 0)[0, 1] == pytest.approx(1.0)
    assert _domain(mats, 1).nnz == 0


def test_build_domain_matrices_row_sums_one_or_zero(graph, corpus):
    _, cents = centroids_from_agents(corpus.agents)
    for top_k in (1, 2, 3):
        mats = build_domain_matrices(graph, cents, top_k=top_k)
        for m in _domains(mats):
            sums = np.asarray(m.sum(axis=1)).ravel()
            nonzero = sums[sums != 0.0]
            np.testing.assert_allclose(nonzero, 1.0, atol=1e-9)


def test_build_domain_matrices_validates_inputs(graph):
    with pytest.raises(ValidationError):
        build_domain_matrices(graph, np.eye(3))  # dim mismatch vs 64
    cents = centroids_from_agents(graph.agents)[1]
    with pytest.raises(ValidationError):
        build_domain_matrices(graph, cents, top_k=0)
    with pytest.raises(ValidationError):
        build_domain_matrices(graph, cents, top_k=9)


def test_discrete_empty_domain_column_settles_in_one_step():
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    agents = [
        Agent(id=x, primary_domain="d", profile=EX, teleport=0.2 * diag, exogenous=np.zeros(2))
        for x in "ab"
    ]
    g = normalize(agents, [labeled("a", "b", content=EX)])
    cfg = PropagationConfig(mode="discrete")
    mats = build_domain_matrices(g, np.eye(2), top_k=1)
    assert _domain(mats, 1).nnz == 0  # the only edge lives on the first axis
    state = init_state(g, cfg, mats)
    one, _ = step_discrete(state, mats, cfg)
    np.testing.assert_allclose(one.vectors[:, 1], 0.15 * mats.teleport[:, 1], atol=1e-15)
    two, _ = step_discrete(one, mats, cfg)
    np.testing.assert_array_equal(two.vectors[:, 1], one.vectors[:, 1])


@pytest.mark.parametrize("seed", [1, 21])
def test_discrete_engine_matches_scalar_oracle(seed):
    n, agents, edges, links = _scalar_random_graph(seed)
    g = normalize(agents, edges)
    cfg = PropagationConfig(mode="discrete", epsilon=1e-12, max_iters=5000)
    mats = build_domain_matrices(g, np.array([EX]), top_k=1)
    state = run(g, cfg, matrices=mats)
    assert state.converged
    oracle = _scalar_pagerank_oracle(n, links, 0.85)
    np.testing.assert_allclose(state.vectors[:, 0], oracle, atol=1e-8)


# ----------------------------------------------------------------- negative


def _flag_fixture(extra_positive=True):
    rep = make_agent("rep", teleport_scale=1.0)
    bad = make_agent("bad", teleport_scale=0.01)
    edges = [Edge(sender="rep", receiver="bad", kind="flag", severity=1.0)]
    if extra_positive:
        edges.append(labeled("rep", "bad"))
    g = normalize([rep, bad], edges)
    mats = build_domain_matrices(g, np.array([EX]), top_k=1)
    neg = build_negative_matrices(g, mats)
    return g, mats, neg


def test_clamp_floor_keeps_buckets_non_negative():
    g, mats, neg = _flag_fixture(extra_positive=False)
    cfg = PropagationConfig(mode="discrete")
    state = init_state(g, cfg, mats)
    clamped, _ = step_discrete(state, mats, cfg, neg)
    assert clamped.vectors[1, 0] == 0.0
    raw_cfg = PropagationConfig(mode="discrete", clamp_floor=False)
    unclamped, _ = step_discrete(state, mats, raw_cfg, neg)
    assert unclamped.vectors[1, 0] < 0.0


def test_beta_zero_reduces_to_plain_discrete_step_exactly():
    g, mats, neg = _flag_fixture()
    cfg = PropagationConfig(mode="discrete", beta=0.0)
    state = init_state(g, cfg, mats)
    with_neg, _ = step_discrete(state, mats, cfg, neg)
    without, _ = step_discrete(state, mats, cfg)
    assert np.array_equal(with_neg.vectors, without.vectors)


def test_negative_run_rejects_unstable_config():
    g, mats, neg = _flag_fixture()
    cfg = PropagationConfig(mode="discrete", alpha=0.9, beta=0.15)
    with pytest.raises(ValidationError):
        run(g, cfg, matrices=mats, neg=neg)


def test_negative_run_converges_and_suppresses_target():
    g, mats, neg = _flag_fixture()
    cfg = PropagationConfig(mode="discrete", epsilon=1e-10, max_iters=1000)
    plain = run(g, cfg, matrices=mats)
    flagged = run(g, cfg, matrices=mats, neg=neg)
    assert flagged.converged
    assert flagged.vectors[1, 0] < plain.vectors[1, 0]
    assert (flagged.vectors >= 0.0).all()


def test_negative_matrices_replicate_across_domains():
    # One (N, N) flag matrix, subtracted at strength beta in every bucket.
    rep = make_agent("rep")
    bad = make_agent("bad")
    g = normalize([rep, bad], [Edge(sender="rep", receiver="bad", kind="flag", severity=0.7)])
    mats = build_domain_matrices(g, np.eye(2), top_k=1)
    neg = build_negative_matrices(g, mats)
    assert neg.shape == (2, 2)
    assert neg[0, 1] == pytest.approx(1.0)  # per-reporter normalized
    assert neg.nnz == 1
    cfg = PropagationConfig(mode="discrete", clamp_floor=False)
    state = init_state(g, cfg, mats)
    state.vectors[:] = [[2.0, 3.0], [5.0, 7.0]]
    with_neg, _ = step_discrete(state, mats, cfg, neg)
    without, _ = step_discrete(state, mats, cfg)
    removed = without.vectors - with_neg.vectors
    expected = cfg.alpha * cfg.beta * np.array([[0.0, 0.0], [2.0, 3.0]])
    np.testing.assert_allclose(removed, expected, atol=1e-15)


# ----------------------------------------------------------------- warm start


def test_warm_start_unchanged_graph_converges_immediately():
    n, agents, edges, _ = _scalar_random_graph(9)
    g = normalize(agents, edges)
    cfg = PropagationConfig()
    first = run(g, cfg)
    again = warm_start(first, g, cfg)
    assert again.converged
    assert again.iterations == 1


def test_warm_start_new_dangling_agent_settles_fast():
    n, agents, edges, _ = _scalar_random_graph(9)
    g = normalize(agents, edges)
    cfg = PropagationConfig(epsilon=1e-10, max_iters=5000)
    first = run(g, cfg)
    extra = make_agent("zz-new", teleport_scale=0.4, exo_scale=0.1)
    g2 = normalize(agents + [extra], edges)
    second = warm_start(first, g2, cfg)
    assert second.converged
    assert second.iterations <= 5
    def row(state, aid):
        return state.vectors[state.agent_ids.index(aid)]

    np.testing.assert_allclose(
        row(second, "zz-new"), 0.15 * extra.teleport + extra.exogenous, atol=1e-12
    )
    # a dangling newcomer cannot disturb anyone else's fixed point
    for aid in first.agent_ids:
        np.testing.assert_allclose(row(second, aid), row(first, aid), atol=1e-9)


def test_warm_start_rejects_mode_and_width_mismatch():
    g = normalize([make_agent("a")], [])
    cont = run(g, PropagationConfig())
    with pytest.raises(ValidationError):
        warm_start(cont, g, PropagationConfig(mode="discrete"),
                   matrices=build_domain_matrices(g, np.array([EX])))
    wide = Agent(
        id="a",
        primary_domain="d",
        profile=np.array([1.0, 0.0, 0.0]),
        teleport=np.zeros(3),
        exogenous=np.zeros(3),
    )
    g3 = normalize([wide], [])
    with pytest.raises(ValidationError):
        warm_start(cont, g3, PropagationConfig())


@pytest.mark.parametrize("entry", ["run", "warm_start"])
def test_continuous_mode_refuses_given_domain_matrices(graph, baseline, entry):
    # Continuous steps never read domain matrices, so given ones are refused
    # as given flag matrices are, not dropped.
    _, cents = centroids_from_agents(graph.agents)
    mats = build_domain_matrices(graph, cents)
    with pytest.raises(ValidationError, match="^domain matrices run in discrete mode only$"):
        if entry == "run":
            run(graph, PropagationConfig(), matrices=mats)
        else:
            warm_start(baseline, graph, PropagationConfig(), matrices=mats)


# ------------------------------------------------ read-only states and what they keep


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_engine_states_are_read_only_and_init_state_is_not(graph, mode):
    cfg = PropagationConfig(mode=mode, max_iters=3)
    _, cents = centroids_from_agents(graph.agents)
    mats = build_domain_matrices(graph, cents) if mode == "discrete" else None
    seed = init_state(graph, cfg, mats)
    assert seed.vectors.flags.writeable
    if mode == "continuous":
        stepped, _ = step_continuous(seed, graph, cfg)
    else:
        stepped, _ = step_discrete(seed, mats, cfg)
    first = run(graph, cfg, matrices=mats)
    again = warm_start(first, graph, cfg, matrices=mats)
    for state in (stepped, first, again):
        assert not state.vectors.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.vectors[0, 0] = 1.0
    assert seed.vectors.flags.writeable  # stepping takes nothing from it


def test_magnitudes_of_a_read_only_state_are_taken_once(graph):
    state = run(graph, PropagationConfig())
    norms = state.magnitudes()
    assert norms.tobytes() == overflow_safe_norms(state.vectors).tobytes()
    assert not norms.flags.writeable
    assert state.magnitudes() is norms
    ids = state.id_array()
    assert ids.dtype == object and ids.tolist() == list(state.agent_ids)
    assert not ids.flags.writeable
    assert state.id_array() is ids
    state.agent_ids = state.agent_ids[::-1]  # a new tuple gets its own array
    assert state.id_array().tolist() == list(state.agent_ids)


def test_magnitudes_of_a_writeable_state_follow_in_place_edits():
    g = normalize([make_agent("a", 0.3), make_agent("b", 0.0)], [])
    state = init_state(g, PropagationConfig())
    state.vectors[:] = [[3.0, 4.0], [0.0, 0.0]]
    first = state.magnitudes()
    np.testing.assert_array_equal(first, [5.0, 0.0])
    state.vectors[1] = [6.0, 8.0]
    np.testing.assert_array_equal(state.magnitudes(), [5.0, 10.0])
    np.testing.assert_array_equal(first, [5.0, 0.0])


def test_replace_takes_the_magnitudes_of_the_new_vectors(graph):
    state = run(graph, PropagationConfig())
    state.magnitudes()
    state.id_array()
    doubled = 2.0 * state.vectors
    doubled.flags.writeable = False
    other = replace(state, vectors=doubled)
    assert other.magnitudes().tobytes() == overflow_safe_norms(doubled).tobytes()
    assert other.magnitudes() is not state.magnitudes()
    renamed = replace(state, agent_ids=tuple(f"x{aid}" for aid in state.agent_ids))
    assert renamed.id_array().tolist() == list(renamed.agent_ids)


# ----------------------------------------------------------------- analysis


def test_self_alignment_zero_edge_graph_is_perfect():
    g = normalize([make_agent("a", 0.3), make_agent("b", 0.0)], [])
    state = run(g, PropagationConfig())
    scores = self_alignment(state, g)
    assert scores["a"] == pytest.approx(1.0, abs=1e-12)
    assert "b" not in scores  # zero teleport and zero reputation -> omitted


def test_self_alignment_omits_the_agents_with_a_zero_row():
    # Zero rows, and rows whose norm underflows to 0, have no cosine.
    scales = (0.3, 0.0, 1e-200, 0.2, 0.5)
    g = normalize([make_agent(f"a{i}", s) for i, s in enumerate(scales)], [])
    vectors = g.teleport[::-1] * np.array([[1.0], [2.0], [1.0], [1e-200], [-1.0]])
    state = ReputationState(vectors=vectors, agent_ids=g.agents.id)
    want = {}
    for i, aid in enumerate(g.agents.id):  # the per-agent rule, written out
        r, t = state.vectors[i], g.teleport[i]
        rn, tn = float(np.linalg.norm(r)), float(np.linalg.norm(t))
        if rn == 0.0 or tn == 0.0:
            continue
        want[aid] = float(np.clip(float(r @ t) / (rn * tn), -1.0, 1.0))
    assert self_alignment(state, g) == want
    assert list(want) == ["a0", "a4"]


def test_self_alignment_rejects_discrete_states():
    g = normalize([make_agent("a")], [])
    cfg = PropagationConfig(mode="discrete")
    mats = build_domain_matrices(g, np.array([EX]))
    state = run(g, cfg, matrices=mats)
    with pytest.raises(ValidationError):
        self_alignment(state, g)


def test_centroids_from_agents_orders_by_first_appearance():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    agents = [
        Agent(id="x", primary_domain="beta", profile=u, teleport=np.zeros(2), exogenous=np.zeros(2)),
        Agent(id="y", primary_domain="alpha", profile=v, teleport=np.zeros(2), exogenous=np.zeros(2)),
        Agent(id="z", primary_domain="beta", profile=w, teleport=np.zeros(2), exogenous=np.zeros(2)),
    ]
    domains, cents = centroids_from_agents(agents)
    assert domains == ("beta", "alpha")
    mean = (u + w) / 2.0
    np.testing.assert_allclose(cents[0], mean / np.linalg.norm(mean), atol=1e-12)
    np.testing.assert_allclose(cents[1], v, atol=1e-12)


# ------------------------------------------- continuous step vs edge-order scatter


def _reference_transfer(kind, r, e, blind):
    """transfer_batch, with hybrid per-edge selection written as a masked overwrite."""
    if kind.variant == "hybrid" and kind.hybrid_mode == "per_edge_select":
        out = transfer_batch(OperatorKind("projection"), r, e, blind)
        if blind.any():
            out[blind] = transfer_batch(SQUARED, r[blind], e[blind], blind[blind])
        return out
    return transfer_batch(kind, r, e, blind)


def _reference_step(r, graph, cfg, centroids):
    """One continuous step that scatters w * gate * f(R[i], e) with np.add.at."""
    acc = np.zeros_like(r)
    if graph.n_pos_edges:
        rows = r[graph.pos_sender]
        transferred = _reference_transfer(
            cfg.operator, rows, graph.pos_content, graph.pos_blind
        )
        coeff = graph.pos_weight
        gates = cfg.gates
        if gates.any_enabled:
            conf = np.where(
                np.isnan(graph.pos_confidence),
                np.where(graph.pos_blind, gates.confidence.default_confidence, 1.0),
                graph.pos_confidence,
            )
            p_int = topic_distribution_batch(graph.pos_content, centroids)
            p_rep = topic_distribution_batch(rows, centroids)
            coeff = coeff * stack_batch(gates, rows, graph.pos_content, conf, p_int, p_rep)
        np.add.at(acc, graph.pos_receiver, coeff[:, None] * transferred)
    new = cfg.alpha * acc
    if cfg.couple_c_with_damping:
        new += (1.0 - cfg.alpha) * (graph.teleport + graph.exogenous)
    else:
        new += (1.0 - cfg.alpha) * graph.teleport + graph.exogenous
    if cfg.normalize_each_iter:
        norms = np.linalg.norm(new, axis=1, keepdims=True)
        np.divide(new, norms, out=new, where=norms > 0)
    return new


def _reference_run(graph, cfg, centroids):
    r = graph.teleport + graph.exogenous
    residuals = []
    for _ in range(cfg.max_iters):
        new = _reference_step(r, graph, cfg, centroids)
        residuals.append(float(np.linalg.norm(new - r, axis=1).max()))
        r = new
        if residuals[-1] < cfg.epsilon:
            break
    return r, tuple(residuals)


_ALL_GATES = dict(
    kl=KlGateConfig(enabled=True, form="softmax", lam=2.0),
    entropy=EntropyGateConfig(enabled=True, strength=0.5),
    magnitude_ratio=MagnitudeGateConfig(enabled=True),
    confidence=ConfidenceGateConfig(enabled=True, default_confidence=0.3),
)
_OPERATORS = {
    name: OperatorKind.from_name(name) for name in ("projection", "squared", "scalar", "relu")
}
_OPERATORS["hybrid_interpolate"] = OperatorKind.from_name("hybrid", 0.3, "interpolate")
_OPERATORS["hybrid_select"] = OperatorKind.from_name("hybrid", None, "per_edge_select")
_GATE_STACKS = {
    "kl_cosine": GateStack(kl=KlGateConfig(enabled=True)),
    "kl_softmax": GateStack(kl=_ALL_GATES["kl"]),
    "entropy": GateStack(entropy=_ALL_GATES["entropy"]),
    "magnitude": GateStack(magnitude_ratio=_ALL_GATES["magnitude_ratio"]),
    "confidence": GateStack(confidence=_ALL_GATES["confidence"]),
    "all_gates": GateStack(**_ALL_GATES),
    "all_gates_kl_cosine": GateStack(**{**_ALL_GATES, "kl": KlGateConfig(enabled=True)}),
}
_SCATTER_CONFIGS = {
    **{name: PropagationConfig(operator=op, max_iters=60) for name, op in _OPERATORS.items()},
    **{name: PropagationConfig(gates=g, max_iters=60) for name, g in _GATE_STACKS.items()},
    "hybrid_select_all_gates": PropagationConfig(
        operator=_OPERATORS["hybrid_select"], gates=_GATE_STACKS["all_gates"], max_iters=60
    ),
    "normalized_coupled": PropagationConfig(
        normalize_each_iter=True, couple_c_with_damping=True, max_iters=60
    ),
    "coupled": PropagationConfig(couple_c_with_damping=True, max_iters=60),
    "normalized": PropagationConfig(normalize_each_iter=True, max_iters=60),
    # scalar reads the row dots and norms that the gates read too, taken
    # before the transfer overwrites the gathered rows
    "scalar_all_gates": PropagationConfig(
        operator=_OPERATORS["scalar"], gates=_GATE_STACKS["all_gates"], max_iters=60
    ),
}

# (sender, receiver offset, blind, base weight, payment, confidence)
_EDGE = st.tuples(
    st.integers(0, 5),
    st.integers(0, 4),
    st.booleans(),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.booleans(),
    st.sampled_from([None, 0.0, 0.4, 1.0]),
)
_GRAPH = st.tuples(
    st.integers(1, 6),  # agents
    st.integers(1, 4),  # embedding dim
    st.integers(0, 2**32 - 1),  # seed for the vectors
    st.lists(_EDGE, max_size=16),
)
# Three parallel a0->a1 edges, a sender with no positive out-edges (a2),
# agents with no in-edges (a0, a3), a zero-reputation sender (a3), blind and
# labeled edges with and without confidences.
_MIXED = (
    4, 3, 7,
    [(0, 0, False, 1.0, False, None), (0, 0, True, 3.0, True, 0.4),
     (0, 0, False, 0.5, False, 1.0), (1, 0, True, 1.0, False, None),
     (3, 1, False, 1.0, True, 0.0)],
)
# A hub (a3) with ten in-edges, interleaved in edge order with the edges
# into a1 and a5; a0, a2 and a4 have no in-edges.  With blocks of a few
# edges the hub spans several nominal blocks, and empty receivers sit
# before, between and after the others.
_HUB = (
    6, 3, 11,
    [(0, 2, False, 1.0, False, None), (1, 1, True, 3.0, True, 0.4),
     (4, 2, False, 1.0, False, None), (2, 0, False, 0.5, False, 1.0),
     (4, 4, True, 1.0, False, None), (5, 3, False, 3.0, True, None),
     (3, 1, False, 1.0, False, 0.0), (0, 2, True, 0.5, False, None),
     (1, 1, False, 1.0, True, 1.0), (2, 0, True, 1.0, False, 0.4),
     (5, 3, False, 0.5, False, None), (4, 4, False, 3.0, False, None)],
)


def _spec_graph(spec, flags=()):
    """(graph, centroids) for a drawn (n, dim, seed, edges) spec, plus flag
    edges from (sender, receiver offset, severity) triples.

    Receivers are taken as an offset from the sender, so no edge is a self-loop.
    """
    n, dim, seed, raw = spec
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    agents = []
    for i in range(n):
        profile = unit()
        exo = 0.0 if i % 3 == 0 else rng.uniform(0.0, 0.5)
        tel = 0.0 if i == n - 1 and n > 2 else rng.uniform(0.05, 1.0)
        agents.append(Agent(
            id=f"a{i}", primary_domain="d", profile=profile,
            teleport=tel * profile, exogenous=exo * unit(),
        ))
    edges = []
    for sender, offset, blind, base, payment, conf in raw if n > 1 else []:
        s = sender % n
        r = (s + 1 + offset % (n - 1)) % n
        edges.append(Edge(
            sender=f"a{s}", receiver=f"a{r}", kind="blind" if blind else "labeled",
            base_weight=base, content=None if blind else unit(), payment=payment,
            confidence=conf,
        ))
    for sender, offset, severity in flags if n > 1 else []:
        s = sender % n
        r = (s + 1 + offset % (n - 1)) % n
        edges.append(Edge(sender=f"a{s}", receiver=f"a{r}", kind="flag", severity=severity))
    centroids = np.vstack([unit() for _ in range(3)])
    return normalize(agents, edges), centroids


@pytest.mark.parametrize("cfg", list(_SCATTER_CONFIGS.values()), ids=list(_SCATTER_CONFIGS))
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(spec=_GRAPH)
@example(spec=(3, 2, 0, []))
@example(spec=_MIXED)
@example(spec=_HUB)
def test_continuous_step_equals_edge_order_scatter(cfg, spec):
    graph, cents = _spec_graph(spec)
    state = run(graph, cfg, centroids=cents)
    vectors, residuals = _reference_run(graph, cfg, cents)
    assert np.array_equal(state.vectors, vectors)
    assert state.residuals == residuals
    assert state.iterations == len(residuals)
    start = init_state(graph, cfg)
    for s in (start, state):
        stepped, _ = step_continuous(s, graph, cfg, cents)
        assert np.array_equal(stepped.vectors, _reference_step(s.vectors, graph, cfg, cents))


@pytest.mark.parametrize("block_edges", [1, 2, 3, 7])
@pytest.mark.parametrize("cfg", list(_SCATTER_CONFIGS.values()), ids=list(_SCATTER_CONFIGS))
def test_continuous_step_equals_edge_order_scatter_in_small_blocks(cfg, block_edges, monkeypatch):
    # The same property with receiver blocks of a few edges, so hubs outgrow
    # a block and blocks end next to receivers with and without in-edges.
    monkeypatch.setattr(propagation, "BLOCK_EDGES", block_edges)
    test_continuous_step_equals_edge_order_scatter(cfg)


def _many_edges_spec(n_edges, seed=5):
    """A _spec_graph spec with 40 agents, half of all edges into a0."""
    n = 40
    rng = np.random.default_rng([seed, 3])
    senders = rng.integers(1, n, n_edges)
    to_hub = rng.random(n_edges) < 0.5
    offsets = np.where(to_hub, n - 1 - senders, rng.integers(0, n - 1, n_edges))
    confidences = [None, 0.0, 0.4, 1.0]
    raw = [
        (int(s), int(o), bool(rng.random() < 0.6), float(rng.choice([0.5, 1.0, 3.0])),
         bool(rng.random() < 0.2), confidences[int(rng.integers(4))])
        for s, o in zip(senders, offsets)
    ]
    return (n, 8, seed, raw)


@pytest.mark.parametrize("name", ["projection", "hybrid_select", "all_gates"])
def test_run_with_several_default_blocks_equals_edge_order_scatter(name):
    # More than two default blocks, and a hub with more than BLOCK_EDGES
    # in-edges, which gets a block of its own.
    graph, cents = _spec_graph(_many_edges_spec(2 * propagation.BLOCK_EDGES + 1500))
    assert graph.n_pos_edges > 2 * propagation.BLOCK_EDGES
    assert np.bincount(graph.pos_receiver).max() > propagation.BLOCK_EDGES
    cfg = _SCATTER_CONFIGS[name]
    state = run(graph, cfg, centroids=cents)
    vectors, residuals = _reference_run(graph, cfg, cents)
    assert np.array_equal(state.vectors, vectors)
    assert state.residuals == residuals


def test_gated_and_ungated_runs_on_one_graph_do_not_share_a_plan():
    # A gated step rewrites the block weights in place; a plan kept from
    # one run to the next would carry them into the following run.
    graph, cents = _spec_graph(_many_edges_spec(2 * propagation.BLOCK_EDGES + 1500))
    gated, plain = _SCATTER_CONFIGS["all_gates"], _SCATTER_CONFIGS["projection"]
    for cfg in (gated, plain, plain, gated):
        fresh, _ = _reference_run(graph, cfg, cents)
        assert np.array_equal(run(graph, cfg, centroids=cents).vectors, fresh)


def test_runs_on_one_graph_with_other_centroid_values_use_their_own():
    # The edge topic distributions are kept with the graph for the centroid
    # values they were built from, not for the array that held them.
    graph, cents = _spec_graph(_many_edges_spec(2 * propagation.BLOCK_EDGES + 1500))
    cfg = _SCATTER_CONFIGS["all_gates"]
    given = cents.copy()
    for values in (cents, np.roll(cents, 1, axis=1), cents):
        given[:] = values
        fresh, _ = _reference_run(graph, cfg, values)
        assert np.array_equal(run(graph, cfg, centroids=given).vectors, fresh)


# Receivers for the plan's structure: a hub (None) takes about half the
# edges, the rest go to one of up to 12 agents; senders are drawn apart from
# their receivers by an offset.
_PLAN_SPEC = st.tuples(
    st.integers(2, 12),  # agents
    st.integers(0, 11),  # the hub
    st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 11)), st.integers(0, 10)), max_size=40
    ),
)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(spec=_PLAN_SPEC, block_edges=st.integers(1, 16))
def test_graph_plan_tiles_the_edges_in_bounded_blocks(spec, block_edges):
    n, hub, raw = spec
    receivers = [hub % n if r is None else r % n for r, _ in raw]
    agents = [make_agent(f"a{i}") for i in range(n)]
    edges = [
        labeled(f"a{(r + 1 + k % (n - 1)) % n}", f"a{r}", base=1.0 + i % 4)
        for i, (r, (_, k)) in enumerate(zip(receivers, raw))
    ]
    graph = normalize(agents, edges)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagation, "BLOCK_EDGES", block_edges)
        blocks = propagation._graph_plan(graph)
    m = graph.n_pos_edges
    # Each receiver with in-edges lies in exactly one block, and no
    # receiver in two.
    covered = np.zeros(n, int)
    for blk in blocks:
        covered[blk.lo : blk.hi] += 1
    assert covered.max() <= 1
    assert np.all(covered[graph.pos_receiver] == 1)
    # The block edge slices tile [0, M).
    spans = sorted((blk.edges.start, blk.edges.stop) for blk in blocks)
    assert [a for a, _ in spans] + [m] == [0] + [b for _, b in spans]
    sizes = [blk.edges.stop - blk.edges.start for blk in blocks]
    assert sizes == sorted(sizes, reverse=True)  # largest first
    for blk, size in zip(blocks, sizes):
        assert size > 0
        if size > block_edges:
            assert blk.hi - blk.lo == 1
        scatter = blk.scatter
        assert scatter.shape == (blk.hi - blk.lo, size)
        for j in range(blk.lo, blk.hi):
            # Row j - lo: receiver j's weights at its in-edges' columns, in
            # ascending edge order.
            row = slice(scatter.indptr[j - blk.lo], scatter.indptr[j - blk.lo + 1])
            in_edges = np.flatnonzero(graph.pos_receiver == j)
            assert np.array_equal(np.arange(m)[blk.edges][scatter.indices[row]], in_edges)
            assert np.array_equal(scatter.data[row], graph.pos_weight[in_edges])
    assert not any(a.flags.writeable for a in _arrays(blocks))


# ------------------------------------------------ receiver blocks on several threads


@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("block_edges", [1, 2, 3, 7])
@pytest.mark.parametrize("cfg", list(_SCATTER_CONFIGS.values()), ids=list(_SCATTER_CONFIGS))
def test_continuous_step_does_not_depend_on_the_thread_count(cfg, block_edges, workers,
                                                             monkeypatch):
    # 0 runs every block on the calling thread; 1 and 2 add pool threads.
    monkeypatch.setattr(propagation, "_WORKERS", workers)
    monkeypatch.setattr(propagation, "BLOCK_EDGES", block_edges)
    test_continuous_step_equals_edge_order_scatter(cfg)


@pytest.fixture
def fast_switching():
    """Threads switch every 10 us, so the interleavings a lost update needs occur."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("cfg", list(_SCATTER_CONFIGS.values()), ids=list(_SCATTER_CONFIGS))
def test_hub_graph_does_not_depend_on_the_thread_count(cfg, workers, monkeypatch,
                                                       fast_switching):
    monkeypatch.setattr(propagation, "_WORKERS", workers)
    graph, cents = _spec_graph(_many_edges_spec(2 * propagation.BLOCK_EDGES + 1500))
    state = run(graph, cfg, centroids=cents)
    vectors, residuals = _reference_run(graph, cfg, cents)
    assert np.array_equal(state.vectors, vectors)
    assert state.residuals == residuals
    stepped, _ = step_continuous(state, graph, cfg, cents)
    assert np.array_equal(stepped.vectors, _reference_step(state.vectors, graph, cfg, cents))


@pytest.mark.parametrize("error", [ValidationError("block failed"), RuntimeError("block failed")])
@pytest.mark.parametrize("workers", [0, 1, 2])
def test_error_in_one_block_reaches_the_caller_unchanged(error, workers, monkeypatch):
    monkeypatch.setattr(propagation, "_WORKERS", workers)
    graph, cents = _spec_graph(_many_edges_spec(6 * propagation.BLOCK_EDGES))
    cfg = _SCATTER_CONFIGS["all_gates"]
    calls = itertools.count(1)

    def failing_transfer(*args):
        if next(calls) == 3:
            raise error
        return transfer_batch(*args)

    monkeypatch.setattr(propagation, "transfer_batch", failing_transfer)
    with pytest.raises(type(error)) as raised:
        run(graph, cfg, centroids=cents)
    assert raised.value is error
    monkeypatch.undo()
    vectors, residuals = _reference_run(graph, cfg, cents)
    state = run(graph, cfg, centroids=cents)
    assert np.array_equal(state.vectors, vectors)
    assert state.residuals == residuals


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_step_waits_for_the_blocks_still_running(workers, monkeypatch):
    # The calling thread fails its first block once every pool thread is
    # inside one; the step must not raise before those blocks have ended.
    monkeypatch.setattr(propagation, "_WORKERS", workers)
    graph, cents = _spec_graph(_many_edges_spec(6 * propagation.BLOCK_EDGES))
    error = ValidationError("block failed")
    entered = threading.Semaphore(0)
    lock = threading.Lock()
    inside = []

    def transfer(*args):
        me = threading.current_thread()
        if me is threading.main_thread():
            for _ in range(workers):
                assert entered.acquire(timeout=10), "a pool thread never took a block"
            raise error
        with lock:
            inside.append(me)
        entered.release()
        time.sleep(0.1)
        with lock:
            inside.remove(me)
        return transfer_batch(*args)

    monkeypatch.setattr(propagation, "transfer_batch", transfer)
    with pytest.raises(ValidationError) as raised:
        run(graph, _SCATTER_CONFIGS["projection"], centroids=cents)
    assert raised.value is error
    assert inside == []



def test_forked_child_runs_multi_block_steps_of_its_own(monkeypatch, tmp_path):
    # The parent's pool threads do not exist in a child made by fork, so
    # the child's multi-block steps must not wait on them.  One child, killed
    # if it has not finished within the timeout.
    monkeypatch.setattr(propagation, "_WORKERS", 1)
    graph, cents = _spec_graph(_many_edges_spec(4 * propagation.BLOCK_EDGES))
    cfg = _SCATTER_CONFIGS["projection"]
    assert len(propagation._graph_plan(graph)) > 1
    state = run(graph, cfg, centroids=cents)  # starts the parent's pool
    out = tmp_path / "child.npz"
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            child = run(graph, cfg, centroids=cents)
            np.savez(out, vectors=child.vectors, residuals=np.array(child.residuals))
            code = 0
        finally:
            os._exit(code)  # never return into the parent's test session
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's run did not finish within 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    with np.load(out) as child:
        assert child["vectors"].tobytes() == state.vectors.tobytes()
        assert child["residuals"].tobytes() == np.array(state.residuals).tobytes()

def test_concurrent_runs_on_one_graph_each_get_their_own_result(fast_switching):
    graph, cents = _spec_graph(_many_edges_spec(6 * propagation.BLOCK_EDGES))
    cfgs = [_SCATTER_CONFIGS[name] for name in ("all_gates", "hybrid_select", "scalar")]
    expected = [_reference_run(graph, cfg, cents)[0] for cfg in cfgs]
    start = threading.Barrier(len(cfgs))

    def one_run(cfg):
        start.wait(timeout=60)
        return run(graph, cfg, centroids=cents).vectors

    for _ in range(3):
        with ThreadPoolExecutor(len(cfgs)) as callers:
            results = list(callers.map(one_run, cfgs, timeout=120))
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


def _arrays(obj):
    """Every numpy array reachable from a cache entry."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, sp.csr_matrix):
        yield from (obj.data, obj.indices, obj.indptr)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))


def test_the_cached_graph_plan_stays_clean(monkeypatch, fast_switching):
    # Gated and ungated runs, a run whose third block raises and concurrent
    # runs share the cached plan arrays; none of them may write to them.
    graph, cents = _spec_graph(_many_edges_spec(6 * propagation.BLOCK_EDGES))
    gated, plain = _SCATTER_CONFIGS["all_gates"], _SCATTER_CONFIGS["projection"]
    run(graph, gated, centroids=cents)
    run(graph, plain, centroids=cents)
    calls = itertools.count(1)

    def failing_transfer(*args):
        if next(calls) == 3:
            raise RuntimeError("block failed")
        return transfer_batch(*args)

    with monkeypatch.context() as patch:
        patch.setattr(propagation, "transfer_batch", failing_transfer)
        with pytest.raises(RuntimeError, match="^block failed$"):
            run(graph, gated, centroids=cents)
    cfgs = [gated, _SCATTER_CONFIGS["hybrid_select"], _SCATTER_CONFIGS["scalar"]]
    start = threading.Barrier(len(cfgs))

    def one_run(cfg):
        start.wait(timeout=60)
        return run(graph, cfg, centroids=cents)

    with ThreadPoolExecutor(len(cfgs)) as callers:
        assert all(s.converged for s in callers.map(one_run, cfgs, timeout=120))

    assert set(graph.cache) == {"plan", "p_int"}
    fresh = propagation._graph_plan(graph)
    fresh_p_int = topic_distribution_batch(graph.pos_content, cents)
    (_, plan), (_, p_int) = graph.cache["plan"], graph.cache["p_int"]
    spans = [(blk.lo, blk.hi, blk.edges) for blk in plan]
    assert spans == [(blk.lo, blk.hi, blk.edges) for blk in fresh]
    cached = list(_arrays((plan, p_int)))
    for got, want in zip(cached, _arrays((fresh, fresh_p_int)), strict=True):
        assert not got.flags.writeable
        assert np.array_equal(got, want)
    kept = list(_arrays(list(graph.cache.values())))
    assert len(kept) == len(cached)
    assert all(a.ndim < 2 or a.shape[1] != graph.dim for a in kept)


def test_workspaces_do_not_outlive_their_run(monkeypatch):
    # Each run gathers and transfers a block's rows in (widest block, E)
    # workspaces of its own, one per thread; none may stay behind when the
    # run returns, neither in the graph's cache nor anywhere else.
    monkeypatch.setattr(propagation, "_WORKERS", 2)
    n, _, seed, raw = _many_edges_spec(9 * propagation.BLOCK_EDGES)
    graph, cents = _spec_graph((n, 32, seed, raw))
    widest = int(np.bincount(graph.pos_receiver).max())
    assert widest >= 4 * propagation.BLOCK_EDGES
    cfg = _SCATTER_CONFIGS["all_gates"]
    workspace = widest * graph.dim * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = run(graph, cfg, centroids=cents)
        after_run = tracemalloc.get_traced_memory()[0]
        state = warm_start(state, graph, cfg, centroids=cents)
        after_warm_start = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert state.converged
    # What is kept includes the graph's cache, filled by the first run.
    assert after_run - before < workspace
    assert after_warm_start - before < workspace
    assert set(graph.cache) == {"plan", "p_int"}
    plan = propagation._continuous_plan(graph, cfg, cents)
    assert [w.shape for w in plan.workspaces] == [(widest, graph.dim)] * 3


def test_import_and_a_one_block_run_start_no_thread():
    # The 50-agent seed corpus has fewer than BLOCK_EDGES positive edges.
    code = (
        "import threading\n"
        "before = threading.active_count()\n"
        "import trustprop\n"
        "from trustprop.graph import normalize\n"
        "from trustprop.harness import CorpusSpec, generate_corpus\n"
        "from trustprop.propagation import BLOCK_EDGES, PropagationConfig, run\n"
        "corpus = generate_corpus(CorpusSpec())\n"
        "graph = normalize(corpus.agents, corpus.edges)\n"
        "assert 0 < graph.n_pos_edges <= BLOCK_EDGES\n"
        "assert run(graph, PropagationConfig()).converged\n"
        "print(threading.active_count() - before)\n"
    )
    src = str(Path(propagation.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scales=st.lists(st.sampled_from([0.0, 1e-300, 1.0, 1e150]), min_size=1, max_size=6),
    m=st.integers(0, 12),
    dim=st.integers(1, 5),
)
def test_shared_row_quantities_change_no_bit(seed, scales, m, dim):
    # The step takes the sender norms over the N agent rows and gathers
    # them, takes each row dot once, and hands both (and the entropy factor
    # of the run) to the transfer and the gates.
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((len(scales), dim)) * np.array(scales)[:, None]
    sender = rng.integers(0, len(scales), m)
    e = rng.standard_normal((m, dim))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    blind = rng.random(m) < 0.5
    rows = r[sender]
    norms = np.linalg.norm(r, axis=1)[sender]
    assert np.array_equal(norms, np.linalg.norm(rows, axis=1))
    dots = np.einsum("ij,ij->i", rows, e)
    for kind in _OPERATORS.values():
        assert np.array_equal(
            transfer_batch(kind, rows, e, blind, dots, norms), transfer_batch(kind, rows, e, blind)
        )
    cents = rng.standard_normal((3, dim))
    conf = rng.random(m)
    p_int, p_rep = topic_distribution_batch(e, cents), topic_distribution_batch(rows, cents)
    for gates in _GATE_STACKS.values():
        entropy = entropy_factor(p_int, gates.entropy.strength)
        shared = stack_batch(gates, rows, e, conf, p_int, p_rep, dots, norms, entropy)
        assert np.array_equal(shared, stack_batch(gates, rows, e, conf, p_int, p_rep))


@pytest.mark.parametrize("pattern", ["none", "some", "all"])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12), dim=st.integers(1, 5))
def test_hybrid_per_edge_select_equals_masked_overwrite(pattern, seed, m, dim):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((m, dim))
    e = rng.standard_normal((m, dim))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    blind = {
        "none": np.zeros(m, dtype=bool),
        "some": np.arange(m) % 2 == 1,
        "all": np.ones(m, dtype=bool),
    }[pattern]
    kind = OperatorKind.from_name("hybrid")
    assert np.array_equal(
        transfer_batch(kind, r, e, blind), _reference_transfer(kind, r, e, blind)
    )


def _reference_domain_matrices(graph, cents, top_k):
    """The per-edge split: argsort each edge's cosines, keep the positive top-k.

    The shares of parallel edges in one (sender, receiver, domain) entry are
    added in edge order, as Python floats, before the CSR is built.
    """
    n, n_domains = graph.n_agents, cents.shape[0]
    entries = [{} for _ in range(n_domains)]
    if graph.n_pos_edges:
        cos = (graph.pos_content @ cents.T) / np.linalg.norm(cents, axis=1)[None, :]
        for idx in range(graph.n_pos_edges):
            sims = cos[idx]
            order = np.argsort(-sims, kind="stable")[:top_k]
            kept = [d for d in order if sims[d] > 0]
            if not kept:
                kept, shares = [int(order[0])], [1.0]
            else:
                total = float(sum(sims[d] for d in kept))
                shares = [float(sims[d]) / total for d in kept]
            w = float(graph.pos_weight[idx])
            key = (int(graph.pos_sender[idx]), int(graph.pos_receiver[idx]))
            for d, share in zip(kept, shares):
                entries[d][key] = entries[d].get(key, 0.0) + w * share
    mats = []
    for d in range(n_domains):
        rows, cols = zip(*entries[d]) if entries[d] else ((), ())
        data = list(entries[d].values())
        m = sp.csr_matrix((data, (rows, cols)), shape=(n, n), dtype=np.float64)
        sums = np.asarray(m.sum(axis=1)).ravel()
        scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
        mats.append(sp.csr_matrix(sp.diags(scale) @ m))
    return mats


# (graph, centroid picks from a pool with negations and repeats, top_k draw, scale)
_DOMAIN_SPEC = st.tuples(
    _GRAPH,
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.integers(0, 5),
    st.sampled_from([1.0, 2.5]),
)


def _centroid_pool(dim, seed):
    """Two random directions, their negations and two axes: picking from the
    pool gives exact cosine ties (repeats) and edges with no positive cosine."""
    rng = np.random.default_rng([seed, 1])
    u = rng.standard_normal((2, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.vstack([u, -u, np.eye(dim)[[0, -1]]])


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(spec=_DOMAIN_SPEC)
@example(spec=(_MIXED, [0, 1, 2, 3, 4, 5], 5, 1.0))  # top_k = D
@example(spec=(_MIXED, [0, 0, 2, 4], 3, 2.5))  # tied pair, top_k = D
@example(spec=(_MIXED, [2, 3], 0, 1.0))  # negated directions
@example(spec=((3, 2, 0, []), [4, 5], 1, 1.0))  # zero edges
def test_build_domain_matrices_equals_per_edge_reference(spec):
    graph_spec, picks, k, scale = spec
    graph, _ = _spec_graph(graph_spec)
    cents = scale * _centroid_pool(graph.dim, graph_spec[2])[picks]
    top_k = 1 + k % len(picks)
    _assert_domain_matrices_equal_reference(graph, cents, top_k)


def _assert_domain_matrices_equal_reference(graph, cents, top_k):
    mats = build_domain_matrices(graph, cents, top_k=top_k)
    expected = _reference_domain_matrices(graph, cents, top_k)
    blocks = _domains(mats)
    assert len(blocks) == len(expected)
    assert mats.transition.nnz == sum(ref.nnz for ref in expected)  # none between domains
    for got, ref in zip(blocks, expected):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("labeled_edges", [70, 156])
@pytest.mark.parametrize("top_k", [1, 2])
def test_build_domain_matrices_equals_per_edge_reference_on_corpus_graphs(top_k, labeled_edges):
    # The gen-corpus default graphs have a hundred or more sender-receiver
    # pairs with parallel edges, whose shares meet in one entry.
    corpus = generate_corpus(CorpusSpec(seed=42, labeled_edges=labeled_edges))
    graph = normalize(corpus.agents, corpus.edges)
    _, cents = centroids_from_agents(graph.agents)
    _assert_domain_matrices_equal_reference(graph, cents, top_k)


# ------------------------------------------------ inputs built by the engine

# (sender, receiver offset, kind, base weight or flag severity)
_KIND_EDGE = st.tuples(
    st.integers(0, 5),
    st.integers(0, 4),
    st.sampled_from(["labeled", "blind", "flag"]),
    st.sampled_from([0.5, 1.0, 3.0]),
)
_DOMAIN_GRAPH = st.tuples(
    st.integers(2, 6),  # agents
    st.integers(1, 3),  # primary domains
    st.integers(2, 4),  # embedding dim
    st.integers(0, 2**32 - 1),  # seed for the vectors
    st.lists(_KIND_EDGE, max_size=16),
)


def _domain_graph_records(spec, flags):
    """Agents over several primary domains, and edges with or without flags."""
    n, n_domains, dim, seed, raw = spec
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    agents = []
    for i in range(n):
        profile = unit()
        agents.append(Agent(
            id=f"a{i}", primary_domain=f"d{i % n_domains}", profile=profile,
            teleport=rng.uniform(0.05, 1.0) * profile,
            exogenous=(0.0 if i % 3 == 0 else rng.uniform(0.0, 0.5)) * unit(),
        ))
    edges = []
    for sender, offset, kind, weight in raw:
        s = sender % n
        ids = dict(sender=f"a{s}", receiver=f"a{(s + 1 + offset % (n - 1)) % n}")
        if kind == "flag":
            if flags:
                edges.append(Edge(**ids, kind="flag", severity=weight / 3.0))
        else:
            edges.append(Edge(
                **ids, kind=kind, base_weight=weight,
                content=unit() if kind == "labeled" else None,
            ))
    return agents, edges


_BUILT_INPUT_CASES = {
    "discrete_top1": (PropagationConfig(mode="discrete", max_iters=60), True),
    "discrete_top1_no_flags": (PropagationConfig(mode="discrete", max_iters=60), False),
    "discrete_topD": (PropagationConfig(mode="discrete", max_iters=60, top_k=3), True),
    "discrete_topD_no_flags": (PropagationConfig(mode="discrete", max_iters=60, top_k=3), False),
    "entropy": (PropagationConfig(gates=_GATE_STACKS["entropy"], max_iters=60), True),
    "kl_softmax": (PropagationConfig(gates=_GATE_STACKS["kl_softmax"], max_iters=60), True),
}


def _same_run(a, b):
    assert np.array_equal(a.vectors, b.vectors)
    assert a.iterations == b.iterations
    assert a.residuals == b.residuals


@pytest.mark.parametrize(
    "cfg,flags", list(_BUILT_INPUT_CASES.values()), ids=list(_BUILT_INPUT_CASES)
)
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(spec=_DOMAIN_GRAPH)
@example(spec=(4, 2, 3, 1, []))
@example(spec=(5, 3, 2, 2, [(0, 0, "flag", 3.0), (1, 1, "labeled", 1.0),
                            (2, 0, "blind", 0.5), (0, 0, "labeled", 3.0)]))
def test_run_builds_the_inputs_its_config_needs(cfg, flags, spec):
    agents, edges = _domain_graph_records(spec, flags)
    graph = normalize(agents, edges)
    # Built by hand: centroids, top-k domain matrices, a flag matrix if flagged.
    _, cents = centroids_from_agents(agents)
    inputs = dict(centroids=cents)
    if cfg.mode == "discrete":
        cfg = replace(cfg, top_k=min(cfg.top_k, len(cents)))
        mats = build_domain_matrices(graph, cents, top_k=cfg.top_k)
        neg = build_negative_matrices(graph, mats) if graph.n_neg_edges else None
        inputs.update(matrices=mats, neg=neg)
    state = run(graph, cfg)
    _same_run(state, run(graph, cfg, **inputs))
    early = run(graph, replace(cfg, max_iters=2), **inputs)
    _same_run(warm_start(early, graph, cfg), warm_start(early, graph, cfg, **inputs))
    if cfg.mode == "continuous":
        for s in (early, state):
            _same_run(step_continuous(s, graph, cfg)[0], step_continuous(s, graph, cfg, cents)[0])
    else:
        # Given matrices and no flag matrix, the run ignores the flag edges.
        positive = normalize(agents, [e for e in edges if e.kind != "flag"])
        _same_run(run(graph, cfg, matrices=mats), run(positive, cfg))


# ------------------------------------------------------- exact discrete solve

# (graph, centroid picks from the pool, top_k draw, flags as (sender,
# receiver offset, severity))
_ORACLE_SPEC = st.tuples(
    _GRAPH,
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.integers(0, 5),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4), st.sampled_from([0.3, 1.0])),
             max_size=6),
)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(spec=_ORACLE_SPEC)
@example(spec=(_MIXED, [0, 1, 2, 3, 4, 5], 5, [(1, 0, 1.0), (2, 1, 0.3), (0, 2, 1.0)]))
@example(spec=(_HUB, [0, 0, 2, 4], 1, [(0, 0, 1.0), (3, 1, 0.3)]))
@example(spec=((1, 2, 0, []), [4], 0, []))  # one agent, no edges
def test_linear_discrete_runs_equal_an_exact_solve(spec):
    # Positive-only, and with flags and no floor clamp, the discrete step is
    # one linear map on the raveled (agent, domain) pairs: its fixed point
    # solves (I - alpha * (M^T - beta * kron(neg^T, I_D))) x = damped.
    graph_spec, picks, k, flags = spec
    graph, _ = _spec_graph(graph_spec, flags)
    cents = _centroid_pool(graph.dim, graph_spec[2])[picks]
    mats = build_domain_matrices(graph, cents, top_k=1 + k % len(picks))
    neg = build_negative_matrices(graph, mats)
    cfg = PropagationConfig(mode="discrete", epsilon=1e-13, max_iters=5000, clamp_floor=False)
    damped = ((1.0 - cfg.alpha) * mats.teleport + mats.exogenous).ravel()
    pairs = sp.identity(len(picks), format="csr")
    for given_neg, flow in ((None, mats.transition.T),
                            (neg, mats.transition.T - cfg.beta * sp.kron(neg.T, pairs))):
        state = run(graph, cfg, matrices=mats, neg=given_neg)
        assert state.converged
        system = sp.identity(len(damped), format="csc") - cfg.alpha * flow
        exact = np.atleast_1d(spsolve(sp.csc_matrix(system), damped))
        np.testing.assert_allclose(state.vectors.ravel(), exact, rtol=0, atol=1e-11)


# ------------------------------------------------ inputs checked where they enter

_BAD_CENTROIDS = {
    "nan": lambda c: np.where(np.arange(c.size).reshape(c.shape) == 1, np.nan, c),
    "inf": lambda c: np.where(np.arange(c.size).reshape(c.shape) == 0, np.inf, c),
    "-inf": lambda c: np.where(np.arange(c.size).reshape(c.shape) == 3, -np.inf, c),
    "all_zero": np.zeros_like,
    "one_zero_row": lambda c: np.vstack([c[:-1], np.zeros((1, c.shape[1]))]),
    "one_degenerate_row": lambda c: np.vstack([c[:-1], 1e-13 * c[-1:]]),
    "narrow": lambda c: c[:, :-1],
    "wide": lambda c: np.hstack([c, c[:, :1]]),
    "no_domains": lambda c: c[:0],
    "one_vector": lambda c: c[0],
}
_CENTROID_CALLERS = {
    "run_entropy": lambda g, c: run(g, PropagationConfig(gates=_GATE_STACKS["entropy"]),
                                    centroids=c),
    "run_kl_softmax": lambda g, c: run(g, PropagationConfig(gates=_GATE_STACKS["kl_softmax"]),
                                       centroids=c),
    "run_discrete": lambda g, c: run(g, PropagationConfig(mode="discrete"), centroids=c),
    "warm_start": lambda g, c: warm_start(
        init_state(g, PropagationConfig()), g, PropagationConfig(gates=_GATE_STACKS["entropy"]),
        centroids=c,
    ),
    "step_continuous": lambda g, c: step_continuous(
        init_state(g, PropagationConfig()), g, PropagationConfig(gates=_GATE_STACKS["kl_softmax"]),
        c,
    ),
    "build_domain_matrices": lambda g, c: build_domain_matrices(g, c),
}


@pytest.mark.parametrize("caller", list(_CENTROID_CALLERS))
@pytest.mark.parametrize("bad", list(_BAD_CENTROIDS))
def test_engine_rejects_centroids_that_are_not_finite_full_rank_rows(graph, caller, bad):
    # Such centroids used to make the entropy and softmax-KL gates pass
    # 1.0 silently, and a discrete run converge after one iteration.
    _, cents = centroids_from_agents(graph.agents)
    with pytest.raises(ValidationError, match="centroid"):
        _CENTROID_CALLERS[caller](graph, _BAD_CENTROIDS[bad](cents))


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_run_and_warm_start_reject_a_non_finite_state_row_before_stepping(graph, mode, value):
    cfg = PropagationConfig(mode=mode)
    _, cents = centroids_from_agents(graph.agents)
    mats = build_domain_matrices(graph, cents) if mode == "discrete" else None
    bad = init_state(graph, cfg, mats)
    bad.vectors[3, 0] = value
    with pytest.raises(ValidationError, match="^initial state rows must be finite$"):
        run(graph, cfg, initial=bad, matrices=mats)
    # Also a row of an agent that is not in the new graph.
    gone = replace(bad, agent_ids=bad.agent_ids[:3] + ("gone",) + bad.agent_ids[4:])
    for previous in (bad, gone):
        with pytest.raises(ValidationError, match="^previous state rows must be finite$"):
            warm_start(previous, graph, cfg, matrices=mats)
