"""Acceptance battery: one test per release gate, ordered.

Each test pins the tolerance it enforces; run with ``pytest -v
tests/test_acceptance.py`` to get one pass/fail line per gate.  The whole
battery is expected to finish well under a minute.
"""

from dataclasses import replace

import numpy as np
import pytest

from trustprop.files import (
    agents_to_jsonl,
    edges_to_jsonl,
    queries_to_jsonl,
    snapshot_to_json,
)
from trustprop.gates import GateStack, KlGateConfig
from trustprop.graph import normalize
from trustprop.harness import (
    DOMAINS,
    INJECTORS,
    CorpusSpec,
    apply_flag_defense,
    generate_corpus,
    magnitude_percentiles,
    mean_p5,
    run_flag_scenario,
    run_scenario,
)
from trustprop.operators import OperatorKind, transfer_batch, verify_lipschitz
from trustprop.propagation import (
    PropagationConfig,
    build_domain_matrices,
    build_negative_matrices,
    centroids_from_agents,
    init_state,
    residual_ratios,
    run,
    self_alignment,
    step_discrete,
)
from trustprop.retrieval import rank_scores, rrf_merge, score_dot, score_mixed
from trustprop.vectorspace import (
    build_centroids,
    center_and_normalize,
    fit_centering,
    synthetic_embedding,
)

from conftest import assert_within_steady_bound

ALPHA = 0.85
EPSILON = 1e-4


# -- 1 -------------------------------------------------------------------------


def test_a01_operator_family_nonexpansive_by_sampling():
    """Every transfer operator: 10k sampled difference ratios <= 1 + 1e-9."""
    kinds = [
        OperatorKind("projection"),
        OperatorKind("squared_gating"),
        OperatorKind("scalar_gated"),
        OperatorKind("hadamard_relu"),
        OperatorKind("hybrid", hybrid_gamma=0.0, hybrid_mode="interpolate"),
        OperatorKind("hybrid", hybrid_gamma=0.5, hybrid_mode="interpolate"),
        OperatorKind("hybrid", hybrid_gamma=1.0, hybrid_mode="interpolate"),
        OperatorKind("hybrid"),  # per_edge_select
    ]
    for kind in kinds:
        ratio = verify_lipschitz(kind, samples=10_000, seed=0, dim=32)
        assert ratio <= 1.0 + 1e-9, (kind, ratio)


# -- 2 -------------------------------------------------------------------------


def test_a02_continuous_contraction_rate_and_iteration_budget(graph, baseline):
    """Gates-off default corpus: geometric residual decay, <= 13 iterations."""
    assert baseline.converged
    assert baseline.iterations <= 13
    ratios = residual_ratios(baseline.residuals, skip=1)
    assert ratios, "need at least three residuals to measure decay"
    assert max(ratios) <= 0.87
    assert_within_steady_bound(baseline, graph.teleport, graph.exogenous)


# -- 3 -------------------------------------------------------------------------


def test_a03_fixed_point_independent_of_initialization(graph):
    """Two random warm inits land within 10 epsilon per agent."""
    cfg = PropagationConfig()
    states = []
    for seed in (1000, 2000):
        rng = np.random.default_rng(seed)
        state = init_state(graph, cfg)
        state.vectors = rng.random(state.vectors.shape)
        states.append(run(graph, cfg, initial=state))
    assert all(s.converged for s in states)
    row_diff = np.linalg.norm(states[0].vectors - states[1].vectors, axis=1)
    assert float(row_diff.max()) <= 10 * EPSILON


# -- 4 -------------------------------------------------------------------------


def _pagerank_graph(seed):
    from trustprop.graph import Agent, Edge

    rng = np.random.default_rng([seed, 7])
    n = int(rng.integers(5, 51))
    m = int(rng.integers(n, 4 * n))
    profile = np.array([1.0, 0.0])
    agents = [
        Agent(
            id=f"n{i:02d}",
            primary_domain="d",
            profile=profile,
            teleport=profile / n,  # uniform mass, no exogenous authority
            exogenous=np.zeros(2),
        )
        for i in range(n)
    ]
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
        edges.append(
            Edge(sender=f"n{i:02d}", receiver=f"n{j:02d}", kind="labeled",
                 base_weight=wt, content=profile)
        )
    return n, agents, edges, links


def _pagerank_oracle(n, links, alpha):
    w = {
        i: {j: wt / sum(outs.values()) for j, wt in outs.items()}
        for i, outs in links.items()
    }
    r = [1.0 / n] * n
    for _ in range(20000):
        new = [(1.0 - alpha) / n] * n
        for i, outs in w.items():
            ri = r[i]
            for j, wij in outs.items():
                new[j] += alpha * wij * ri
        delta = max(abs(a - b) for a, b in zip(new, r))
        r = new
        if delta < 1e-13:
            break
    return r


def test_a04_discrete_engine_matches_scalar_pagerank_oracle():
    """Single domain, uniform priors: agreement within 1e-8 on 20 graphs."""
    cfg = PropagationConfig(mode="discrete", epsilon=1e-12, max_iters=5000)
    for seed in range(20):
        n, agents, edges, links = _pagerank_graph(seed)
        g = normalize(agents, edges)
        mats = build_domain_matrices(g, np.array([[1.0, 0.0]]), top_k=1)
        state = run(g, cfg, matrices=mats)
        assert state.converged
        oracle = _pagerank_oracle(n, links, ALPHA)
        worst = float(np.abs(state.vectors[:, 0] - np.asarray(oracle)).max())
        assert worst <= 1e-8, (seed, worst)


# -- 5 -------------------------------------------------------------------------


def test_a05_steady_state_norm_bound_holds_across_engines(spec, corpus, graph, baseline):
    """||R*||_F <= ||T||_F + ||C||_F / (1 - alpha) + 1e-6 on varied runs."""
    assert_within_steady_bound(baseline, graph.teleport, graph.exogenous)

    half = run(graph, PropagationConfig(alpha=0.5))
    assert_within_steady_bound(half, graph.teleport, graph.exogenous, alpha=0.5)

    gated = run(
        graph,
        PropagationConfig(gates=GateStack(kl=KlGateConfig(enabled=True, lam=1.0))),
    )
    assert_within_steady_bound(gated, graph.teleport, graph.exogenous)

    _, cents = centroids_from_agents(corpus.agents)
    for top_k in (1, 2):
        mats = build_domain_matrices(graph, cents, top_k=top_k)
        state = run(graph, PropagationConfig(mode="discrete"), matrices=mats)
        assert state.converged
        assert_within_steady_bound(state, mats.teleport, mats.exogenous)


# -- 6 -------------------------------------------------------------------------


def _flagged_discrete_setup(spec):
    corpus = generate_corpus(spec)
    attacked = INJECTORS["same_domain_sybil"](corpus)
    reporters = ["a00", "a01", "a02"]
    flagged = apply_flag_defense(attacked, reporters, severity=0.95)
    g = normalize(
        flagged.agents, flagged.edges,
        reporter_reputations={r: 1.0 for r in reporters},
    )
    _, cents = centroids_from_agents(corpus.agents)
    mats = build_domain_matrices(g, cents, top_k=2)
    neg = build_negative_matrices(g, mats)
    return g, mats, neg


def test_a06_negative_edge_rate_and_beta_zero_reduction(spec):
    """Flagged run contracts at <= alpha(1+beta)+0.005; beta=0 is bit-exact."""
    g, mats, neg = _flagged_discrete_setup(spec)
    cfg = PropagationConfig(mode="discrete")  # alpha 0.85, beta 0.15
    state = run(g, cfg, matrices=mats, neg=neg)
    assert state.converged
    ratios = residual_ratios(state.residuals, skip=1)
    assert max(ratios) <= ALPHA * (1.0 + cfg.beta) + 0.005
    assert_within_steady_bound(state, mats.teleport, mats.exogenous)

    cfg0 = PropagationConfig(mode="discrete", beta=0.0)
    start = init_state(g, cfg0, mats)
    stepped_neg, _ = step_discrete(start, mats, cfg0, neg)
    stepped_pos, _ = step_discrete(start, mats, cfg0)
    assert np.array_equal(stepped_neg.vectors, stepped_pos.vectors)
    full_neg = run(g, cfg0, matrices=mats, neg=neg)
    full_pos = run(g, cfg0, matrices=mats)
    assert np.array_equal(full_neg.vectors, full_pos.vectors)


# -- 7 -------------------------------------------------------------------------


def test_a07_blind_preservation_squared_exact_projection_distorts():
    """Uniform content: squared keeps direction exactly, projection loses it."""
    dim = 384
    e = np.full(dim, 1.0 / np.sqrt(dim))
    rng = np.random.default_rng(70)
    r = rng.normal(size=(1000, dim))
    blind = np.zeros(1000, dtype=bool)

    squared = transfer_batch(OperatorKind("squared_gating"), r, e[None, :].repeat(1000, 0), blind)
    np.testing.assert_allclose(squared, r / dim, atol=1e-12)
    cos_sq = np.einsum("ij,ij->i", squared, r) / (
        np.linalg.norm(squared, axis=1) * np.linalg.norm(r, axis=1)
    )
    np.testing.assert_allclose(cos_sq, 1.0, atol=1e-12)

    proj = transfer_batch(OperatorKind("projection"), r, e[None, :].repeat(1000, 0), blind)
    norms = np.linalg.norm(proj, axis=1)
    dots = np.einsum("ij,ij->i", proj, r)
    cos_pr = np.divide(
        dots, norms * np.linalg.norm(r, axis=1),
        out=np.zeros_like(dots), where=norms > 0,
    )
    assert float(np.abs(cos_pr).mean()) <= 0.1


# -- 8 -------------------------------------------------------------------------


def test_a08_kl_gate_raises_mean_self_alignment(graph, baseline):
    """KL gating (lambda 1) keeps reputations closer to their teleport."""
    gated_cfg = PropagationConfig(
        gates=GateStack(kl=KlGateConfig(enabled=True, lam=1.0))
    )
    gated = run(graph, gated_cfg)
    assert gated.converged
    plain_mean = float(np.mean(list(self_alignment(baseline, graph).values())))
    gated_mean = float(np.mean(list(self_alignment(gated, graph).values())))
    assert gated_mean > plain_mean


# -- 9 -------------------------------------------------------------------------


def test_a09_attack_resistance_precision_and_rank_floors(spec):
    """Four canned attacks: P@5 moves <= 6 points, aimed agents stay buried."""
    reports = {name: run_scenario(spec, name) for name in INJECTORS}
    for name, rep in reports.items():
        assert rep.converged_baseline and rep.converged_attacked, name
        assert abs(rep.p5_strict_delta) <= 0.06, (name, rep.p5_strict_delta)
        assert abs(rep.p5_multilabel_delta) <= 0.06, (name, rep.p5_multilabel_delta)

    # cross-domain sybil: the pair must remain in the bottom 30% by magnitude
    cross = reports["cross_domain_sybil"]
    for aid, pct in cross.malicious_percentile_attacked.items():
        assert pct >= 70.0, (aid, pct)

    # laundering: the source cannot climb more than 5 percentile points
    laun = reports["laundering"]
    for aid in laun.malicious_percentile_baseline:
        climb = (
            laun.malicious_percentile_baseline[aid]
            - laun.malicious_percentile_attacked[aid]
        )
        assert climb <= 5.0, (aid, climb)


# -- 10 ------------------------------------------------------------------------


def test_a10_flag_defense_halves_flagged_magnitude_order_intact(spec):
    """Severity-0.95 verified flags: >= 50% reduction, others keep their order."""
    report = run_flag_scenario(spec, severity=0.95)
    assert report.converged_unflagged and report.converged_flagged
    for aid in report.flagged:
        assert report.reduction(aid) >= 0.5, (aid, report.reduction(aid))
    assert report.nonflagged_order("unflagged") == report.nonflagged_order("flagged")


# -- 11 ------------------------------------------------------------------------


def test_a11_strict_precision_improves_with_labeled_density(spec):
    """Doubling labeled edges never hurts strict P@5, on two operators."""
    operators = {
        "projection": OperatorKind("projection"),
        "scalar_gated": OperatorKind("scalar_gated"),
    }
    precision: dict[tuple[str, int], float] = {}
    for labeled in (70, 156):
        corpus = generate_corpus(replace(spec, labeled_edges=labeled))
        graph = normalize(corpus.agents, corpus.edges)
        for name, kind in operators.items():
            state = run(graph, PropagationConfig(operator=kind))
            assert state.converged, (name, labeled)
            precision[(name, labeled)] = mean_p5(state, corpus)[0]
    for name in operators:
        assert precision[(name, 156)] >= precision[(name, 70)], (name, precision)


# -- 12 ------------------------------------------------------------------------


def test_a12_mixed_score_reductions_and_rrf_fixture():
    """beta 0/1 reproduce cosine/dot rankings on 100 states; RRF hand check."""
    from trustprop.propagation import ReputationState
    from trustprop.retrieval import Query

    rng = np.random.default_rng(120)
    mismatches = 0
    for trial in range(100):
        vecs = rng.normal(size=(30, 16))
        if trial % 3 == 0:
            vecs[rng.integers(30)] = 0.0
        ids = tuple(f"a{i:02d}" for i in range(30))
        state = ReputationState(vectors=vecs, agent_ids=ids)
        q = Query(id="q", text="q", embedding=rng.normal(size=16))
        dots = vecs @ q.embedding
        norms = np.linalg.norm(vecs, axis=1)
        cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
        want_cos = [a for a, _ in rank_scores(dict(zip(ids, cos)))]
        want_dot = [a for a, _ in score_dot(state, q)]
        if [a for a, _ in score_mixed(state, q, 0.0)] != want_cos:
            mismatches += 1
        if [a for a, _ in score_mixed(state, q, 1.0)] != want_dot:
            mismatches += 1
    assert mismatches == 0

    fused = rrf_merge(
        [
            [("a", 3.0), ("b", 2.0), ("c", 1.0)],
            [("b", 9.9), ("a", 5.0), ("d", 0.1)],
            [("d", 7.0)],
        ],
        k=60,
    )
    assert [aid for aid, _ in fused] == ["a", "b", "d", "c"]
    scores = dict(fused)
    assert scores["a"] == pytest.approx(1 / 61 + 1 / 62, abs=1e-15)
    assert scores["b"] == pytest.approx(1 / 61 + 1 / 62, abs=1e-15)
    assert scores["d"] == pytest.approx(1 / 63 + 1 / 61, abs=1e-15)
    assert scores["c"] == pytest.approx(1 / 63, abs=1e-15)


# -- 13 ------------------------------------------------------------------------


def test_a13_centering_kills_mean_and_shared_offset():
    """Centered cloud mean <= 1e-9 sqrt(E); centroid crosstalk strictly drops."""
    dim = 64
    cents = build_centroids(DOMAINS, dim=dim, seed=5)
    rng = np.random.default_rng(13)
    offset_dir = rng.standard_normal(dim)
    offset = 2.0 * offset_dir / np.linalg.norm(offset_dir)

    labels = []
    cloud = []
    for d, domain in enumerate(DOMAINS):
        for i in range(30):
            raw = synthetic_embedding(cents, seed=1000 * d + i,
                                      domain_mix={domain: 1.0}, noise=0.35)
            cloud.append(raw + offset)
            labels.append(domain)
    cloud = np.asarray(cloud)

    mean = fit_centering(cloud)
    shifted = cloud - mean
    assert float(np.linalg.norm(shifted.mean(axis=0))) <= 1e-9 * np.sqrt(dim)

    def mean_crosstalk(vectors):
        centroids = np.array(
            [vectors[[l == d for l in labels]].mean(axis=0) for d in DOMAINS]
        )
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        sims = np.abs(centroids @ centroids.T)
        pairs = sims[np.triu_indices(len(DOMAINS), k=1)]
        return float(pairs.mean())

    centered = np.array([center_and_normalize(mean, v) for v in cloud])
    before = mean_crosstalk(cloud)
    after = mean_crosstalk(centered)
    assert after < before


# -- 14 ------------------------------------------------------------------------


def test_a14_determinism_byte_identical_outputs(spec, corpus, graph, baseline):
    """Same seed, same bytes: corpus files, snapshots, scenario reports."""
    again = generate_corpus(spec)
    assert agents_to_jsonl(corpus.agents) == agents_to_jsonl(again.agents)
    assert edges_to_jsonl(corpus.edges) == edges_to_jsonl(again.edges)
    assert queries_to_jsonl(corpus.queries) == queries_to_jsonl(again.queries)

    graph2 = normalize(again.agents, again.edges)
    state2 = run(graph2, PropagationConfig())
    assert snapshot_to_json(baseline, "digest") == snapshot_to_json(state2, "digest")

    rep1 = run_scenario(spec, "vote_ring")
    rep2 = run_scenario(spec, "vote_ring")
    assert rep1.csv_rows() == rep2.csv_rows()

    pct1 = magnitude_percentiles(baseline)
    pct2 = magnitude_percentiles(state2)
    assert pct1 == pct2
