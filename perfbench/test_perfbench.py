"""Tests of the benchmark itself: its generator, its checks and its metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository root.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import layers
import run as bench_run
import workloads
from tracing import Tracer
from trustprop.files import snapshot_to_json
from trustprop.graph import normalize
from trustprop.propagation import run
from trustprop.retrieval import score_dot

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _bytes(corpus):
    text = gen.agents_jsonl(corpus.agents) + gen.edges_jsonl(corpus.edges, corpus.agents.ids)
    return text.encode()


def test_generator_is_deterministic_for_a_seed():
    a = gen.generate(7, 80, 800, 8)
    b = gen.generate(7, 80, 800, 8)
    assert _bytes(a) == _bytes(b)
    assert a.queries.text == b.queries.text
    assert np.array_equal(a.queries.embedding, b.queries.embedding)
    assert _bytes(gen.generate(8, 80, 800, 8)) != _bytes(a)


def test_feedback_batches_are_deterministic_per_cycle():
    corpus = gen.generate(7, 80, 800, 8)
    joiners, edges = gen.feedback_batch(corpus, 3, corpus.agents.primary, 800)
    again_j, again_e = gen.feedback_batch(corpus, 3, corpus.agents.primary, 800)
    assert joiners.ids == again_j.ids and np.array_equal(joiners.profile, again_j.profile)
    assert np.array_equal(edges.receiver, again_e.receiver)
    other = gen.feedback_batch(corpus, 4, corpus.agents.primary, 800)[1]
    assert not np.array_equal(edges.receiver, other.receiver)
    assert len(edges) == 8 and edges.sender.max() < 83


def test_generated_corpus_has_the_requested_shape():
    corpus = gen.generate(1, 200, 2000, 8)
    kinds = corpus.edges.kind
    assert kinds.count("labeled") == 400 and kinds.count("blind") == 1600
    assert kinds.count("flag") == 20
    assert set(corpus.edges.receiver[-20:]) <= set(corpus.malicious)
    pos = slice(0, 2000)
    assert not np.any(corpus.edges.sender[pos] == corpus.edges.receiver[pos])
    in_degree = np.bincount(corpus.edges.receiver[pos], minlength=200)
    assert in_degree.max() > 5 * in_degree.mean()  # Zipf hubs


@pytest.fixture(scope="module")
def small():
    corpus = gen.generate(3, 120, 1500, 8)
    agents = workloads.agent_records(corpus.agents)
    edges = workloads.edge_records(corpus.edges, corpus.agents.ids)
    graph = normalize(agents, edges)
    cfg = workloads.SWEEP["projection"]
    state = run(graph, cfg)
    queries = workloads.query_records(corpus.queries)
    return graph, cfg, state, queries


def _reference(state, query):
    scores = checks.reference_scores(state.vectors, query.embedding, "dot")
    return checks.reference_top_k(state.agent_ids, scores)


def test_checks_pass_on_a_correct_result(small):
    graph, cfg, state, queries = small
    assert checks.fixed_point(state, graph, cfg) is None
    assert checks.within_steady_bound(state, graph, cfg.alpha) is None
    assert checks.snapshot_round_trip(snapshot_to_json(state, ""), state) is None
    ranked = score_dot(state, queries[0])
    ref = _reference(state, queries[0])
    assert checks.ranking_valid(ranked, state.agent_ids) is None
    assert checks.ranking_matches(ranked, ref) is None


def test_perturbed_state_fails_the_fixed_point_check(small):
    graph, cfg, state, _ = small
    vectors = state.vectors.copy()
    vectors[0] += 0.01
    assert checks.fixed_point(replace(state, vectors=vectors), graph, cfg) is not None
    assert checks.fixed_point(replace(state, converged=False), graph, cfg) is not None


def test_swapped_ranking_fails_the_reference_check(small):
    _, _, state, queries = small
    ranked = score_dot(state, queries[1])
    ref = _reference(state, queries[1])
    swapped = [ranked[1], ranked[0]] + ranked[2:]
    assert checks.ranking_matches(swapped, ref) is not None
    assert checks.ranking_valid(swapped, state.agent_ids) is not None
    assert checks.ranking_valid(ranked[:-1] + ranked[:1], state.agent_ids) is not None


def test_other_checks_fail_on_corrupted_results(small):
    graph, cfg, state, _ = small
    text = snapshot_to_json(state, "")
    nudged = replace(state, vectors=state.vectors * 1.0000001)
    assert checks.snapshot_round_trip(text, nudged) is not None
    inflated = replace(state, vectors=state.vectors * 100)
    assert checks.within_steady_bound(inflated, graph, 0.85) is not None
    negative = state.vectors.copy()
    negative[0, 0] = -1e-3
    assert checks.non_negative(replace(state, vectors=negative)) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_clean_at_a_tiny_size(name, tmp_path, monkeypatch):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, "sizes", dict(cls.sizes, agents=120, positive_edges=1500))
    wl = cls(5, tmp_path)
    wl.generate(traced=True)
    tr = Tracer(enabled=True)
    wl.setup(tr)
    for k in range(2):
        tr.op_id = k
        out = wl.op(tr, k)
        assert out.failures == {} and out.writes >= 1 and out.reads
    tr.op_id = "probe"
    wl.probe(tr)
    metrics = layers.layer_metrics(tr, wl)
    assert set(metrics) | {"trace.overhead_ms"} == set(layers.per_layer_names())
    assert all(np.isfinite(v) for v, _ in metrics.values())


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    out = workloads.OpResult(write_s=0.5, writes=1, reads=[("dot", 0.001)] * 3)
    e2e, _, _, _ = bench_run.end_to_end([out], 1.0, out)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_names()
