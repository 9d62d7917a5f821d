"""The benchmark's three workloads, each driven through trustprop's public API.

Every workload follows the same protocol, run by ``run.py``:

- ``generate()`` makes the seeded inputs (not timed);
- ``setup(tr)`` builds what must exist before the first operation (timed as
  set-up, repeated);
- ``op(tr, k)`` performs operation ``k``: one write (a new state) followed by
  reads against it, then checks every output outside the timed regions;
- ``probe(tr)`` (traced runs only) makes isolated calls into each layer on
  the workload's own data, for the per-layer numbers the operations do not
  produce themselves.

One client, closed loop: each call starts after the previous one returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
from trustprop.files import (
    agents_from_jsonl,
    center_corpus,
    config_digest,
    edges_from_jsonl,
    load_config,
    propagation_config,
    snapshot_to_json,
    weight_config,
)
from trustprop.gates import (
    ConfidenceGateConfig,
    EntropyGateConfig,
    GateStack,
    KlGateConfig,
    MagnitudeGateConfig,
    stack_batch,
    topic_distribution_batch,
)
from trustprop.graph import Agent, Edge, normalize
from trustprop.operators import VARIANTS, OperatorKind, transfer_batch
from trustprop.propagation import (
    PropagationConfig,
    build_domain_matrices,
    build_negative_matrices,
    centroids_from_agents,
    run,
    step_continuous,
    warm_start,
)
from trustprop.retrieval import Query, bm25_scores, pipeline_search, score_dot, score_mixed

TOP_K_DOMAINS = 2
ALL_GATES = GateStack(
    kl=KlGateConfig(enabled=True),  # cosine-proxy form
    entropy=EntropyGateConfig(enabled=True),
    magnitude_ratio=MagnitudeGateConfig(enabled=True),
    confidence=ConfidenceGateConfig(enabled=True),
)
SWEEP = {
    "projection": PropagationConfig(operator=OperatorKind.from_name("projection")),
    "squared": PropagationConfig(operator=OperatorKind.from_name("squared")),
    "scalar": PropagationConfig(operator=OperatorKind.from_name("scalar")),
    "relu": PropagationConfig(operator=OperatorKind.from_name("relu")),
    "hybrid": PropagationConfig(operator=OperatorKind.from_name("hybrid")),
    "gated": PropagationConfig(gates=ALL_GATES),
}
DISCRETE = "discrete"
CONFIGS = (DISCRETE,) + tuple(SWEEP)
# Config name of each transfer variant, for operators.* metric names.
VARIANT_NAMES = {OperatorKind.from_name(n).variant: n for n in SWEEP if n != "gated"}
MIXED_BETA = 0.5
PROBE_REPEATS = 3
PROBE_READS = 8


def discrete_cli_config() -> dict:
    """The flat config ``trustprop propagate`` reads for the discrete path."""
    cfg = load_config(None)
    cfg["propagation.mode"] = "discrete"
    cfg["propagation.top_k"] = TOP_K_DOMAINS
    return cfg


# --- records from generated arrays -----------------------------------------


def agent_records(a: gen.Agents) -> list[Agent]:
    return [
        Agent(
            id=a.ids[i],
            primary_domain=gen.DOMAINS[a.primary[i]],
            secondary_domains=(gen.DOMAINS[a.secondary[i]],) if a.secondary[i] >= 0 else (),
            profile=a.profile[i],
            teleport=a.teleport[i],
            exogenous=a.exogenous[i],
            archetype=a.archetype[i],
            description=a.description[i],
        )
        for i in range(len(a))
    ]


def edge_records(e: gen.Edges, ids: list[str]) -> list[Edge]:
    out = []
    for k, kind in enumerate(e.kind):
        conf = e.confidence[k]
        out.append(
            Edge(
                sender=ids[e.sender[k]],
                receiver=ids[e.receiver[k]],
                kind=kind,
                base_weight=float(e.base_weight[k]),
                content=e.content[k],
                payment=bool(e.payment[k]),
                verified=kind == "flag",
                severity=float(e.severity[k]) if kind == "flag" else None,
                confidence=None if np.isnan(conf) else float(conf),
            )
        )
    return out


def query_records(q: gen.Queries) -> list[Query]:
    return [
        Query(id=q.ids[i], text=q.text[i], embedding=q.embedding[i],
              expected_domains=frozenset(q.expected[i]))
        for i in range(len(q.ids))
    ]


def write_inputs(corpus: gen.Corpus, workdir: Path) -> tuple[Path, Path]:
    agents_path = workdir / "agents.jsonl"
    edges_path = workdir / "edges.jsonl"
    agents_path.write_text(gen.agents_jsonl(corpus.agents))
    edges_path.write_text(gen.edges_jsonl(corpus.edges, corpus.agents.ids))
    return agents_path, edges_path


def ingest(agents_path: Path, edges_path: Path) -> tuple[list[Agent], list[Edge]]:
    """JSONL on disk to validated records, as ``trustprop propagate`` reads them."""
    return (
        agents_from_jsonl(agents_path.read_text()),
        edges_from_jsonl(edges_path.read_text()),
    )


def publish(state, digest: str, mean, path: Path) -> str:
    """``snapshot_to_json`` written to disk; returns the text for checking."""
    text = snapshot_to_json(state, digest, mean)
    path.write_text(text)
    return text


# --- one operation's outcome -------------------------------------------------


@dataclass
class OpResult:
    write_s: float
    writes: int = 0  # states produced
    reads: list[tuple[str, float]] = field(default_factory=list)  # (strategy, seconds)
    failures: dict[str, str] = field(default_factory=dict)  # operation -> first problem

    @property
    def attempted(self) -> int:
        return self.writes + len(self.reads)

    def fail_write(self, what: str, problem: str | None) -> None:
        """Count the latest write as failed when ``problem`` is set."""
        if problem is not None:
            self.failures.setdefault(f"write {self.writes}", f"{what}: {problem}")

    def fail_read(self, what: str, problem: str | None) -> None:
        """Count the latest read as failed when ``problem`` is set."""
        if problem is not None:
            self.failures.setdefault(f"read {len(self.reads)}", f"{what}: {problem}")


def serve_reads(tr, out: OpResult, state, plan, agents=None) -> None:
    """Time each (strategy, query) read against ``state``, then check it."""
    ids = state.agent_ids
    for strategy, query in plan:
        start = time.perf_counter()
        try:
            if strategy == "dot":
                ranked = tr.call("retrieval.dot", score_dot, state, query)
            elif strategy == "cosine":
                ranked = tr.call("retrieval.cosine", score_mixed, state, query, 0.0, "power")
            elif strategy == "mixed":
                ranked = tr.call("retrieval.mixed", score_mixed, state, query, MIXED_BETA, "power")
            else:
                ranked = tr.call("retrieval.pipeline", pipeline_search, state, agents, query)
        except Exception as exc:  # a read that raises counts as failed
            out.reads.append((strategy, time.perf_counter() - start))
            out.fail_read(f"{strategy} read", f"raised {exc!r}")
            continue
        out.reads.append((strategy, time.perf_counter() - start))
        problem = checks.ranking_valid(ranked, ids)
        if problem is None and strategy != "pipeline":
            ref = checks.reference_scores(state.vectors, query.embedding, strategy)
            problem = checks.ranking_matches(ranked, checks.reference_top_k(ids, ref))
        out.fail_read(f"{strategy} read", problem)


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    sizes: dict = {}
    traced_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        # Filled by set-up or operations; read by probe().
        self.graph = None
        self.agents: list[Agent] = []
        self.queries: list[Query] = []
        self.cents = None
        self.states: dict = {}
        self.files: tuple[Path, Path] | None = None
        self.input_bytes = 0

    def generate(self, traced: bool) -> None:
        raise NotImplementedError

    def setup(self, tr) -> None:
        pass

    def op(self, tr, k: int) -> OpResult:
        raise NotImplementedError

    # -- isolated layer calls, traced runs only --------------------------------

    def probe(self, tr) -> None:
        """Call every layer function the operations did not, on this data.

        Span names match the operations' own, so a per-layer metric is read
        the same way whichever produced it.
        """
        have = {s["name"] for s in tr.spans}
        graph = self.graph
        if "files.ingest" not in have:
            for _ in range(PROBE_REPEATS):
                agents, edges = tr.call("files.ingest", ingest, *self.files)
            for _ in range(PROBE_REPEATS):
                tr.call("files.center_corpus", center_corpus, agents, edges)
        if "propagation.build_domain_matrices" not in have:
            for _ in range(PROBE_REPEATS):
                matrices = tr.call("propagation.build_domain_matrices",
                                   build_domain_matrices, graph, self.cents, TOP_K_DOMAINS)
                neg = tr.call("propagation.build_negative_matrices",
                              build_negative_matrices, graph, matrices)
            cfg = propagation_config(discrete_cli_config())
            state = tr.call(f"propagation.run.{DISCRETE}", run, graph, cfg,
                            matrices=matrices, neg=neg)
            tr.record(f"propagation.iters.{DISCRETE}", state.iterations)
        for name, cfg in SWEEP.items():
            if f"propagation.run.{name}" not in have:
                self.states[name] = _timed_run(tr, name, graph, cfg, self.cents)
        if "propagation.warm_start" not in have:
            cfg = SWEEP["projection"]
            for _ in range(PROBE_REPEATS):
                state = tr.call("propagation.warm_start", warm_start,
                                self.states["projection"], graph, cfg)
                tr.record("propagation.warm_iters", state.iterations)
        for name, cfg in SWEEP.items():
            cents = self.cents if name == "gated" else None
            for _ in range(PROBE_REPEATS):
                tr.call(f"propagation.step_continuous.{name}", step_continuous,
                        self.states[name], graph, cfg, cents)
        if "files.snapshot" not in have:
            path = self.workdir / "probe_snapshot.json"
            for _ in range(PROBE_REPEATS):
                text = tr.call("files.snapshot", publish, self.states["projection"], "", None, path)
            tr.record("files.snapshot_bytes", len(text.encode()))

        rows = self.states["projection"].vectors[graph.pos_sender]
        for variant in VARIANTS:
            kind = OperatorKind(variant)
            for _ in range(PROBE_REPEATS):
                tr.call(f"operators.transfer_batch.{VARIANT_NAMES[variant]}", transfer_batch,
                        kind, rows, graph.pos_content, graph.pos_blind)
        for _ in range(PROBE_REPEATS):
            p_int = tr.call("gates.topic_distribution_batch", topic_distribution_batch,
                            graph.pos_content, self.cents)
        conf = np.where(np.isnan(graph.pos_confidence),
                        np.where(graph.pos_blind, ALL_GATES.confidence.default_confidence, 1.0),
                        graph.pos_confidence)
        for _ in range(PROBE_REPEATS):
            tr.call("gates.stack_batch", stack_batch, ALL_GATES, rows, graph.pos_content,
                    conf, p_int, None)

        descriptions = {a.id: a.description for a in self.agents}
        for q in self.queries[:PROBE_REPEATS]:
            tr.call("retrieval.bm25_scores", bm25_scores, descriptions, q.text)
        probe_out = OpResult(write_s=0.0)
        for strategy in ("dot", "cosine", "mixed", "pipeline"):
            if f"retrieval.{strategy}" not in have:
                plan = [(strategy, q) for q in self.queries[:PROBE_READS]]
                serve_reads(tr, probe_out, self.states["projection"], plan, self.agents)
        if probe_out.failures:
            raise RuntimeError(f"probe read failed: {next(iter(probe_out.failures.values()))}")


def _timed_run(tr, name: str, graph, cfg, cents):
    state = tr.call(f"propagation.run.{name}", run, graph, cfg,
                    centroids=cents if name == "gated" else None)
    tr.record(f"propagation.iters.{name}", state.iterations)
    return state


class RecomputeDiscrete(Workload):
    """``trustprop propagate --center`` in discrete mode with moderation flags.

    Reads: each recompute is followed by domain-bucket reads of the new
    snapshot (``score_dot`` with a query over the expected domains' buckets).
    """

    name = "recompute-discrete"
    sizes = {"agents": 3000, "positive_edges": 45000, "flag_edges": 450,
             "queries": 64, "reads_per_op": 60}
    traced_ops = 3

    def generate(self, traced: bool) -> None:
        self.corpus = gen.generate(self.seed, self.sizes["agents"], self.sizes["positive_edges"],
                                   self.sizes["queries"])
        self.files = write_inputs(self.corpus, self.workdir)
        self.input_bytes = sum(p.stat().st_size for p in self.files)
        self.flat = discrete_cli_config()
        self.cfg = propagation_config(self.flat)
        self.weights = weight_config(self.flat)
        self.digest = config_digest(self.flat)
        self.queries = query_records(self.corpus.queries)

    def op(self, tr, k: int) -> OpResult:
        start = time.perf_counter()
        agents, edges = tr.call("files.ingest", ingest, *self.files)
        agents, edges, _, mean = tr.call("files.center_corpus", center_corpus, agents, edges)
        labels, cents = tr.call("propagation.centroids_from_agents", centroids_from_agents, agents)
        graph = tr.call("graph.normalize", normalize, agents, edges, self.weights)
        matrices = tr.call("propagation.build_domain_matrices", build_domain_matrices,
                           graph, cents, TOP_K_DOMAINS)
        neg = None
        if graph.n_neg_edges:
            neg = tr.call("propagation.build_negative_matrices", build_negative_matrices,
                          graph, matrices)
        state = tr.call(f"propagation.run.{DISCRETE}", run, graph, self.cfg,
                        matrices=matrices, neg=neg)
        text = tr.call("files.snapshot", publish, state, self.digest, mean,
                       self.workdir / "snapshot.json")
        out = OpResult(write_s=time.perf_counter() - start, writes=1)
        tr.record(f"propagation.iters.{DISCRETE}", state.iterations)
        tr.record("files.snapshot_bytes", len(text.encode()))

        out.fail_write("fixed point",
                       checks.fixed_point(state, graph, self.cfg, matrices=matrices, neg=neg))
        out.fail_write("floor", checks.non_negative(state))
        out.fail_write("snapshot", checks.snapshot_round_trip(text, state))
        bucket = {label: d for d, label in enumerate(labels)}
        plan = []
        n_reads = self.sizes["reads_per_op"]
        for i in range(n_reads):
            q = self.queries[(k * n_reads + i) % len(self.queries)]
            emb = np.zeros(len(labels))
            emb[[bucket[d] for d in sorted(q.expected_domains)]] = 1.0
            plan.append(("dot", Query(id=q.id, text=q.text, embedding=emb / np.linalg.norm(emb))))
        serve_reads(tr, out, state, plan)

        self.graph, self.agents, self.cents = graph, agents, cents
        return out


class EngineSweep(Workload):
    """Six cold continuous runs on one in-memory graph built during set-up.

    Reads: a few ``score_dot`` reads of each converged state.
    """

    name = "engine-sweep"
    sizes = {"agents": 3000, "positive_edges": 45000, "flag_edges": 450,
             "queries": 64, "reads_per_state": 25}
    traced_ops = 2

    def generate(self, traced: bool) -> None:
        self.corpus = gen.generate(self.seed, self.sizes["agents"], self.sizes["positive_edges"],
                                   self.sizes["queries"])
        if traced:
            self.files = write_inputs(self.corpus, self.workdir)
            self.input_bytes = sum(p.stat().st_size for p in self.files)

    def setup(self, tr) -> None:
        c = self.corpus
        self.agents = tr.call("graph.records", agent_records, c.agents)
        edges = tr.call("graph.records", edge_records, c.edges, c.agents.ids)
        _, self.cents = tr.call("propagation.centroids_from_agents",
                                centroids_from_agents, self.agents)
        self.graph = tr.call("graph.normalize", normalize, self.agents, edges)
        self.queries = query_records(c.queries)

    def op(self, tr, k: int) -> OpResult:
        out = OpResult(write_s=0.0)
        n_reads = self.sizes["reads_per_state"]
        for j, (name, cfg) in enumerate(SWEEP.items()):
            start = time.perf_counter()
            state = _timed_run(tr, name, self.graph, cfg, self.cents)
            out.write_s += time.perf_counter() - start
            out.writes += 1
            self.states[name] = state
            cents = self.cents if name == "gated" else None
            out.fail_write(f"{name} fixed point",
                           checks.fixed_point(state, self.graph, cfg, centroids=cents))
            out.fail_write(f"{name} bound",
                           checks.within_steady_bound(state, self.graph, cfg.alpha))
            base = (k * len(SWEEP) + j) * n_reads
            plan = [("dot", self.queries[(base + i) % len(self.queries)]) for i in range(n_reads)]
            serve_reads(tr, out, state, plan)
        return out


class LiveMarket(Workload):
    """Feedback batches arrive while queries are served.

    Each cycle appends a batch (1% new positive edges, a few joining agents)
    and retires the oldest 1% of positive edges, so the graph keeps its size
    however many cycles a run completes.  Then ``normalize``, ``warm_start``
    from the previous state and a published snapshot; then 20 reads in a
    fixed seeded mix of strategies.
    """

    name = "live-market"
    sizes = {"agents": 2000, "positive_edges": 30000, "flag_edges": 300,
             "queries": 64, "reads_per_op": 20}
    traced_ops = 10
    MIX = ("dot",) * 8 + ("cosine",) * 4 + ("mixed",) * 4 + ("pipeline",) * 4

    def generate(self, traced: bool) -> None:
        self.corpus = gen.generate(self.seed, self.sizes["agents"], self.sizes["positive_edges"],
                                   self.sizes["queries"])
        if traced:
            self.files = write_inputs(self.corpus, self.workdir)
            self.input_bytes = sum(p.stat().st_size for p in self.files)
        self.cfg = SWEEP["projection"]

    def setup(self, tr) -> None:
        c = self.corpus
        self.agents = tr.call("graph.records", agent_records, c.agents)
        edges = tr.call("graph.records", edge_records, c.edges, c.agents.ids)
        n_pos = self.sizes["positive_edges"]
        self.pos_edges, self.flag_edges = edges[:n_pos], edges[n_pos:]
        self.primary = c.agents.primary.copy()
        _, self.cents = tr.call("propagation.centroids_from_agents",
                                centroids_from_agents, self.agents)
        self.graph = tr.call("graph.normalize", normalize, self.agents, edges)
        self.states["projection"] = _timed_run(tr, "projection", self.graph, self.cfg, None)
        self.queries = query_records(c.queries)
        self.ids = list(c.agents.ids)

    def op(self, tr, k: int) -> OpResult:
        # The batch arrives as records; drawing it is input generation.
        joiners, batch = gen.feedback_batch(self.corpus, k, self.primary,
                                            self.sizes["positive_edges"])
        self.primary = np.concatenate([self.primary, joiners.primary])
        self.ids += joiners.ids
        new_agents = agent_records(joiners)
        new_edges = edge_records(batch, self.ids)

        start = time.perf_counter()
        self.agents = self.agents + new_agents
        self.pos_edges = self.pos_edges[len(new_edges):] + new_edges
        graph = tr.call("graph.normalize", normalize, self.agents,
                        self.pos_edges + self.flag_edges)
        state = tr.call("propagation.warm_start", warm_start, self.states["projection"],
                        graph, self.cfg)
        text = tr.call("files.snapshot", publish, state, "", None,
                       self.workdir / "snapshot.json")
        out = OpResult(write_s=time.perf_counter() - start, writes=1)
        tr.record("propagation.warm_iters", state.iterations)
        tr.record("files.snapshot_bytes", len(text.encode()))

        out.fail_write("fixed point", checks.fixed_point(state, graph, self.cfg))
        out.fail_write("bound", checks.within_steady_bound(state, graph, self.cfg.alpha))
        out.fail_write("snapshot", checks.snapshot_round_trip(text, state))
        rng = np.random.default_rng([self.seed, 200, k])
        picks = rng.integers(0, len(self.queries), size=len(self.MIX))
        plan = [(s, self.queries[i]) for s, i in zip(rng.permutation(self.MIX), picks)]
        serve_reads(tr, out, state, plan, self.agents)

        self.graph = graph
        self.states["projection"] = state
        return out


WORKLOADS = {w.name: w for w in (RecomputeDiscrete, EngineSweep, LiveMarket)}
