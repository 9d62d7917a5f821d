"""Damped fixed-point engines over the normalized graph.

Continuous form (one row per agent, E-dimensional):

    R'[j] = alpha * sum_i w(i->j) * gate_ij * f(R[i], e_ij) + (1 - alpha) * T[j] + C[j]

starting from R0 = T + C.  Because the transfer f is non-expansive, the
gates are bounded by 1 and each sender's weights sum to at most 1, the map
contracts with rate alpha and the iteration converges to a unique fixed
point from any start.

A continuous step runs over blocks of consecutive receivers with about
``BLOCK_EDGES`` in-edges each, so one block's working set stays in cache.
Per block it is gather -> transfer -> gate -> one CSR product: the sender
rows R[i] are gathered per edge, ``transfer_batch`` maps them through the
edge contents, the enabled gates rewrite the block's scatter matrix
weights to w * gate, and one sparse product sums each receiver's in-edges
in ascending edge order.  No block splits a receiver's in-edges and every
other operation works row by row, so the result is bit-identical to one
edge-order scatter-add over the whole graph.  The blocks, the confidence
vector and the edge topic distributions depend only on the edges, so
``run`` builds them once per call; a gated step rewrites the block
weights, so a plan is never shared between runs.

Discrete form (one row per agent, D domain buckets): per-domain transition
matrices M_d drive a linear damped iteration per bucket; flag edges enter
through one flag matrix as a subtracted beta-scaled term in every bucket,
stable whenever alpha * (1 + beta) < 1.  ``build_domain_matrices`` splits
all edges at once: one stable argsort of the (M, D) cosine matrix, shares
summed column by column, and per domain the kept entries in ascending edge
order, so each M_d is bit-identical to a per-edge split.

A graph and a config are all ``run`` and ``warm_start`` need: every input
the config calls for that the caller leaves out is built from the graph.
Centroids are the normalized mean profiles per primary domain of the
graph's agents (``centroids_from_agents``), built for discrete mode and for
the entropy and softmax-KL gates; discrete mode splits the edges with
``cfg.top_k`` and, when the graph has flag edges, adds the flag matrix.
Given inputs are used as they are, and a caller that passes its own domain
matrices also decides whether there is a flag matrix.

The residual metric everywhere is the max over agents of the L2 change of
that agent's row — stricter than averaging, so convergence claims hold for
every agent individually.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .gates import GateStack, stack_batch, topic_distribution_batch
from .graph import Agent, AgentTable, NormalizedGraph
from .operators import OperatorKind, transfer_batch

logger = logging.getLogger(__name__)

MODES = ("continuous", "discrete")

# In-edges per receiver block of the continuous step: a block's gathered,
# transferred and gated rows (~1 MB at E = 64) stay in a 4 MiB L2.
BLOCK_EDGES = 2048


@dataclass(frozen=True)
class PropagationConfig:
    alpha: float = 0.85
    epsilon: float = 1e-4
    max_iters: int = 200
    beta: float = 0.15
    mode: str = "continuous"
    operator: OperatorKind = field(default_factory=lambda: OperatorKind("projection"))
    gates: GateStack = field(default_factory=GateStack)
    normalize_each_iter: bool = False
    clamp_floor: bool = True
    couple_c_with_damping: bool = False
    top_k: int = 1

    def __post_init__(self) -> None:
        # Bounds are written "not (in range)" so that NaN fails them too.
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be > 0")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not self.beta >= 0:
            raise ValidationError("beta must be >= 0")
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.top_k < 1:
            raise ValidationError("top_k must be >= 1")

    def check_negative_stability(self) -> None:
        """Negative-edge runs require alpha * (1 + beta) < 1."""
        if self.alpha * (1.0 + self.beta) >= 1.0:
            raise ValidationError(
                f"alpha*(1+beta) = {self.alpha * (1.0 + self.beta):.4f} >= 1; "
                "negative-edge iteration would not contract"
            )


@dataclass
class ReputationState:
    """Iteration state: vectors are (N, E) continuous or (N, D) discrete."""

    vectors: np.ndarray
    agent_ids: tuple[str, ...]
    mode: str = "continuous"
    iterations: int = 0
    residuals: tuple[float, ...] = ()
    converged: bool = False

    def magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.vectors, axis=1)


def _advance(
    state: ReputationState, new: np.ndarray
) -> tuple[ReputationState, float]:
    """The state after one step to ``new``, and that step's residual."""
    if not np.isfinite(new).all():
        raise ValidationError("non-finite value during propagation; corrupt input?")
    old = state.vectors
    residual = float(np.linalg.norm(new - old, axis=1).max()) if new.size else 0.0
    next_state = replace(
        state,
        vectors=new,
        iterations=state.iterations + 1,
        residuals=state.residuals + (residual,),
    )
    return next_state, residual


def _check_state(
    state: ReputationState, shape: tuple[int, int], ids: tuple[str, ...] | None = None
) -> None:
    """Reject a state whose shape, or agents in order, are not the graph's."""
    if state.vectors.shape != shape:
        raise ValidationError(
            f"state vectors are {state.vectors.shape}; the graph needs {shape}"
        )
    if ids is not None and tuple(state.agent_ids) != ids:
        raise ValidationError("state agent ids are not the graph's agents in order")


# --- continuous engine --------------------------------------------------------


def init_state(
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    matrices: DomainMatrices | None = None,
) -> ReputationState:
    """R0 = T + C (projected onto domain buckets in discrete mode)."""
    ids = graph.agents.id
    if cfg.mode == "continuous":
        vectors = graph.teleport + graph.exogenous
    else:
        if matrices is None:
            raise ValidationError("discrete init requires domain matrices")
        vectors = matrices.teleport + matrices.exogenous
    return ReputationState(vectors=vectors.copy(), agent_ids=ids, mode=cfg.mode)


@dataclass
class _Block:
    """Receivers ``lo:hi`` and their in-edges, slices of the plan's edge arrays.

    ``scatter`` is the (hi - lo, edges) CSR matrix whose row j - lo holds the
    weights of receiver j's in-edges in ascending edge order, and whose
    column k is the block's k-th edge; a gated step rewrites its ``data``
    to w * gate in place.
    """

    lo: int
    hi: int
    edges: slice
    scatter: sp.csr_matrix


@dataclass
class _ContinuousPlan:
    """Per-run constants of the continuous step; they depend only on the edges.

    The edge arrays are in receiver-major order (``order``, a stable argsort
    of the receivers, so each receiver's in-edges stay in ascending edge
    order), cut into blocks of consecutive receivers with about
    ``BLOCK_EDGES`` in-edges each; a receiver with more has a block of its
    own.  ``p_int`` is computed over the contents in edge order and then
    permuted, so its rows are those an edge-order step would use.
    """

    order: np.ndarray
    sender: np.ndarray
    content: np.ndarray
    blind: np.ndarray
    weight: np.ndarray
    blocks: list[_Block]
    confidence: np.ndarray | None = None
    p_int: np.ndarray | None = None
    centroids: np.ndarray | None = None


def _continuous_plan(
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    centroids: np.ndarray | None,
) -> _ContinuousPlan:
    n, m = graph.n_agents, graph.n_pos_edges
    order = np.argsort(graph.pos_receiver, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.pos_receiver, minlength=n), out=indptr[1:])
    plan = _ContinuousPlan(
        order=order,
        sender=graph.pos_sender[order],
        content=graph.pos_content[order],
        blind=graph.pos_blind[order],
        weight=graph.pos_weight[order],
        blocks=[],
    )
    lo = 0
    while lo < n:
        a = int(indptr[lo])
        # The last receiver whose in-edges end within BLOCK_EDGES of a, and
        # at least one receiver, so no receiver's in-edges are split.
        hi = max(lo + 1, int(np.searchsorted(indptr, a + BLOCK_EDGES, side="right")) - 1)
        b = int(indptr[hi])
        if b > a:
            scatter = sp.csr_matrix(
                (plan.weight[a:b].copy(), np.arange(b - a), indptr[lo : hi + 1] - a),
                shape=(hi - lo, b - a),
            )
            plan.blocks.append(_Block(lo, hi, slice(a, b), scatter))
        lo = hi
    gates = cfg.gates
    if gates.confidence.enabled:
        plan.confidence = np.where(
            np.isnan(graph.pos_confidence),
            np.where(graph.pos_blind, gates.confidence.default_confidence, 1.0),
            graph.pos_confidence,
        )[order]
    if gates.needs_distributions() and m:
        plan.p_int = topic_distribution_batch(graph.pos_content, centroids)[order]
        plan.centroids = centroids
    return plan


def _step_continuous(
    state: ReputationState,
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    plan: _ContinuousPlan,
) -> tuple[ReputationState, float]:
    """Per receiver block: gather sender rows, transfer, gate, one CSR product.

    Each row of a block's ``scatter @ transferred`` sums w_e * x_e over the
    receiver's in-edges in ascending edge order from 0.0, the same additions
    in the same order as an edge-order scatter-add, and every other step
    works row by row, so the result is bit-identical to it.  The softmax-KL
    ``p_rep`` is the exception: it goes through a GEMM whose rows may round
    differently with the matrix shape, so it is computed over all sender
    rows in edge order and then permuted, as ``p_int`` is.
    """
    r = state.vectors
    gates = cfg.gates
    p_rep = None
    if gates.kl.enabled and gates.kl.form == "softmax" and plan.blocks:
        p_rep = topic_distribution_batch(r[graph.pos_sender], plan.centroids)[plan.order]
    acc = np.zeros_like(r)
    for blk in plan.blocks:
        e = blk.edges
        rows = r[plan.sender[e]]
        content = plan.content[e]
        transferred = transfer_batch(cfg.operator, rows, content, plan.blind[e])
        if gates.any_enabled:
            per_edge = (None if a is None else a[e] for a in (plan.confidence, plan.p_int, p_rep))
            gate = stack_batch(gates, rows, content, *per_edge)
            np.multiply(plan.weight[e], gate, out=blk.scatter.data)
        acc[blk.lo : blk.hi] = blk.scatter @ transferred
    new = cfg.alpha * acc
    if cfg.couple_c_with_damping:
        new += (1.0 - cfg.alpha) * (graph.teleport + graph.exogenous)
    else:
        new += (1.0 - cfg.alpha) * graph.teleport + graph.exogenous
    if cfg.normalize_each_iter:
        norms = np.linalg.norm(new, axis=1, keepdims=True)
        np.divide(new, norms, out=new, where=norms > 0)
    return _advance(state, new)


def step_continuous(
    state: ReputationState,
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    centroids: np.ndarray | None = None,
) -> tuple[ReputationState, float]:
    """One synchronous update of every agent's row; returns (state, residual).

    Builds the per-run constants for this single step, and the centroids if
    the gates need them and none are given, as ``run`` does; ``run`` builds
    the constants once and reuses them for every iteration.
    """
    if state.mode != "continuous" or cfg.mode != "continuous":
        raise ValidationError("step_continuous requires a continuous state and config")
    _check_state(state, (graph.n_agents, graph.dim), graph.agents.id)
    _, _, centroids = _engine_inputs(graph, cfg, centroids=centroids)
    return _step_continuous(state, graph, cfg, _continuous_plan(graph, cfg, centroids))


# --- discrete engine ----------------------------------------------------------


@dataclass
class DomainMatrices:
    """Per-domain row-stochastic transitions plus domain-projected priors."""

    centroids: np.ndarray  # (D, E)
    mats: tuple[sp.csr_matrix, ...]  # each (N, N)
    teleport: np.ndarray  # (N, D)
    exogenous: np.ndarray  # (N, D)
    agent_ids: tuple[str, ...]  # the graph's agents, in row order


def project_to_domains(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Bucket E-dim vectors into D domains, preserving each row's L2 magnitude.

    Positive-part cosines to the centroids are L1-normalized per row and then
    scaled by the row norm; rows with no positive similarity stay zero.
    """
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


def build_domain_matrices(
    graph: NormalizedGraph,
    centroids: np.ndarray,
    top_k: int = 1,
) -> DomainMatrices:
    """Split each positive edge across its top-k domains by centroid cosine.

    Shares are proportional to max(0, cos(e_ij, centroid_d)) over the top-k
    domains; an edge with no positive similarity goes wholly to its argmax
    domain.  Each M_d is then row-normalized, so parallel edges collapse by
    summation and every non-empty row sums to one.
    """
    cents = np.asarray(centroids, dtype=np.float64)
    if cents.ndim != 2 or cents.shape[1] != graph.dim:
        raise ValidationError("centroids must be (D, E) matching the graph dim")
    n_domains = cents.shape[0]
    if not 1 <= top_k <= n_domains:
        raise ValidationError("top_k must lie in [1, D]")
    n = graph.n_agents
    cos = (graph.pos_content @ cents.T) / np.linalg.norm(cents, axis=1)[None, :]
    # A stable sort puts tied domains in index order (argpartition would
    # not).  Positive similarities sort first, so the kept domains of an
    # edge are a prefix of its order and the column-wise running total adds
    # them in the same sequence as a per-edge sum.
    order = np.argsort(-cos, axis=1, kind="stable")[:, :top_k]
    sims = np.take_along_axis(cos, order, axis=1)
    positive = sims > 0
    total = np.zeros(graph.n_pos_edges)
    for c in range(top_k):
        total += np.where(positive[:, c], sims[:, c], 0.0)
    # An edge with no positive similarity goes wholly to its argmax domain.
    shares = np.divide(sims, total[:, None], out=np.ones_like(sims), where=positive)
    kept = positive | (np.arange(top_k) == 0)
    weighted = graph.pos_weight[:, None] * shares
    mats = []
    for d in range(n_domains):
        # One entry per edge at most, in ascending edge order.
        edge, col = np.nonzero((order == d) & kept)
        m = sp.csr_matrix(
            (weighted[edge, col], (graph.pos_sender[edge], graph.pos_receiver[edge])),
            shape=(n, n),
            dtype=np.float64,
        )
        sums = np.asarray(m.sum(axis=1)).ravel()
        scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
        m = sp.diags(scale) @ m
        mats.append(sp.csr_matrix(m))
    return DomainMatrices(
        centroids=cents,
        mats=tuple(mats),
        teleport=project_to_domains(graph.teleport, cents),
        exogenous=project_to_domains(graph.exogenous, cents),
        agent_ids=graph.agents.id,
    )


def build_negative_matrices(
    graph: NormalizedGraph,
    matrices: DomainMatrices,
) -> sp.csr_matrix:
    """The (N, N) per-reporter normalized flag matrix.

    Flags carry no content, so this one matrix is applied in every domain
    bucket of ``matrices``: moderation evidence is not topic-specific, and
    the flag matrix does not depend on the domain split.
    """
    n = graph.n_agents
    return sp.csr_matrix(
        (graph.neg_weight, (graph.neg_sender, graph.neg_receiver)),
        shape=(n, n),
        dtype=np.float64,
    )


def step_discrete(
    state: ReputationState,
    matrices: DomainMatrices,
    cfg: PropagationConfig,
    neg: sp.csr_matrix | None = None,
) -> tuple[ReputationState, float]:
    """One damped update of all domain buckets.

    With a flag matrix ``neg``, flag flow is subtracted at strength beta in
    every bucket and the optional floor clamp keeps buckets non-negative.
    With beta = 0 this reduces exactly to the positive-only step.
    """
    if state.mode != "discrete":
        raise ValidationError("step_discrete requires a discrete state")
    _check_state(state, matrices.teleport.shape, matrices.agent_ids)
    r = state.vectors
    if neg is not None:
        cfg.check_negative_stability()
        if neg.shape != (r.shape[0], r.shape[0]):
            raise ValidationError("flag matrix must be (N, N) over the state's agents")
        flags = cfg.beta * (neg.T @ r)
    new = np.empty_like(r)
    for d, mat in enumerate(matrices.mats):
        flow = mat.T @ r[:, d]
        if neg is not None:
            flow = flow - flags[:, d]
        new[:, d] = cfg.alpha * flow
    if cfg.couple_c_with_damping:
        new += (1.0 - cfg.alpha) * (matrices.teleport + matrices.exogenous)
    else:
        new += (1.0 - cfg.alpha) * matrices.teleport + matrices.exogenous
    if neg is not None and cfg.clamp_floor:
        np.maximum(new, 0.0, out=new)
    return _advance(state, new)


# --- drivers ------------------------------------------------------------------


def _engine_inputs(
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    matrices: DomainMatrices | None = None,
    neg: sp.csr_matrix | None = None,
    centroids: np.ndarray | None = None,
) -> tuple[DomainMatrices | None, sp.csr_matrix | None, np.ndarray | None]:
    """(matrices, neg, centroids): the given ones, and what cfg needs from the graph."""
    discrete = cfg.mode == "discrete"
    if centroids is None and (
        matrices is None if discrete else cfg.gates.needs_distributions()
    ):
        _, centroids = centroids_from_agents(graph.agents)
    if discrete and matrices is None:
        matrices = build_domain_matrices(graph, centroids, top_k=cfg.top_k)
        if neg is None and graph.n_neg_edges:
            neg = build_negative_matrices(graph, matrices)
    return matrices, neg, centroids


def run(
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    initial: ReputationState | None = None,
    matrices: DomainMatrices | None = None,
    neg: sp.csr_matrix | None = None,
    centroids: np.ndarray | None = None,
) -> ReputationState:
    """Iterate until the residual drops below epsilon or max_iters is hit.

    Inputs the config needs that the caller leaves out are built from the
    graph as the module docstring says: centroids, domain matrices with
    ``cfg.top_k`` and the flag matrix.  ``matrices`` without ``neg`` runs
    positive edges only.  An ``initial`` state must hold the graph's agents
    in order, one row each of the mode's width.

    Non-convergence is reported through state.converged rather than raised,
    so callers can decide how loudly to fail.
    """
    matrices, neg, centroids = _engine_inputs(graph, cfg, matrices, neg, centroids)
    if neg is not None:
        if cfg.mode != "discrete":
            raise ValidationError("negative edges run in discrete mode only")
        cfg.check_negative_stability()
    state = initial if initial is not None else init_state(graph, cfg, matrices)
    if state.mode != cfg.mode:
        raise ValidationError("initial state mode does not match config")
    if initial is not None:
        width = graph.dim if cfg.mode == "continuous" else matrices.teleport.shape[1]
        _check_state(state, (graph.n_agents, width), graph.agents.id)
    if cfg.mode == "continuous":
        plan = _continuous_plan(graph, cfg, centroids)
    for _ in range(cfg.max_iters):
        if cfg.mode == "continuous":
            state, residual = _step_continuous(state, graph, cfg, plan)
        else:
            state, residual = step_discrete(state, matrices, cfg, neg)
        if residual < cfg.epsilon:
            state.converged = True
            break
    if not state.converged:
        logger.warning(
            "propagation did not converge in %d iterations (residual %.3g)",
            state.iterations,
            state.residuals[-1] if state.residuals else float("nan"),
        )
    return state


def warm_start(
    previous: ReputationState,
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    matrices: DomainMatrices | None = None,
    neg: sp.csr_matrix | None = None,
    centroids: np.ndarray | None = None,
) -> ReputationState:
    """Run against an updated graph, seeding from a previous converged state.

    Agents present in both keep their rows; new agents start at T + C.  After
    small edge churn this typically converges in a handful of iterations.
    Missing inputs are built from the updated graph, as in ``run``.
    """
    if previous.mode != cfg.mode:
        raise ValidationError("previous state mode does not match config")
    matrices, neg, centroids = _engine_inputs(graph, cfg, matrices, neg, centroids)
    base = init_state(graph, cfg, matrices)
    width = base.vectors.shape[1]
    if previous.vectors.shape[1] != width:
        raise ValidationError("previous state width does not match the new graph")
    lookup = {aid: i for i, aid in enumerate(previous.agent_ids)}
    vectors = base.vectors.copy()
    for i, aid in enumerate(base.agent_ids):
        j = lookup.get(aid)
        if j is not None:
            vectors[i] = previous.vectors[j]
    seeded = ReputationState(
        vectors=vectors, agent_ids=base.agent_ids, mode=cfg.mode
    )
    return run(graph, cfg, initial=seeded, matrices=matrices, neg=neg, centroids=centroids)


# --- analysis helpers ---------------------------------------------------------


def steady_state_bound(
    teleport: np.ndarray, exogenous: np.ndarray, alpha: float
) -> float:
    """Magnitude ceiling implied by damping: ||T||_F + ||C||_F / (1 - alpha).

    Exogenous authority escapes damping, hence the 1/(1-alpha) factor; no
    amount of edge rewiring lifts a converged state past this ceiling.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    t = float(np.linalg.norm(teleport))
    c = float(np.linalg.norm(exogenous))
    return t + c / (1.0 - alpha)


def self_alignment(state: ReputationState, graph: NormalizedGraph) -> dict[str, float]:
    """cos(R[j], T[j]) per agent: how on-profile each reputation stayed.

    Agents with a zero reputation or teleport row are omitted.
    """
    if state.mode != "continuous":
        raise ValidationError("self_alignment applies to continuous states")
    out: dict[str, float] = {}
    for i, aid in enumerate(graph.agents.id):
        r = state.vectors[i]
        t = graph.teleport[i]
        rn = float(np.linalg.norm(r))
        tn = float(np.linalg.norm(t))
        if rn == 0.0 or tn == 0.0:
            continue
        out[aid] = float(np.clip(float(r @ t) / (rn * tn), -1.0, 1.0))
    return out


def centroids_from_agents(
    agents: AgentTable | Sequence[Agent],
) -> tuple[tuple[str, ...], np.ndarray]:
    """Domain centroids as normalized mean profiles per primary domain.

    Derived purely from agent records so any serialized corpus reproduces
    the same taxonomy; domains are ordered by first appearance.
    """
    agents = AgentTable.of(agents)
    codes: dict[str, int] = {}
    group = np.fromiter(
        (codes.setdefault(d, len(codes)) for d in agents.primary_domain), np.intp, len(agents)
    )
    order = tuple(codes)
    cents = []
    for k, label in enumerate(order):
        mean = agents.profile[group == k].mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm < 1e-12:
            raise ValidationError(f"domain {label!r} has a degenerate mean profile")
        cents.append(mean / norm)
    return order, np.vstack(cents)


def residual_ratios(residuals: Sequence[float], skip: int = 1) -> list[float]:
    """Successive residual ratios r[k+1]/r[k], skipping the first `skip` steps."""
    out = []
    for k in range(skip, len(residuals) - 1):
        if residuals[k] > 0:
            out.append(residuals[k + 1] / residuals[k])
    return out
