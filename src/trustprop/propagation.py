"""Damped fixed-point engines over the normalized graph.

Continuous form (one row per agent, E-dimensional):

    R'[j] = alpha * sum_i w(i->j) * gate_ij * f(R[i], e_ij) + (1 - alpha) * T[j] + C[j]

starting from R0 = T + C.  Each sender's weights sum to at most 1, so if
the gated transfer gate_ij * f(., e_ij) is L-Lipschitz in R, the map
contracts with rate alpha * L in the norm sum_j ||R[j]||, and for
alpha * L < 1 the iteration converges to a unique fixed point from any
start.  L is 1 for the non-expansive operators with no gate or only gates
that do not read R; it exceeds 1 for ``scalar_gated`` and can for the
alignment and magnitude gates (see ``operators`` and ``gates``).

A continuous step runs over blocks of consecutive receivers with about
``BLOCK_EDGES`` in-edges each, so one block's working set stays in cache.
Per block it is gather -> gate -> transfer -> one CSR product: the sender
rows R[i] are gathered per edge into the thread's workspace, the enabled
gates rewrite the block's scatter matrix weights to w * gate,
``transfer_batch`` maps the gathered rows through the edge contents in
place, and one sparse product sums each receiver's in-edges in ascending
edge order.  No block splits a receiver's in-edges and every
other operation works row by row, so the result is bit-identical to one
edge-order scatter-add over the whole graph.  A block reads the shared R and
writes only its own receivers' rows, so the blocks run on the calling thread
and a pool of one thread per further available CPU (numpy and scipy release
the GIL inside them), and the result does not depend on the number of
threads or on which thread runs which block.

The blocks slice the graph's own edge arrays, which ``normalize`` puts in
receiver-major order and makes read-only; nothing here permutes or copies
them.  What a step reads besides R and those arrays is built as rarely as
it can be.  Once per graph, and kept with it: the blocks, read-only and
shared by every run on the graph.  Once per graph and centroids: the edge
topic distributions.  Once per ``run``: the confidence column, the
entropy factor, the damping constant (1 - alpha) * T + C (or
(1 - alpha) * (T + C) when coupled), one (widest block's edges, E)
workspace per thread that can take blocks and, when gates rewrite the
block weights, the run's own copy of each block's scatter matrix, so no
run writes to anything another run reads, and nothing a run writes
outlives it.  Once per step: the sender row norms, over the N agent rows.
Once per block: the row dots, which the transfer and the gates share.

Discrete form (one row per agent, D domain buckets): one damped linear
iteration R' = alpha * M^T R + damped over (agent, domain) pairs, with R's
rows raveled in C order.  M holds each domain's row-stochastic M_d on that
domain's pairs; flag edges enter through one (N, N) flag matrix as a
subtracted beta-scaled term in every bucket, stable whenever
alpha * (1 + beta) < 1.  ``build_domain_matrices`` splits all edges at once:
one stable argsort of the (M, D) cosine matrix, shares summed column by
column, and every kept (edge, domain) share in ascending edge order.  The
edges are receiver-major, so each row of M comes in with its columns sorted
and the parallel edges of one entry add in edge order: each M_d is
bit-identical to a per-edge split.

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

import contextlib
import functools
import logging
import math
import os
import threading
from collections import deque
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .gates import GateStack, entropy_factor, stack_batch, topic_distribution_batch
from .graph import Agent, AgentTable, NormalizedGraph
from .operators import OperatorKind, transfer_batch
from .vectorspace import (
    DEGENERATE_NORM, centroid_cosines, cosine, overflow_safe_norms, row_dots, row_norms,
)

logger = logging.getLogger(__name__)

MODES = ("continuous", "discrete")

# In-edges per receiver block of the continuous step.  At E = 64 a block's
# working set is its 1 MiB of gathered rows, transferred in place in the
# thread's workspace, and its 1 MiB slice of the contents: the 2 MiB L2 of
# one core of the 2-vCPU Xeon the benchmark runs on.
BLOCK_EDGES = 2048


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# Pool threads that take receiver blocks alongside the calling thread, one
# per further CPU this process may run on.  Each thread gets its own malloc
# arena, so the caller works too rather than waiting on one more thread.
_WORKERS = _cpus() - 1


@dataclass(frozen=True)
class PropagationConfig:
    """Settings of one run.  Discrete mode ignores ``operator``, ``gates`` and
    ``normalize_each_iter``; continuous mode ignores ``top_k``, ``clamp_floor``
    and, since it skips flag edges, ``beta``."""

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
        if not 0 < self.epsilon < math.inf:
            raise ValidationError("epsilon must be finite and > 0")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not 0 <= self.beta < math.inf:
            raise ValidationError("beta must be finite and >= 0")
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
    """Iteration state: vectors are (N, E) continuous or (N, D) discrete.

    Every state an engine step returns (so every state of ``run`` and
    ``warm_start``) and every state ``files.snapshot_from_json`` reads holds
    read-only ``vectors``; ``init_state``'s stay writeable, to be seeded.
    A state keeps what its reads derive from it alone, read-only, for as
    long as the source is the same object: ``magnitudes()`` of read-only
    ``vectors``, and ``id_array()`` of ``agent_ids``.  A writeable
    ``vectors`` is measured on every call, and ``dataclasses.replace``
    starts a new state with nothing kept.
    """

    vectors: np.ndarray
    agent_ids: tuple[str, ...]
    mode: str = "continuous"
    iterations: int = 0
    residuals: tuple[float, ...] = ()
    converged: bool = False
    _kept: dict[str, tuple[Any, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def magnitudes(self) -> np.ndarray:
        """||R|| per row (``overflow_safe_norms``): the one magnitude of a state."""
        if self.vectors.flags.writeable:
            return overflow_safe_norms(self.vectors)
        return self._derived("norms", self.vectors, overflow_safe_norms)

    def id_array(self) -> np.ndarray:
        """``agent_ids`` as the object array that ``retrieval.ranked`` sorts by."""
        return self._derived("ids", self.agent_ids, lambda ids: np.array(ids, dtype=object))

    def _derived(self, name: str, source: Any, derive: Callable[[Any], np.ndarray]) -> np.ndarray:
        kept = self._kept.get(name)
        if kept is None or kept[0] is not source:
            kept = self._kept[name] = (source, _read_only(derive(source)))
        return kept[1]


def _advance(
    state: ReputationState, new: np.ndarray
) -> tuple[ReputationState, float]:
    """The state after one step to ``new``, not yet converged, and that
    step's residual: the largest row change, by ``overflow_safe_norms``, so a
    change too large to square in float64 has a finite norm and every finite
    one keeps its bits."""
    if not np.isfinite(new).all():
        raise ValidationError("non-finite value during propagation; corrupt input?")
    with np.errstate(over="ignore"):
        delta = new - state.vectors
    norms = overflow_safe_norms(delta)
    residual = float(norms.max()) if new.size else 0.0
    next_state = replace(
        state,
        vectors=_read_only(new),
        iterations=state.iterations + 1,
        residuals=state.residuals + (residual,),
        converged=False,
    )
    return next_state, residual


def _damped(cfg: PropagationConfig, teleport: np.ndarray, exogenous: np.ndarray) -> np.ndarray:
    """A step's constant term, (1 - alpha) * T + C, or (1 - alpha) * (T + C)
    when C is coupled with the damping."""
    if cfg.couple_c_with_damping:
        return (1.0 - cfg.alpha) * (teleport + exogenous)
    return (1.0 - cfg.alpha) * teleport + exogenous


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} must be finite")


def _checked_centroids(centroids: np.ndarray, dim: int) -> np.ndarray:
    """``centroids`` as float64, or a ``ValidationError``: they must be (D, E)
    with D >= 1 and E the graph's ``dim``, finite, and every row norm at least
    ``DEGENERATE_NORM``, the bar a mean profile meets in ``centroids_from_agents``."""
    cents = np.asarray(centroids, dtype=np.float64)
    if cents.ndim != 2 or cents.shape[0] < 1 or cents.shape[1] != dim:
        raise ValidationError(
            f"centroids are {cents.shape}; they must be (D, {dim}) with D >= 1, "
            "matching the graph dim"
        )
    _require_finite(cents, "centroids")
    if not (overflow_safe_norms(cents) >= DEGENERATE_NORM).all():
        raise ValidationError(f"every centroid must have norm >= {DEGENERATE_NORM}")
    return cents


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


@dataclass(frozen=True)
class _Block:
    """Receivers ``lo:hi`` and their in-edges, a slice of the graph's edge arrays.

    ``scatter`` is the (hi - lo, edges) CSR matrix whose row j - lo holds the
    weights of receiver j's in-edges in ascending edge order, and whose
    column k is the block's k-th edge.  Its arrays are read-only; a gated
    run takes its own copy of the matrix, whose ``data`` each step rewrites
    to w * gate in place.
    """

    lo: int
    hi: int
    edges: slice
    scatter: sp.csr_matrix


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _graph_plan(graph: NormalizedGraph) -> tuple[_Block, ...]:
    """The part of the continuous step that depends only on the graph.

    The graph's receiver-major edges cut into blocks of consecutive
    receivers with about ``BLOCK_EDGES`` in-edges each; a receiver with more
    has a block of its own.  The blocks come by edge count, largest first.
    The block matrices' arrays are read-only, so any number of runs can
    share them.
    """
    n = graph.n_agents
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.pos_receiver, minlength=n), out=indptr[1:])
    blocks = []
    lo = 0
    while lo < n:
        a = int(indptr[lo])
        # The last receiver whose in-edges end within BLOCK_EDGES of a, and
        # at least one receiver, so no receiver's in-edges are split.
        hi = max(lo + 1, int(np.searchsorted(indptr, a + BLOCK_EDGES, side="right")) - 1)
        b = int(indptr[hi])
        if b > a:
            scatter = sp.csr_matrix(
                (graph.pos_weight[a:b], np.arange(b - a), indptr[lo : hi + 1] - a),
                shape=(hi - lo, b - a),
            )
            for arr in (scatter.data, scatter.indices, scatter.indptr):
                _read_only(arr)
            blocks.append(_Block(lo, hi, slice(a, b), scatter))
        lo = hi
    # Largest first, so a hub's oversized block does not start last.
    blocks.sort(key=lambda blk: blk.edges.start - blk.edges.stop)
    return tuple(blocks)


@dataclass
class _ContinuousPlan:
    """Everything one continuous run's steps read besides R.

    ``graph`` is the graph whose edge arrays the blocks slice.  The blocks
    of ``_graph_plan`` are kept in ``NormalizedGraph.cache`` for the current
    ``BLOCK_EDGES``, and ``p_int`` is kept there too, for the last centroid
    values seen.  The rest is the run's own, including, when gates rewrite
    the block weights, its own copy of each block's scatter matrix.
    ``needs_dots`` and ``needs_norms`` say whether the operator or a gate
    reads the row dots r . e and the sender row norms ||R[i]||, which each
    step then takes once.
    ``damped`` is the step's constant term, from ``_damped``.
    ``workspaces`` holds one (widest block's edges, E) array for the
    calling thread and each pool thread that can take blocks: a block
    gathers its sender rows into its thread's workspace and transfers them
    there in place.
    """

    graph: NormalizedGraph
    blocks: tuple[_Block, ...]
    needs_dots: bool
    needs_norms: bool
    damped: np.ndarray
    workspaces: tuple[np.ndarray, ...]
    confidence: np.ndarray | None = None
    p_int: np.ndarray | None = None
    entropy: np.ndarray | None = None
    centroids: np.ndarray | None = None


# Held while a graph's cache is read or filled, so each entry is built once.
_CACHE_LOCK = threading.Lock()


def _cached(graph: NormalizedGraph, slot: str, key: Hashable, build: Callable[[], Any]) -> Any:
    """``graph.cache[slot]``'s value if it was built for ``key``, else ``build()``, kept there.

    A slot holds the value of one key; a new key replaces it.
    """
    with _CACHE_LOCK:
        kept = graph.cache.get(slot)
        if kept is None or kept[0] != key:
            kept = graph.cache[slot] = (key, build())
    return kept[1]


def _continuous_plan(
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    centroids: np.ndarray | None,
) -> _ContinuousPlan:
    blocks = _cached(graph, "plan", BLOCK_EDGES, lambda: _graph_plan(graph))
    gates, operator = cfg.gates, cfg.operator
    if gates.any_enabled:
        blocks = tuple(replace(blk, scatter=blk.scatter.copy()) for blk in blocks)
    widest = blocks[0].edges.stop - blocks[0].edges.start if blocks else 0
    threads = min(1 + _WORKERS, max(1, len(blocks)))
    plan = _ContinuousPlan(
        graph=graph,
        blocks=blocks,
        needs_dots=operator.uses_row_dots or gates.uses_row_geometry,
        needs_norms=operator.uses_row_norms or gates.uses_row_geometry,
        damped=_damped(cfg, graph.teleport, graph.exogenous),
        workspaces=tuple(np.empty((widest, graph.dim)) for _ in range(threads)),
    )
    if gates.confidence.enabled:
        plan.confidence = np.where(
            np.isnan(graph.pos_confidence),
            np.where(graph.pos_blind, gates.confidence.default_confidence, 1.0),
            graph.pos_confidence,
        )
    if gates.needs_distributions() and graph.n_pos_edges:
        key = (centroids.shape, centroids.tobytes())
        plan.p_int = _cached(graph, "p_int", key, lambda: _read_only(
            topic_distribution_batch(graph.pos_content, centroids)
        ))
        plan.centroids = centroids
        if gates.entropy.enabled:
            plan.entropy = entropy_factor(plan.p_int, gates.entropy.strength)
    return plan


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    """The block pool; its threads start on the first blocks handed to it."""
    return ThreadPoolExecutor(workers, thread_name_prefix="trustprop-block")


# A forked child has none of the parent's pool threads, but the cached pool
# still counts them as idle and would start none: give the child its own.
if hasattr(os, "register_at_fork"):  # a platform without fork needs none
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _drain(
    body: Callable[[_Block, np.ndarray], None], queue: deque[_Block], work: np.ndarray
) -> None:
    """Take blocks from the shared queue and run ``body`` on each in ``work`` until none is left."""
    while True:
        try:
            blk = queue.popleft()
        except IndexError:
            return
        try:
            body(blk, work)
        except BaseException:
            queue.clear()  # the step fails: hand out no further blocks
            raise


def _for_each_block(
    body: Callable[[_Block, np.ndarray], None],
    blocks: Sequence[_Block],
    workspaces: Sequence[np.ndarray],
) -> None:
    """Run ``body(blk, work)`` on every block, one thread per workspace.

    The calling thread works in ``workspaces[0]`` and a pool thread in each
    further one (the plan holds one for the calling thread and one per pool
    thread that can take blocks: up to ``_WORKERS``, and no more threads than
    blocks); each thread takes the next block when it finishes one.
    Returns once no block is running; the error raised in the calling
    thread, or else one raised in a pool thread, is re-raised as it is.
    With one workspace nothing is submitted and no pool is started.
    """
    queue = deque(blocks)
    futures = [_executor(_WORKERS).submit(_drain, body, queue, work) for work in workspaces[1:]]
    try:
        _drain(body, queue, workspaces[0])
    finally:
        wait(futures)  # a helper that starts late finds the queue empty
    for f in futures:
        f.result()


def _step_block(
    blk: _Block,
    work: np.ndarray,
    r: np.ndarray,
    norms: np.ndarray | None,
    p_rep: np.ndarray | None,
    acc: np.ndarray,
    cfg: PropagationConfig,
    plan: _ContinuousPlan,
) -> None:
    """Rows ``blk.lo:blk.hi`` of ``acc``: gather, gate, transfer in place, one CSR product.

    The sender rows are gathered into ``work``, the thread's workspace, and
    the gates read them before the transfer overwrites them.
    """
    e, graph = blk.edges, plan.graph
    sender = graph.pos_sender[e]
    # mode="clip" lets numpy write straight into ``work`` (with "raise" it
    # buffers ``out``); the graph's senders are always in range.
    rows = np.take(r, sender, axis=0, out=work[: len(sender)], mode="clip")
    content = graph.pos_content[e]
    dots = row_dots(rows, content) if plan.needs_dots else None
    if norms is not None:
        norms = norms[sender]
    gates = cfg.gates
    if gates.any_enabled:
        per_edge = (None if a is None else a[e] for a in (plan.confidence, plan.p_int, p_rep))
        entropy = None if plan.entropy is None else plan.entropy[e]
        gate = stack_batch(gates, rows, content, *per_edge, dots, norms, entropy)
        np.multiply(graph.pos_weight[e], gate, out=blk.scatter.data)
    transferred = transfer_batch(cfg.operator, rows, content, graph.pos_blind[e], dots, norms, rows)
    acc[blk.lo : blk.hi] = blk.scatter @ transferred


def _step_continuous(
    state: ReputationState,
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    plan: _ContinuousPlan,
) -> tuple[ReputationState, float]:
    """One step as independent receiver blocks, run across the available CPUs.

    Each row of a block's ``scatter @ transferred`` sums w_e * x_e over the
    receiver's in-edges in ascending edge order from 0.0, the same additions
    in the same order as an edge-order scatter-add, and every other step
    works row by row, so the result is bit-identical to it.  The sender row
    norms are taken once over the N rows of R and gathered per edge, which
    gives each edge the same bits as a norm of its gathered row; each block
    takes its row dots once and hands them, with the norms, to the transfer
    and the gates.  A block reads the shared R and writes only its own rows
    of the accumulator and its own scatter weights, so neither the number
    of threads nor the order the blocks run in changes a bit.  The
    softmax-KL ``p_rep`` is the exception to row by row: it goes through a
    GEMM whose rows may round differently with the matrix shape, so it is
    computed before the blocks over all sender rows, as ``p_int`` is over
    all edge contents.
    """
    r = state.vectors
    gates = cfg.gates
    norms = state.magnitudes() if plan.needs_norms else None
    p_rep = None
    if gates.kl.enabled and gates.kl.form == "softmax" and plan.blocks:
        p_rep = topic_distribution_batch(r[graph.pos_sender], plan.centroids)
    acc = np.zeros_like(r)
    body = functools.partial(
        _step_block, r=r, norms=norms, p_rep=p_rep, acc=acc, cfg=cfg, plan=plan
    )
    _for_each_block(body, plan.blocks, plan.workspaces)
    new = np.multiply(acc, cfg.alpha, out=acc)
    new += plan.damped
    if cfg.normalize_each_iter:
        norms = overflow_safe_norms(new)[:, None]
        np.divide(new, norms, out=new, where=norms > 0)
    return _advance(state, new)


def step_continuous(
    state: ReputationState,
    graph: NormalizedGraph,
    cfg: PropagationConfig,
    centroids: np.ndarray | None = None,
) -> tuple[ReputationState, float]:
    """One synchronous update of every agent's row; returns (state, residual).

    Builds the per-run part of the plan for this single step, and the
    centroids if the gates need them and none are given, as ``run`` does;
    the per-graph part comes from the graph's cache, as for ``run``, which
    builds its per-run part once and reuses it for every iteration.
    """
    if state.mode != "continuous" or cfg.mode != "continuous":
        raise ValidationError("step_continuous requires a continuous state and config")
    _check_state(state, (graph.n_agents, graph.dim), graph.agents.id)
    _, _, centroids = _engine_inputs(graph, cfg, centroids=centroids)
    return _step_continuous(state, graph, cfg, _continuous_plan(graph, cfg, centroids))


# --- discrete engine ----------------------------------------------------------


@dataclass
class DomainMatrices:
    """One row-stochastic transition over (agent, domain) pairs plus
    domain-projected priors: entry (i, j) of M_d is (i * D + d, j * D + d)."""

    centroids: np.ndarray  # (D, E)
    transition: sp.csr_matrix  # (N * D, N * D)
    teleport: np.ndarray  # (N, D)
    exogenous: np.ndarray  # (N, D)
    agent_ids: tuple[str, ...]  # the graph's agents, in row order


def project_to_domains(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Bucket E-dim vectors into D domains, preserving each row's L2 magnitude.

    Positive-part cosines to the centroids are L1-normalized per row and then
    scaled by the row norm; rows with no positive similarity stay zero.
    """
    cos, norms = centroid_cosines(vectors, centroids)
    sims = np.maximum(cos, 0.0)
    totals = sims.sum(axis=1)
    out = np.zeros_like(sims)
    ok = totals > 0  # a zero row's cosines are 0
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
    domain.  Share d of edge i -> j is entry (i * D + d, j * D + d) of one
    transition, which is then row-normalized, so parallel edges collapse by
    summation and every non-empty row sums to one.
    """
    cents = _checked_centroids(centroids, graph.dim)
    n_domains = cents.shape[0]
    if not 1 <= top_k <= n_domains:
        raise ValidationError("top_k must lie in [1, D]")
    cos = (graph.pos_content @ cents.T) / overflow_safe_norms(cents)[None, :]
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
    # Every kept share, in ascending edge order: each row's columns come
    # sorted, so scipy adds parallel edges in that order.
    edge, col = np.nonzero(kept)
    d = order[edge, col]
    pair = (graph.pos_sender[edge] * n_domains + d, graph.pos_receiver[edge] * n_domains + d)
    size = graph.n_agents * n_domains
    m = sp.csr_matrix((graph.pos_weight[edge] * shares[edge, col], pair), shape=(size, size))
    sums = np.asarray(m.sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return DomainMatrices(
        centroids=cents,
        transition=sp.csr_matrix(sp.diags(scale) @ m),
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
    """One damped update of all domain buckets, one product with the transition.

    With a flag matrix ``neg``, flag flow is subtracted at strength beta in
    every bucket and the optional floor clamp keeps buckets non-negative.
    With beta = 0 this reduces exactly to the positive-only step.
    """
    if state.mode != "discrete":
        raise ValidationError("step_discrete requires a discrete state")
    _check_state(state, matrices.teleport.shape, matrices.agent_ids)
    r = state.vectors
    flow = (matrices.transition.T @ r.ravel()).reshape(r.shape)
    if neg is not None:
        cfg.check_negative_stability()
        if neg.shape != (r.shape[0], r.shape[0]):
            raise ValidationError("flag matrix must be (N, N) over the state's agents")
        flow -= cfg.beta * (neg.T @ r)
    new = np.multiply(flow, cfg.alpha, out=flow)
    new += _damped(cfg, matrices.teleport, matrices.exogenous)
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
    """(matrices, neg, centroids): the given ones, and what cfg needs from the graph.

    Given centroids are checked and come back as float64.
    """
    discrete = cfg.mode == "discrete"
    if centroids is not None:
        centroids = _checked_centroids(centroids, graph.dim)
    elif matrices is None if discrete else cfg.gates.needs_distributions():
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
    positive edges only; continuous mode refuses either.  An ``initial``
    state must hold the graph's agents in order, one finite row each of the
    mode's width.  Given centroids must be (D, E) over the graph's dim,
    finite, with no degenerate row.

    Non-convergence is reported through state.converged rather than raised,
    so callers can decide how loudly to fail.
    """
    matrices, neg, centroids = _engine_inputs(graph, cfg, matrices, neg, centroids)
    if neg is not None:
        if cfg.mode != "discrete":
            raise ValidationError("negative edges run in discrete mode only")
        cfg.check_negative_stability()
    if matrices is not None and cfg.mode != "discrete":
        raise ValidationError("domain matrices run in discrete mode only")
    state = initial if initial is not None else init_state(graph, cfg, matrices)
    if state.mode != cfg.mode:
        raise ValidationError("initial state mode does not match config")
    if initial is not None:
        width = graph.dim if cfg.mode == "continuous" else matrices.teleport.shape[1]
        _check_state(state, (graph.n_agents, width), graph.agents.id)
        _require_finite(state.vectors, "initial state rows")
    if cfg.mode == "continuous":
        plan = _continuous_plan(graph, cfg, centroids)
        step = functools.partial(_step_continuous, graph=graph, cfg=cfg, plan=plan)
    else:
        step = functools.partial(step_discrete, matrices=matrices, cfg=cfg, neg=neg)
    start = state.iterations
    for _ in range(cfg.max_iters):
        state, residual = step(state)
        if residual < cfg.epsilon:
            state.converged = True
            break
    if not state.converged:
        logger.warning(
            "propagation did not converge in %d iterations (residual %.3g)",
            state.iterations - start,
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
    Missing inputs are built from the updated graph, as in ``run``.  Every
    row of ``previous`` must be finite, also those of agents that left.
    """
    if previous.mode != cfg.mode:
        raise ValidationError("previous state mode does not match config")
    _require_finite(previous.vectors, "previous state rows")
    matrices, neg, centroids = _engine_inputs(graph, cfg, matrices, neg, centroids)
    base = init_state(graph, cfg, matrices)
    width = base.vectors.shape[1]
    if previous.vectors.shape[1] != width:
        raise ValidationError("previous state width does not match the new graph")
    lookup = {aid: i for i, aid in enumerate(previous.agent_ids)}
    ids = base.agent_ids
    row = np.fromiter((lookup.get(aid, -1) for aid in ids), np.intp, len(ids))
    kept = row >= 0
    base.vectors[kept] = previous.vectors[row[kept]]
    return run(graph, cfg, initial=base, matrices=matrices, neg=neg, centroids=centroids)


# --- analysis helpers ---------------------------------------------------------


def steady_state_bound(
    teleport: np.ndarray, exogenous: np.ndarray, alpha: float
) -> float:
    """Magnitude ceiling implied by damping: ||T||_F + ||C||_F / (1 - alpha),
    each norm by ``row_norms`` over the elements in ``np.linalg.norm``'s order.

    Exogenous authority escapes damping, hence the 1/(1-alpha) factor; no
    amount of edge rewiring lifts a converged state past this ceiling.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    t, c = (float(row_norms(np.ravel(m, order="K")[None, :])[0]) for m in (teleport, exogenous))
    return t + c / (1.0 - alpha)


def self_alignment(state: ReputationState, graph: NormalizedGraph) -> dict[str, float]:
    """cos(R[j], T[j]) per agent: how on-profile each reputation stayed.

    Agents with a zero reputation or teleport row are omitted.
    """
    if state.mode != "continuous":
        raise ValidationError("self_alignment applies to continuous states")
    out: dict[str, float] = {}
    for i, aid in enumerate(graph.agents.id):
        with contextlib.suppress(ValidationError):  # a zero row has no cosine
            out[aid] = cosine(state.vectors[i], graph.teleport[i])
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
        if norm < DEGENERATE_NORM:
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
