"""Output checks.  Each returns None when the output is right, else a reason.

The references here are computed by the benchmark itself with numpy, never
by calling the function under test a second time.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from trustprop.files import snapshot_from_json
from trustprop.propagation import run, steady_state_bound

TOP_K = 10
SCORE_RTOL = 1e-9


def fixed_point(state, graph, cfg, **run_kwargs) -> str | None:
    """Converged, and one more iteration from the state moves it less than eps."""
    if not state.converged:
        return f"did not converge in {state.iterations} iterations"
    again = run(graph, replace(cfg, max_iters=1), initial=state, **run_kwargs)
    residual = again.residuals[-1]
    if not residual < cfg.epsilon:
        return f"one more iteration moved the state by {residual:.3g} >= {cfg.epsilon}"
    return None


def within_steady_bound(state, graph, alpha: float) -> str | None:
    bound = steady_state_bound(graph.teleport, graph.exogenous, alpha)
    total = float(np.linalg.norm(state.vectors))
    if not total <= bound + 1e-6:
        return f"state norm {total:.6g} exceeds the steady-state bound {bound:.6g}"
    return None


def non_negative(state) -> str | None:
    low = float(state.vectors.min()) if state.vectors.size else 0.0
    return None if low >= 0.0 else f"flagged discrete state has a negative entry {low:.3g}"


def snapshot_round_trip(text: str, state) -> str | None:
    """The written snapshot reads back to the state bit for bit."""
    back, _, _ = snapshot_from_json(text)
    if back.agent_ids != state.agent_ids:
        return "snapshot agent ids differ from the state"
    if back.vectors.dtype != state.vectors.dtype or back.vectors.shape != state.vectors.shape:
        return "snapshot vectors differ in shape or dtype"
    if back.vectors.tobytes() != state.vectors.tobytes():
        return "snapshot vectors differ from the state bit for bit"
    return None


def reference_scores(vectors: np.ndarray, q: np.ndarray, strategy: str) -> np.ndarray:
    """What ``score_dot`` (dot) and ``score_mixed`` (cosine, mixed) rank by."""
    dots = vectors @ q
    if strategy == "dot":
        return dots
    norms = np.linalg.norm(vectors, axis=1)
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
    if strategy == "cosine":
        return np.where(norms > 0, cos, 0.0)
    if strategy == "mixed":  # power variant, beta_mix = 0.5
        return np.where(norms > 0, cos * np.sqrt(norms), 0.0)
    raise ValueError(f"no reference for strategy {strategy!r}")


def reference_top_k(ids, scores: np.ndarray, k: int = TOP_K) -> list[tuple[str, float]]:
    """Top k by score descending, ties broken by ascending id."""
    order = np.lexsort((np.asarray(ids), -scores))[:k]
    return [(ids[i], float(scores[i])) for i in order]


def ranking_valid(ranked, ids) -> str | None:
    """Every agent listed exactly once, scores non-increasing."""
    seen = [aid for aid, _ in ranked]
    if len(seen) != len(ids) or set(seen) != set(ids):
        return f"ranking lists {len(set(seen))} distinct of {len(ids)} agents ({len(seen)} rows)"
    scores = np.fromiter((s for _, s in ranked), dtype=np.float64, count=len(ranked))
    if np.any(np.diff(scores) > 0):
        return "ranking scores increase somewhere"
    return None


def ranking_matches(ranked, reference) -> str | None:
    """The ranking's head equals the numpy reference top k."""
    head = ranked[: len(reference)]
    if [a for a, _ in head] != [a for a, _ in reference]:
        return "top-k ids differ from the numpy reference"
    for (_, got), (_, want) in zip(head, reference):
        if not abs(got - want) <= SCORE_RTOL * max(1.0, abs(want)):
            return f"top-k score {got!r} differs from the reference {want!r}"
    return None
