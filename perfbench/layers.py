"""Per-layer metrics and the self-time table, read from a traced run's spans.

Each metric is named ``<module>.<quantity>`` after the trustprop module whose
public function the span wraps.  Times are medians over every span of that
name in the run: spans from the workload's own operations where it makes
the call, otherwise from the isolated probe calls on the same data.
"""

from __future__ import annotations

import statistics

import numpy as np

from workloads import CONFIGS, SWEEP, VARIANT_NAMES

BYTES = 8  # float64
STRATEGIES = ("dot", "cosine", "mixed", "pipeline")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    names = {
        "files.ingest_s": "s",
        "files.ingest_mb": "MB",
        "files.center_s": "s",
        "files.snapshot_s": "s",
        "files.snapshot_mb": "MB",
        "graph.normalize_s": "s",
        "graph.pos_edges": "count",
        "graph.neg_edges": "count",
        "propagation.domain_matrices_s": "s",
        "propagation.negative_matrices_s": "s",
    }
    for cfg in CONFIGS:
        names[f"propagation.run_s.{cfg}"] = "s"
        names[f"propagation.iters.{cfg}"] = "count"
        names[f"propagation.iter_ms.{cfg}"] = "ms"
    for cfg in SWEEP:
        names[f"propagation.step_ms.{cfg}"] = "ms"
    names["propagation.warm_iters_p50"] = "count"
    names["propagation.warm_s_p50"] = "s"
    for variant in VARIANT_NAMES.values():
        names[f"operators.transfer_ms.{variant}"] = "ms"
    for variant in VARIANT_NAMES.values():
        names[f"operators.mb.{variant}"] = "MB"
    names["gates.stack_ms"] = "ms"
    names["gates.topic_dist_ms"] = "ms"
    for strategy in STRATEGIES:
        names[f"retrieval.{strategy}_ms_p50"] = "ms"
    names["retrieval.read_p95_ms"] = "ms"
    names["retrieval.bm25_ms"] = "ms"
    names["retrieval.queries"] = "count"
    names["trace.overhead_ms"] = "ms"
    return names


def _median(xs) -> float:
    xs = list(xs)
    if not xs:
        raise ValueError("no samples")
    return float(statistics.median(xs))


def transfer_mb(m: int, dim: int, n_blind: int, variant: str) -> float:
    """Computed compulsory traffic of one ``transfer_batch`` call, in MB.

    Reads the gathered rows and the edge contents once and writes the
    transferred rows once; ``hybrid`` also reads the per-edge blind mask.
    Temporaries and cache misses are not counted.
    """
    total = 3 * m * dim * BYTES
    if variant == "hybrid":
        total += m  # bool mask
    return total / 1e6


def is_op(span) -> bool:
    """True for spans of the traced operations (not set-up, not probe)."""
    return isinstance(span["op"], int)


def layer_metrics(tr, wl) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except the tracing overhead, with units."""
    units = per_layer_names()
    dur = tr.durations
    out: dict[str, float] = {}
    out["files.ingest_s"] = _median(dur("files.ingest"))
    out["files.ingest_mb"] = wl.input_bytes / 1e6
    out["files.center_s"] = _median(dur("files.center_corpus"))
    out["files.snapshot_s"] = _median(dur("files.snapshot"))
    out["files.snapshot_mb"] = _median(tr.counts["files.snapshot_bytes"]) / 1e6
    out["graph.normalize_s"] = _median(dur("graph.normalize"))
    out["graph.pos_edges"] = wl.graph.n_pos_edges
    out["graph.neg_edges"] = wl.graph.n_neg_edges
    out["propagation.domain_matrices_s"] = _median(dur("propagation.build_domain_matrices"))
    out["propagation.negative_matrices_s"] = _median(dur("propagation.build_negative_matrices"))
    for cfg in CONFIGS:
        runs = dur(f"propagation.run.{cfg}")
        iters = tr.counts[f"propagation.iters.{cfg}"]
        out[f"propagation.run_s.{cfg}"] = _median(runs)
        out[f"propagation.iters.{cfg}"] = _median(iters)
        out[f"propagation.iter_ms.{cfg}"] = _median(1e3 * d / i for d, i in zip(runs, iters))
    for cfg in SWEEP:
        out[f"propagation.step_ms.{cfg}"] = 1e3 * _median(dur(f"propagation.step_continuous.{cfg}"))
    out["propagation.warm_iters_p50"] = _median(tr.counts["propagation.warm_iters"])
    out["propagation.warm_s_p50"] = _median(dur("propagation.warm_start"))
    g = wl.graph
    n_blind = int(g.pos_blind.sum())
    for variant in VARIANT_NAMES.values():
        out[f"operators.transfer_ms.{variant}"] = 1e3 * _median(
            dur(f"operators.transfer_batch.{variant}"))
    for variant in VARIANT_NAMES.values():
        out[f"operators.mb.{variant}"] = transfer_mb(g.n_pos_edges, g.dim, n_blind, variant)
    out["gates.stack_ms"] = 1e3 * _median(dur("gates.stack_batch"))
    out["gates.topic_dist_ms"] = 1e3 * _median(dur("gates.topic_distribution_batch"))
    for strategy in STRATEGIES:
        out[f"retrieval.{strategy}_ms_p50"] = 1e3 * _median(dur(f"retrieval.{strategy}"))
    op_reads = [d for s in STRATEGIES for d in dur(f"retrieval.{s}", is_op)]
    out["retrieval.read_p95_ms"] = 1e3 * float(np.percentile(op_reads, 95))
    out["retrieval.bm25_ms"] = 1e3 * _median(dur("retrieval.bm25_scores"))
    out["retrieval.queries"] = len(op_reads)
    return {name: (float(value), units[name]) for name, value in out.items()}


def self_time_table(tr) -> str:
    """Self time per layer in the traced operations, and in set-up and probe."""
    phases = (
        ("operations", is_op),
        ("set-up", lambda s: str(s["op"]).startswith("setup")),
        ("probe", lambda s: s["op"] == "probe"),
    )
    n_ops = len({s["op"] for s in tr.spans if is_op(s)})
    lines = [f"self time per layer (operations: mean per traced operation over {n_ops})"]
    for phase, keep in phases:
        layers = tr.layer_self_times(keep)
        total = sum(layers.values())
        scale = n_ops if phase == "operations" and n_ops else 1
        lines.append(f"  {phase}: {total / scale:.4f} s")
        for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            share = 100 * secs / total if total else 0.0
            lines.append(f"    {layer:<12} {secs / scale:>10.4f} s {share:6.1f}%")
    return "\n".join(lines)
