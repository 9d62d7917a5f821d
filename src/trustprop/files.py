"""File formats: line-delimited JSON corpora, state snapshots, flat configs.

All floats are serialized as their shortest round-trip decimal (what
``repr`` produces), so write → read → write is byte-stable and loaded
arrays are bit-identical to the originals.

Every JSON text is parsed by ``_loads``: orjson, with ``json.loads`` for the
text orjson rejects.  Snapshots are written as ``json.dumps(obj, indent=2)``
would write them, with the agent rows encoded by the C encoder.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import replace
from pathlib import Path
from typing import Any, TypeVar

import numpy as np
import orjson

from .errors import ValidationError
from .gates import (
    ConfidenceGateConfig,
    EntropyGateConfig,
    GateStack,
    KlGateConfig,
    MagnitudeGateConfig,
)
from .graph import Agent, Edge, WeightConfig
from .operators import OperatorKind
from .propagation import PropagationConfig, ReputationState
from .retrieval import STRATEGIES, VARIANTS, Query
from .vectorspace import center_and_normalize, fit_centering, row_norms

# --- flat config --------------------------------------------------------------

# (type, default) per dotted key; bool before int because bool is an int.
CONFIG_DEFAULTS: dict[str, tuple[type, Any]] = {
    "propagation.alpha": (float, 0.85),
    "propagation.epsilon": (float, 1e-4),
    "propagation.max_iters": (int, 200),
    "propagation.beta": (float, 0.15),
    "propagation.mode": (str, "continuous"),
    "propagation.operator": (str, "projection"),
    "propagation.hybrid_gamma": (float, 0.5),
    "propagation.hybrid_mode": (str, "per_edge_select"),
    "propagation.normalize_each_iter": (bool, False),
    "propagation.clamp_floor": (bool, True),
    "propagation.couple_c_with_damping": (bool, False),
    "propagation.top_k": (int, 1),
    "gates.kl.enabled": (bool, False),
    "gates.kl.lambda": (float, 1.0),
    "gates.kl.form": (str, "cosine_proxy"),
    "gates.entropy.enabled": (bool, False),
    "gates.entropy.strength": (float, 1.0),
    "gates.magnitude.enabled": (bool, False),
    "gates.confidence.enabled": (bool, False),
    "gates.confidence.default": (float, 0.5),
    "weights.payment_multiplier": (float, 3.0),
    "weights.blind_discount": (float, 0.3),
    "weights.same_owner_discount": (float, 0.1),
    "weights.verified_flag_multiplier": (float, 6.0),
    "corpus.seed": (int, 42),
    "corpus.n_agents": (int, 50),
    "corpus.hubs": (int, 5),
    "corpus.dormant": (int, 4),
    "corpus.malicious": (int, 2),
    "corpus.specialists": (int, 6),
    "corpus.labeled_edges": (int, 70),
    "corpus.payment_edges": (int, 14),
    "corpus.blind_edges": (int, 612),
    "corpus.n_queries": (int, 10),
    "corpus.cross_domain_queries": (int, 2),
    "corpus.embedding_dim": (int, 64),
    "corpus.exogenous_scale": (float, 0.5),
    "corpus.anisotropy": (float, 0.0),
    "retrieval.strategy": (str, "dot"),
    "retrieval.beta_mix": (float, 0.5),
    "retrieval.variant": (str, "power"),
    "retrieval.k": (int, 5),
    "attack.scenario": (str, "cross_domain_sybil"),
    "attack.flag_severity": (float, 0.95),
}

# Keys whose value must be one of a fixed set, checked when a config is read.
CONFIG_CHOICES: dict[str, tuple[str, ...]] = {
    "retrieval.strategy": STRATEGIES,
    "retrieval.variant": VARIANTS,
}


def _coerce(key: str, raw: str) -> Any:
    typ, _ = CONFIG_DEFAULTS[key]
    if typ is bool:
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ValidationError(f"config key {key!r}: expected boolean, got {raw!r}")
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from exc
    choices = CONFIG_CHOICES.get(key)
    if choices is not None and value not in choices:
        raise ValidationError(
            f"config key {key!r}: {value!r} is not one of {', '.join(choices)}"
        )
    return value


def parse_config(text: str) -> dict[str, Any]:
    """Parse ``key = value`` lines; unknown keys are errors, comments allowed."""
    cfg = {key: default for key, (_, default) in CONFIG_DEFAULTS.items()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        cfg[key] = _coerce(key, value.strip())
    return cfg


def load_config(path: str | Path | None) -> dict[str, Any]:
    if path is None:
        return {key: default for key, (_, default) in CONFIG_DEFAULTS.items()}
    return parse_config(Path(path).read_text())


def config_digest(cfg: Mapping[str, Any]) -> str:
    """Stable sha256 over the fully resolved config."""
    lines = [f"{key} = {cfg[key]!r}" for key in sorted(cfg)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def propagation_config(cfg: Mapping[str, Any]) -> PropagationConfig:
    op_name = cfg["propagation.operator"]
    if op_name == "hybrid":
        operator = OperatorKind(
            "hybrid",
            hybrid_gamma=cfg["propagation.hybrid_gamma"],
            hybrid_mode=cfg["propagation.hybrid_mode"],
        )
    else:
        operator = OperatorKind.from_name(op_name)
    gates = GateStack(
        kl=KlGateConfig(
            enabled=cfg["gates.kl.enabled"],
            lam=cfg["gates.kl.lambda"],
            form=cfg["gates.kl.form"],
        ),
        entropy=EntropyGateConfig(
            enabled=cfg["gates.entropy.enabled"],
            strength=cfg["gates.entropy.strength"],
        ),
        magnitude_ratio=MagnitudeGateConfig(enabled=cfg["gates.magnitude.enabled"]),
        confidence=ConfidenceGateConfig(
            enabled=cfg["gates.confidence.enabled"],
            default_confidence=cfg["gates.confidence.default"],
        ),
    )
    return PropagationConfig(
        alpha=cfg["propagation.alpha"],
        epsilon=cfg["propagation.epsilon"],
        max_iters=cfg["propagation.max_iters"],
        beta=cfg["propagation.beta"],
        mode=cfg["propagation.mode"],
        operator=operator,
        gates=gates,
        normalize_each_iter=cfg["propagation.normalize_each_iter"],
        clamp_floor=cfg["propagation.clamp_floor"],
        couple_c_with_damping=cfg["propagation.couple_c_with_damping"],
        top_k=cfg["propagation.top_k"],
    )


def weight_config(cfg: Mapping[str, Any]) -> WeightConfig:
    return WeightConfig(
        payment_multiplier=cfg["weights.payment_multiplier"],
        blind_discount=cfg["weights.blind_discount"],
        same_owner_discount=cfg["weights.same_owner_discount"],
        verified_flag_multiplier=cfg["weights.verified_flag_multiplier"],
    )


# --- JSONL corpora ------------------------------------------------------------

_T = TypeVar("_T")


def _vec(arr: np.ndarray) -> list[float]:
    return [float(x) for x in arr]


def _dump_line(record: dict[str, Any]) -> str:
    return json.dumps(record, separators=(", ", ": "))


def agents_to_jsonl(agents: Iterable[Agent]) -> str:
    lines = []
    for a in agents:
        record: dict[str, Any] = {
            "id": a.id,
            "primary_domain": a.primary_domain,
            "secondary_domains": list(a.secondary_domains),
            "profile": _vec(a.profile),
            "teleport": _vec(a.teleport),
            "exogenous": _vec(a.exogenous),
            "archetype": a.archetype,
        }
        if a.owner_key is not None:
            record["owner_key"] = a.owner_key
        if a.description:
            record["description"] = a.description
        lines.append(_dump_line(record))
    return "\n".join(lines) + "\n"


def _loads(text: str, where: str) -> Any:
    """Parse one JSON text as ``json.loads`` would; ``where`` prefixes errors.

    orjson parses to the same values, floats bit for bit, and rejects what
    it does not take: NaN and Infinity tokens, literals that overflow to
    inf such as 1e999, lone surrogates.  ``json.loads`` then reads that
    text, so it is accepted or rejected as ``json.loads`` decides, and its
    message is the one in the error.  One difference remains: orjson
    returns an integer literal outside the 64-bit range as a float, where
    ``json.loads`` gives an int.  Every numeric field goes through
    ``float()`` or a range check, so no record or state changes.  orjson
    has no nesting limit; a nested line that orjson rejects can still hit
    the recursion limit of ``json.loads``, which is an error here too.
    """
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(text)
    # ValueError: json.JSONDecodeError, or an int of more than 4300 digits.
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{where}: invalid json ({exc})") from exc


def _records(text: str, what: str) -> Iterator[tuple[int, dict[str, Any]]]:
    """(line number, record) per non-blank line, split lazily on "\n" only:
    U+2028, U+2029 and U+0085 may appear raw inside JSON strings, and a
    "\r" before the "\n" is JSON whitespace."""
    start = lineno = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end]
        start, lineno = end + 1, lineno + 1
        if not line or line.isspace():
            continue
        rec = _loads(line, f"{what} line {lineno}")
        if not isinstance(rec, dict):
            raise ValidationError(
                f"{what} line {lineno}: expected a JSON object, got {type(rec).__name__}"
            )
        yield lineno, rec


def _read(text: str, what: str, build: Callable[[dict[str, Any]], _T]) -> list[_T]:
    """``build`` over the records of ``text``; its errors name the line."""
    out = []
    for lineno, rec in _records(text, what):
        try:
            out.append(build(rec))
        except KeyError as exc:
            raise ValidationError(f"{what} line {lineno}: missing field {exc}") from exc
        # ValidationError is a ValueError; TypeError is, say, an unhashable domain.
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{what} line {lineno}: {exc}") from exc
    return out


def _agent(rec: dict[str, Any]) -> Agent:
    return Agent(
        id=rec["id"],
        primary_domain=rec["primary_domain"],
        secondary_domains=rec.get("secondary_domains", ()),
        profile=np.asarray(rec["profile"], dtype=float),
        teleport=np.asarray(rec["teleport"], dtype=float),
        exogenous=np.asarray(rec["exogenous"], dtype=float),
        archetype=rec.get("archetype", "active"),
        owner_key=rec.get("owner_key"),
        description=rec.get("description", ""),
    )


def agents_from_jsonl(text: str) -> list[Agent]:
    return _read(text, "agents", _agent)


def edges_to_jsonl(edges: Iterable[Edge]) -> str:
    lines = []
    for e in edges:
        record: dict[str, Any] = {
            "sender": e.sender,
            "receiver": e.receiver,
            "kind": e.kind,
            "base_weight": e.base_weight,
        }
        if e.content is not None:
            record["content"] = _vec(e.content)
        record["payment"] = e.payment
        if e.kind == "flag":
            record["verified"] = e.verified
            record["severity"] = e.severity
        if e.confidence is not None:
            record["confidence"] = e.confidence
        lines.append(_dump_line(record))
    return "\n".join(lines) + "\n"


def _edge(rec: dict[str, Any]) -> Edge:
    content = rec.get("content")
    kind = rec["kind"]
    return Edge(
        sender=rec["sender"],
        receiver=rec["receiver"],
        kind=kind,
        base_weight=rec.get("base_weight", 1.0),
        content=None if content is None else np.asarray(content, dtype=float),
        payment=rec.get("payment", False),
        verified=rec.get("verified", False),
        severity=rec.get("severity") if kind == "flag" else None,
        confidence=rec.get("confidence"),
    )


def edges_from_jsonl(text: str) -> list[Edge]:
    return _read(text, "edges", _edge)


def queries_to_jsonl(queries: Iterable[Query]) -> str:
    lines = []
    for q in queries:
        record = {
            "id": q.id,
            "text": q.text,
            "embedding": _vec(q.embedding),
            "expected_domains": sorted(q.expected_domains),
        }
        lines.append(_dump_line(record))
    return "\n".join(lines) + "\n"


def _query(rec: dict[str, Any]) -> Query:
    return Query(
        id=rec["id"],
        text=rec["text"],
        embedding=np.asarray(rec["embedding"], dtype=float),
        expected_domains=frozenset(rec.get("expected_domains", ())),
    )


def queries_from_jsonl(text: str) -> list[Query]:
    return _read(text, "queries", _query)


def center_corpus(
    agents: Sequence[Agent], edges: Sequence[Edge], queries: Sequence[Query] = ()
) -> tuple[list[Agent], list[Edge], list[Query], np.ndarray]:
    """Fit a mean over every embedding in the files and re-center them all.

    Unit-norm fields (profiles, contents, query embeddings) are centered
    and renormalized; magnitude-carrying fields (teleport, exogenous) keep
    their norms but take the direction of their centered selves.
    Returns the transformed records plus the fitted mean.
    """
    cloud = [a.profile for a in agents]
    cloud += [e.content for e in edges if e.content is not None]
    cloud += [q.embedding for q in queries]
    if not cloud:
        raise ValidationError("nothing to center: no embeddings in the input files")
    model = fit_centering(cloud)

    # Profiles, contents and query embeddings are all unit fields: center
    # the whole cloud in one call, then hand each record its row.
    unit = center_and_normalize(model, np.vstack(cloud))
    n_agents, n_contents = len(agents), len(cloud) - len(agents) - len(queries)
    profiles = unit[:n_agents]
    contents = iter(unit[n_agents : n_agents + n_contents])
    embeddings = unit[n_agents + n_contents :]

    def _recenter_scaled(vectors: list[np.ndarray]) -> np.ndarray:
        out = np.vstack(vectors) if vectors else np.zeros((0, model.dim))
        norms = row_norms(out)
        nonzero = norms != 0.0
        out[nonzero] = norms[nonzero, None] * center_and_normalize(model, out[nonzero])
        return out

    teleports = _recenter_scaled([a.teleport for a in agents])
    exogenous = _recenter_scaled([a.exogenous for a in agents])

    # Agents usually outlive the edges, so each gets arrays of its own rather
    # than views that keep the stacked matrices alive; with views, repeated
    # recomputes reached a higher peak RSS.
    new_agents = [
        replace(
            a,
            profile=profiles[i].copy(),
            teleport=teleports[i].copy(),
            exogenous=exogenous[i].copy(),
        )
        for i, a in enumerate(agents)
    ]
    new_edges = [
        e if e.content is None else replace(e, content=next(contents)) for e in edges
    ]
    new_queries = [replace(q, embedding=embeddings[i]) for i, q in enumerate(queries)]
    return new_agents, new_edges, new_queries, model.mean


# --- snapshots ----------------------------------------------------------------


# The C encoder with these separators writes a list of floats as
# ``json.dumps(indent=2)`` writes an agent's "r" row, three levels deep.
_encode_row = json.JSONEncoder(separators=(",\n" + " " * 8, ": ")).encode


def _agents_json(ids: Sequence[str], rows: list[list[float]]) -> str:
    """The snapshot's "agents" array as ``json.dumps(indent=2)`` writes it."""
    if not ids:
        return "[]"
    items = [
        '    {\n      "id": ' + json.dumps(aid) + ',\n      "r": '
        + ("[\n        " + _encode_row(row)[1:-1] + "\n      ]" if row else "[]")
        + "\n    }"
        for aid, row in zip(ids, rows, strict=True)
    ]
    return "[\n" + ",\n".join(items) + "\n  ]"


def snapshot_to_json(
    state: ReputationState, digest: str, mean: np.ndarray | None = None
) -> str:
    """``json.dumps(obj, indent=2)`` of the state, byte for byte, plus "\n"."""
    n, width = state.vectors.shape
    width_key = "E" if state.mode == "continuous" else "D"
    head = {
        "dims": {"N": n, width_key: width},
        "mean": _vec(mean) if mean is not None else [],
    }
    tail = {
        "config_digest": digest,
        "mode": state.mode,
        "iterations": state.iterations,
        "converged": state.converged,
        "residuals": list(state.residuals),
    }
    rows = np.asarray(state.vectors, dtype=float).tolist()
    # head ends "\n}" and tail starts "{": the agents array goes between.
    return (
        json.dumps(head, indent=2)[:-2]
        + ',\n  "agents": '
        + _agents_json(state.agent_ids, rows)
        + ","
        + json.dumps(tail, indent=2)[1:]
        + "\n"
    )


def snapshot_from_json(text: str) -> tuple[ReputationState, str, np.ndarray]:
    obj = _loads(text, "snapshot")
    if not isinstance(obj, dict):
        raise ValidationError("snapshot must be a JSON object")
    for key in ("dims", "agents"):
        if key not in obj:
            raise ValidationError(f"snapshot: missing field {key!r}")
    dims, agents = obj["dims"], obj["agents"]
    if not isinstance(dims, dict):
        raise ValidationError("snapshot dims must be a JSON object")
    width_key = "E" if "E" in dims else "D"
    if "N" not in dims or width_key not in dims:
        raise ValidationError("snapshot dims need 'N' and a width 'E' or 'D'")
    if not isinstance(agents, list):
        raise ValidationError("snapshot agents must be a JSON array")
    for i, rec in enumerate(agents):
        if not isinstance(rec, dict):
            raise ValidationError(f"snapshot agent {i}: must be a JSON object")
        for key in ("id", "r"):
            if key not in rec:
                raise ValidationError(f"snapshot agent {i}: missing field {key!r}")
    ids = tuple(rec["id"] for rec in agents)
    if not all(isinstance(aid, str) for aid in ids):
        raise ValidationError("snapshot: agent ids must be strings")
    if len(set(ids)) != len(ids):
        dup = next(aid for i, aid in enumerate(ids) if aid in ids[:i])
        raise ValidationError(f"snapshot: duplicate agent id {dup!r}")
    vectors = np.asarray([rec["r"] for rec in agents], dtype=float)
    if vectors.shape != (dims["N"], dims[width_key]):
        raise ValidationError("snapshot dims disagree with agent rows")
    mean = np.asarray(obj.get("mean", []), dtype=float)
    residuals = np.asarray(obj.get("residuals", []), dtype=float)
    # _loads reads NaN and Infinity tokens, and 1e999 as inf.
    for name, values in (("agent rows", vectors), ("mean", mean), ("residuals", residuals)):
        if not np.isfinite(values).all():
            raise ValidationError(f"snapshot: {name} must be finite")
    state = ReputationState(
        vectors=vectors,
        agent_ids=ids,
        mode=obj.get("mode", "continuous"),
        iterations=obj.get("iterations", 0),
        residuals=tuple(residuals.tolist()),
        converged=obj.get("converged", False),
    )
    return state, obj.get("config_digest", ""), mean


def residuals_to_csv(residuals: Sequence[float]) -> str:
    lines = ["iteration,residual"]
    for i, r in enumerate(residuals, start=1):
        lines.append(f"{i},{r!r}")
    return "\n".join(lines) + "\n"
