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
import math
from itertools import repeat
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import MISSING, replace
from pathlib import Path
from typing import Any

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
from .graph import (
    AGENT_FIELDS,
    ANY,
    EDGE_FIELDS,
    Agent,
    AgentTable,
    Edge,
    EdgeTable,
    BOOLEAN,
    INTEGER,
    STRING,
    VECTOR,
    Field,
    WeightConfig,
    one_of,
)
from .operators import OperatorKind
from .propagation import MODES, PropagationConfig, ReputationState
from .retrieval import QUERY_FIELDS, STRATEGIES, VARIANTS, Query
from .vectorspace import CenteringModel, center_and_normalize, row_norms

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

# Keys whose value must be one of a fixed set, or at least a bound, checked
# when a config is read; every float must also be finite.
CONFIG_CHOICES: dict[str, tuple[str, ...]] = {
    "retrieval.strategy": STRATEGIES,
    "retrieval.variant": VARIANTS,
}
CONFIG_MINIMUMS: dict[str, float] = {"retrieval.k": 1, "retrieval.beta_mix": 0.0}


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
    if typ is float and not math.isfinite(value):
        raise ValidationError(f"config key {key!r}: must be finite, got {raw!r}")
    choices = CONFIG_CHOICES.get(key)
    if choices is not None and value not in choices:
        raise ValidationError(
            f"config key {key!r}: {value!r} is not one of {', '.join(choices)}"
        )
    if key in CONFIG_MINIMUMS and not value >= CONFIG_MINIMUMS[key]:
        raise ValidationError(f"config key {key!r}: must be >= {CONFIG_MINIMUMS[key]}, got {raw!r}")
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


def config_section(cfg: Mapping[str, Any], prefix: str) -> dict[str, Any]:
    """The keys under ``prefix.``, named without it: one config record's fields."""
    start = len(prefix) + 1
    return {key[start:]: value for key, value in cfg.items() if key[:start] == prefix + "."}


def propagation_config(cfg: Mapping[str, Any]) -> PropagationConfig:
    prop = config_section(cfg, "propagation")
    names = ("operator", "hybrid_gamma", "hybrid_mode")
    operator = OperatorKind.from_name(*(prop.pop(name) for name in names))
    gates = GateStack(
        kl=KlGateConfig(
            enabled=cfg["gates.kl.enabled"], lam=cfg["gates.kl.lambda"], form=cfg["gates.kl.form"]
        ),
        entropy=EntropyGateConfig(**config_section(cfg, "gates.entropy")),
        magnitude_ratio=MagnitudeGateConfig(**config_section(cfg, "gates.magnitude")),
        confidence=ConfidenceGateConfig(
            enabled=cfg["gates.confidence.enabled"],
            default_confidence=cfg["gates.confidence.default"],
        ),
    )
    return PropagationConfig(**prop, operator=operator, gates=gates)


def weight_config(cfg: Mapping[str, Any]) -> WeightConfig:
    return WeightConfig(**config_section(cfg, "weights"))


# --- JSONL corpora ------------------------------------------------------------

def _jsonl(records: Iterable[Any], table: tuple[Field, ...]) -> str:
    """A JSON line per record: each field its ``write`` rule keeps, in table order."""
    lines = []
    for record in records:
        obj = {f.key: getattr(record, f.key) for f in table if f.write is None or f.write(record)}
        lines.append(json.dumps(obj, separators=(", ", ": "), default=_json_default))
    return "\n".join(lines) + "\n"


def _json_default(value: np.ndarray | frozenset[str]) -> list[Any]:
    return value.tolist() if isinstance(value, np.ndarray) else sorted(value)


def agents_to_jsonl(agents: Iterable[Agent]) -> str:
    return _jsonl(agents, AGENT_FIELDS)


def edges_to_jsonl(edges: Iterable[Edge]) -> str:
    return _jsonl(edges, EDGE_FIELDS)


def queries_to_jsonl(queries: Iterable[Query]) -> str:
    return _jsonl(queries, QUERY_FIELDS)


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


def _record(rec: dict[str, Any], what: str, lineno: int, cls: type, table: tuple[Field, ...]) -> Any:
    """The record of one JSONL line, errors naming the line.  The keys are
    ``cls``'s arguments, so the dataclass fills in defaults and checks types;
    only a record with a key missing or outside the table costs more."""
    try:
        try:
            return cls(**rec)
        except TypeError:
            missing = [f.key for f in table if f.default is MISSING and f.key not in rec]
            if missing:
                raise ValidationError(f"missing field {missing[0]!r}") from None
            return cls(**{f.key: rec[f.key] for f in table if f.key in rec})
    # ValidationError is a ValueError; TypeError is a safety net, and an
    # integer beyond the float range fails float() in the record's rules.
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} line {lineno}: {exc}") from exc


def _first_repeat(ids: list[str], seen: set[str]) -> int:
    """Index of the first id already in ``seen`` or earlier in ``ids``, else
    ``len(ids)``; the ids before it are added to ``seen``."""
    if seen.isdisjoint(ids) and len(set(ids)) == len(ids):
        seen.update(ids)
        return len(ids)
    for i, aid in enumerate(ids):
        if aid in seen:
            return i
        seen.add(aid)
    return len(ids)


# Lines a table reader holds before checking them and stacking their vectors.
READ_BLOCK_ROWS = 4096


def _read_table(text: str, what: str, table: type, unique_ids: bool = False) -> Any:
    """The ``AgentTable`` or ``EdgeTable`` of a JSONL text.

    Lines are parsed one at a time.  Every ``READ_BLOCK_ROWS`` lines, each
    field becomes a column, the table's rules check the columns whole, and
    the vectors become float blocks, so the parsed lines are never all held.
    The error is the first bad line's: that line is built as its record,
    whose checks give the message.  A line that only a rule across lines
    rejects (a duplicate id, a vector dim other than the first line's) gets
    that rule's message.
    """
    fields = table.fields
    recs: list[dict[str, Any]] = []
    linenos: list[int] = []
    blocks: list[Any] = []
    seen: set[str] = set()
    dim = failure = error = None

    def flush() -> tuple[int, dict[str, Any], str | None] | None:
        """Check the held lines; (line number, line, message) of the first bad one."""
        nonlocal dim
        columns = {
            f.key: list(map(dict.get, recs, repeat(f.key), repeat(f.default))) for f in fields
        }
        block, dim, across = table.checked(columns, dim)
        n = len(block)
        failure = (linenos[n], recs[n], across) if n < len(recs) else None
        if unique_ids:
            # A repeated id is rejected before a dim across lines, at the same
            # row too: records were read before normalize checked their dims.
            ids = columns["id"][: n + 1 if across else n]
            first = _first_repeat(ids, seen)
            if first < len(ids):
                lineno = linenos[first]
                message = f"{what} line {lineno}: duplicate agent id {ids[first]!r}"
                failure = lineno, recs[first], message
        blocks.append(block)
        recs.clear()
        linenos.clear()
        return failure

    try:
        for lineno, rec in _records(text, what):
            recs.append(rec)
            linenos.append(lineno)
            if len(recs) == READ_BLOCK_ROWS and (failure := flush()):
                break
    except ValidationError as exc:  # not a JSON object: a line before it may fail first
        error = exc
    failure = failure or flush()
    if failure is not None:
        lineno, rec, message = failure
        _record(rec, what, lineno, fields.record, fields)
        raise ValidationError(message)
    if error is not None:
        raise error
    return table.concat(blocks)


def agents_from_jsonl(text: str) -> AgentTable:
    return _read_table(text, "agents", AgentTable, unique_ids=True)


def edges_from_jsonl(text: str) -> EdgeTable:
    return _read_table(text, "edges", EdgeTable)


def queries_from_jsonl(text: str) -> list[Query]:
    return [
        _record(rec, "queries", lineno, Query, QUERY_FIELDS)
        for lineno, rec in _records(text, "queries")
    ]


def center_corpus(
    agents: AgentTable | Sequence[Agent],
    edges: EdgeTable | Sequence[Edge],
    queries: Sequence[Query] = (),
) -> tuple[AgentTable, EdgeTable, list[Query], np.ndarray]:
    """Fit a mean over every embedding in the files and re-center them all.

    Unit-norm fields (profiles, contents, query embeddings) are centered
    and renormalized; magnitude-carrying fields (teleport, exogenous) keep
    their norms but take the direction of their centered selves.
    Returns the transformed tables and queries plus the fitted mean.
    """
    agents, edges = AgentTable.of(agents), EdgeTable.of(edges)
    parts = [agents.profile, edges.content.rows] + [q.embedding[None, :] for q in queries]
    cloud = [part for part in parts if len(part)]
    if not cloud:
        raise ValidationError("nothing to center: no embeddings in the input files")
    width = cloud[0].shape[1:]
    for part in cloud:
        if part.shape[1:] != width:
            raise ValidationError(
                f"dimension mismatch in centering corpus: {part.shape[1:]} != {width}"
            )
    # Profiles, contents and query embeddings are all unit fields: center
    # the whole cloud in one call.
    stacked = np.vstack(cloud)
    model = CenteringModel(mean=stacked.mean(axis=0), sample_count=len(stacked))
    unit = center_and_normalize(model, stacked)
    n_agents, n_contents = len(agents), len(edges.content.rows)

    def recenter_scaled(vectors: np.ndarray) -> np.ndarray:
        out = vectors.copy()
        norms = row_norms(out)
        nonzero = norms != 0.0
        if nonzero.any():
            out[nonzero] = norms[nonzero, None] * center_and_normalize(model, out[nonzero])
        return out

    # Agents usually outlive the edges, so the profiles get an array of their
    # own rather than a view that keeps the centered contents alive; with
    # views, repeated recomputes reached a higher peak RSS.
    new_agents = replace(
        agents,
        profile=unit[:n_agents].copy(),
        teleport=recenter_scaled(agents.teleport),
        exogenous=recenter_scaled(agents.exogenous),
    )
    contents = unit[n_agents : n_agents + n_contents]
    new_edges = replace(edges, content=edges.content._replace(rows=contents))
    embeddings = unit[n_agents + n_contents :]
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
        "mean": np.asarray(mean, dtype=float).tolist() if mean is not None else [],
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


# A snapshot's fields in written order, and an agent entry's.  ANY marks what is
# checked below: "dims", "agents", and the ids, as a column.
SNAPSHOT_FIELDS = (
    Field("dims", ANY),
    Field("mean", VECTOR, ()),
    Field("agents", ANY),
    Field("config_digest", STRING, ""),
    Field("mode", one_of(*MODES), ReputationState.mode),
    Field("iterations", INTEGER, ReputationState.iterations),
    Field("converged", BOOLEAN, ReputationState.converged),
    Field("residuals", VECTOR, ReputationState.residuals),
)
SNAPSHOT_AGENT_FIELDS = (Field("id", ANY), Field("r", VECTOR))


def _fields(obj: Any, table: tuple[Field, ...], where: str) -> dict[str, Any]:
    """Each of the table's fields of the JSON object ``obj``, type-checked."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: must be a JSON object")
    out = {}
    for key, (check, *_), default, _ in table:
        if key not in obj and default is MISSING:
            raise ValidationError(f"{where}: missing field {key!r}")
        try:
            out[key] = check(key, obj.get(key, default))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    return out


def snapshot_from_json(text: str) -> tuple[ReputationState, str, np.ndarray]:
    obj = _loads(text, "snapshot")
    if not isinstance(obj, dict):
        raise ValidationError("snapshot must be a JSON object")
    fields = _fields(obj, SNAPSHOT_FIELDS, "snapshot")
    dims, agents, mean = fields["dims"], fields["agents"], fields["mean"]
    if not isinstance(dims, dict):
        raise ValidationError("snapshot dims must be a JSON object")
    width_key = "E" if "E" in dims else "D"
    if "N" not in dims or width_key not in dims:
        raise ValidationError("snapshot dims need 'N' and a width 'E' or 'D'")
    sizes = _fields(dims, (Field("N", INTEGER), Field(width_key, INTEGER)), "snapshot dims")
    n, width = sizes.values()
    if n < 0 or width < 0:
        raise ValidationError("snapshot dims must be >= 0")
    if not isinstance(agents, list):
        raise ValidationError("snapshot agents must be a JSON array")
    entries = [
        _fields(rec, SNAPSHOT_AGENT_FIELDS, f"snapshot agent {i}") for i, rec in enumerate(agents)
    ]
    ids, n_strings = STRING.column("id", [entry["id"] for entry in entries])
    if n_strings < len(entries):
        raise ValidationError("snapshot: agent ids must be strings")
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        dup = next(aid for i, aid in enumerate(ids) if aid in ids[:i])
        raise ValidationError(f"snapshot: duplicate agent id {dup!r}")
    try:  # (N, width) rows, also for N = 0
        vectors = np.array([entry["r"] for entry in entries]) if entries else np.zeros((0, width))
    except (TypeError, ValueError, OverflowError):  # rows of different lengths, a bad width
        vectors = None
    if vectors is None or vectors.shape != (n, width):
        raise ValidationError("snapshot dims disagree with agent rows")
    # _loads reads NaN and Infinity tokens, and 1e999 as inf.
    for name, v in (("agent rows", vectors), ("mean", mean), ("residuals", fields["residuals"])):
        if not np.isfinite(v).all():
            raise ValidationError(f"snapshot: {name} must be finite")
    # Queries are centered with the mean, in the space of a continuous state.
    if fields["mode"] == "continuous" and mean.size and mean.shape != (vectors.shape[1],):
        raise ValidationError("snapshot: mean dim does not match the agent rows")
    state = ReputationState(
        vectors=vectors,
        agent_ids=ids,
        mode=fields["mode"],
        iterations=fields["iterations"],
        residuals=tuple(fields["residuals"].tolist()),
        converged=fields["converged"],
    )
    return state, fields["config_digest"], mean


def residuals_to_csv(residuals: Sequence[float]) -> str:
    lines = ["iteration,residual"]
    for i, r in enumerate(residuals, start=1):
        lines.append(f"{i},{r!r}")
    return "\n".join(lines) + "\n"
