"""File formats: line-delimited JSON corpora, state snapshots, flat configs.

Every JSON text is written by ``_dumps`` and parsed by ``_loads``.  The
writer is orjson: floats in their shortest round-trip digits, so loaded
arrays are bit-identical to the originals and write → read → write is
byte-stable, and text as raw UTF-8.  The reader is orjson, with
``json.loads`` for the text orjson rejects.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from itertools import repeat
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import MISSING, fields as dataclass_fields, replace
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
    FieldTable,
    WeightConfig,
    first_duplicate,
    one_of,
)
from .harness import INJECTORS, CorpusSpec
from .operators import OperatorKind
from .propagation import MODES, PropagationConfig, ReputationState
from .retrieval import QUERY_FIELDS, STRATEGIES, VARIANTS, Query
from .vectorspace import center_and_normalize, fit_centering, row_norms

# --- flat config --------------------------------------------------------------

def _section_defaults(prefix: str, record: type) -> dict[str, tuple[type, Any]]:
    """(type, default) per key of a section whose keys are ``record``'s fields,
    but for a field with no plain default (a record of its own)."""
    fields = [f for f in dataclass_fields(record) if f.default is not MISSING]
    return {f"{prefix}.{f.name}": (type(f.default), f.default) for f in fields}


# (type, default) per dotted key; a record's fields name and default its section.
CONFIG_DEFAULTS: dict[str, tuple[type, Any]] = {
    **_section_defaults("propagation", PropagationConfig),
    "propagation.operator": (str, "projection"),
    "propagation.hybrid_gamma": (float, 0.5),
    "propagation.hybrid_mode": (str, "per_edge_select"),
    "gates.kl.enabled": (bool, False),
    "gates.kl.lambda": (float, 1.0),
    "gates.kl.form": (str, "cosine_proxy"),
    **_section_defaults("gates.entropy", EntropyGateConfig),
    **_section_defaults("gates.magnitude", MagnitudeGateConfig),
    "gates.confidence.enabled": (bool, False),
    "gates.confidence.default": (float, 0.5),
    **_section_defaults("weights", WeightConfig),
    **_section_defaults("corpus", CorpusSpec),
    "retrieval.strategy": (str, "dot"),
    "retrieval.beta_mix": (float, 0.5),
    "retrieval.variant": (str, "power"),
    "retrieval.k": (int, 5),
    "attack.scenario": (str, "cross_domain_sybil"),
    "attack.flag_severity": (float, 0.95),
}

# Keys whose value must be one of a fixed set, or lie in a closed range,
# checked when a config is read; every float must also be finite.
CONFIG_CHOICES: dict[str, tuple[str, ...]] = {
    "retrieval.strategy": STRATEGIES,
    "retrieval.variant": VARIANTS,
    "attack.scenario": tuple(INJECTORS),
}
CONFIG_RANGES: dict[str, tuple[float, float]] = {
    "retrieval.k": (1, math.inf),
    "retrieval.beta_mix": (0.0, math.inf),
    "attack.flag_severity": (0.0, 1.0),
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
    if typ is float and not math.isfinite(value):
        raise ValidationError(f"config key {key!r}: must be finite, got {raw!r}")
    choices = CONFIG_CHOICES.get(key)
    if choices is not None and value not in choices:
        raise ValidationError(
            f"config key {key!r}: {value!r} is not one of {', '.join(choices)}"
        )
    low, high = CONFIG_RANGES.get(key, (None, None))
    if low is not None and not low <= value <= high:
        bound = f"lie in [{low}, {high}]" if high < math.inf else f"be >= {low}"
        raise ValidationError(f"config key {key!r}: must {bound}, got {raw!r}")
    return value


def parse_config(text: str) -> dict[str, Any]:
    """Parse ``key = value`` lines; unknown keys are errors, comments allowed.
    Each key is checked, then every config record is built, so its rules run."""
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
    propagation_config(cfg)
    weight_config(cfg)
    corpus_spec(cfg)
    return cfg


def load_config(path: str | Path | None) -> dict[str, Any]:
    if path is None:
        return {key: default for key, (_, default) in CONFIG_DEFAULTS.items()}
    return parse_config(Path(path).read_text(encoding="utf-8"))


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


def corpus_spec(cfg: Mapping[str, Any]) -> CorpusSpec:
    return CorpusSpec(**config_section(cfg, "corpus"))


# --- JSON text ----------------------------------------------------------------

def _dumps(obj: Any, where: str, option: int = 0) -> bytes:
    """The one JSON writer: ``obj`` as orjson writes it, numpy arrays as
    lists; ``where`` prefixes errors.

    A string that UTF-8 cannot encode raises a ValidationError naming it.
    orjson writes a non-finite float as null: callers keep those out.
    """
    try:
        return orjson.dumps(obj, option=option | orjson.OPT_SERIALIZE_NUMPY)
    except orjson.JSONEncodeError as exc:
        bad = _lone_surrogate(obj)
        if bad is None:
            raise
        raise ValidationError(f"{where}: {bad!r} holds a lone surrogate, not UTF-8 text") from exc


# What UTF-8 cannot encode: a lone surrogate, which json.loads reads from an escape.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _lone_surrogate(obj: Any) -> str | None:
    """The first string in ``obj``, a key or a value at any depth, that holds
    a lone surrogate, or None."""
    if isinstance(obj, dict):
        obj = [*obj, *obj.values()]
    if isinstance(obj, (list, tuple)):
        return next(filter(None, map(_lone_surrogate, obj)), None)
    return obj if isinstance(obj, str) and _SURROGATE.search(obj) else None


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


# --- JSONL corpora ------------------------------------------------------------

def _jsonl(records: Iterable[Any], table: tuple[Field, ...], what: str) -> str:
    """A JSON line per record: each field its ``write`` rule keeps, in table
    order; a set as its sorted list, a vector as a C-ordered copy if not one."""
    lines = []
    for record in records:
        obj = {f.key: getattr(record, f.key) for f in table if f.write is None or f.write(record)}
        for key, value in obj.items():
            if isinstance(value, frozenset):
                obj[key] = sorted(value)
            elif isinstance(value, np.ndarray):
                obj[key] = np.ascontiguousarray(value)
        lines.append(_dumps(obj, what, orjson.OPT_APPEND_NEWLINE))
    return b"".join(lines).decode()


def agents_to_jsonl(agents: Iterable[Agent]) -> str:
    return _jsonl(agents, AGENT_FIELDS, "agents")


def edges_to_jsonl(edges: Iterable[Edge]) -> str:
    return _jsonl(edges, EDGE_FIELDS, "edges")


def queries_to_jsonl(queries: Iterable[Query]) -> str:
    return _jsonl(queries, QUERY_FIELDS, "queries")


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


def _fields(obj: Any, table: tuple[Field, ...], where: str) -> dict[str, Any]:
    """Each of the table's fields of the JSON object ``obj``, type-checked,
    errors prefixed by ``where``: a missing field first, then each field's
    type in table order."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: must be a JSON object")
    try:
        for key, _, default, _ in table:
            if default is MISSING and key not in obj:
                raise ValidationError(f"missing field {key!r}")
        return {key: check(key, obj.get(key, default)) for key, (check, *_), default, _ in table}
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _record(rec: dict[str, Any], where: str, table: FieldTable) -> Any:
    """The record of one JSONL line: its fields read by ``_fields``, then the
    record's rules, their errors prefixed by ``where`` too."""
    fields = _fields(rec, table, where)
    try:
        return table.record(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


# Lines a table reader holds before checking them and stacking their vectors.
READ_BLOCK_ROWS = 4096


def _blocks(text: str, what: str) -> Iterator[tuple[list[int], list[dict[str, Any]]]]:
    """The line numbers and records of ``_records``, ``READ_BLOCK_ROWS`` at a
    time.  A line that is not a JSON object ends the last block before its
    error is raised: a line before it may fail first."""
    linenos: list[int] = []
    recs: list[dict[str, Any]] = []
    try:
        for lineno, rec in _records(text, what):
            linenos.append(lineno)
            recs.append(rec)
            if len(recs) == READ_BLOCK_ROWS:
                yield linenos, recs
                # Freed before the next block is parsed: records held longer
                # make each garbage collector pass longer.
                linenos.clear()
                recs.clear()
    except ValidationError:
        yield linenos, recs
        raise
    yield linenos, recs


def _read_table(text: str, what: str, table: type, unique_ids: bool = False) -> Any:
    """The ``AgentTable`` or ``EdgeTable`` of a JSONL text.

    Lines are parsed one at a time.  Every ``READ_BLOCK_ROWS`` lines, each
    field becomes a column, the table's rules check the columns whole, and
    the vectors become float blocks, so the parsed lines are never all held.
    The columns only say whether a block is clean.  A block that is not is
    read again line by line, as records, and the first error met is raised:
    per line, the record's own (a type or a record rule), then a repeated
    id, then a vector dim other than the first line's.
    """
    fields = table.fields
    blocks: list[Any] = []
    seen: set[str] = set()
    dim = None
    for linenos, recs in _blocks(text, what):
        columns = {
            f.key: list(map(dict.get, recs, repeat(f.key), repeat(f.default))) for f in fields
        }
        checked = table.checked(columns, dim)
        del columns  # freed before the next block is parsed, as in _blocks
        ids = checked[0].id if unique_ids and checked else ()
        if checked is None or len(set(ids)) < len(ids) or not seen.isdisjoint(ids):
            for lineno, rec in zip(linenos, recs):  # raises at the first bad line
                record = _record(rec, f"{what} line {lineno}", fields)
                if unique_ids:
                    if record.id in seen:
                        message = f"duplicate agent id {record.id!r}"
                        raise ValidationError(f"{what} line {lineno}: {message}")
                    seen.add(record.id)
                dim = table.record_dim(record, dim)
        block, dim = checked
        seen.update(ids)
        blocks.append(block)
    return table.concat(blocks)


def agents_from_jsonl(text: str) -> AgentTable:
    return _read_table(text, "agents", AgentTable, unique_ids=True)


def edges_from_jsonl(text: str) -> EdgeTable:
    return _read_table(text, "edges", EdgeTable)


def queries_from_jsonl(text: str) -> list[Query]:
    return [
        _record(rec, f"queries line {lineno}", QUERY_FIELDS)
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
    contents = edges.content.rows
    model = fit_centering([agents.profile, contents] + [q.embedding for q in queries])

    def unit(vectors: np.ndarray) -> np.ndarray:
        return center_and_normalize(model, vectors) if len(vectors) else vectors

    def recenter_scaled(vectors: np.ndarray) -> np.ndarray:
        out = vectors.copy()
        norms = row_norms(out)
        nonzero = norms != 0.0
        if nonzero.any():
            out[nonzero] = norms[nonzero, None] * center_and_normalize(model, out[nonzero])
        return out

    new_agents = replace(
        agents,
        profile=unit(agents.profile),
        teleport=recenter_scaled(agents.teleport),
        exogenous=recenter_scaled(agents.exogenous),
    )
    new_edges = replace(edges, content=edges.content._replace(rows=unit(contents)))
    new_queries = [replace(q, embedding=unit(q.embedding)) for q in queries]
    return new_agents, new_edges, new_queries, model.mean


# --- snapshots ----------------------------------------------------------------


def _check_finite(vectors: np.ndarray, mean: np.ndarray, residuals: np.ndarray) -> None:
    """A snapshot's rows, mean and residuals are finite, when written and when
    read: orjson writes null for a non-finite float, and ``_loads`` reads
    NaN and Infinity tokens, and 1e999 as inf."""
    for name, v in (("agent rows", vectors), ("mean", mean), ("residuals", residuals)):
        if not np.isfinite(v).all():
            raise ValidationError(f"snapshot: {name} must be finite")


def snapshot_to_json(
    state: ReputationState, digest: str, mean: np.ndarray | None = None
) -> str:
    """The state, indented by two spaces, plus "\n"."""
    vectors = np.ascontiguousarray(state.vectors, dtype=float)
    mean = np.ascontiguousarray(mean if mean is not None else (), dtype=float)
    residuals = np.array(state.residuals, dtype=float)
    _check_finite(vectors, mean, residuals)
    width_key = "E" if state.mode == "continuous" else "D"
    obj = {
        "dims": {"N": vectors.shape[0], width_key: vectors.shape[1]},
        "mean": mean,
        "agents": [
            {"id": aid, "r": row} for aid, row in zip(state.agent_ids, vectors, strict=True)
        ],
        "config_digest": digest,
        "mode": state.mode,
        "iterations": state.iterations,
        "converged": state.converged,
        "residuals": residuals,
    }
    option = orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE
    return _dumps(obj, "snapshot", option).decode()


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
    ids = STRING.column("id", [entry["id"] for entry in entries])
    if ids is None:
        raise ValidationError("snapshot: agent ids must be strings")
    ids = tuple(ids)
    dup = first_duplicate(ids)
    if dup is not None:
        raise ValidationError(f"snapshot: duplicate agent id {dup!r}")
    try:  # (N, width) rows, also for N = 0
        vectors = np.array([entry["r"] for entry in entries]) if entries else np.zeros((0, width))
    except (TypeError, ValueError, OverflowError):  # rows of different lengths, a bad width
        vectors = None
    if vectors is None or vectors.shape != (n, width):
        raise ValidationError("snapshot dims disagree with agent rows")
    _check_finite(vectors, mean, fields["residuals"])
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


# --- CSV ----------------------------------------------------------------------


def csv_text(rows: Iterable[Sequence[object]]) -> str:
    """Rows as CSV text, each ending in a newline: the writer of every CSV file.

    A field holding a comma, a quote or a newline is quoted, its quotes
    doubled.  A row with a carriage return in any field has every field
    quoted, since ``csv.writer`` quotes only for the characters of its line
    terminator and a reader ends a record at a bare carriage return.
    """
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any("\r" in str(f) for f in row) else plain).writerow(row)
    return out.getvalue()


def residuals_to_csv(residuals: Sequence[float]) -> str:
    return csv_text([("iteration", "residual")]
                    + [(i, repr(r)) for i, r in enumerate(residuals, start=1)])
