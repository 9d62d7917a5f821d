"""Interaction graph: agents, typed edges, evidence weighting, row normalization.

Three edge kinds carry different evidence quality:

- ``labeled``: an interaction with an embedded content vector (strongest).
- ``blind``: a contact event with no observable content; its direction is
  approximated by the midpoint of the two endpoint profiles at a discount.
- ``flag``: an adversarial report that contributes *negative* weight.

Raw positive weights multiply base weight by payment, blind and same-owner
factors, then each sender's outgoing weights are normalized to sum to one.
Flag weights (severity x reporter reputation x verified factor) are normalized
per reporter the same way.

``normalize`` walks the edge records once, for id lookup, weights and
validation; the blind proxies are then computed as arrays by
``blind_proxies`` and written into the (M, E) content matrix a few thousand
rows at a time, so the per-edge temporaries stay small.  Norms come from
``vectorspace.row_norms``, so each proxy is bit-identical to the one a
per-edge computation would give.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import MISSING, dataclass, field
from operator import countOf
from typing import Any, NamedTuple

import numpy as np

from .errors import ValidationError
from .vectorspace import DEGENERATE_NORM, row_norms

EDGE_KINDS = ("labeled", "blind", "flag")
ARCHETYPES = ("hub", "active", "dormant", "malicious")

# Tolerance for "this stored vector should be unit length".
UNIT_TOL = 1e-6

# Blind proxies computed per block in ``normalize``; bounds its temporaries.
PROXY_CHUNK_ROWS = 4096


# --- field tables -------------------------------------------------------------
# Each record kind has one table of Fields, in the order files write them: the
# record's __post_init__ checks its types, and files reads and writes JSONL by it.


class FieldType(NamedTuple):
    """``check(name, value)`` returns the value, converted where the record stores
    another form, or raises ValidationError; values of a type in ``passes`` skip it."""

    check: Callable[[str, Any], Any]
    passes: frozenset[type] = frozenset()


class Field(NamedTuple):
    key: str
    type: FieldType
    default: Any = MISSING  # MISSING: required
    write: Callable[[Any], bool] | None = None  # given the record; None: always


class FieldTable(tuple):
    # (key, check, passes) per field: plain tuples unpack twice as fast as Fields.
    checks: tuple[tuple[str, Callable[[str, Any], Any], frozenset[type]], ...]


def field_table(cls: type, *fields: Field) -> FieldTable:
    """``fields`` with each default taken from the dataclass ``cls``."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    table = FieldTable(f._replace(default=defaults[f.key]) for f in fields)
    table.checks = tuple((f.key, *f.type) for f in table)
    return table


def check_fields(record: Any, table: FieldTable) -> None:
    """Check each field's type, storing the value its check converted."""
    # getattr, not vars(): a record whose __dict__ is read gets slower attributes.
    for key, check, passes in table.checks:
        value = getattr(record, key)
        if type(value) not in passes:
            checked = check(key, value)
            if checked is not value:
                object.__setattr__(record, key, checked)


def _instance_of(what: str, types: tuple[type, ...]) -> Callable[[str, Any], Any]:
    # bool is an int subclass, but true is not a number; "false" is no boolean.
    def check(name: str, value: Any) -> Any:
        if isinstance(value, types) and (type(value) is not bool or bool in types):
            return value
        raise ValidationError(f"{name} must be {what}, got {type(value).__name__}")

    return check


_NUMBERS = (float, int, np.floating, np.integer)


def _vector(name: str, value: Any) -> np.ndarray:
    """A 1-D float64 array, from a numeric array or a list of numbers, which
    np.asarray alone would take with "0.5", true or null entries.  A list's
    entry types are counted in C, and listed only if one is not a float."""
    if isinstance(value, (list, tuple)):
        if countOf(map(type, value), float) != len(value):
            for t in dict.fromkeys(map(type, value)):  # in list order, for a stable message
                if t is bool or not issubclass(t, _NUMBERS):
                    raise ValidationError(f"{name} must be a vector of numbers, not {t.__name__}")
        try:
            return np.fromiter(value, np.float64, len(value))
        except OverflowError as exc:  # an integer beyond the float range
            raise ValidationError(f"{name}: {exc}") from exc
    if not isinstance(value, np.ndarray) or value.dtype.kind not in "fiu" or value.ndim != 1:
        raise ValidationError(f"{name} must be a vector of numbers, got {type(value).__name__}")
    return np.asarray(value, dtype=np.float64)


STRING = FieldType(_instance_of("a string", (str,)), frozenset({str}))
NUMBER = FieldType(_instance_of("a number", _NUMBERS), frozenset({float}))
INTEGER = FieldType(_instance_of("an integer", (int, np.integer)), frozenset({int}))
BOOLEAN = FieldType(_instance_of("a boolean", (bool, np.bool_)), frozenset({bool}))
VECTOR = FieldType(_vector)
ANY = FieldType(lambda name, value: value)  # for a part checked by hand


def strings(into: type) -> FieldType:
    """A list of strings, stored as ``into``: tuple("abc") splits a string."""

    def check(name: str, value: Any) -> Any:
        if not isinstance(value, (list, tuple, into)):
            raise ValidationError(
                f"{name} must be a list of strings, got {type(value).__name__}"
            )
        for entry in value:
            STRING.check(f"{name} entry", entry)
        return value if type(value) is into else into(value)

    return FieldType(check)


def one_of(*choices: str) -> FieldType:
    def check(name: str, value: Any) -> str:
        if isinstance(value, str) and value in choices:
            return value
        # A list by its type: the repr of a deeply nested one fails.
        got = repr(value) if isinstance(value, str) else type(value).__name__
        raise ValidationError(f"{name} must be one of {', '.join(choices)}, got {got}")

    return FieldType(check)


def optional(inner: FieldType) -> FieldType:
    def check(name: str, value: Any) -> Any:
        return None if value is None else inner.check(name, value)

    return FieldType(check, inner.passes | {type(None)})


# --- records ------------------------------------------------------------------


@dataclass
class Agent:
    """A participant with a profile direction and reputation priors.

    ``teleport`` anchors the damped iteration (prior reputation mass);
    ``exogenous`` is authority injected from outside the graph, e.g. vetted
    credentials, and is immune to edge evidence.
    """

    id: str
    primary_domain: str
    profile: np.ndarray
    teleport: np.ndarray
    exogenous: np.ndarray
    secondary_domains: tuple[str, ...] = ()
    archetype: str = "active"
    owner_key: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        check_fields(self, AGENT_FIELDS)
        if not self.id:
            raise ValidationError("agent id must be non-empty")
        # Written as "not <=" so that a NaN norm fails the check too.
        if not abs(float(np.linalg.norm(self.profile)) - 1.0) <= UNIT_TOL:
            raise ValidationError(f"agent {self.id}: profile must be unit length")
        for name, vec in (("teleport", self.teleport), ("exogenous", self.exogenous)):
            if vec.shape != self.profile.shape:
                raise ValidationError(
                    f"agent {self.id}: {name} dim {vec.shape} != profile {self.profile.shape}"
                )
            if not np.isfinite(vec).all():
                raise ValidationError(f"agent {self.id}: {name} must be finite")


AGENT_FIELDS = field_table(
    Agent,
    Field("id", STRING),
    Field("primary_domain", STRING),
    Field("secondary_domains", strings(tuple)),
    Field("profile", VECTOR),
    Field("teleport", VECTOR),
    Field("exogenous", VECTOR),
    Field("archetype", one_of(*ARCHETYPES)),
    Field("owner_key", optional(STRING), write=lambda a: a.owner_key is not None),
    Field("description", STRING, write=lambda a: a.description != ""),
)


@dataclass
class Edge:
    """One directed interaction record."""

    sender: str
    receiver: str
    kind: str
    base_weight: float = 1.0
    content: np.ndarray | None = None
    payment: bool = False
    verified: bool = False
    severity: float | None = None
    confidence: float | None = None

    def __post_init__(self) -> None:
        check_fields(self, EDGE_FIELDS)
        if not 0.0 < float(self.base_weight) < math.inf:
            raise ValidationError("base_weight must be finite and > 0")
        if self.kind in ("labeled", "blind") and self.sender == self.receiver:
            raise ValidationError(f"self-edge not allowed: {self.sender}")
        if self.kind == "labeled":
            if self.content is None:
                raise ValidationError("labeled edge requires a content embedding")
            if not abs(float(np.linalg.norm(self.content)) - 1.0) <= UNIT_TOL:
                raise ValidationError("labeled edge content must be unit length")
        elif self.content is not None:
            raise ValidationError(f"{self.kind} edge must not carry content")
        if self.kind == "flag":
            if self.severity is None:
                raise ValidationError("flag edge requires severity")
            if not 0.0 <= float(self.severity) <= 1.0:
                raise ValidationError("severity must lie in [0, 1]")
        elif self.severity is not None:
            raise ValidationError("severity only applies to flag edges")
        if self.confidence is not None and not 0.0 <= float(self.confidence) <= 1.0:
            raise ValidationError("confidence must lie in [0, 1]")


EDGE_FIELDS = field_table(
    Edge,
    Field("sender", STRING),
    Field("receiver", STRING),
    Field("kind", one_of(*EDGE_KINDS)),
    Field("base_weight", NUMBER),
    Field("content", optional(VECTOR), write=lambda e: e.content is not None),
    Field("payment", BOOLEAN),
    Field("verified", BOOLEAN, write=lambda e: e.kind == "flag"),
    Field("severity", optional(NUMBER), write=lambda e: e.kind == "flag"),
    Field("confidence", optional(NUMBER), write=lambda e: e.confidence is not None),
)


@dataclass(frozen=True)
class WeightConfig:
    """Multipliers applied when turning edge records into raw weights."""

    payment_multiplier: float = 3.0
    blind_discount: float = 0.3
    same_owner_discount: float = 0.1
    verified_flag_multiplier: float = 6.0

    def __post_init__(self) -> None:
        if self.payment_multiplier < 1.0:
            raise ValidationError("payment_multiplier must be >= 1")
        if not 0.0 < self.blind_discount <= 1.0:
            raise ValidationError("blind_discount must lie in (0, 1]")
        if not 0.0 < self.same_owner_discount <= 1.0:
            raise ValidationError("same_owner_discount must lie in (0, 1]")
        if self.verified_flag_multiplier < 1.0:
            raise ValidationError("verified_flag_multiplier must be >= 1")


def raw_weight(edge: Edge, cfg: WeightConfig, same_owner: bool) -> float:
    """Pre-normalization positive weight of a labeled or blind edge."""
    if edge.kind == "flag":
        raise ValidationError("raw_weight does not apply to flag edges")
    w = float(edge.base_weight)
    if edge.payment:
        w *= cfg.payment_multiplier
    if edge.kind == "blind":
        w *= cfg.blind_discount
    if same_owner:
        w *= cfg.same_owner_discount
    return w


def flag_weight(edge: Edge, reporter_reputation: float, cfg: WeightConfig) -> float:
    """Pre-normalization magnitude of a flag edge (used as negative mass)."""
    if edge.kind != "flag":
        raise ValidationError("flag_weight only applies to flag edges")
    if reporter_reputation < 0:
        raise ValidationError("reporter reputation must be >= 0")
    w = float(edge.severity) * float(reporter_reputation)
    if edge.verified:
        w *= cfg.verified_flag_multiplier
    return w


def blind_proxies(
    profiles: np.ndarray, senders: np.ndarray, receivers: np.ndarray
) -> np.ndarray:
    """Stand-in directions for contentless edges: normalized profile midpoints.

    ``profiles`` is (N, E); row k of the result is the proxy of the edge
    ``senders[k] -> receivers[k]``.  A pair whose profiles cancel
    (antipodal) falls back to the sender's profile, so every proxy is a
    unit vector.
    """
    mid = 0.5 * (profiles[senders] + profiles[receivers])
    norms = row_norms(mid)
    ok = norms >= DEGENERATE_NORM
    np.divide(mid, norms[:, None], out=mid, where=ok[:, None])
    mid[~ok] = profiles[senders[~ok]]
    return mid


@dataclass
class NormalizedGraph:
    """Edge-list arrays after row normalization, ready for propagation.

    Positive entries form a multigraph: parallel edges are kept as separate
    entries, each with its own content, and their weights count separately
    toward the sender's row sum.  Senders with no positive edges keep empty
    rows (their mass simply does not propagate).
    """

    agents: tuple[Agent, ...]
    index: dict[str, int]
    dim: int
    pos_sender: np.ndarray
    pos_receiver: np.ndarray
    pos_weight: np.ndarray
    pos_content: np.ndarray
    pos_blind: np.ndarray
    pos_confidence: np.ndarray  # explicit per-edge confidence, NaN where absent
    neg_sender: np.ndarray
    neg_receiver: np.ndarray
    neg_weight: np.ndarray
    teleport: np.ndarray = field(repr=False, default=None)  # (N, E)
    exogenous: np.ndarray = field(repr=False, default=None)  # (N, E)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_pos_edges(self) -> int:
        return int(self.pos_sender.size)

    @property
    def n_neg_edges(self) -> int:
        return int(self.neg_sender.size)


def normalize(
    agents: Sequence[Agent],
    edges: Sequence[Edge],
    cfg: WeightConfig = WeightConfig(),
    reporter_reputations: Mapping[str, float] | None = None,
) -> NormalizedGraph:
    """Build a NormalizedGraph from agent and edge records.

    Positive rows (labeled + blind together) are normalized per sender to sum
    to one; flag rows are normalized per reporter the same way.  Reporter
    reputations default to 1.0 when none are supplied (bootstrapping).
    """
    if not agents:
        raise ValidationError("graph requires at least one agent")
    index: dict[str, int] = {}
    for agent in agents:
        if agent.id in index:
            raise ValidationError(f"duplicate agent id {agent.id!r}")
        index[agent.id] = len(index)
    dim = int(agents[0].profile.shape[0])
    for agent in agents:
        if agent.profile.shape[0] != dim:
            raise ValidationError("inconsistent embedding dims across agents")

    reps = reporter_reputations or {}
    pos_s: list[int] = []
    pos_r: list[int] = []
    pos_w: list[float] = []
    labeled_content: list[np.ndarray] = []
    pos_b: list[bool] = []
    pos_conf: list[float] = []
    neg_s: list[int] = []
    neg_r: list[int] = []
    neg_w: list[float] = []

    for edge in edges:
        if edge.sender not in index:
            raise ValidationError(f"edge references unknown agent {edge.sender!r}")
        if edge.receiver not in index:
            raise ValidationError(f"edge references unknown agent {edge.receiver!r}")
        si = index[edge.sender]
        ri = index[edge.receiver]
        sender = agents[si]
        receiver = agents[ri]
        if edge.kind == "flag":
            rep = float(reps.get(edge.sender, 1.0))
            w = flag_weight(edge, rep, cfg)
            if w > 0.0:
                neg_s.append(si)
                neg_r.append(ri)
                neg_w.append(w)
            continue
        same_owner = (
            sender.owner_key is not None and sender.owner_key == receiver.owner_key
        )
        w = raw_weight(edge, cfg, same_owner)
        if edge.kind == "labeled":
            if edge.content.shape[0] != dim:
                raise ValidationError(f"edge {edge.sender} -> {edge.receiver}: wrong content dim")
            labeled_content.append(edge.content)
        pos_s.append(si)
        pos_r.append(ri)
        pos_w.append(w)
        pos_b.append(edge.kind == "blind")
        pos_conf.append(float(edge.confidence) if edge.confidence is not None else np.nan)

    n = len(agents)
    pos_sender = np.asarray(pos_s, dtype=np.int64)
    pos_receiver = np.asarray(pos_r, dtype=np.int64)
    pos_weight = np.asarray(pos_w, dtype=np.float64)
    pos_blind = np.asarray(pos_b, dtype=bool)
    if pos_sender.size:
        row = np.zeros(n)
        np.add.at(row, pos_sender, pos_weight)
        pos_weight = pos_weight / row[pos_sender]
    content_mat = np.empty((pos_sender.size, dim))
    if labeled_content:
        content_mat[~pos_blind] = np.vstack(labeled_content)
    blind_rows = np.flatnonzero(pos_blind)
    if blind_rows.size:
        profiles = np.vstack([a.profile for a in agents])
        for start in range(0, blind_rows.size, PROXY_CHUNK_ROWS):
            rows = blind_rows[start : start + PROXY_CHUNK_ROWS]
            content_mat[rows] = blind_proxies(
                profiles, pos_sender[rows], pos_receiver[rows]
            )
    neg_sender = np.asarray(neg_s, dtype=np.int64)
    neg_weight = np.asarray(neg_w, dtype=np.float64)
    if neg_sender.size:
        row = np.zeros(n)
        np.add.at(row, neg_sender, neg_weight)
        neg_weight = neg_weight / row[neg_sender]

    teleport = np.vstack([a.teleport for a in agents])
    exogenous = np.vstack([a.exogenous for a in agents])

    return NormalizedGraph(
        agents=tuple(agents),
        index=index,
        dim=dim,
        pos_sender=pos_sender,
        pos_receiver=pos_receiver,
        pos_weight=pos_weight,
        pos_content=content_mat,
        pos_blind=pos_blind,
        pos_confidence=np.asarray(pos_conf, dtype=np.float64),
        neg_sender=neg_sender,
        neg_receiver=np.asarray(neg_r, dtype=np.int64),
        neg_weight=neg_weight,
        teleport=teleport,
        exogenous=exogenous,
    )
