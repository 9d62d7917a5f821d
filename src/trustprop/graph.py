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

import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .vectorspace import DEGENERATE_NORM, row_norms

EDGE_KINDS = ("labeled", "blind", "flag")
ARCHETYPES = ("hub", "active", "dormant", "malicious")

# Tolerance for "this stored vector should be unit length".
UNIT_TOL = 1e-6

# Blind proxies computed per block in ``normalize``; bounds its temporaries.
PROXY_CHUNK_ROWS = 4096


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
        self.profile = np.asarray(self.profile, dtype=np.float64)
        self.teleport = np.asarray(self.teleport, dtype=np.float64)
        self.exogenous = np.asarray(self.exogenous, dtype=np.float64)
        _check_text("id", self.id)
        if not self.id:
            raise ValidationError("agent id must be non-empty")
        _check_text("primary_domain", self.primary_domain)
        _check_text("description", self.description)
        if self.owner_key is not None:
            _check_text("owner_key", self.owner_key)
        # tuple() of a bare string would split it into one-letter domains.
        if not isinstance(self.secondary_domains, (list, tuple)):
            raise ValidationError(
                "secondary_domains must be a list of strings, "
                f"got {type(self.secondary_domains).__name__}"
            )
        for domain in self.secondary_domains:
            _check_text("secondary_domains entry", domain)
        self.secondary_domains = tuple(self.secondary_domains)
        if self.archetype not in ARCHETYPES:
            raise ValidationError(f"unknown archetype {self.archetype!r}")
        if self.profile.ndim != 1:
            raise ValidationError("profile must be a vector")
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
        _check_text("sender", self.sender)
        _check_text("receiver", self.receiver)
        if self.kind not in EDGE_KINDS:
            raise ValidationError(f"unknown edge kind {self.kind!r}")
        _check_number("base_weight", self.base_weight)
        _check_flag("payment", self.payment)
        _check_flag("verified", self.verified)
        if self.severity is not None:
            _check_number("severity", self.severity)
        if self.confidence is not None:
            _check_number("confidence", self.confidence)
        if not 0.0 < float(self.base_weight) < math.inf:
            raise ValidationError("base_weight must be finite and > 0")
        if self.kind in ("labeled", "blind") and self.sender == self.receiver:
            raise ValidationError(f"self-edge not allowed: {self.sender}")
        if self.kind == "labeled":
            if self.content is None:
                raise ValidationError("labeled edge requires a content embedding")
            self.content = np.asarray(self.content, dtype=np.float64)
            if self.content.ndim != 1:
                raise ValidationError("labeled edge content must be a vector")
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


# Python and NumPy reals; bool is an int subclass and is rejected on its own.
_NUMBER_TYPES = (float, int, np.floating, np.integer)


def _check_number(name: str, value: object) -> None:
    """Reject what JSON can put where a number belongs: null, strings, booleans."""
    if type(value) is bool or not isinstance(value, _NUMBER_TYPES):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")


def _check_text(name: str, value: object) -> None:
    """Reject non-strings, which JSON can put in any field: a list id is unhashable."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {type(value).__name__}")


def _check_flag(name: str, value: object) -> None:
    """Reject non-booleans, whose truth would count: the string "false" is true."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a boolean, got {type(value).__name__}")


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

    def pos_row_sums(self) -> np.ndarray:
        sums = np.zeros(self.n_agents)
        np.add.at(sums, self.pos_sender, self.pos_weight)
        return sums

    def neg_row_sums(self) -> np.ndarray:
        sums = np.zeros(self.n_agents)
        np.add.at(sums, self.neg_sender, self.neg_weight)
        return sums


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
            content = np.asarray(edge.content, dtype=np.float64)
            if content.shape[0] != dim:
                raise ValidationError("edge content dim does not match agents")
            labeled_content.append(content)
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
