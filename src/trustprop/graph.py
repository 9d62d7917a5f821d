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

Records are one object per agent or edge; tables (``AgentTable``,
``EdgeTable``) hold the same fields as columns, one row per record, and are
what the JSONL readers, ``center_corpus`` and ``normalize`` work on.  A
table is a read-only sequence of its records: ``table[i]`` builds row i's
record.  ``AgentTable.of`` and ``EdgeTable.of`` turn record lists into tables.

``normalize`` computes ids, weights and validation as array expressions in
edge order; the blind proxies are computed by ``blind_proxies`` and written
into the (M, E) content matrix a few thousand rows at a time, so the
per-edge temporaries stay small.  Norms come from ``vectorspace.row_norms``,
so each proxy is bit-identical to the one a per-edge computation would give.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import MISSING, dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import countOf
from typing import Any, ClassVar, NamedTuple

import numpy as np

from .errors import ValidationError
from .vectorspace import DEGENERATE_NORM, row_norms

EDGE_KINDS = ("labeled", "blind", "flag")
LABELED, BLIND, FLAG = range(3)  # an EdgeTable's kind codes, indices into EDGE_KINDS
_KIND_CODES = {kind: code for code, kind in enumerate(EDGE_KINDS)}
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
    another form, or raises ValidationError; values of a type in ``passes`` skip it.
    ``fast(values)`` is True when a whole column is valid, tested at C speed; it
    defaults to every value's type being in ``passes``."""

    check: Callable[[str, Any], Any]
    passes: frozenset[type] = frozenset()
    fast: Callable[[list], bool] | None = None

    def column(self, name: str, values: list) -> tuple[list, int]:
        """The column form of ``check``: the values it takes, up to the first it
        rejects, and how many that is.  Lists that ``fast`` passes stay lists (a
        table stacks or converts them); other values are ``check``'s results."""
        if self.passes.issuperset(map(type, values)) if self.fast is None else self.fast(values):
            return values, len(values)
        out = []
        for value in values:
            if type(value) not in self.passes:
                try:
                    value = self.check(name, value)
                except ValidationError:
                    break
            out.append(value)
        return out, len(out)


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
    table.checks = tuple((f.key, f.type.check, f.type.passes) for f in table)
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


def _lists_of(entry: type) -> Callable[[list], bool]:
    """A ``fast`` test: every value is a list whose entries are all ``entry``s."""

    def fast(values: list) -> bool:
        return countOf(map(type, values), list) == len(values) and countOf(
            map(type, chain.from_iterable(values)), entry
        ) == sum(map(len, values))

    return fast


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
VECTOR = FieldType(_vector, fast=_lists_of(float))
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

    return FieldType(check, fast=_lists_of(str))


def one_of(*choices: str) -> FieldType:
    def check(name: str, value: Any) -> str:
        if isinstance(value, str) and value in choices:
            return value
        # A list by its type: the repr of a deeply nested one fails.
        got = repr(value) if isinstance(value, str) else type(value).__name__
        raise ValidationError(f"{name} must be one of {', '.join(choices)}, got {got}")

    def fast(values: list) -> bool:
        return countOf(map(type, values), str) == len(values) and set(values) <= set(choices)

    return FieldType(check, fast=fast)


def optional(inner: FieldType) -> FieldType:
    def check(name: str, value: Any) -> Any:
        return None if value is None else inner.check(name, value)

    def fast(values: list) -> bool:
        return inner.fast([v for v in values if v is not None])

    return FieldType(check, inner.passes | {type(None)}, None if inner.fast is None else fast)


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


# --- tables -------------------------------------------------------------------
# A table holds one field table's records as columns.  The JSONL readers build
# tables block by block through ``checked``, which applies every record rule to
# whole columns; ``of`` converts records, whose rules have already run.


def _row(cls: type, **values: Any) -> Any:
    """A record from a table row; the table's checks have run, so __post_init__ does not."""
    record = object.__new__(cls)
    vars(record).update(values)
    return record


def _first(bad: np.ndarray) -> int:
    """Index of the first True in ``bad``, or its length when there is none."""
    return int(bad.argmax()) if bad.any() else len(bad)


def _present(values: list) -> np.ndarray:
    return np.fromiter(map(operator.is_not, values, repeat(None)), bool, len(values))


def _floats(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Numbers (None for NaN) as float64, and where float() overflows (an int
    beyond the float range, which fails the record's rules)."""
    try:
        present = _present(values)
        floats = np.full(len(values), np.nan)
        floats[present] = list(compress(values, present))
        return floats, np.zeros(len(values), bool)
    except OverflowError:
        floats, bad = np.full(len(values), np.nan), np.zeros(len(values), bool)
        for i, value in enumerate(values):
            try:
                floats[i] = np.nan if value is None else float(value)
            except OverflowError:
                bad[i] = True
        return floats, bad


def _stack(vectors: list, dim: int | None) -> np.ndarray:
    """Equal-length vectors (lists or arrays) as an (N, dim) float64 matrix."""
    return np.array(vectors, dtype=np.float64).reshape(len(vectors), dim or 0)


def _checked_columns(
    fields: FieldTable, columns: Mapping[str, list]
) -> tuple[dict[str, list], int]:
    """Each field's column form over its raw values, up to the first row any
    field rejects, and the number of rows before it."""
    n = len(columns[fields[0].key])
    checked = {}
    for f in fields:
        checked[f.key], n = f.type.column(f.key, columns[f.key][:n])
    return {key: values[:n] for key, values in checked.items()}, n


def _concat(cls: type, blocks: Sequence[Any]) -> Any:
    """Tables of class ``cls``, one after the other."""
    if len(blocks) == 1:
        return blocks[0]
    columns = {}
    for f in dataclasses.fields(blocks[0]):
        parts = [getattr(b, f.name) for b in blocks]
        if isinstance(parts[0], tuple):
            columns[f.name] = tuple(chain.from_iterable(parts))
        else:  # a matrix whose width is unknown (0) while it has no rows
            parts = [p for p in parts if len(p)] or parts[:1]
            columns[f.name] = np.concatenate(parts)
    return cls(**columns)


@dataclass(frozen=True, eq=False)
class AgentTable(Sequence[Agent]):
    """Agents as columns, one row per agent; ``table[i]`` is row i's Agent."""

    ids: tuple[str, ...]
    primary_domains: tuple[str, ...]
    secondary_domains: tuple[tuple[str, ...], ...]
    profile: np.ndarray  # (N, E)
    teleport: np.ndarray  # (N, E)
    exogenous: np.ndarray  # (N, E)
    archetypes: tuple[str, ...]
    owner_keys: tuple[str | None, ...]
    descriptions: tuple[str, ...]

    record_type: ClassVar[type] = Agent
    record_fields: ClassVar[FieldTable] = AGENT_FIELDS
    concat = classmethod(_concat)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Agent]:
        return map(self.__getitem__, range(len(self.ids)))

    def __getitem__(self, i: int) -> Agent:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self.ids))[i]]
        i = range(len(self.ids))[i]
        return _row(
            Agent, id=self.ids[i], primary_domain=self.primary_domains[i],
            profile=self.profile[i], teleport=self.teleport[i], exogenous=self.exogenous[i],
            secondary_domains=self.secondary_domains[i], archetype=self.archetypes[i],
            owner_key=self.owner_keys[i], description=self.descriptions[i],
        )

    @property
    def dim(self) -> int:
        return int(self.profile.shape[1])

    @classmethod
    def of(cls, agents: AgentTable | Iterable[Agent]) -> AgentTable:
        """The table of ``agents``, which is ``agents`` itself if it is one."""
        if isinstance(agents, AgentTable):
            return agents
        agents = list(agents)

        def column(key: str) -> tuple:
            return tuple(map(operator.attrgetter(key), agents))

        dim = agents[0].profile.shape[0] if agents else 0
        try:  # teleport and exogenous have their profile's dim
            profile = _stack(column("profile"), dim)
        except ValueError:
            raise ValidationError("inconsistent embedding dims across agents") from None
        return cls(
            ids=column("id"), primary_domains=column("primary_domain"),
            secondary_domains=column("secondary_domains"), profile=profile,
            teleport=_stack(column("teleport"), dim), exogenous=_stack(column("exogenous"), dim),
            archetypes=column("archetype"), owner_keys=column("owner_key"),
            descriptions=column("description"),
        )

    @classmethod
    def checked(
        cls, columns: Mapping[str, list], dim: int | None
    ) -> tuple[AgentTable, int | None, str | None]:
        """The rows of raw ``columns`` before the first that breaks a rule, the
        profile dim, and the message for that row if only a rule across records
        (a profile dim other than ``dim``, or the first row's) breaks there.

        Each record rule of ``Agent`` is applied to whole columns."""
        values, n = _checked_columns(AGENT_FIELDS, columns)
        vectors = [values[key] for key in ("profile", "teleport", "exogenous")]
        lens = np.array([list(map(len, v)) for v in vectors], dtype=np.intp).reshape(3, n)
        if dim is None and n:
            dim = int(lens[0, 0])
        # A teleport or exogenous of another dim than its profile breaks the
        # record; a profile of another dim than the first breaks normalize.
        n_dims = _first((lens != dim).any(axis=0))
        profile, teleport, exogenous = (_stack(v[:n_dims], dim) for v in vectors)
        ids = values["id"][:n_dims]
        bad = ~np.fromiter(map(bool, ids), bool, n_dims)  # an empty id
        # Written as "not <=" so that a NaN norm fails the check too.
        bad |= ~(np.abs(row_norms(profile) - 1.0) <= UNIT_TOL)
        bad |= ~(np.isfinite(teleport).all(axis=1) & np.isfinite(exogenous).all(axis=1))
        n_ok = _first(bad)
        table = cls(
            ids=tuple(ids[:n_ok]), primary_domains=tuple(values["primary_domain"][:n_ok]),
            secondary_domains=tuple(map(tuple, values["secondary_domains"][:n_ok])),
            profile=profile[:n_ok], teleport=teleport[:n_ok], exogenous=exogenous[:n_ok],
            archetypes=tuple(values["archetype"][:n_ok]),
            owner_keys=tuple(values["owner_key"][:n_ok]),
            descriptions=tuple(values["description"][:n_ok]),
        )
        across = n_ok == n_dims < n
        return table, dim, "inconsistent embedding dims across agents" if across else None


@dataclass(frozen=True, eq=False)
class EdgeTable(Sequence[Edge]):
    """Edges as columns, one row per edge; ``table[i]`` is row i's Edge."""

    senders: tuple[str, ...]
    receivers: tuple[str, ...]
    kinds: np.ndarray  # int8 codes: LABELED, BLIND, FLAG
    base_weights: np.ndarray
    payment: np.ndarray  # bool
    verified: np.ndarray  # bool
    severity: np.ndarray  # NaN where absent
    confidence: np.ndarray  # NaN where absent
    contents: np.ndarray  # (L, E): the labeled edges' contents, in edge order

    record_type: ClassVar[type] = Edge
    record_fields: ClassVar[FieldTable] = EDGE_FIELDS
    concat = classmethod(_concat)

    def __len__(self) -> int:
        return len(self.senders)

    def __iter__(self) -> Iterator[Edge]:
        return map(self.__getitem__, range(len(self.senders)))

    @cached_property
    def _content_row(self) -> np.ndarray:
        return np.cumsum(self.kinds == LABELED) - 1

    def __getitem__(self, i: int) -> Edge:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self.senders))[i]]
        i = range(len(self.senders))[i]
        kind = int(self.kinds[i])
        severity, confidence = self.severity[i], self.confidence[i]
        return _row(
            Edge, sender=self.senders[i], receiver=self.receivers[i], kind=EDGE_KINDS[kind],
            base_weight=float(self.base_weights[i]),
            content=self.contents[self._content_row[i]] if kind == LABELED else None,
            payment=bool(self.payment[i]), verified=bool(self.verified[i]),
            severity=None if np.isnan(severity) else float(severity),
            confidence=None if np.isnan(confidence) else float(confidence),
        )

    @property
    def dim(self) -> int:
        return int(self.contents.shape[1])

    @classmethod
    def of(cls, edges: EdgeTable | Iterable[Edge]) -> EdgeTable:
        """The table of ``edges``, which is ``edges`` itself if it is one."""
        if isinstance(edges, EdgeTable):
            return edges
        edges = list(edges)

        def column(key: str) -> list:
            return list(map(operator.attrgetter(key), edges))

        with_content = [e for e in edges if e.content is not None]
        dim = with_content[0].content.shape[0] if with_content else 0
        try:
            contents = _stack([e.content for e in with_content], dim)
        except ValueError:  # contents of different dims
            e = next(e for e in with_content if e.content.shape != (dim,))
            raise ValidationError(f"edge {e.sender} -> {e.receiver}: wrong content dim") from None
        return cls(
            senders=tuple(column("sender")), receivers=tuple(column("receiver")),
            kinds=np.fromiter(map(_KIND_CODES.__getitem__, column("kind")), np.int8, len(edges)),
            base_weights=np.array(column("base_weight"), dtype=np.float64),
            payment=np.array(column("payment"), dtype=bool),
            verified=np.array(column("verified"), dtype=bool),
            severity=_floats(column("severity"))[0],
            confidence=_floats(column("confidence"))[0],
            contents=contents,
        )

    @classmethod
    def checked(
        cls, columns: Mapping[str, list], dim: int | None
    ) -> tuple[EdgeTable, int | None, str | None]:
        """The rows of raw ``columns`` before the first that breaks a rule, the
        content dim, and the message for that row if only a rule across records
        (a content dim other than ``dim``, or the first content's) breaks there.

        Each record rule of ``Edge`` is applied to whole columns."""
        values, n = _checked_columns(EDGE_FIELDS, columns)
        content = values["content"]
        has_content = _present(content)
        rows = np.flatnonzero(has_content)
        lens = np.fromiter(map(len, compress(content, has_content)), np.intp, rows.size)
        if dim is None and rows.size:
            dim = int(lens[0])
        n_dims = int(rows[lens != dim][0]) if (lens != dim).any() else n
        has_content = has_content[:n_dims]
        contents = _stack(list(compress(content, has_content)), dim)
        kinds = np.fromiter(map(_KIND_CODES.__getitem__, values["kind"][:n_dims]), np.int8, n_dims)
        senders, receivers = values["sender"][:n_dims], values["receiver"][:n_dims]
        base_weights, bad = _floats(values["base_weight"][:n_dims])
        severity, bad_severity = _floats(values["severity"][:n_dims])
        confidence, bad_confidence = _floats(values["confidence"][:n_dims])
        flag, labeled = kinds == FLAG, kinds == LABELED
        bad |= bad_severity | bad_confidence
        bad |= ~((0.0 < base_weights) & (base_weights < math.inf))
        bad |= ~flag & np.fromiter(map(operator.eq, senders, receivers), bool, n_dims)
        bad |= has_content != labeled
        bad[has_content] |= ~(np.abs(row_norms(contents) - 1.0) <= UNIT_TOL)
        has_severity = _present(values["severity"][:n_dims])
        bad |= has_severity != flag
        bad |= has_severity & ~((0.0 <= severity) & (severity <= 1.0))
        bad |= _present(values["confidence"][:n_dims]) & ~(
            (0.0 <= confidence) & (confidence <= 1.0)
        )
        n_ok = _first(bad)
        table = cls(
            senders=tuple(senders[:n_ok]), receivers=tuple(receivers[:n_ok]),
            kinds=kinds[:n_ok], base_weights=base_weights[:n_ok],
            payment=np.array(values["payment"][:n_ok], dtype=bool),
            verified=np.array(values["verified"][:n_ok], dtype=bool),
            severity=severity[:n_ok], confidence=confidence[:n_ok],
            contents=contents[: int(has_content[:n_ok].sum())],
        )
        if n_ok == n_dims < n:
            sender, receiver = values["sender"][n_ok], values["receiver"][n_ok]
            return table, dim, f"edge {sender} -> {receiver}: wrong content dim"
        return table, dim, None


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

    agents: AgentTable
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


def _row_normalized(senders: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``weights`` divided by their sender's row sum."""
    if not senders.size:
        return weights
    row = np.zeros(n)
    np.add.at(row, senders, weights)
    return weights / row[senders]


def normalize(
    agents: AgentTable | Sequence[Agent],
    edges: EdgeTable | Sequence[Edge],
    cfg: WeightConfig = WeightConfig(),
    reporter_reputations: Mapping[str, float] | None = None,
) -> NormalizedGraph:
    """Build a NormalizedGraph from agent and edge tables (or records).

    Positive rows (labeled + blind together) are normalized per sender to sum
    to one; flag rows are normalized per reporter the same way.  Reporter
    reputations default to 1.0 when none are supplied (bootstrapping).
    Every weight is the product ``raw_weight`` and ``flag_weight`` take, in
    their order, so each comes out as a per-edge computation gives it.
    """
    agents, edges = AgentTable.of(agents), EdgeTable.of(edges)
    n, m = len(agents), len(edges)
    if not n:
        raise ValidationError("graph requires at least one agent")
    index = dict(zip(agents.ids, range(n)))
    if len(index) != n:
        seen: set[str] = set()
        dup = next(aid for aid in agents.ids if aid in seen or seen.add(aid))
        raise ValidationError(f"duplicate agent id {dup!r}")
    dim = agents.dim
    senders = np.fromiter(map(index.get, edges.senders, repeat(-1)), np.int64, m)
    receivers = np.fromiter(map(index.get, edges.receivers, repeat(-1)), np.int64, m)
    kinds = edges.kinds
    flag, pos = kinds == FLAG, kinds != FLAG
    reps = reporter_reputations or {}
    rep = np.array([float(reps.get(s, 1.0)) for s in compress(edges.senders, flag)])

    # Reject the first edge that a per-edge pass would reject, for its reason.
    unknown = (senders < 0) | (receivers < 0)
    bad_rep = np.zeros(m, bool)
    bad_rep[flag] = rep < 0
    wrong_dim = kinds == LABELED if edges.contents.size and edges.dim != dim else np.zeros(m, bool)
    k = _first(unknown | bad_rep | wrong_dim)
    if k < m:
        if unknown[k]:
            aid = edges.senders[k] if senders[k] < 0 else edges.receivers[k]
            raise ValidationError(f"edge references unknown agent {aid!r}")
        if bad_rep[k]:
            raise ValidationError("reporter reputation must be >= 0")
        raise ValidationError(f"edge {edges.senders[k]} -> {edges.receivers[k]}: wrong content dim")

    # Flags: severity x reporter reputation, x the verified multiplier.
    flag_w = edges.severity[flag] * rep
    flag_w[edges.verified[flag]] *= cfg.verified_flag_multiplier
    kept = flag_w > 0.0
    neg_sender = senders[flag][kept]
    neg_weight = _row_normalized(neg_sender, flag_w[kept], n)

    # Positive edges: base weight x payment x blind x same-owner factors.
    owner_codes: dict[str, int] = {}
    owner = np.fromiter(
        (-1 if key is None else owner_codes.setdefault(key, len(owner_codes))
         for key in agents.owner_keys),
        np.int64, n,
    )
    pos_sender, pos_receiver = senders[pos], receivers[pos]
    pos_blind = kinds[pos] == BLIND
    same_owner = (owner[pos_sender] >= 0) & (owner[pos_sender] == owner[pos_receiver])
    pos_weight = edges.base_weights[pos]
    pos_weight[edges.payment[pos]] *= cfg.payment_multiplier
    pos_weight[pos_blind] *= cfg.blind_discount
    pos_weight[same_owner] *= cfg.same_owner_discount
    pos_weight = _row_normalized(pos_sender, pos_weight, n)

    content_mat = np.empty((pos_sender.size, dim))
    if edges.contents.size:
        content_mat[~pos_blind] = edges.contents
    blind_rows = np.flatnonzero(pos_blind)
    for start in range(0, blind_rows.size, PROXY_CHUNK_ROWS):
        rows = blind_rows[start : start + PROXY_CHUNK_ROWS]
        content_mat[rows] = blind_proxies(agents.profile, pos_sender[rows], pos_receiver[rows])

    return NormalizedGraph(
        agents=agents,
        index=index,
        dim=dim,
        pos_sender=pos_sender,
        pos_receiver=pos_receiver,
        pos_weight=pos_weight,
        pos_content=content_mat,
        pos_blind=pos_blind,
        pos_confidence=edges.confidence[pos],
        neg_sender=neg_sender,
        neg_receiver=receivers[flag][kept],
        neg_weight=neg_weight,
        teleport=agents.teleport,
        exogenous=agents.exogenous,
    )
