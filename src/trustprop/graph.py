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
what the JSONL readers, ``center_corpus``, ``normalize`` and retrieval work
on.  Both tables are derived from the records' field tables: each column is
named by its field's key (``agents.profile``, ``edges.sender``) and takes
the column form of the field's type.  A table is a read-only sequence of
its records: ``table[i]`` builds row i's record.  ``AgentTable.of`` and
``EdgeTable.of`` turn record lists into tables.

``normalize`` computes ids, weights and validation as array expressions in
input order, then puts the positive edges in receiver-major order, the one
edge order every engine reads.  The labeled contents are written straight
to their rows there, and the blind proxies, computed by ``blind_proxies``,
a few thousand rows at a time, so the per-edge temporaries stay small.
Norms come from ``vectorspace.row_norms``, so each proxy is bit-identical
to the one a per-edge computation would give.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Callable, Mapping, Sequence
from dataclasses import MISSING, dataclass, field
from itertools import chain, compress, repeat
from operator import countOf
from typing import Any, ClassVar, NamedTuple

import numpy as np

from .errors import ValidationError
from .vectorspace import DEGENERATE_NORM, off_unit, row_norms

EDGE_KINDS = ("labeled", "blind", "flag")
LABELED, BLIND, FLAG = range(3)  # an EdgeTable's kind codes, indices into EDGE_KINDS
ARCHETYPES = ("hub", "active", "dormant", "malicious")

# Below this a float64 is subnormal: it has lost precision, and 1 / x overflows.
SMALLEST_NORMAL = float(np.finfo(np.float64).smallest_normal)


# Blind proxies computed per block in ``normalize``; bounds its temporaries.
PROXY_CHUNK_ROWS = 4096


# --- field tables -------------------------------------------------------------
# Each record kind has one table of Fields, in the order files write them: the
# record's __post_init__ checks its types, and files reads and writes JSONL by it.


class FieldType(NamedTuple):
    """``check(name, value)`` returns the value, converted where the record stores
    another form, or raises ValidationError; values of a type in ``passes`` skip it.
    ``fast(values)`` is True when a whole column is valid, tested at C speed; it
    defaults to every value's type being in ``passes``.

    In a table, ``pack(values)`` turns checked values into the field's column and
    ``item(column, i)`` gives row i's value back.  ``vector`` marks a field of
    vectors, whose dim is the table's."""

    check: Callable[[str, Any], Any]
    passes: frozenset[type] = frozenset()
    fast: Callable[[list], bool] | None = None
    pack: Callable[[Sequence], Any] = tuple
    item: Callable[[Any, int], Any] = operator.getitem
    vector: bool = False

    def column(self, name: str, values: list) -> list | None:
        """The column form of ``check``: the values it takes, or None if it
        rejects one.  Lists that ``fast`` passes stay lists (a table stacks or
        converts them); other values are ``check``'s results."""
        if self.passes.issuperset(map(type, values)) if self.fast is None else self.fast(values):
            return values
        try:
            return [v if type(v) in self.passes else self.check(name, v) for v in values]
        except ValidationError:
            return None


class Field(NamedTuple):
    key: str
    type: FieldType
    default: Any = MISSING  # MISSING: required
    write: Callable[[Any], bool] | None = None  # given the record; None: always


class FieldTable(tuple):
    record: type  # the dataclass whose fields these are
    # (key, check, passes) per field: plain tuples unpack twice as fast as Fields.
    checks: tuple[tuple[str, Callable[[str, Any], Any], frozenset[type]], ...]


def field_table(cls: type, *fields: Field) -> FieldTable:
    """``fields`` with each default taken from the dataclass ``cls``."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    table = FieldTable(f._replace(default=defaults[f.key]) for f in fields)
    table.record = cls
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
_number_type = _instance_of("a number", _NUMBERS)


def _number(name: str, value: Any) -> Any:
    """A number, kept as given; an int beyond the float range fails as float() does."""
    try:
        float(_number_type(name, value))
    except OverflowError as exc:
        raise ValidationError(str(exc)) from exc
    return value


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


def _present(values: Sequence) -> np.ndarray:
    # A comprehension and bytes beat fromiter over map(operator.is_not, ...).
    return np.frombuffer(bytes([v is not None for v in values]), bool)


def _floats(values: Sequence) -> np.ndarray:
    # NUMBER's check has rejected every int beyond the float range.
    return np.array(values, dtype=np.float64)


def _bools(values: Sequence) -> np.ndarray:
    try:  # bytes() reads Python bools at C speed; numpy's bools it rejects
        return np.frombuffer(bytes(values), bool)
    except TypeError:
        return np.array(values, dtype=bool)


def _optional_floats(values: Sequence) -> np.ndarray:
    present = _present(values)
    floats = np.full(len(values), np.nan)
    floats[present] = _floats([v for v in values if v is not None])
    return floats


def _float_or_none(column: np.ndarray, i: int) -> float | None:
    return None if np.isnan(column[i]) else float(column[i])


def _matrix(vectors: Sequence) -> np.ndarray:
    """Vectors of one length (lists or arrays) as an (N, length) float64 matrix;
    vectors of different lengths raise ValueError."""
    width = len(vectors[0]) if vectors else 0
    return np.array(vectors, dtype=np.float64).reshape(len(vectors), width)


class VectorRows(NamedTuple):
    """An optional vector column: the vectors present, stacked in row order,
    and which rows hold one."""

    rows: np.ndarray  # (L, E)
    present: np.ndarray  # (N,) bool


def _vector_rows(values: Sequence) -> VectorRows:
    return VectorRows(_matrix([v for v in values if v is not None]), _present(values))


def _vector_row(column: VectorRows, i: int) -> np.ndarray | None:
    return column.rows[np.count_nonzero(column.present[:i])] if column.present[i] else None


STRING = FieldType(_instance_of("a string", (str,)), frozenset({str}))
NUMBER = FieldType(
    _number, frozenset({float}),
    pack=_floats, item=lambda column, i: float(column[i]),
)
INTEGER = FieldType(_instance_of("an integer", (int, np.integer)), frozenset({int}))
BOOLEAN = FieldType(
    _instance_of("a boolean", (bool, np.bool_)), frozenset({bool}),
    pack=_bools, item=lambda column, i: bool(column[i]),
)
VECTOR = FieldType(_vector, fast=_lists_of(float), pack=_matrix, vector=True)
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

    def pack(values: Sequence) -> tuple:
        if countOf(map(type, values), into) != len(values):  # lists read from JSON
            values = map(into, values)
        return tuple(values)

    return FieldType(check, fast=_lists_of(str), pack=pack)


def one_of(*choices: str) -> FieldType:
    """One of ``choices``; as a column, int8 indices into them."""
    codes = {choice: code for code, choice in enumerate(choices)}

    def check(name: str, value: Any) -> str:
        if isinstance(value, str) and value in choices:
            return value
        # A list by its type: the repr of a deeply nested one fails.
        got = repr(value) if isinstance(value, str) else type(value).__name__
        raise ValidationError(f"{name} must be one of {', '.join(choices)}, got {got}")

    def fast(values: list) -> bool:
        return countOf(map(type, values), str) == len(values) and set(values) <= set(choices)

    def pack(values: Sequence) -> np.ndarray:
        return np.frombuffer(bytes(map(codes.__getitem__, values)), np.int8)

    return FieldType(check, fast=fast, pack=pack, item=lambda column, i: choices[column[i]])


def optional(inner: FieldType) -> FieldType:
    """``inner`` or None.  As a column: NaN for a missing number, a
    ``VectorRows`` for vectors, and None as it is in a tuple column."""

    def check(name: str, value: Any) -> Any:
        return None if value is None else inner.check(name, value)

    def fast(values: list) -> bool:
        return inner.fast([v for v in values if v is not None])

    if inner is NUMBER:
        pack, item = _optional_floats, _float_or_none
    elif inner is VECTOR:
        pack, item = _vector_rows, _vector_row
    else:
        pack, item = inner.pack, inner.item
    fast_or_none = None if inner.fast is None else fast
    return FieldType(check, inner.passes | {type(None)}, fast_or_none, pack, item, inner.vector)


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
        if off_unit(self.profile):
            raise ValidationError(f"agent {self.id}: profile must be unit length")
        for name, vec in (("teleport", self.teleport), ("exogenous", self.exogenous)):
            if vec.shape != self.profile.shape:
                raise ValidationError(
                    f"agent {self.id}: {name} dim {vec.shape} != profile {self.profile.shape}"
                )
            # Entries and norm finite: a whole row near 1e308 has an inf norm,
            # which centering, the discrete split and the gates cannot take.
            # A finite sum of squares (np.vdot, which warns of no overflow)
            # is the common case; only an infinite one needs the scaled norm.
            if not math.isfinite(np.vdot(vec, vec)) and not np.isfinite(row_norms(vec[None])[0]):
                raise ValidationError(f"agent {self.id}: {name} and its norm must be finite")


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
            if off_unit(self.content):
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
# tables block by block through ``checked``, which only says whether a block of
# raw columns is clean; the block's records say what is wrong with one that is
# not.  ``of`` converts records, whose rules have already run.


def _first(bad: np.ndarray) -> int:
    """Index of the first True in ``bad``, or its length when there is none."""
    return int(bad.argmax()) if bad.any() else len(bad)


def first_duplicate(ids: Sequence[str]) -> str | None:
    """The first of ``ids`` that repeats an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    return next(aid for aid in ids if aid in seen or seen.add(aid))


def _join(parts: Sequence[Any]) -> Any:
    """Columns of one field, one after the other."""
    if isinstance(parts[0], VectorRows):
        return VectorRows(*map(_join, zip(*parts)))
    if isinstance(parts[0], tuple):
        return tuple(chain.from_iterable(parts))
    # a matrix whose width is unknown (0) while it has no rows
    return np.concatenate([p for p in parts if len(p)] or parts[:1])


class Table(Sequence):
    """Records as columns, one row per record: a subclass declares its field
    table (``class T(Table, fields=...)``) and has one column per field, named
    by the field's key, in the form of the field's type.  ``table[i]`` builds
    row i's record without re-running its checks: the table's checks ran.

    A subclass gives the two rules that are not per field: ``dim_message(record)``,
    the message for a record with a vector of another dim than the records
    before it, and ``broken(values)``, which rows break a record rule, as
    array expressions over the columns and the checked ``values`` they hold."""

    fields: ClassVar[FieldTable]

    def __init_subclass__(cls, fields: FieldTable, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.fields = fields
        cls.__annotations__ = dict.fromkeys((f.key for f in fields), "Any")
        dataclass(frozen=True, eq=False)(cls)

    def __len__(self) -> int:
        return len(getattr(self, self.fields[0].key))

    def __getitem__(self, i: int) -> Any:
        i = range(len(self))[i]
        record = object.__new__(self.fields.record)
        vars(record).update((f.key, f.type.item(getattr(self, f.key), i)) for f in self.fields)
        return record

    @classmethod
    def _packed(cls, values: Mapping[str, Sequence]) -> Any:
        return cls(**{f.key: f.type.pack(values[f.key]) for f in cls.fields})

    @classmethod
    def record_dim(cls, record: Any, dim: int | None) -> int | None:
        """``dim``, or the dim of ``record``'s vectors if ``dim`` is None; a
        vector of another dim raises the table's dim message."""
        for f in cls.fields:
            vector = getattr(record, f.key) if f.type.vector else None
            if vector is not None:
                dim = len(vector) if dim is None else dim
                if len(vector) != dim:
                    raise ValidationError(cls.dim_message(record))
        return dim

    @classmethod
    def of(cls, records: Any) -> Any:
        """The table of ``records``, which is ``records`` itself if it is one."""
        if isinstance(records, cls):
            return records
        records = list(records)
        values = {f.key: list(map(operator.attrgetter(f.key), records)) for f in cls.fields}
        try:
            return cls._packed(values)
        except ValueError:  # vectors of different dims
            dim = None
            for record in records:
                dim = cls.record_dim(record, dim)
            raise

    @classmethod
    def checked(cls, columns: Mapping[str, list], dim: int | None) -> tuple[Any, int | None] | None:
        """The table of raw ``columns`` and its vector dim, or None if a field
        rejects a value, a vector's dim is not ``dim`` (None: the first
        vector's) or a row breaks a record rule."""
        values = {f.key: f.type.column(f.key, columns[f.key]) for f in cls.fields}
        if None in values.values():
            return None
        lens = [len(v) for f in cls.fields if f.type.vector for v in values[f.key] if v is not None]
        dim = lens[0] if dim is None and lens else dim
        if countOf(lens, dim) != len(lens):
            return None
        table = cls._packed(values)
        return None if table.broken(values).any() else (table, dim)

    @classmethod
    def concat(cls, blocks: Sequence[Any]) -> Any:
        """Tables of this class, one after the other."""
        if len(blocks) == 1:
            return blocks[0]
        return cls(**{f.key: _join([getattr(b, f.key) for b in blocks]) for f in cls.fields})


class AgentTable(Table, fields=AGENT_FIELDS):
    """Agents as columns: ``profile``, ``teleport`` and ``exogenous`` are
    (N, E) matrices, ``archetype`` int8 indices into ARCHETYPES."""

    @staticmethod
    def dim_message(record: Agent) -> str:
        return "inconsistent embedding dims across agents"

    def broken(self, values: Mapping[str, Sequence]) -> np.ndarray:
        bad = ~np.fromiter(map(bool, self.id), bool, len(self))  # an empty id
        bad |= off_unit(self.profile)
        bad |= ~(np.isfinite(row_norms(self.teleport)) & np.isfinite(row_norms(self.exogenous)))
        return bad


class EdgeTable(Table, fields=EDGE_FIELDS):
    """Edges as columns: ``kind`` holds the codes LABELED, BLIND and FLAG,
    ``severity`` and ``confidence`` NaN where absent, and ``content`` the
    labeled edges' (L, E) contents with their rows."""

    @staticmethod
    def dim_message(record: Edge) -> str:
        return f"edge {record.sender} -> {record.receiver}: wrong content dim"

    def broken(self, values: Mapping[str, Sequence]) -> np.ndarray:
        n, content = len(self), self.content
        flag = self.kind == FLAG
        bad = ~((0.0 < self.base_weight) & (self.base_weight < math.inf))
        bad |= ~flag & np.fromiter(map(operator.eq, self.sender, self.receiver), bool, n)
        bad |= content.present != (self.kind == LABELED)
        bad[content.present] |= off_unit(content.rows)
        has_severity = _present(values["severity"])
        bad |= has_severity != flag
        bad |= has_severity & ~((0.0 <= self.severity) & (self.severity <= 1.0))
        bad |= _present(values["confidence"]) & ~(
            (0.0 <= self.confidence) & (self.confidence <= 1.0)
        )
        return bad


@dataclass(frozen=True)
class WeightConfig:
    """Multipliers applied when turning edge records into raw weights."""

    payment_multiplier: float = 3.0
    blind_discount: float = 0.3
    same_owner_discount: float = 0.1
    verified_flag_multiplier: float = 6.0

    def __post_init__(self) -> None:
        # Bounds are written "not (in range)" so that NaN fails them too.
        if not self.payment_multiplier >= 1.0:
            raise ValidationError("payment_multiplier must be >= 1")
        if not 0.0 < self.blind_discount <= 1.0:
            raise ValidationError("blind_discount must lie in (0, 1]")
        if not 0.0 < self.same_owner_discount <= 1.0:
            raise ValidationError("same_owner_discount must lie in (0, 1]")
        if not self.verified_flag_multiplier >= 1.0:
            raise ValidationError("verified_flag_multiplier must be >= 1")
        for name in ("payment_multiplier", "verified_flag_multiplier"):
            if getattr(self, name) == math.inf:
                raise ValidationError(f"{name} must be finite")


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
    rows (their mass simply does not propagate).  The positive edges are in
    receiver-major order: sorted by receiver, each receiver's in-edges in
    input order; a graph in another order is rejected.  ``normalize`` makes
    its six ``pos_*`` arrays read-only.

    ``dim``, ``teleport`` and ``exogenous`` are the agent table's.  ``cache``
    holds what the engines derive from these arrays alone, built on first
    use and kept with the graph, so the arrays are not to be changed once a
    run has seen them.
    """

    agents: AgentTable
    pos_sender: np.ndarray
    pos_receiver: np.ndarray
    pos_weight: np.ndarray
    pos_content: np.ndarray
    pos_blind: np.ndarray
    pos_confidence: np.ndarray  # explicit per-edge confidence, NaN where absent
    neg_sender: np.ndarray
    neg_receiver: np.ndarray
    neg_weight: np.ndarray
    cache: dict[str, Any] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.any(self.pos_receiver[1:] < self.pos_receiver[:-1]):
            raise ValidationError("positive edges must be in receiver-major order")

    @property
    def dim(self) -> int:
        return self.agents.profile.shape[1]

    @property
    def teleport(self) -> np.ndarray:  # (N, E)
        return self.agents.teleport

    @property
    def exogenous(self) -> np.ndarray:  # (N, E)
        return self.agents.exogenous

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_pos_edges(self) -> int:
        return int(self.pos_sender.size)

    @property
    def n_neg_edges(self) -> int:
        return int(self.neg_sender.size)


def _row_normalized(
    senders: np.ndarray, weights: np.ndarray, ids: Sequence[str], what: str
) -> np.ndarray:
    """``weights`` divided by their sender's row sum.

    The first agent of ``ids`` whose weights or row sum are not finite is
    rejected, named after ``what`` (an inf weight makes its row sum inf);
    so is the first whose row sum is 0, or one of whose normalized weights
    is nonzero but below the smallest normal float, where it has lost its
    precision and its reciprocal overflows.
    """
    if not senders.size:
        return weights
    row = np.bincount(senders, weights, minlength=len(ids))  # adds in order, inf on overflow
    overflow = ~np.isfinite(row)
    if overflow.any():
        raise ValidationError(f"{what} {ids[_first(overflow)]!r} overflow the float range")
    with np.errstate(invalid="ignore"):  # a row sum of 0 makes its weights NaN
        out = weights / row[senders]
    underflow = np.zeros(len(ids), bool)
    underflow[senders[~((out == 0.0) | (out >= SMALLEST_NORMAL))]] = True
    if underflow.any():
        raise ValidationError(f"{what} {ids[_first(underflow)]!r} underflow the float range")
    return out


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
    A positive weight is base weight x payment x blind x same-owner factor,
    a flag weight severity x reporter reputation x verified factor; each is
    multiplied in that order, so it comes out as a per-edge computation
    gives it.  A sender or reporter whose weights or row sum overflow or
    underflow the float range is rejected, by name.  The positive edges
    come out in receiver-major order, read-only (see ``NormalizedGraph``).
    """
    agents, edges = AgentTable.of(agents), EdgeTable.of(edges)
    n, m = len(agents), len(edges)
    if not n:
        raise ValidationError("graph requires at least one agent")
    index = dict(zip(agents.id, range(n)))
    if len(index) != n:
        raise ValidationError(f"duplicate agent id {first_duplicate(agents.id)!r}")
    dim = agents.profile.shape[1]
    senders = np.fromiter(map(index.get, edges.sender, repeat(-1)), np.int64, m)
    receivers = np.fromiter(map(index.get, edges.receiver, repeat(-1)), np.int64, m)
    kinds, contents = edges.kind, edges.content.rows
    flag, pos = kinds == FLAG, kinds != FLAG
    reps = reporter_reputations or {}
    rep = np.array([float(reps.get(s, 1.0)) for s in compress(edges.sender, flag)])

    # Reject the first edge that a per-edge pass would reject, for its reason.
    unknown = (senders < 0) | (receivers < 0)
    bad_rep = np.zeros(m, bool)
    bad_rep[flag] = ~(rep >= 0)
    wrong_dim = np.zeros(m, bool)
    if contents.size and contents.shape[1] != dim:
        wrong_dim = kinds == LABELED
    k = _first(unknown | bad_rep | wrong_dim)
    if k < m:
        if unknown[k]:
            aid = edges.sender[k] if senders[k] < 0 else edges.receiver[k]
            raise ValidationError(f"edge references unknown agent {aid!r}")
        if bad_rep[k]:
            raise ValidationError("reporter reputation must be >= 0")
        raise ValidationError(EdgeTable.dim_message(edges[k]))

    # Flags: severity x reporter reputation, x the verified multiplier.
    with np.errstate(over="ignore"):
        flag_w = edges.severity[flag] * rep
        flag_w[edges.verified[flag]] *= cfg.verified_flag_multiplier
    kept = flag_w > 0.0
    neg_sender = senders[flag][kept]
    neg_weight = _row_normalized(neg_sender, flag_w[kept], agents.id, "flag weights of reporter")

    # Positive edges: base weight x payment x blind x same-owner factors.
    owner_codes: dict[str, int] = {}
    owner = np.fromiter(
        (-1 if key is None else owner_codes.setdefault(key, len(owner_codes))
         for key in agents.owner_key),
        np.int64, n,
    )
    pos_sender, pos_receiver = senders[pos], receivers[pos]
    pos_blind = kinds[pos] == BLIND
    same_owner = (owner[pos_sender] >= 0) & (owner[pos_sender] == owner[pos_receiver])
    pos_weight = edges.base_weight[pos]
    with np.errstate(over="ignore"):
        pos_weight[edges.payment[pos]] *= cfg.payment_multiplier
    pos_weight[pos_blind] *= cfg.blind_discount
    pos_weight[same_owner] *= cfg.same_owner_discount
    pos_weight = _row_normalized(pos_sender, pos_weight, agents.id, "edge weights of sender")

    # Receiver-major, after the row sums, which add in input order as a
    # per-edge pass does; a stable sort keeps each receiver's in-edges in
    # input order.  Contents and proxies are written straight to their rows.
    # Keys of the narrowest dtype that holds every agent index: numpy's
    # stable sort of 8- and 16-bit keys is a radix sort.
    order = np.argsort(pos_receiver.astype(np.min_scalar_type(n - 1)), kind="stable")
    content_mat = np.empty((order.size, dim))
    if contents.size:
        at = np.empty_like(order)
        at[order] = np.arange(order.size)
        content_mat[at[~pos_blind]] = contents
    pos_sender, pos_receiver, pos_blind, pos_weight, pos_confidence = (
        a[order] for a in (pos_sender, pos_receiver, pos_blind, pos_weight, edges.confidence[pos])
    )
    blind_rows = np.flatnonzero(pos_blind)
    for start in range(0, blind_rows.size, PROXY_CHUNK_ROWS):
        rows = blind_rows[start : start + PROXY_CHUNK_ROWS]
        content_mat[rows] = blind_proxies(agents.profile, pos_sender[rows], pos_receiver[rows])
    for a in (pos_sender, pos_receiver, pos_weight, content_mat, pos_blind, pos_confidence):
        a.flags.writeable = False

    return NormalizedGraph(
        agents=agents,
        pos_sender=pos_sender,
        pos_receiver=pos_receiver,
        pos_weight=pos_weight,
        pos_content=content_mat,
        pos_blind=pos_blind,
        pos_confidence=pos_confidence,
        neg_sender=neg_sender,
        neg_receiver=receivers[flag][kept],
        neg_weight=neg_weight,
    )
