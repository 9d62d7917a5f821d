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
edge order; the blind proxies are computed by ``blind_proxies`` and written
into the (M, E) content matrix a few thousand rows at a time, so the
per-edge temporaries stay small.  Norms come from ``vectorspace.row_norms``,
so each proxy is bit-identical to the one a per-edge computation would give.
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
from .vectorspace import DEGENERATE_NORM, row_norms

EDGE_KINDS = ("labeled", "blind", "flag")
LABELED, BLIND, FLAG = range(3)  # an EdgeTable's kind codes, indices into EDGE_KINDS
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
    """Numbers as float64; an int beyond the float range becomes NaN, which
    every range rule on numbers rejects."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        floats = np.empty(len(values))
        for i, value in enumerate(values):
            try:
                floats[i] = value
            except OverflowError:
                floats[i] = np.nan
        return floats


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
    _instance_of("a number", _NUMBERS), frozenset({float}),
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


def _first(bad: np.ndarray) -> int:
    """Index of the first True in ``bad``, or its length when there is none."""
    return int(bad.argmax()) if bad.any() else len(bad)


def _checked_columns(
    fields: FieldTable, columns: Mapping[str, list]
) -> tuple[dict[str, list], int]:
    """Each field's checked values over its raw values, up to the first row any
    field rejects, and the number of rows before it."""
    n = len(columns[fields[0].key])
    checked = {}
    for f in fields:
        checked[f.key], n = f.type.column(f.key, columns[f.key][:n])
    return {key: values[:n] for key, values in checked.items()}, n


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

    A subclass gives the two rules that are not per field: ``dim_message(values,
    row)``, the message for the first row with a vector of another dim than the
    first row's, and ``broken(values)``, which rows break a record rule, as
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
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        record = object.__new__(self.fields.record)
        vars(record).update((f.key, f.type.item(getattr(self, f.key), i)) for f in self.fields)
        return record

    @classmethod
    def _packed(cls, values: Mapping[str, Sequence]) -> Any:
        return cls(**{f.key: f.type.pack(values[f.key]) for f in cls.fields})

    @classmethod
    def _dim_break(
        cls, values: Mapping[str, Sequence], dim: int | None
    ) -> tuple[int, int | None]:
        """The first row with a vector of another dim than ``dim`` (None: the
        first vector's), or the row count; and that dim."""
        bad = np.zeros(len(values[cls.fields[0].key]), bool)
        for f in cls.fields:
            if f.type.vector:
                present = _present(values[f.key])
                lens = np.fromiter(map(len, compress(values[f.key], present)), np.intp)
                if dim is None and lens.size:
                    dim = int(lens[0])
                bad[present] |= lens != dim
        return _first(bad), dim

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
            row, _ = cls._dim_break(values, None)
            raise ValidationError(cls.dim_message(values, row)) from None

    @classmethod
    def checked(
        cls, columns: Mapping[str, list], dim: int | None
    ) -> tuple[Any, int | None, str | None]:
        """The rows of raw ``columns`` before the first that breaks a rule, the
        vector dim, and the message for that row if only the dim rule across
        records (a vector dim other than ``dim``, or the first row's) breaks there."""
        values, n = _checked_columns(cls.fields, columns)
        n_dims, dim = cls._dim_break(values, dim)
        table = cls._packed({key: column[:n_dims] for key, column in values.items()})
        n_ok = _first(table.broken(values))
        if n_ok < n_dims:
            table = cls._packed({key: column[:n_ok] for key, column in values.items()})
        return table, dim, cls.dim_message(values, n_ok) if n_ok == n_dims < n else None

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
    def dim_message(values: Mapping[str, Sequence], row: int) -> str:
        return "inconsistent embedding dims across agents"

    def broken(self, values: Mapping[str, Sequence]) -> np.ndarray:
        bad = ~np.fromiter(map(bool, self.id), bool, len(self))  # an empty id
        # Written as "not <=" so that a NaN norm fails the check too.
        bad |= ~(np.abs(row_norms(self.profile) - 1.0) <= UNIT_TOL)
        bad |= ~(np.isfinite(self.teleport).all(axis=1) & np.isfinite(self.exogenous).all(axis=1))
        return bad


class EdgeTable(Table, fields=EDGE_FIELDS):
    """Edges as columns: ``kind`` holds the codes LABELED, BLIND and FLAG,
    ``severity`` and ``confidence`` NaN where absent, and ``content`` the
    labeled edges' (L, E) contents with their rows."""

    @staticmethod
    def dim_message(values: Mapping[str, Sequence], row: int) -> str:
        return f"edge {values['sender'][row]} -> {values['receiver'][row]}: wrong content dim"

    def broken(self, values: Mapping[str, Sequence]) -> np.ndarray:
        n, content = len(self), self.content
        flag = self.kind == FLAG
        bad = ~((0.0 < self.base_weight) & (self.base_weight < math.inf))
        bad |= ~flag & np.fromiter(map(operator.eq, self.sender, self.receiver), bool, n)
        bad |= content.present != (self.kind == LABELED)
        bad[content.present] |= ~(np.abs(row_norms(content.rows) - 1.0) <= UNIT_TOL)
        has_severity = _present(values["severity"][:n])
        bad |= has_severity != flag
        bad |= has_severity & ~((0.0 <= self.severity) & (self.severity <= 1.0))
        bad |= _present(values["confidence"][:n]) & ~(
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
    index = dict(zip(agents.id, range(n)))
    if len(index) != n:
        seen: set[str] = set()
        dup = next(aid for aid in agents.id if aid in seen or seen.add(aid))
        raise ValidationError(f"duplicate agent id {dup!r}")
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
    bad_rep[flag] = rep < 0
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
        raise ValidationError(f"edge {edges.sender[k]} -> {edges.receiver[k]}: wrong content dim")

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
         for key in agents.owner_key),
        np.int64, n,
    )
    pos_sender, pos_receiver = senders[pos], receivers[pos]
    pos_blind = kinds[pos] == BLIND
    same_owner = (owner[pos_sender] >= 0) & (owner[pos_sender] == owner[pos_receiver])
    pos_weight = edges.base_weight[pos]
    pos_weight[edges.payment[pos]] *= cfg.payment_multiplier
    pos_weight[pos_blind] *= cfg.blind_discount
    pos_weight[same_owner] *= cfg.same_owner_discount
    pos_weight = _row_normalized(pos_sender, pos_weight, n)

    content_mat = np.empty((pos_sender.size, dim))
    if contents.size:
        content_mat[~pos_blind] = contents
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
