"""Synthetic benchmark: corpus generation, attack injection, scenario reports.

The generator builds a fully seeded agent economy — hubs, rank-and-file
active agents, dormant lurkers and a malicious pair — with labeled, blind
and payment edges, plus evaluation queries with domain ground truth.
Independent RNG streams per phase keep the agent population bit-identical
across edge-count variations of the same seed.

Attack injectors add edges (never touching profiles, teleport or exogenous
vectors) so that every attacked run is the same economy plus adversarial
wiring.  The guarantees under test lean on one structural fact the generator
maintains: nothing points *at* the malicious pair except what attackers
inject themselves, so their converged magnitude is capped by their own
anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from .errors import ValidationError
from .graph import ARCHETYPES, Agent, Edge, WeightConfig, normalize
from .propagation import (
    PropagationConfig,
    ReputationState,
    run,
    self_alignment,
)
from .retrieval import Query, RankedList, precision_at_k, rank, rank_scores, ranked
from .vectorspace import (
    CenteringModel,
    build_centroids,
    center_and_normalize,
    fit_centering,
    synthetic_embedding,
)

DOMAINS = (
    "medicine",
    "law",
    "finance",
    "coding",
    "cybersecurity",
    "education",
    "creative",
    "data_science",
)

# Hubs sit in these domains; finance deliberately has none, because the
# malicious pair is a finance pair and the cross-domain attack needs five
# hub targets *outside* its domain.
HUB_DOMAINS = ("medicine", "law", "coding", "cybersecurity", "education")

MALICIOUS_DOMAIN = "finance"

SPECIALIST_SECONDARY = {
    "medicine": "data_science",
    "law": "coding",
    "finance": "data_science",
    "coding": "cybersecurity",
    "cybersecurity": "coding",
    "education": "creative",
    "creative": "education",
    "data_science": "medicine",
}

CROSS_QUERY_PAIRS = (("medicine", "data_science"), ("law", "coding"))

KEYWORDS = {
    "medicine": ("clinical", "diagnosis", "patient", "treatment", "pharmacology",
                 "radiology", "triage", "medical"),
    "law": ("contract", "litigation", "compliance", "statute", "counsel",
            "regulatory", "filings", "legal"),
    "finance": ("portfolio", "trading", "valuation", "accounting", "audit",
                "markets", "forecasting", "hedging"),
    "coding": ("software", "debugging", "refactoring", "compilers", "testing",
               "deployment", "interfaces", "automation"),
    "cybersecurity": ("threat", "vulnerability", "encryption", "intrusion",
                      "forensics", "malware", "hardening", "audit"),
    "education": ("curriculum", "tutoring", "assessment", "pedagogy", "lessons",
                  "learning", "students", "grading"),
    "creative": ("storytelling", "design", "illustration", "branding",
                 "copywriting", "narrative", "visuals", "editing"),
    "data_science": ("statistics", "modeling", "datasets", "regression",
                     "clustering", "analytics", "pipelines", "inference"),
}

# Engagement draw ranges per archetype; these set teleport magnitudes.
ENGAGEMENT = {
    "hub": (0.35, 0.55),
    "active": (0.06, 0.45),
    "dormant": (0.02, 0.07),
    "malicious": (0.02, 0.06),
}
# Domains with no hub get one "veteran" active at hub-scale engagement, so
# every domain has a reputable anchor (and a credible flag reporter).
VETERAN_ENGAGEMENT = (0.56, 0.68)

PROFILE_NOISE = 0.35
CONTENT_NOISE = 0.25
QUERY_NOISE = 0.15
EXOGENOUS_PROB = 0.2
EXOGENOUS_RANGE = (0.15, 0.6)
SAME_DOMAIN_EDGE_PROB = 0.75
HUB_RECEIVER_BOOST = 3.0
BLIND_HUB_RECEIVER_BOOST = 2.5
BLIND_SENDER_WEIGHTS = {"hub": 2.0, "active": 1.0, "malicious": 0.3}

_SEED_CAP = 2**31 - 1


@dataclass(frozen=True)
class CorpusSpec:
    """Everything that determines a synthetic corpus, bit for bit.

    The fields are the ``corpus.`` config keys.  Every agent that is not a
    hub, dormant or malicious is active; the first ``specialists`` actives
    also carry their domain's ``SPECIALIST_SECONDARY``.
    """

    seed: int = 42
    n_agents: int = 50
    hubs: int = 5
    dormant: int = 4
    malicious: int = 2
    specialists: int = 6
    labeled_edges: int = 70
    payment_edges: int = 14
    blind_edges: int = 612
    n_queries: int = 10
    cross_domain_queries: int = 2
    embedding_dim: int = 64
    exogenous_scale: float = 0.5
    anisotropy: float = 0.0

    def __post_init__(self) -> None:
        for name in ("seed", "n_agents", "hubs", "dormant", "malicious", "specialists",
                     "labeled_edges", "payment_edges", "blind_edges", "n_queries",
                     "cross_domain_queries", "embedding_dim"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.n_agents < 2:  # the corpus is centered, which takes two embeddings
            raise ValidationError("n_agents must be >= 2")
        if self.hubs + self.dormant + self.malicious > self.n_agents:
            raise ValidationError("corpus archetype counts exceed corpus.n_agents")
        if self.blind_edges and self.hubs + self.actives < 2:
            raise ValidationError("blind_edges need at least two hubs or actives")
        if self.labeled_edges:
            self._check_labeled_pools()
        if self.payment_edges > self.labeled_edges:
            raise ValidationError("payment_edges cannot exceed labeled_edges")
        if self.cross_domain_queries > self.n_queries:
            raise ValidationError("cross_domain_queries cannot exceed n_queries")
        if self.embedding_dim < len(DOMAINS):
            raise ValidationError("embedding_dim must be >= number of domains")
        # Bounds are written "not (in range)" so that NaN fails them too.
        if not 0 <= self.exogenous_scale < math.inf:
            raise ValidationError("exogenous_scale must be finite and >= 0")
        if not self.anisotropy >= 0:
            raise ValidationError("anisotropy must be >= 0")

    @property
    def actives(self) -> int:
        """How many agents are active: neither hubs, dormant nor malicious."""
        return self.n_agents - self.hubs - self.dormant - self.malicious

    def _check_labeled_pools(self) -> None:
        """Reject counts that leave a labeled edge no receiver to draw.

        Hubs and actives send and receive labeled edges.  Each role's k-th
        agent takes the k-th domain of its pool, cyclically, so the count
        per domain follows from the counts.  A same-domain edge needs a
        domain with two of them; a cross-domain edge from a specialist needs
        another one in its secondary domain or else in its primary domain.
        """
        per_domain = dict.fromkeys(DOMAINS, 0)
        for count, pool in ((self.hubs, HUB_DOMAINS), (self.actives, DOMAINS)):
            rounds, rest = divmod(count, len(pool))
            for j, domain in enumerate(pool):
                per_domain[domain] += rounds + (j < rest)
        if max(per_domain.values()) < 2:
            raise ValidationError("labeled_edges need a domain with two hubs or actives")
        for primary in DOMAINS[: min(self.specialists, self.actives)]:
            if not per_domain[SPECIALIST_SECONDARY[primary]] and per_domain[primary] < 2:
                raise ValidationError(
                    f"labeled_edges need a second hub or active in the {primary} "
                    f"specialist's domain or in {SPECIALIST_SECONDARY[primary]}"
                )


@dataclass
class Corpus:
    """A generated corpus plus the embedding-space context it was built in."""

    spec: CorpusSpec
    agents: list[Agent]
    edges: list[Edge]
    queries: list[Query]
    synth_centroids: dict[str, np.ndarray]
    centering: CenteringModel
    offset: np.ndarray

    def malicious_ids(self) -> list[str]:
        return [a.id for a in self.agents if a.archetype == "malicious"]

    def embed_content(self, rng: np.random.Generator, domain: str) -> np.ndarray:
        """Draw a content embedding through the same raw->centered pipeline."""
        seed = int(rng.integers(0, _SEED_CAP))
        raw = synthetic_embedding(
            self.synth_centroids, seed, {domain: 1.0}, CONTENT_NOISE
        )
        raw = raw + self.offset
        return center_and_normalize(self.centering, raw)


def _stream(seed: int, channel: int) -> np.random.Generator:
    return np.random.default_rng([seed, channel])


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically build agents, edges and queries for a spec.

    Generation order (separate RNG streams per phase): domain centroids,
    agent population, labeled edges, blind edges, exogenous draws, queries.
    The raw embedding cloud optionally shares an anisotropy offset; the
    centering model is then fit over profiles + labeled contents and applied
    to everything, queries included.
    """
    centroids = build_centroids(DOMAINS, spec.embedding_dim, spec.seed)

    rng_agents = _stream(spec.seed, 1)
    rng_engage = _stream(spec.seed, 2)
    rng_exo = _stream(spec.seed, 3)
    rng_labeled = _stream(spec.seed, 4)
    rng_blind = _stream(spec.seed, 5)
    rng_query = _stream(spec.seed, 6)
    rng_desc = _stream(spec.seed, 7)

    offset_dir = rng_agents.standard_normal(spec.embedding_dim)
    offset_dir /= np.linalg.norm(offset_dir)
    offset = spec.anisotropy * offset_dir

    # --- population -----------------------------------------------------------
    # Each role's k-th agent takes the k-th domain of its pool, cyclically.
    actives = spec.actives
    populations = {
        "hub": (spec.hubs, HUB_DOMAINS),
        "active": (actives, DOMAINS),
        "dormant": (spec.dormant, DOMAINS),
        "malicious": (spec.malicious, (MALICIOUS_DOMAIN,)),
    }
    roles: list[str] = []
    primaries: list[str] = []
    secondaries: list[tuple[str, ...]] = []
    for role in ARCHETYPES:
        count, pool = populations[role]
        for k in range(count):
            primary = pool[k % len(pool)]
            roles.append(role)
            primaries.append(primary)
            specialist = role == "active" and k < spec.specialists
            secondaries.append((SPECIALIST_SECONDARY[primary],) if specialist else ())

    profile_seeds = rng_agents.integers(0, _SEED_CAP, size=len(roles))
    raw_profiles: list[np.ndarray] = []
    for i, role in enumerate(roles):
        mix: dict[str, float] = {primaries[i]: 1.0}
        if secondaries[i]:
            mix = {primaries[i]: 0.7, secondaries[i][0]: 0.3}
        raw = synthetic_embedding(centroids, int(profile_seeds[i]), mix, PROFILE_NOISE)
        raw_profiles.append(raw + offset)

    # --- labeled edges (raw contents now; Edge records after centering) -------
    eligible = [
        i for i, role in enumerate(roles) if role in ("hub", "active")
    ]
    by_domain: dict[str, list[int]] = {d: [] for d in DOMAINS}
    for i in eligible:
        by_domain[primaries[i]].append(i)
    specialist_idx = [
        i for i in eligible if secondaries[i] and roles[i] == "active"
    ]
    pair_domains = [d for d in DOMAINS if len(by_domain[d]) >= 2]

    def _pick_receiver(rng: np.random.Generator, pool: list[int], sender: int,
                       hub_boost: float) -> int:
        choices = [i for i in pool if i != sender]
        weights = np.asarray(
            [hub_boost if roles[i] == "hub" else 1.0 for i in choices]
        )
        weights = weights / weights.sum()
        return int(rng.choice(choices, p=weights))

    labeled_raw: list[tuple[int, int, float, bool, np.ndarray]] = []
    for e_idx in range(spec.labeled_edges):
        u = rng_labeled.random()
        cross_ok = bool(specialist_idx)
        if cross_ok and u >= SAME_DOMAIN_EDGE_PROB:
            s = int(rng_labeled.choice(specialist_idx))
            shared = secondaries[s][0]
            pool = [i for i in by_domain[shared] if i != s]
            if pool:
                r = _pick_receiver(rng_labeled, pool + [s], s, HUB_RECEIVER_BOOST)
            else:
                shared = primaries[s]
                r = _pick_receiver(rng_labeled, by_domain[shared], s, HUB_RECEIVER_BOOST)
        else:
            d = pair_domains[int(rng_labeled.integers(0, len(pair_domains)))]
            pool = by_domain[d]
            s = int(rng_labeled.choice(pool))
            r = _pick_receiver(rng_labeled, pool, s, HUB_RECEIVER_BOOST)
            shared = d
        weight = float(rng_labeled.integers(1, 4))
        seed = int(rng_labeled.integers(0, _SEED_CAP))
        raw_content = synthetic_embedding(centroids, seed, {shared: 1.0}, CONTENT_NOISE)
        labeled_raw.append(
            (s, r, weight, e_idx < spec.payment_edges, raw_content + offset)
        )

    # --- centering ------------------------------------------------------------
    centering = fit_centering(raw_profiles + [c for *_, c in labeled_raw])
    profiles = [center_and_normalize(centering, p) for p in raw_profiles]

    # --- agents ---------------------------------------------------------------
    # The first active of each domain without a hub: the actives follow the
    # hubs and take the domains in order.
    hubbed = set(HUB_DOMAINS[: spec.hubs])
    veterans = {spec.hubs + k for k, d in enumerate(DOMAINS[:actives]) if d not in hubbed}
    engagements = [
        float(
            rng_engage.uniform(
                *(VETERAN_ENGAGEMENT if i in veterans else ENGAGEMENT[role])
            )
        )
        for i, role in enumerate(roles)
    ]
    exo_u = rng_exo.random(len(roles))
    exo_mag = rng_exo.uniform(*EXOGENOUS_RANGE, size=len(roles))
    first_dormant = roles.index("dormant") if "dormant" in roles else None
    agents: list[Agent] = []
    for i, role in enumerate(roles):
        has_exo = (exo_u[i] < EXOGENOUS_PROB and role != "malicious") or (
            i == first_dormant
        )
        exo = (
            spec.exogenous_scale * float(exo_mag[i]) * profiles[i]
            if has_exo
            else np.zeros(spec.embedding_dim)
        )
        words = list(rng_desc.choice(KEYWORDS[primaries[i]], size=5, replace=False))
        if secondaries[i]:
            words += list(rng_desc.choice(KEYWORDS[secondaries[i][0]], size=2,
                                          replace=False))
        description = f"{primaries[i].replace('_', ' ')} services: " + " ".join(words)
        agents.append(
            Agent(
                id=f"a{i:02d}",
                primary_domain=primaries[i],
                secondary_domains=tuple(secondaries[i]),
                profile=profiles[i],
                teleport=engagements[i] * profiles[i],
                exogenous=exo,
                archetype=role,
                owner_key="owner-mal" if role == "malicious" else None,
                description=description,
            )
        )

    edges: list[Edge] = []
    for s, r, weight, payment, raw_content in labeled_raw:
        edges.append(
            Edge(
                sender=agents[s].id,
                receiver=agents[r].id,
                kind="labeled",
                base_weight=weight,
                content=center_and_normalize(centering, raw_content),
                payment=payment,
            )
        )

    # --- blind edges ----------------------------------------------------------
    # Senders include the (so far benign) malicious pair at low rate; nobody
    # points at malicious or dormant agents, so dormant degree stays ~0 and
    # the malicious ceiling argument holds for the baseline graph.
    sender_pool = [
        i for i, role in enumerate(roles) if role in ("hub", "active", "malicious")
    ]
    sender_w = np.asarray([BLIND_SENDER_WEIGHTS[roles[i]] for i in sender_pool])
    sender_w = sender_w / sender_w.sum()
    receiver_pool = [i for i, role in enumerate(roles) if role in ("hub", "active")]
    receiver_w = np.asarray(
        [BLIND_HUB_RECEIVER_BOOST if roles[i] == "hub" else 1.0 for i in receiver_pool]
    )
    receiver_w = receiver_w / receiver_w.sum()
    for _ in range(spec.blind_edges):
        s = int(rng_blind.choice(sender_pool, p=sender_w))
        r = s
        while r == s:
            r = int(rng_blind.choice(receiver_pool, p=receiver_w))
        edges.append(Edge(sender=agents[s].id, receiver=agents[r].id, kind="blind"))

    # --- queries --------------------------------------------------------------
    queries: list[Query] = []
    n_single = spec.n_queries - spec.cross_domain_queries
    for qi in range(spec.n_queries):
        if qi < n_single:
            domain = DOMAINS[qi % len(DOMAINS)]
            mix = {domain: 1.0}
            expected = {domain}
            words = rng_query.choice(KEYWORDS[domain], size=3, replace=False)
            text = " ".join(words) + " specialist"
        else:
            d1, d2 = CROSS_QUERY_PAIRS[(qi - n_single) % len(CROSS_QUERY_PAIRS)]
            mix = {d1: 0.5, d2: 0.5}
            expected = {d1, d2}
            w1 = rng_query.choice(KEYWORDS[d1], size=2, replace=False)
            w2 = rng_query.choice(KEYWORDS[d2], size=2, replace=False)
            text = " ".join(list(w1) + list(w2))
        seed = int(rng_query.integers(0, _SEED_CAP))
        raw = synthetic_embedding(centroids, seed, mix, QUERY_NOISE) + offset
        queries.append(
            Query(
                id=f"q{qi:02d}",
                text=text,
                embedding=center_and_normalize(centering, raw),
                expected_domains=frozenset(expected),
            )
        )

    return Corpus(
        spec=spec,
        agents=agents,
        edges=edges,
        queries=queries,
        synth_centroids=centroids,
        centering=centering,
        offset=offset,
    )


# --- attack injectors ---------------------------------------------------------

CROSS_SYBIL_MUTUAL = 30
CROSS_SYBIL_SPAM = 82
SAME_SYBIL_MUTUAL = 40
SAME_SYBIL_TARGETS = 4
SAME_SYBIL_SPAM_PER_TARGET = 6
LAUNDER_PUMP = 30
LAUNDER_FORWARD = 10
VOTE_RING_SIZE = 5
VOTE_RING_EDGES = 75
HEAVY_BASE_WEIGHT = 3.0
FLAG_DEFENSE_TOP_K = 2


def _finance_actives(corpus: Corpus) -> list[Agent]:
    return [
        a
        for a in corpus.agents
        if a.archetype == "active" and a.primary_domain == MALICIOUS_DOMAIN
    ]


def _malicious_pair(corpus: Corpus) -> tuple[str, str]:
    mal = corpus.malicious_ids()
    if len(mal) < 2:
        raise ValidationError("corpus has no malicious pair")
    return mal[0], mal[1]


def _heavy_edge(
    corpus: Corpus, rng: np.random.Generator, sender: str, receiver: str, domain: str
) -> Edge:
    """A heavy labeled edge whose content is on ``domain``'s topic."""
    return Edge(
        sender=sender,
        receiver=receiver,
        kind="labeled",
        base_weight=HEAVY_BASE_WEIGHT,
        content=corpus.embed_content(rng, domain),
    )


def inject_cross_domain_sybil(corpus: Corpus) -> Corpus:
    """Mutual-boost ring on the malicious pair plus blind spam at foreign hubs.

    Adds 30 heavy on-topic edges inside the pair and 82 blind edges toward
    the five hubs outside the pair's domain (112 new outgoing edges total).
    """
    rng = _stream(corpus.spec.seed, 101)
    m1, m2 = _malicious_pair(corpus)
    hubs = [
        a.id
        for a in corpus.agents
        if a.archetype == "hub" and a.primary_domain != MALICIOUS_DOMAIN
    ][:5]
    if not hubs:
        raise ValidationError("no foreign hubs to spam")
    added: list[Edge] = []
    for k in range(CROSS_SYBIL_MUTUAL):
        s, r = (m1, m2) if k % 2 == 0 else (m2, m1)
        added.append(_heavy_edge(corpus, rng, s, r, MALICIOUS_DOMAIN))
    for k in range(CROSS_SYBIL_SPAM):
        s = m1 if k % 2 == 0 else m2
        added.append(
            Edge(sender=s, receiver=hubs[k % len(hubs)], kind="blind")
        )
    return replace(corpus, edges=corpus.edges + added)


def inject_same_domain_sybil(corpus: Corpus) -> Corpus:
    """Mutual-boost ring on the pair plus blind spam at same-domain targets."""
    rng = _stream(corpus.spec.seed, 102)
    m1, m2 = _malicious_pair(corpus)
    targets = [a.id for a in _finance_actives(corpus)][:SAME_SYBIL_TARGETS]
    if not targets:
        raise ValidationError("no same-domain targets to spam")
    added: list[Edge] = []
    for k in range(SAME_SYBIL_MUTUAL):
        s, r = (m1, m2) if k % 2 == 0 else (m2, m1)
        added.append(_heavy_edge(corpus, rng, s, r, MALICIOUS_DOMAIN))
    for t_idx, target in enumerate(targets):
        for k in range(SAME_SYBIL_SPAM_PER_TARGET):
            s = m1 if (t_idx + k) % 2 == 0 else m2
            added.append(Edge(sender=s, receiver=target, kind="blind"))
    return replace(corpus, edges=corpus.edges + added)


def inject_laundering(corpus: Corpus) -> Corpus:
    """Pump reputation into a clean intermediary that forwards to a hub."""
    rng = _stream(corpus.spec.seed, 103)
    mal = corpus.malicious_ids()
    if not mal:
        raise ValidationError("corpus has no malicious agents")
    source = mal[0]
    actives = _finance_actives(corpus)
    if not actives:
        raise ValidationError("no intermediary available")
    intermediary = actives[0]
    hubs = [a for a in corpus.agents if a.archetype == "hub"]
    if not hubs:
        raise ValidationError("no hub to forward to")
    hub = hubs[0]
    added: list[Edge] = []
    for _ in range(LAUNDER_PUMP):
        added.append(_heavy_edge(corpus, rng, source, intermediary.id, MALICIOUS_DOMAIN))
    for _ in range(LAUNDER_FORWARD):
        added.append(_heavy_edge(corpus, rng, intermediary.id, hub.id, hub.primary_domain))
    return replace(corpus, edges=corpus.edges + added)


def inject_vote_ring(corpus: Corpus) -> Corpus:
    """Directed voting cycle of five same-domain colluders, 75 heavy edges.

    The colluders are ordinary (non-malicious) same-domain agents; the
    malicious pair's wiring is untouched by this scenario.
    """
    rng = _stream(corpus.spec.seed, 104)
    ring = [a.id for a in _finance_actives(corpus)][:VOTE_RING_SIZE]
    if len(ring) < 2:
        raise ValidationError("not enough same-domain agents for a ring")
    added: list[Edge] = []
    for k in range(VOTE_RING_EDGES):
        i = k % len(ring)
        added.append(_heavy_edge(corpus, rng, ring[i], ring[(i + 1) % len(ring)], MALICIOUS_DOMAIN))
    return replace(corpus, edges=corpus.edges + added)


INJECTORS: dict[str, Callable[[Corpus], Corpus]] = {
    "cross_domain_sybil": inject_cross_domain_sybil,
    "same_domain_sybil": inject_same_domain_sybil,
    "laundering": inject_laundering,
    "vote_ring": inject_vote_ring,
}


def apply_flag_defense(
    corpus: Corpus, reporters: Sequence[str], severity: float
) -> Corpus:
    """Each reporter files a verified flag against each malicious agent."""
    if not 0.0 <= severity <= 1.0:
        raise ValidationError("severity must lie in [0, 1]")
    mal = corpus.malicious_ids()
    if not mal:
        raise ValidationError("corpus has no malicious agents")
    added = [
        Edge(sender=rep, receiver=m, kind="flag", severity=severity, verified=True)
        for rep in reporters
        for m in mal
    ]
    return replace(corpus, edges=corpus.edges + added)


# --- scenario running ---------------------------------------------------------


def _injector(scenario: str | None) -> Callable[[Corpus], Corpus]:
    """The injector named ``scenario``, or no attack for None; an unknown name
    is a ValidationError, which a runner raises before it generates a corpus."""
    if scenario is not None and scenario not in INJECTORS:
        raise ValidationError(f"unknown scenario {scenario!r}")
    return INJECTORS.get(scenario, lambda corpus: corpus)


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    edges_baseline: int
    edges_attacked: int
    iterations_baseline: int
    iterations_attacked: int
    converged_baseline: bool
    converged_attacked: bool
    p5_strict_baseline: float
    p5_strict_attacked: float
    p5_multilabel_baseline: float
    p5_multilabel_attacked: float
    mean_alignment_baseline: float
    mean_alignment_attacked: float
    malicious_percentile_baseline: dict[str, float]
    malicious_percentile_attacked: dict[str, float]

    @property
    def p5_strict_delta(self) -> float:
        return self.p5_strict_attacked - self.p5_strict_baseline

    @property
    def p5_multilabel_delta(self) -> float:
        return self.p5_multilabel_attacked - self.p5_multilabel_baseline

    def csv_rows(self) -> list[list[str]]:
        """A (name, value) row per field, in field order; floats by repr, and
        one row per agent of a per-agent dict, in id order."""
        rows = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                rows += [[f"{f.name}_{aid}", repr(value[aid])] for aid in sorted(value)]
            else:
                rows.append([f.name, repr(value) if isinstance(value, float) else str(value)])
        return rows


def magnitude_percentiles(state: ReputationState) -> dict[str, float]:
    """Percentile of each agent in the descending ||R|| order (1st = top)."""
    order = ranked(state.agent_ids, state.magnitudes())
    n = len(order)
    return {aid: 100.0 * (pos + 1) / n for pos, (aid, _) in enumerate(order)}


def rank_queries(
    state: ReputationState,
    corpus: Corpus,
    strategy: str = "dot",
    beta_mix: float = 0.5,
    variant: str = "power",
) -> dict[str, RankedList]:
    """``retrieval.rank`` for every query of the corpus, keyed by query id."""
    return {
        q.id: rank(state, q, strategy, corpus.agents, beta_mix, variant)
        for q in corpus.queries
    }


def mean_precision(
    rankings: Mapping[str, RankedList],
    corpus: Corpus,
    mode: str,
    k: int = 5,
) -> float:
    vals = [
        precision_at_k(rankings[q.id], corpus.agents, q.expected_domains, k, mode)
        for q in corpus.queries
    ]
    return float(np.mean(vals)) if vals else 0.0


def require_continuous(prop_cfg: PropagationConfig) -> None:
    """Reject discrete mode before a corpus is generated for ranking.

    Corpus queries are E-dimensional and a discrete state holds D domain
    buckets per agent, so its rows cannot be ranked against them.
    """
    if prop_cfg.mode != "continuous":
        raise ValidationError(
            "attack and bench rank E-dimensional queries; "
            "they need propagation.mode = continuous"
        )


def run_scenario(
    spec: CorpusSpec,
    scenario: str | None,
    prop_cfg: PropagationConfig = PropagationConfig(),
    weight_cfg: WeightConfig = WeightConfig(),
    strategy: str = "dot",
    beta_mix: float = 0.5,
    variant: str = "power",
) -> ScenarioReport:
    """Propagate baseline and attacked corpora and compare retrieval quality.

    ``strategy``, ``beta_mix`` and ``variant`` choose the ranking, as in
    ``retrieval.rank``.
    """
    inject = _injector(scenario)
    require_continuous(prop_cfg)
    corpus = generate_corpus(spec)
    mal = corpus.malicious_ids()

    def side(c: Corpus, name: str) -> dict[str, Any]:
        """The report's fields for one side, ``baseline`` or ``attacked``."""
        graph = normalize(c.agents, c.edges, weight_cfg)
        state = run(graph, prop_cfg)
        rankings = rank_queries(state, c, strategy, beta_mix, variant)
        pct = magnitude_percentiles(state)
        values = {
            "edges": len(c.edges),
            "iterations": state.iterations,
            "converged": state.converged,
            "p5_strict": mean_precision(rankings, c, "strict"),
            "p5_multilabel": mean_precision(rankings, c, "multilabel"),
            "mean_alignment": float(np.mean(list(self_alignment(state, graph).values()))),
            "malicious_percentile": {m: pct[m] for m in mal},
        }
        return {f"{key}_{name}": value for key, value in values.items()}

    return ScenarioReport(
        scenario=scenario or "baseline",
        seed=spec.seed,
        **side(corpus, "baseline"),
        **side(inject(corpus), "attacked"),
    )


@dataclass
class FlagDefenseReport:
    scenario: str
    severity: float
    reporters: tuple[str, ...]
    flagged: tuple[str, ...]
    magnitudes_unflagged: dict[str, float]
    magnitudes_flagged: dict[str, float]
    iterations_unflagged: int
    iterations_flagged: int
    converged_unflagged: bool
    converged_flagged: bool

    def reduction(self, agent_id: str) -> float:
        before = self.magnitudes_unflagged[agent_id]
        after = self.magnitudes_flagged[agent_id]
        return 0.0 if before == 0 else 1.0 - after / before

    def nonflagged_order(self, which: str) -> list[str]:
        mags = (
            self.magnitudes_unflagged if which == "unflagged" else self.magnitudes_flagged
        )
        return [a for a, _ in rank_scores(mags) if a not in self.flagged]

    def csv_rows(self) -> list[list[str]]:
        rows = [
            ["scenario", self.scenario],
            ["severity", repr(self.severity)],
            ["reporters", " ".join(self.reporters)],
            ["iterations_unflagged", str(self.iterations_unflagged)],
            ["iterations_flagged", str(self.iterations_flagged)],
        ]
        for aid in self.flagged:
            rows.append([f"magnitude_unflagged_{aid}",
                         repr(self.magnitudes_unflagged[aid])])
            rows.append([f"magnitude_flagged_{aid}",
                         repr(self.magnitudes_flagged[aid])])
            rows.append([f"reduction_{aid}", repr(self.reduction(aid))])
        return rows


def run_flag_scenario(
    spec: CorpusSpec,
    severity: float = 0.95,
    prop_cfg: PropagationConfig = PropagationConfig(),
    weight_cfg: WeightConfig = WeightConfig(),
    scenario: str = "same_domain_sybil",
) -> FlagDefenseReport:
    """Flag-defense experiment on the discrete engine, split top-2 by domain.

    Reporters are the three highest-magnitude non-malicious agents of the
    *pre-attack* converged state; their reputations weight the flag edges.
    Compares the attacked run with and without the flags.
    """
    inject = _injector(scenario)
    corpus = generate_corpus(spec)
    attacked = inject(corpus)
    cfg = replace(prop_cfg, mode="discrete", top_k=FLAG_DEFENSE_TOP_K)

    def _discrete_run(c: Corpus, reps=None) -> ReputationState:
        return run(normalize(c.agents, c.edges, weight_cfg, reps), cfg)

    base_state = _discrete_run(corpus)
    mal = set(corpus.malicious_ids())
    by_magnitude = ranked(base_state.agent_ids, base_state.magnitudes())
    reporter_reps = dict([(aid, m) for aid, m in by_magnitude if aid not in mal][:3])
    reporters = list(reporter_reps)

    unflagged_state = _discrete_run(attacked)
    flagged_corpus = apply_flag_defense(attacked, reporters, severity)
    flagged_state = _discrete_run(flagged_corpus, reps=reporter_reps)

    ids = unflagged_state.agent_ids
    return FlagDefenseReport(
        scenario=scenario,
        severity=severity,
        reporters=tuple(reporters),
        flagged=tuple(sorted(mal)),
        magnitudes_unflagged=dict(zip(ids, unflagged_state.magnitudes().tolist())),
        magnitudes_flagged=dict(zip(ids, flagged_state.magnitudes().tolist())),
        iterations_unflagged=unflagged_state.iterations,
        iterations_flagged=flagged_state.iterations,
        converged_unflagged=unflagged_state.converged,
        converged_flagged=flagged_state.converged,
    )


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Aligned-column text table used by reports."""
    table = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * widths[c] for c in range(len(header))))
    return "\n".join(lines) + "\n"
