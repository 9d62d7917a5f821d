"""Seeded, vectorized scale generator for the benchmark's inputs.

The generator does not import trustprop: the program under test receives
only what this module produces (arrays turned into records, or JSONL files).
Every draw comes from ``numpy.random.default_rng([seed, channel])``, so the
same seed gives the same arrays and the same bytes.

Shape of a corpus:

- agents spread uniformly over the 8 domains of ``trustprop.harness.DOMAINS``
  (copied here), a sixth of them with a secondary domain, each with a
  keyword description so BM25 has signal;
- receivers drawn from a Zipf popularity law, so a few hubs collect a large
  share of in-edges and the scatter sees hub in-degree;
- one labeled edge (with a content vector near the shared domain's centroid)
  for every four blind ones;
- verified flag edges, about 1% of the positive edge count, all pointing at
  a small set of agents marked malicious;
- queries over one or two domains, with their expected domains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Same labels and keyword lists as trustprop.harness, so generated
# descriptions and query texts share vocabulary with the package's own corpus.
DOMAINS = (
    "medicine", "law", "finance", "coding",
    "cybersecurity", "education", "creative", "data_science",
)
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

DIM = 64
ZIPF_EXPONENT = 0.8
LABELED_SHARE = 0.2  # one labeled edge per four blind ones
SAME_DOMAIN_SHARE = 0.75
FLAG_SHARE = 0.01
MALICIOUS_SHARE = 0.01
HUB_SHARE = 0.01
SECONDARY_SHARE = 1 / 6
EXOGENOUS_SHARE = 0.2
CONFIDENCE_SHARE = 0.3
PAYMENT_SHARE = 0.2
PROFILE_NOISE = 0.35
CONTENT_NOISE = 0.25
QUERY_NOISE = 0.15
OFFSET = 0.3  # shared direction all raw embeddings lean toward


def _rng(seed: int, channel: int) -> np.random.Generator:
    return np.random.default_rng([seed, channel])


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@dataclass
class Space:
    """Embedding geometry shared by every batch drawn for one seed."""

    centroids: np.ndarray  # (D, E) orthonormal
    offset: np.ndarray  # (E,)

    def embed(self, rng: np.random.Generator, mix: np.ndarray, noise: float) -> np.ndarray:
        """Unit rows near ``mix @ centroids``, leaning toward the shared offset."""
        base = _unit_rows(mix @ self.centroids)
        g = _unit_rows(rng.standard_normal(base.shape))
        return _unit_rows(_unit_rows(base + noise * g) + self.offset)


def make_space(seed: int) -> Space:
    rng = _rng(seed, 0)
    q, _ = np.linalg.qr(rng.standard_normal((DIM, len(DOMAINS))))
    offset = rng.standard_normal(DIM)
    return Space(centroids=q.T.copy(), offset=OFFSET * offset / np.linalg.norm(offset))


@dataclass
class Agents:
    ids: list[str]
    primary: np.ndarray  # (N,) domain index
    secondary: np.ndarray  # (N,) domain index or -1
    profile: np.ndarray  # (N, E) unit rows
    teleport: np.ndarray  # (N, E)
    exogenous: np.ndarray  # (N, E)
    archetype: list[str]
    description: list[str]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class Edges:
    sender: np.ndarray  # (M,) agent index
    receiver: np.ndarray
    kind: list[str]  # "labeled" | "blind" | "flag"
    base_weight: np.ndarray
    content: list[np.ndarray | None]
    payment: np.ndarray
    severity: np.ndarray  # NaN where not a flag
    confidence: np.ndarray  # NaN where absent

    def __len__(self) -> int:
        return len(self.kind)


@dataclass
class Queries:
    ids: list[str]
    text: list[str]
    embedding: np.ndarray  # (Q, E)
    expected: list[tuple[str, ...]]


@dataclass
class Corpus:
    seed: int
    space: Space
    agents: Agents
    edges: Edges
    queries: Queries
    popularity: np.ndarray  # (N,) receiver probabilities
    malicious: np.ndarray  # agent indices flags point at


def make_agents(
    space: Space, rng: np.random.Generator, n: int, first_id: int = 0
) -> Agents:
    n_dom = len(DOMAINS)
    primary = rng.integers(0, n_dom, size=n)
    has_second = rng.random(n) < SECONDARY_SHARE
    secondary = np.where(has_second, (primary + rng.integers(1, n_dom, size=n)) % n_dom, -1)
    mix = np.zeros((n, n_dom))
    mix[np.arange(n), primary] = 1.0
    mix[has_second, secondary[has_second]] = 0.4
    profile = space.embed(rng, mix, PROFILE_NOISE)
    engagement = rng.uniform(0.05, 0.5, size=n)
    teleport = engagement[:, None] * profile
    has_exo = rng.random(n) < EXOGENOUS_SHARE
    exo_mag = rng.uniform(0.1, 0.3, size=n) * has_exo
    exogenous = exo_mag[:, None] * profile
    picks = np.argsort(rng.random((n, 8)), axis=1)
    description = []
    for i in range(n):
        words = [KEYWORDS[DOMAINS[primary[i]]][k] for k in picks[i, :5]]
        if secondary[i] >= 0:
            words += [KEYWORDS[DOMAINS[secondary[i]]][k] for k in picks[i, 5:7]]
        description.append(f"{DOMAINS[primary[i]].replace('_', ' ')} services: " + " ".join(words))
    return Agents(
        ids=[f"a{first_id + i:06d}" for i in range(n)],
        primary=primary,
        secondary=secondary,
        profile=profile,
        teleport=teleport,
        exogenous=exogenous,
        archetype=["active"] * n,
        description=description,
    )


def zipf_popularity(rng: np.random.Generator, n: int) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return weights[rng.permutation(n)] / weights.sum()


def make_positive_edges(
    space: Space,
    rng: np.random.Generator,
    primary: np.ndarray,
    popularity: np.ndarray,
    m: int,
    senders: np.ndarray | None = None,
) -> Edges:
    """``m`` labeled + blind edges among agents with these primary domains.

    Receivers follow ``popularity``.  Labeled edges prefer a receiver in the
    sender's primary domain; their content sits near the domain both
    endpoints share.
    """
    n = primary.size
    n_labeled = int(round(m * LABELED_SHARE))
    sender = senders if senders is not None else rng.integers(0, n, size=m)
    receiver = rng.choice(n, size=m, p=popularity)
    same = np.zeros(m, dtype=bool)
    same[:n_labeled] = rng.random(n_labeled) < SAME_DOMAIN_SHARE
    for d in range(len(DOMAINS)):
        pool = np.flatnonzero(primary == d)
        rows = np.flatnonzero(same & (primary[sender] == d))
        if rows.size and pool.size > 1:
            p = popularity[pool] / popularity[pool].sum()
            receiver[rows] = pool[rng.choice(pool.size, size=rows.size, p=p)]
    clash = receiver == sender
    receiver[clash] = (receiver[clash] + 1) % n
    shared = np.where(same[:n_labeled], primary[sender[:n_labeled]],
                      primary[receiver[:n_labeled]])
    mix = np.zeros((n_labeled, len(DOMAINS)))
    mix[np.arange(n_labeled), shared] = 1.0
    contents = space.embed(rng, mix, CONTENT_NOISE)
    kind = ["labeled"] * n_labeled + ["blind"] * (m - n_labeled)
    payment = np.zeros(m, dtype=bool)
    payment[:n_labeled] = rng.random(n_labeled) < PAYMENT_SHARE
    confidence = np.full(m, np.nan)
    has_conf = rng.random(n_labeled) < CONFIDENCE_SHARE
    confidence[:n_labeled][has_conf] = np.round(rng.uniform(0.5, 1.0, size=has_conf.sum()), 3)
    return Edges(
        sender=sender,
        receiver=receiver,
        kind=kind,
        base_weight=rng.integers(1, 4, size=m).astype(np.float64),
        content=list(contents) + [None] * (m - n_labeled),
        payment=payment,
        severity=np.full(m, np.nan),
        confidence=confidence,
    )


def make_flag_edges(
    rng: np.random.Generator, n: int, malicious: np.ndarray, count: int
) -> Edges:
    receiver = malicious[rng.integers(0, malicious.size, size=count)]
    sender = rng.integers(0, n, size=count)
    clash = sender == receiver
    sender[clash] = (sender[clash] + 1) % n
    return Edges(
        sender=sender,
        receiver=receiver,
        kind=["flag"] * count,
        base_weight=np.ones(count),
        content=[None] * count,
        payment=np.zeros(count, dtype=bool),
        severity=np.round(rng.uniform(0.5, 1.0, size=count), 3),
        confidence=np.full(count, np.nan),
    )


def concat_edges(a: Edges, b: Edges) -> Edges:
    return Edges(
        sender=np.concatenate([a.sender, b.sender]),
        receiver=np.concatenate([a.receiver, b.receiver]),
        kind=a.kind + b.kind,
        base_weight=np.concatenate([a.base_weight, b.base_weight]),
        content=a.content + b.content,
        payment=np.concatenate([a.payment, b.payment]),
        severity=np.concatenate([a.severity, b.severity]),
        confidence=np.concatenate([a.confidence, b.confidence]),
    )


def make_queries(space: Space, rng: np.random.Generator, count: int) -> Queries:
    """Three single-domain queries for every cross-domain pair query."""
    n_dom = len(DOMAINS)
    first = rng.integers(0, n_dom, size=count)
    pair = rng.random(count) < 0.25
    second = np.where(pair, (first + rng.integers(1, n_dom, size=count)) % n_dom, -1)
    mix = np.zeros((count, n_dom))
    mix[np.arange(count), first] = 1.0
    mix[pair, second[pair]] = 1.0
    picks = np.argsort(rng.random((count, 8)), axis=1)
    texts, expected = [], []
    for i in range(count):
        doms = [DOMAINS[first[i]]] + ([DOMAINS[second[i]]] if pair[i] else [])
        if pair[i]:
            words = [KEYWORDS[doms[0]][k] for k in picks[i, :2]]
            words += [KEYWORDS[doms[1]][k] for k in picks[i, 2:4]]
        else:
            words = [KEYWORDS[doms[0]][k] for k in picks[i, :3]] + ["specialist"]
        texts.append(" ".join(words))
        expected.append(tuple(sorted(doms)))
    return Queries(
        ids=[f"q{i:04d}" for i in range(count)],
        text=texts,
        embedding=space.embed(rng, mix, QUERY_NOISE),
        expected=expected,
    )


def generate(seed: int, n_agents: int, n_pos_edges: int, n_queries: int = 64) -> Corpus:
    """A full corpus: agents, positive edges, ~1% verified flags, queries."""
    space = make_space(seed)
    agents = make_agents(space, _rng(seed, 1), n_agents)
    rng_edges = _rng(seed, 2)
    popularity = zipf_popularity(rng_edges, n_agents)
    order = np.argsort(-popularity, kind="stable")
    n_hubs = max(1, int(n_agents * HUB_SHARE))
    n_mal = max(1, int(n_agents * MALICIOUS_SHARE))
    for i in order[:n_hubs]:
        agents.archetype[i] = "hub"
    # Flag targets are drawn from the unpopular tail, never from the hubs.
    malicious = np.sort(order[-n_mal:])
    for i in malicious:
        agents.archetype[i] = "malicious"
    pos = make_positive_edges(space, rng_edges, agents.primary, popularity, n_pos_edges)
    flags = make_flag_edges(
        _rng(seed, 3), n_agents, malicious, max(1, int(n_pos_edges * FLAG_SHARE))
    )
    return Corpus(
        seed=seed,
        space=space,
        agents=agents,
        edges=concat_edges(pos, flags),
        queries=make_queries(space, _rng(seed, 4), n_queries),
        popularity=popularity,
        malicious=malicious,
    )


# --- JSONL, in the schema trustprop.files reads ---------------------------------


def _line(record: dict) -> str:
    return json.dumps(record, separators=(", ", ": "))


def agents_jsonl(agents: Agents) -> str:
    lines = []
    for i, aid in enumerate(agents.ids):
        sec = [DOMAINS[agents.secondary[i]]] if agents.secondary[i] >= 0 else []
        lines.append(_line({
            "id": aid,
            "primary_domain": DOMAINS[agents.primary[i]],
            "secondary_domains": sec,
            "profile": agents.profile[i].tolist(),
            "teleport": agents.teleport[i].tolist(),
            "exogenous": agents.exogenous[i].tolist(),
            "archetype": agents.archetype[i],
            "description": agents.description[i],
        }))
    return "\n".join(lines) + "\n"


def edges_jsonl(edges: Edges, ids: list[str]) -> str:
    lines = []
    for k, kind in enumerate(edges.kind):
        rec = {
            "sender": ids[edges.sender[k]],
            "receiver": ids[edges.receiver[k]],
            "kind": kind,
            "base_weight": float(edges.base_weight[k]),
        }
        if edges.content[k] is not None:
            rec["content"] = edges.content[k].tolist()
        rec["payment"] = bool(edges.payment[k])
        if kind == "flag":
            rec["verified"] = True
            rec["severity"] = float(edges.severity[k])
        if not np.isnan(edges.confidence[k]):
            rec["confidence"] = float(edges.confidence[k])
        lines.append(_line(rec))
    return "\n".join(lines) + "\n"



FEEDBACK_SHARE = 0.01  # new positive edges per batch, as a share of the corpus's
JOINERS_PER_BATCH = 3
JOINER_OUT_EDGES = 5


def feedback_batch(
    corpus: Corpus, cycle: int, primary: np.ndarray, n_pos_edges: int
) -> tuple[Agents, Edges]:
    """The seeded batch a live market receives at ``cycle``.

    ``primary`` holds the primary domain of every agent present before the
    batch: the corpus's, then each earlier batch's joiners, numbered in that
    order.  The batch brings ``JOINERS_PER_BATCH`` new agents and 1% of
    ``n_pos_edges`` new positive edges, a few of them sent by the joiners.
    A joiner is half as popular as an average agent.  The draw depends only
    on the corpus seed and the cycle number.
    """
    rng = np.random.default_rng([corpus.seed, 100, cycle])
    n_before = primary.size
    joiners = make_agents(corpus.space, rng, JOINERS_PER_BATCH, first_id=n_before)
    n_after = n_before + JOINERS_PER_BATCH
    base = len(corpus.agents)
    popularity = np.concatenate([corpus.popularity, np.full(n_after - base, 0.5 / base)])
    m = int(round(n_pos_edges * FEEDBACK_SHARE))
    senders = rng.integers(0, n_after, size=m)
    joined = np.repeat(np.arange(n_before, n_after), JOINER_OUT_EDGES)[:m]
    senders[: joined.size] = joined
    edges = make_positive_edges(
        corpus.space,
        rng,
        np.concatenate([primary, joiners.primary]),
        popularity / popularity.sum(),
        m,
        senders,
    )
    return joiners, edges
