"""Tests for the synthetic corpus generator, attack injectors and reports."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trustprop import harness
from trustprop.errors import ValidationError
from trustprop.graph import normalize
from trustprop.harness import (
    CROSS_QUERY_PAIRS,
    CROSS_SYBIL_MUTUAL,
    CROSS_SYBIL_SPAM,
    DOMAINS,
    HEAVY_BASE_WEIGHT,
    HUB_DOMAINS,
    INJECTORS,
    LAUNDER_FORWARD,
    LAUNDER_PUMP,
    MALICIOUS_DOMAIN,
    SAME_SYBIL_MUTUAL,
    SAME_SYBIL_SPAM_PER_TARGET,
    SAME_SYBIL_TARGETS,
    SPECIALIST_SECONDARY,
    VETERAN_ENGAGEMENT,
    VOTE_RING_EDGES,
    CorpusSpec,
    FlagDefenseReport,
    ScenarioReport,
    apply_flag_defense,
    format_table,
    generate_corpus,
    magnitude_percentiles,
    mean_p5,
    run_flag_scenario,
    run_scenario,
)
from trustprop.propagation import ReputationState, steady_state_bound
from trustprop.retrieval import pipeline_search, precision_at_k, score_mixed

from conftest import assert_within_steady_bound


def _edge_key(e):
    return (e.sender, e.receiver, e.kind, e.base_weight, e.payment)


# ---------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(ValidationError):
        CorpusSpec(seed=-1)
    with pytest.raises(ValidationError):
        CorpusSpec(n_agents=10)  # 5 hubs + 4 dormant + 2 malicious > 10
    with pytest.raises(ValidationError):
        CorpusSpec(payment_edges=80)
    with pytest.raises(ValidationError):
        CorpusSpec(cross_domain_queries=11)
    with pytest.raises(ValidationError):
        CorpusSpec(embedding_dim=4)
    with pytest.raises(ValidationError):
        CorpusSpec(anisotropy=-0.5)


@pytest.mark.parametrize(
    "field, value",
    [("exogenous_scale", -1.0), ("exogenous_scale", float("nan")),
     ("exogenous_scale", float("inf")), ("anisotropy", float("nan"))],
)
def test_spec_rejects_negative_and_non_finite_scales(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be"):
        CorpusSpec(**{field: value})


@pytest.mark.parametrize(
    "field",
    ["seed", "n_agents", "hubs", "dormant", "malicious", "specialists", "labeled_edges",
     "payment_edges", "blind_edges", "n_queries", "cross_domain_queries", "embedding_dim"],
)
def test_spec_rejects_negative_counts(field):
    with pytest.raises(ValidationError, match=f"^{field} must be >= 0$"):
        CorpusSpec(**{field: -1})


def test_spec_needs_two_agents_to_center():
    counts = ("hubs", "dormant", "malicious", "specialists", "labeled_edges", "payment_edges",
              "blind_edges", "n_queries", "cross_domain_queries")
    zero = dict.fromkeys(counts, 0)
    for n_agents in (0, 1):
        with pytest.raises(ValidationError, match="^n_agents must be >= 2$"):
            CorpusSpec(n_agents=n_agents, **zero)
    assert len(generate_corpus(CorpusSpec(n_agents=2, **zero)).agents) == 2


def test_spec_rejects_archetype_counts_beyond_n_agents():
    # 5 hubs + 4 dormant + 2 malicious, no actives; the hubs sit in five
    # domains, so no domain holds the two that a labeled edge needs.
    CorpusSpec(n_agents=11, labeled_edges=0, payment_edges=0)
    with pytest.raises(ValidationError, match="corpus archetype counts exceed corpus.n_agents"):
        CorpusSpec(n_agents=10)


# ---------------------------------------------------------------- population


def test_corpus_population_counts(corpus, spec):
    assert len(corpus.agents) == spec.n_agents
    counts = Counter(a.archetype for a in corpus.agents)
    actives = spec.n_agents - spec.hubs - spec.dormant - spec.malicious
    assert counts == {"hub": spec.hubs, "active": actives, "dormant": spec.dormant,
                      "malicious": spec.malicious}


def _counter_population(n_agents, hubs, dormant, malicious, specialists):
    """(archetype, primary, secondaries) per agent and the veteran indices,
    built with one running counter per role, the way the generator first did."""
    actives = n_agents - hubs - dormant - malicious
    roles = ["hub"] * hubs + ["active"] * actives + ["dormant"] * dormant
    roles += ["malicious"] * malicious
    population = []
    n_hub_seen = n_active_seen = n_dormant_seen = 0
    for role in roles:
        if role == "hub":
            population.append((role, HUB_DOMAINS[n_hub_seen % len(HUB_DOMAINS)], ()))
            n_hub_seen += 1
        elif role == "active":
            primary = DOMAINS[n_active_seen % len(DOMAINS)]
            second = SPECIALIST_SECONDARY[primary] if n_active_seen < specialists else None
            population.append((role, primary, (second,) if second else ()))
            n_active_seen += 1
        elif role == "dormant":
            population.append((role, DOMAINS[n_dormant_seen % len(DOMAINS)], ()))
            n_dormant_seen += 1
        else:
            population.append((role, MALICIOUS_DOMAIN, ()))
    hubbed = {primary for role, primary, _ in population if role == "hub"}
    veterans = set()
    for d in DOMAINS:
        if d not in hubbed:
            veterans.update(
                [i for i, (role, primary, _) in enumerate(population)
                 if role == "active" and primary == d][:1]
            )
    return population, veterans


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_population_matches_the_per_role_counter_loop(data):
    hubs = data.draw(st.integers(0, 7), label="hubs")
    dormant = data.draw(st.integers(0, 10), label="dormant")
    n_agents = data.draw(st.integers(hubs + dormant + 2, hubs + dormant + 30), label="n_agents")
    specialists = data.draw(st.integers(0, 12), label="specialists")
    spec = CorpusSpec(
        n_agents=n_agents, hubs=hubs, dormant=dormant, malicious=2, specialists=specialists,
        labeled_edges=0, payment_edges=0, blind_edges=0,
    )
    agents = generate_corpus(spec).agents
    population, veterans = _counter_population(n_agents, hubs, dormant, 2, specialists)
    assert [(a.archetype, a.primary_domain, a.secondary_domains) for a in agents] == population
    # Veterans draw their engagement, the teleport norm, above every other active's.
    assert {
        i for i, a in enumerate(agents)
        if a.archetype == "active" and np.linalg.norm(a.teleport) >= VETERAN_ENGAGEMENT[0]
    } == veterans


@settings(derandomize=True, max_examples=600, deadline=None)
@given(data=st.data())
def test_every_accepted_small_spec_generates_every_edge_kind(data):
    # CorpusSpec checks the labeled pools with its own divmod count, apart
    # from the generator's population loop; every spec it accepts must
    # generate, with labeled, payment and blind edges all present.
    counts = {
        name: data.draw(st.integers(lo, hi), label=name)
        for name, lo, hi in (("n_agents", 2, 24), ("hubs", 0, 7), ("dormant", 0, 6),
                             ("malicious", 0, 3), ("specialists", 0, 10),
                             ("labeled_edges", 1, 12), ("blind_edges", 1, 12))
    }
    counts["payment_edges"] = data.draw(st.integers(1, counts["labeled_edges"]), label="payment")
    try:
        spec = CorpusSpec(n_queries=2, cross_domain_queries=1, embedding_dim=8, **counts)
    except ValidationError:
        assume(False)
    corpus = generate_corpus(spec)
    kinds = Counter(e.kind for e in corpus.edges)
    assert kinds == {"labeled": spec.labeled_edges, "blind": spec.blind_edges}
    assert sum(e.payment for e in corpus.edges) == spec.payment_edges


def test_hubs_cover_the_hub_domains(corpus):
    hubs = [a for a in corpus.agents if a.archetype == "hub"]
    assert [h.primary_domain for h in hubs] == list(HUB_DOMAINS)


def test_malicious_pair_shares_owner_and_finance(corpus):
    mal = [a for a in corpus.agents if a.archetype == "malicious"]
    assert len(mal) == 2
    assert {m.primary_domain for m in mal} == {"finance"}
    assert {m.owner_key for m in mal} == {"owner-mal"}


def test_profiles_are_unit_and_consistent_dim(corpus, spec):
    for a in corpus.agents:
        assert a.profile.shape == (spec.embedding_dim,)
        assert abs(np.linalg.norm(a.profile) - 1.0) < 1e-9


def test_specialist_actives_carry_secondary_domains(corpus, spec):
    with_secondary = [a for a in corpus.agents if a.secondary_domains]
    assert len(with_secondary) == spec.specialists
    for a in with_secondary:
        assert a.archetype == "active"
        assert all(d in DOMAINS for d in a.secondary_domains)
        assert a.primary_domain not in a.secondary_domains


def test_descriptions_lead_with_the_primary_domain(corpus):
    for a in corpus.agents:
        assert a.description
        assert a.description.startswith(a.primary_domain.replace("_", " "))


# ---------------------------------------------------------------- edges


def test_edge_counts_by_kind(corpus, spec):
    kinds = Counter(e.kind for e in corpus.edges)
    assert kinds["labeled"] == spec.labeled_edges
    assert kinds["blind"] == spec.blind_edges
    assert kinds.get("flag", 0) == 0
    payments = sum(1 for e in corpus.edges if e.payment)
    assert payments == spec.payment_edges


def test_dormant_agents_have_degree_at_most_one(corpus):
    dormant = {a.id for a in corpus.agents if a.archetype == "dormant"}
    degree = Counter()
    for e in corpus.edges:
        for aid in (e.sender, e.receiver):
            if aid in dormant:
                degree[aid] += 1
    assert all(d <= 1 for d in degree.values())


def test_malicious_agents_receive_no_baseline_edges(corpus):
    mal = set(corpus.malicious_ids())
    assert not any(e.receiver in mal for e in corpus.edges)


def test_queries_cover_domains_plus_cross_pairs(corpus, spec):
    assert len(corpus.queries) == spec.n_queries
    single = corpus.queries[: spec.n_queries - spec.cross_domain_queries]
    for q, domain in zip(single, DOMAINS):
        assert q.expected_domains == {domain}
    cross = corpus.queries[-spec.cross_domain_queries :]
    for q, pair in zip(cross, CROSS_QUERY_PAIRS):
        assert q.expected_domains == set(pair)
    for q in corpus.queries:
        assert abs(np.linalg.norm(q.embedding) - 1.0) < 1e-9
        assert q.text


def test_generate_corpus_is_deterministic(corpus, spec):
    again = generate_corpus(spec)
    for a, b in zip(corpus.agents, again.agents):
        assert a.id == b.id
        assert np.array_equal(a.profile, b.profile)
        assert np.array_equal(a.teleport, b.teleport)
        assert np.array_equal(a.exogenous, b.exogenous)
    assert [_edge_key(e) for e in corpus.edges] == [_edge_key(e) for e in again.edges]


def test_different_seed_changes_the_corpus(corpus, spec):
    other = generate_corpus(replace(spec, seed=43))
    assert not np.array_equal(other.agents[0].profile, corpus.agents[0].profile)


def test_zero_blind_spec_drops_blind_edges(spec):
    small = generate_corpus(replace(spec, blind_edges=0))
    kinds = Counter(e.kind for e in small.edges)
    assert kinds["blind"] == 0
    assert kinds["labeled"] == spec.labeled_edges


def test_embed_content_is_unit_and_stream_deterministic(corpus):
    v1 = corpus.embed_content(np.random.default_rng(0), "medicine")
    v2 = corpus.embed_content(np.random.default_rng(0), "medicine")
    assert np.array_equal(v1, v2)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-12


# ---------------------------------------------------------------- injectors


def test_injector_registry_names():
    assert set(INJECTORS) == {
        "cross_domain_sybil",
        "same_domain_sybil",
        "laundering",
        "vote_ring",
    }


@pytest.mark.parametrize(
    "name,extra",
    [
        ("cross_domain_sybil", CROSS_SYBIL_MUTUAL + CROSS_SYBIL_SPAM),
        ("same_domain_sybil", SAME_SYBIL_MUTUAL + SAME_SYBIL_TARGETS * SAME_SYBIL_SPAM_PER_TARGET),
        ("laundering", LAUNDER_PUMP + LAUNDER_FORWARD),
        ("vote_ring", VOTE_RING_EDGES),
    ],
)
def test_injectors_add_exactly_their_edge_budget(corpus, name, extra):
    attacked = INJECTORS[name](corpus)
    assert attacked.agents is corpus.agents  # no population change
    assert len(attacked.edges) == len(corpus.edges) + extra
    assert attacked.edges[: len(corpus.edges)] == corpus.edges


def test_injectors_are_deterministic(corpus):
    for name, inject in INJECTORS.items():
        once = inject(corpus)
        twice = inject(corpus)
        assert [_edge_key(e) for e in once.edges] == [_edge_key(e) for e in twice.edges], name


def test_cross_sybil_spam_targets_foreign_hubs(corpus):
    attacked = INJECTORS["cross_domain_sybil"](corpus)
    new = attacked.edges[len(corpus.edges) :]
    mal = set(corpus.malicious_ids())
    hubs = {a.id for a in corpus.agents if a.archetype == "hub"}
    for e in new:
        assert e.sender in mal
        assert e.receiver in mal | hubs
    spam = [e for e in new if e.receiver in hubs]
    assert len(spam) == CROSS_SYBIL_SPAM


def test_vote_ring_cycles_heavy_weights_among_finance_actives(corpus):
    attacked = INJECTORS["vote_ring"](corpus)
    new = attacked.edges[len(corpus.edges) :]
    mal = set(corpus.malicious_ids())
    finance_actives = {
        a.id
        for a in corpus.agents
        if a.archetype == "active" and a.primary_domain == "finance"
    }
    assert all(e.base_weight == HEAVY_BASE_WEIGHT for e in new)
    ring = {e.sender for e in new}
    assert ring <= finance_actives and len(ring) == 5
    assert all(e.receiver in ring for e in new)  # closed cycle
    assert not any(e.sender in mal or e.receiver in mal for e in new)


def test_laundering_pumps_through_a_clean_intermediary(corpus):
    attacked = INJECTORS["laundering"](corpus)
    new = attacked.edges[len(corpus.edges) :]
    mal = set(corpus.malicious_ids())
    hubs = {a.id for a in corpus.agents if a.archetype == "hub"}
    pump = [e for e in new if e.sender in mal]
    forward = [e for e in new if e.sender not in mal]
    assert len(pump) == LAUNDER_PUMP
    assert len(forward) == LAUNDER_FORWARD
    intermediaries = {e.receiver for e in pump}
    assert len(intermediaries) == 1
    assert all(e.sender in intermediaries for e in forward)
    assert all(e.receiver in hubs for e in forward)


# ---------------------------------------------------------------- flags


def test_apply_flag_defense_adds_verified_flags(corpus):
    flagged = apply_flag_defense(corpus, ["a00", "a01"], severity=0.9)
    new = flagged.edges[len(corpus.edges) :]
    assert len(new) == 2 * len(corpus.malicious_ids())
    for e in new:
        assert e.kind == "flag"
        assert e.verified
        assert e.severity == 0.9
    with pytest.raises(ValidationError):
        apply_flag_defense(corpus, ["a00"], severity=1.5)
    benign = replace(corpus, agents=[a for a in corpus.agents if a.archetype != "malicious"])
    with pytest.raises(ValidationError, match="^corpus has no malicious agents$"):
        apply_flag_defense(benign, ["a00"], severity=0.9)


def test_zero_severity_flags_change_nothing(corpus, graph):
    flagged = apply_flag_defense(corpus, ["a00"], severity=0.0)
    g2 = normalize(flagged.agents, flagged.edges)
    assert g2.n_neg_edges == 0
    assert np.array_equal(g2.pos_weight, graph.pos_weight)
    assert np.array_equal(g2.pos_content, graph.pos_content)


# ---------------------------------------------------------------- reporting


def test_magnitude_percentiles_rank_with_ties_by_id():
    state = ReputationState(
        vectors=np.array([[3.0], [1.0], [1.0], [0.0]]),
        agent_ids=("a", "b", "c", "d"),
    )
    pct = magnitude_percentiles(state)
    assert pct == {"a": 25.0, "b": 50.0, "c": 75.0, "d": 100.0}


def test_mean_p5_rejects_unknown_strategy(corpus, baseline):
    with pytest.raises(ValidationError):
        mean_p5(baseline, corpus, strategy="oracle")


def _means(rankings, corpus):
    return tuple(
        float(np.mean([precision_at_k(r, corpus.agents, q.expected_domains, 5, mode)
                       for r, q in zip(rankings, corpus.queries)]))
        for mode in ("strict", "multilabel")
    )


def test_mean_p5_passes_retrieval_settings_through(corpus, baseline, monkeypatch):
    got = mean_p5(baseline, corpus, "mixed", beta_mix=0.3, variant="log_damped")
    mixed = [score_mixed(baseline, q, 0.3, "log_damped") for q in corpus.queries]
    assert got == _means(mixed, corpus)
    piped = [pipeline_search(baseline, corpus.agents, q) for q in corpus.queries]
    assert mean_p5(baseline, corpus, "pipeline") == _means(piped, corpus)

    # On this corpus every mixed setting gives the same means, so the calls
    # show that the settings reach the ranking, once per query.
    calls = []
    rank = harness.rank
    monkeypatch.setattr(harness, "rank", lambda *args: calls.append(args) or rank(*args))
    mean_p5(baseline, corpus, "mixed", beta_mix=0.3, variant="log_damped")
    assert [(args[1].id, args[2:]) for args in calls] == [
        (q.id, ("mixed", corpus.agents, 0.3, "log_damped")) for q in corpus.queries
    ]


def test_mean_p5_of_a_corpus_without_queries_is_zero(corpus, baseline):
    assert mean_p5(baseline, replace(corpus, queries=[])) == (0.0, 0.0)


def test_run_scenario_baseline_has_zero_deltas(spec):
    report = run_scenario(spec, None)
    assert report.scenario == "baseline"
    assert report.converged_baseline and report.converged_attacked
    assert report.edges_baseline == report.edges_attacked
    assert report.p5_strict_delta == 0.0
    assert report.p5_multilabel_delta == 0.0
    rows = report.csv_rows()
    assert ["scenario", "baseline"] in rows


def test_scenario_report_rows_are_pinned():
    # The rows are report_<scenario>.csv, line by line.
    report = ScenarioReport(
        scenario="s", seed=7, edges_baseline=10, edges_attacked=12,
        iterations_baseline=30, iterations_attacked=31,
        converged_baseline=True, converged_attacked=False,
        p5_strict_baseline=0.4, p5_strict_attacked=0.2,
        p5_multilabel_baseline=0.6, p5_multilabel_attacked=0.1 + 0.2,
        mean_alignment_baseline=0.75, mean_alignment_attacked=-0.5,
        malicious_percentile_baseline={"m2": 50.0, "m10": 100.0},
        malicious_percentile_attacked={"m10": 25.0, "m2": 75.0},
    )
    assert report.csv_rows() == [
        ["scenario", "s"], ["seed", "7"],
        ["edges_baseline", "10"], ["edges_attacked", "12"],
        ["iterations_baseline", "30"], ["iterations_attacked", "31"],
        ["converged_baseline", "True"], ["converged_attacked", "False"],
        ["p5_strict_baseline", "0.4"], ["p5_strict_attacked", "0.2"],
        ["p5_multilabel_baseline", "0.6"], ["p5_multilabel_attacked", "0.30000000000000004"],
        ["mean_alignment_baseline", "0.75"], ["mean_alignment_attacked", "-0.5"],
        ["malicious_percentile_baseline_m10", "100.0"],
        ["malicious_percentile_baseline_m2", "50.0"],
        ["malicious_percentile_attacked_m10", "25.0"],
        ["malicious_percentile_attacked_m2", "75.0"],
    ]


def test_run_scenario_rejects_unknown_name(spec):
    with pytest.raises(ValidationError):
        run_scenario(spec, "ddos")


@pytest.mark.parametrize("runner", [run_scenario, run_flag_scenario])
def test_both_runners_reject_an_unknown_scenario_before_generating(monkeypatch, runner):
    def generate(spec):
        raise AssertionError("a corpus was generated")

    monkeypatch.setattr(harness, "generate_corpus", generate)
    with pytest.raises(ValidationError, match="^unknown scenario 'meteor'$"):
        runner(CorpusSpec(), scenario="meteor")


def test_flag_defense_report_reduction_math():
    report = FlagDefenseReport(
        scenario="same_domain_sybil",
        severity=0.95,
        reporters=("a00",),
        flagged=("a48", "a49"),
        magnitudes_unflagged={"a48": 2.0, "a49": 0.0, "a00": 1.0, "a01": 0.4},
        magnitudes_flagged={"a48": 0.5, "a49": 0.0, "a00": 1.0, "a01": 0.4},
        iterations_unflagged=10,
        iterations_flagged=12,
        converged_unflagged=True,
        converged_flagged=True,
    )
    assert report.reduction("a48") == pytest.approx(0.75)
    assert report.reduction("a49") == 0.0
    assert report.nonflagged_order("unflagged") == ["a00", "a01"]
    assert report.nonflagged_order("flagged") == ["a00", "a01"]


def test_format_table_aligns_columns():
    out = format_table(["name", "value"], [["alpha", "1"], ["b", "22"]])
    lines = out.splitlines()
    assert lines[0].split() == ["name", "value"]
    assert all(len(line) == len(lines[0]) for line in lines[1:])


# ---------------------------------------------------------------- invariants


def test_every_agent_stays_under_its_own_teleport_ceiling(corpus, graph, baseline):
    mags = baseline.magnitudes()
    for i, agent in enumerate(corpus.agents):
        bound = steady_state_bound(
            graph.teleport[i : i + 1], graph.exogenous[i : i + 1], 0.85
        )
        assert mags[i] <= bound + 1e-6, agent.id
    assert_within_steady_bound(baseline, graph.teleport, graph.exogenous)
