"""Command-line front end.

Verbs: ``gen-corpus``, ``propagate``, ``query``, ``attack``, ``bench``.
Exit codes: 0 success, 1 validation error (bad config, bad inputs, bad
usage), 2 propagation failed to converge, 3 I/O error.
"""

from __future__ import annotations

import argparse
import codecs
import io
import logging
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import Any

from .errors import ValidationError
from .files import (
    agents_from_jsonl,
    agents_to_jsonl,
    center_corpus,
    config_digest,
    corpus_spec,
    csv_text,
    edges_from_jsonl,
    edges_to_jsonl,
    load_config,
    propagation_config,
    queries_from_jsonl,
    queries_to_jsonl,
    residuals_to_csv,
    snapshot_from_json,
    snapshot_to_json,
    weight_config,
)
from .graph import normalize
from .harness import (
    INJECTORS,
    format_table,
    generate_corpus,
    mean_p5,
    require_continuous,
    run_flag_scenario,
    run_scenario,
)
from .operators import OPERATOR_NAMES, OperatorKind
from .propagation import run
from .retrieval import STRATEGIES, precision_at_k, rank
from .vectorspace import center_and_normalize

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_IO = 3

BENCH_LABELED_COUNTS = (70, 156)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; reserve 2 for non-convergence.
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


# Every file is UTF-8 text, whatever the locale (RFC 8259 section 8.1).
def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _utf8_streams() -> None:
    """Print to stdout and stderr in UTF-8, as files are written, whatever
    the locale.  Each stream keeps its error handler, so a path argument held
    as surrogate escapes prints as the bytes it was given.  A stream already
    in UTF-8, or one that is no text file (a StringIO), is left as it is."""
    for out in (sys.stdout, sys.stderr):
        if isinstance(out, io.TextIOWrapper) and codecs.lookup(out.encoding).name != "utf-8":
            out.reconfigure(encoding="utf-8", errors=out.errors)


def _ranking(cfg: dict[str, Any]) -> tuple[str, float, str]:
    """The config's retrieval strategy, beta_mix and variant, in ``rank``'s order."""
    return cfg["retrieval.strategy"], cfg["retrieval.beta_mix"], cfg["retrieval.variant"]


def cmd_gen_corpus(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    corpus = generate_corpus(corpus_spec(cfg))
    out = Path(args.out)
    _write(out / "agents.jsonl", agents_to_jsonl(corpus.agents))
    _write(out / "edges.jsonl", edges_to_jsonl(corpus.edges))
    _write(out / "queries.jsonl", queries_to_jsonl(corpus.queries))
    print(
        f"wrote {len(corpus.agents)} agents, {len(corpus.edges)} edges, "
        f"{len(corpus.queries)} queries to {out}"
    )
    return EXIT_OK


def cmd_propagate(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    agents = agents_from_jsonl(_read(args.agents))
    edges = edges_from_jsonl(_read(args.edges))
    mean = None
    if args.center:
        agents, edges, _, mean = center_corpus(agents, edges)
    state = run(normalize(agents, edges, weight_config(cfg)), propagation_config(cfg))
    out = Path(args.out)
    _write(out / "snapshot.json", snapshot_to_json(state, config_digest(cfg), mean))
    _write(out / "residuals.csv", residuals_to_csv(state.residuals))
    print(
        f"{'converged' if state.converged else 'did not converge'} "
        f"after {state.iterations} iterations"
    )
    return EXIT_OK if state.converged else EXIT_NO_CONVERGENCE


def cmd_query(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    state, _, mean = snapshot_from_json(_read(args.snapshot))
    queries = queries_from_jsonl(_read(args.queries))
    agents = agents_from_jsonl(_read(args.agents))
    strategy = args.strategy or cfg["retrieval.strategy"]
    # A centered snapshot moves each query (and the pipeline's profiles) into
    # the space that `propagate --center` fitted and propagated in.
    if mean.size and strategy == "pipeline" and len(agents):  # each row as a 1-D call gives it
        agents = replace(agents, profile=center_and_normalize(mean, agents.profile))
    beta_mix = cfg["retrieval.beta_mix"]
    variant = cfg["retrieval.variant"]
    k = cfg["retrieval.k"]

    rows = [("query_id", "rank", "agent_id", "score")]
    summary = []
    for q in queries:
        try:  # name the query that does not fit the snapshot, its mean or the agents
            if mean.size:
                q = replace(q, embedding=center_and_normalize(mean, q.embedding))
            ranked = rank(state, q, strategy, agents, beta_mix, variant)
            if q.expected_domains:
                strict = precision_at_k(ranked, agents, q.expected_domains, k, "strict")
                multi = precision_at_k(ranked, agents, q.expected_domains, k, "multilabel")
                summary.append((q.id, strict, multi))
        except ValidationError as exc:
            raise ValidationError(f"query {q.id}: {exc}") from exc
        for pos, (aid, score) in enumerate(ranked, start=1):
            rows.append((q.id, pos, aid, repr(score)))
    _write(Path(args.out), csv_text(rows))
    if summary:
        print(f"precision@{k} ({strategy})")
        for qid, strict, multi in summary:
            print(f"  {qid}  strict={strict:.3f}  multilabel={multi:.3f}")
        mean_s = sum(s for _, s, _ in summary) / len(summary)
        mean_m = sum(m for _, _, m in summary) / len(summary)
        print(f"  mean  strict={mean_s:.3f}  multilabel={mean_m:.3f}")
    return EXIT_OK


def cmd_attack(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    scenario = args.scenario or cfg["attack.scenario"]
    spec, prop_cfg, weight_cfg = corpus_spec(cfg), propagation_config(cfg), weight_config(cfg)
    report = run_scenario(spec, scenario, prop_cfg, weight_cfg, *_ranking(cfg))
    out = Path(args.out)
    _write(out / f"report_{scenario}.csv", csv_text(report.csv_rows()))
    print(
        f"{scenario}: P@5 strict {report.p5_strict_baseline:.3f} -> "
        f"{report.p5_strict_attacked:.3f}, multilabel "
        f"{report.p5_multilabel_baseline:.3f} -> {report.p5_multilabel_attacked:.3f}"
    )
    ok = report.converged_baseline and report.converged_attacked
    if args.flag_defense:
        flag = run_flag_scenario(spec, cfg["attack.flag_severity"], prop_cfg, weight_cfg, scenario)
        _write(out / "flag_defense.csv", csv_text(flag.csv_rows()))
        for aid in flag.flagged:
            print(f"flag defense: {aid} magnitude reduced "
                  f"{100 * flag.reduction(aid):.1f}%")
        ok = ok and flag.converged_unflagged and flag.converged_flagged
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def cmd_bench(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    base_spec, base_prop, weight_cfg = corpus_spec(cfg), propagation_config(cfg), weight_config(cfg)
    require_continuous(base_prop)
    rows = []
    all_converged = True
    for labeled in BENCH_LABELED_COUNTS:
        spec = replace(
            base_spec,
            labeled_edges=labeled,
            payment_edges=min(base_spec.payment_edges, labeled),
        )
        corpus = generate_corpus(spec)
        graph = normalize(corpus.agents, corpus.edges, weight_cfg)
        for op_name in sorted(OPERATOR_NAMES):
            prop_cfg = replace(base_prop, operator=OperatorKind.from_name(op_name))
            state = run(graph, prop_cfg)
            all_converged = all_converged and state.converged
            strict, multilabel = mean_p5(state, corpus, *_ranking(cfg))
            rows.append(
                [op_name, str(labeled), str(state.iterations), f"{strict:.3f}", f"{multilabel:.3f}"]
            )
    header = ["operator", "labeled_edges", "iterations", "p5_strict", "p5_multilabel"]
    table = format_table(header, rows)
    _write(Path(args.out) / "bench.csv", csv_text([header] + rows))
    print(table, end="")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trustprop", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every verb reads a config and writes under --out.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None)
    common.add_argument("--out", required=True)

    def verb(name: str, func: Callable[..., int], help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    verb("gen-corpus", cmd_gen_corpus, "generate a seeded synthetic corpus")

    p = verb("propagate", cmd_propagate, "run propagation over corpus files")
    p.add_argument("--agents", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--center", action="store_true",
                   help="fit and apply mean-centering over the input files")

    p = verb("query", cmd_query, "rank agents for queries against a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--agents", required=True)
    p.add_argument("--strategy", default=None, choices=STRATEGIES)

    p = verb("attack", cmd_attack, "run an adversarial scenario report")
    p.add_argument("--scenario", default=None, choices=sorted(INJECTORS))
    p.add_argument("--flag-defense", action="store_true",
                   help="also run the flag-defense experiment")

    verb("bench", cmd_bench, "compare operators across edge densities")
    return parser


def main(argv: list[str] | None = None) -> int:
    _utf8_streams()
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args, load_config(args.config))
    except ValueError as exc:  # a ValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
