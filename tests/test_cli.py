"""End-to-end tests for the command-line front end (in-process)."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

import trustprop
from trustprop.cli import main
from trustprop.files import (
    agents_from_jsonl,
    edges_from_jsonl,
    queries_from_jsonl,
    snapshot_from_json,
)
from trustprop.harness import INJECTORS, CorpusSpec, run_flag_scenario
from trustprop.retrieval import pipeline_search
from trustprop.vectorspace import center_and_normalize

SMALL_CONF = """
corpus.n_agents = 20
corpus.hubs = 2
corpus.dormant = 2
corpus.malicious = 2
corpus.specialists = 2
corpus.labeled_edges = 20
corpus.payment_edges = 4
corpus.blind_edges = 40
corpus.n_queries = 4
corpus.cross_domain_queries = 1
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small generated corpus plus its config, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    conf = root / "small.conf"
    conf.write_text(SMALL_CONF)
    corpus_dir = root / "corpus"
    assert main(["gen-corpus", "--config", str(conf), "--out", str(corpus_dir)]) == 0
    return root


def _corpus_args(workdir):
    c = workdir / "corpus"
    return c / "agents.jsonl", c / "edges.jsonl", c / "queries.jsonl"


@pytest.fixture(scope="module")
def snapshot(workdir):
    agents, edges, _ = _corpus_args(workdir)
    out = workdir / "prop"
    code = main([
        "propagate",
        "--config", str(workdir / "small.conf"),
        "--agents", str(agents),
        "--edges", str(edges),
        "--out", str(out),
    ])
    assert code == 0
    return out / "snapshot.json"


# ---------------------------------------------------------------- gen-corpus


def test_gen_corpus_writes_parseable_files(workdir):
    agents, edges, queries = _corpus_args(workdir)
    assert len(agents.read_text().splitlines()) == 20
    assert len(edges.read_text().splitlines()) == 60
    assert len(queries.read_text().splitlines()) == 4
    first = json.loads(agents.read_text().splitlines()[0])
    assert first["id"] == "a00"


def test_gen_corpus_is_byte_identical_across_runs(workdir, tmp_path):
    conf = workdir / "small.conf"
    assert main(["gen-corpus", "--config", str(conf), "--out", str(tmp_path)]) == 0
    for name in ("agents.jsonl", "edges.jsonl", "queries.jsonl"):
        assert (tmp_path / name).read_bytes() == (workdir / "corpus" / name).read_bytes()


def test_gen_corpus_rejects_unknown_config_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("corpus.flavour = spicy\n")
    assert main(["gen-corpus", "--config", str(conf), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "line",
    [
        "propagation.epsilon = nan",
        "propagation.beta = nan",
        "gates.kl.lambda = nan",
        "gates.entropy.strength = inf",
        "weights.payment_multiplier = nan",
        "weights.payment_multiplier = inf",
        "weights.verified_flag_multiplier = -inf",
        "retrieval.beta_mix = nan",
        "retrieval.beta_mix = -0.5",
        "retrieval.k = 0",
    ],
)
def test_config_rejects_non_finite_and_out_of_range_values(tmp_path, capsys, line):
    conf = tmp_path / "bad.conf"
    conf.write_text(line + "\n")
    assert main(["gen-corpus", "--config", str(conf), "--out", str(tmp_path)]) == 1
    key = line.partition(" =")[0]
    assert f"error: config key {key!r}: must be " in capsys.readouterr().err
    assert not (tmp_path / "agents.jsonl").exists()


# One bad key per config record, and the scenario; each with its message.
BAD_CONFIG_LINES = {
    "propagation.alpha = 1.5": "alpha must lie in (0, 1)",
    "weights.blind_discount = 2": "blind_discount must lie in (0, 1]",
    "corpus.n_agents = -1": "n_agents must be >= 0",
    "gates.kl.form = bogus": "unknown kl gate form 'bogus'",
    "attack.scenario = meteor":
        f"config key 'attack.scenario': 'meteor' is not one of {', '.join(INJECTORS)}",
}


def _verb_args(verb, inputs, out):
    """A verb's arguments, its input files taken from ``inputs``."""
    agents, edges, queries, snapshot = inputs
    return {
        "gen-corpus": ["--out", str(out)],
        "propagate": ["--agents", str(agents), "--edges", str(edges), "--out", str(out)],
        "query": ["--snapshot", str(snapshot), "--queries", str(queries),
                  "--agents", str(agents), "--out", str(out / "ranks.csv")],
        "attack": ["--flag-defense", "--out", str(out)],
        "bench": ["--out", str(out)],
    }[verb]


@pytest.mark.parametrize("line", BAD_CONFIG_LINES)
@pytest.mark.parametrize(
    "verb, missing_inputs",
    [("gen-corpus", False), ("propagate", False), ("propagate", True), ("query", False),
     ("query", True), ("attack", False), ("bench", False)],
)
def test_every_verb_rejects_a_bad_config_before_reading_input(
    workdir, snapshot, tmp_path, capsys, verb, missing_inputs, line
):
    conf = tmp_path / "bad.conf"
    conf.write_text(SMALL_CONF + line + "\n")
    inputs = (*_corpus_args(workdir), snapshot)
    if missing_inputs:
        inputs = [tmp_path / f"missing_{path.name}" for path in inputs]
    out = tmp_path / "out"
    assert main([verb, "--config", str(conf), *_verb_args(verb, inputs, out)]) == 1
    assert capsys.readouterr().err == f"error: {BAD_CONFIG_LINES[line]}\n"
    assert not out.exists()


def test_gen_corpus_rejects_negative_exogenous_scale(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("corpus.exogenous_scale = -1\n")
    assert main(["gen-corpus", "--config", str(conf), "--out", str(tmp_path)]) == 1
    assert "error: exogenous_scale must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "agents.jsonl").exists()


@pytest.mark.parametrize(
    "hubs, message",
    [(-1, "hubs must be >= 0"), (60, "corpus archetype counts exceed corpus.n_agents")],
)
def test_gen_corpus_rejects_bad_archetype_counts(tmp_path, capsys, hubs, message):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"corpus.hubs = {hubs}\n")
    out = tmp_path / "out"
    assert main(["gen-corpus", "--config", str(conf), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


_NO_LABELED = {"labeled_edges": 0, "payment_edges": 0}
_NO_COUNTS = dict.fromkeys(
    ["hubs", "dormant", "malicious", "specialists", "labeled_edges", "payment_edges",
     "blind_edges", "n_queries", "cross_domain_queries"], 0,
)


@pytest.mark.parametrize(
    "counts, message",
    [
        # One active besides the malicious pair: the blind draw had no
        # receiver but the sender, and never ended.
        ({"n_agents": 3, "hubs": 0, "dormant": 0, **_NO_LABELED},
         "blind_edges need at least two hubs or actives"),
        ({"n_agents": 4, "hubs": 0, "dormant": 4, "malicious": 0, **_NO_LABELED},
         "blind_edges need at least two hubs or actives"),
        ({"n_agents": 4, "hubs": 0, "dormant": 0, "malicious": 4, **_NO_LABELED},
         "blind_edges need at least two hubs or actives"),
        ({"n_agents": 3, "hubs": 0, "dormant": 0, "blind_edges": 0},
         "labeled_edges need a domain with two hubs or actives"),
        # The medicine hub and active are a pair; the law specialist has
        # nobody in law or coding.
        ({"n_agents": 3, "hubs": 1, "dormant": 0, "malicious": 0, "specialists": 2,
          "blind_edges": 0},
         "labeled_edges need a second hub or active in the law specialist's domain or in coding"),
        # Centering the corpus takes two embeddings.
        ({"n_agents": 1, **_NO_COUNTS}, "n_agents must be >= 2"),
        ({"n_agents": 0, **_NO_COUNTS}, "n_agents must be >= 2"),
    ],
    ids=["one_active", "all_dormant", "all_malicious", "no_domain_pair", "lone_specialist",
         "one_agent", "no_agents"],
)
def test_gen_corpus_rejects_counts_it_cannot_meet(tmp_path, counts, message):
    conf = tmp_path / "small.conf"
    conf.write_text("".join(f"corpus.{key} = {value}\n" for key, value in counts.items()))
    out = tmp_path / "out"
    code = "import sys; from trustprop.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(trustprop.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, "gen-corpus", "--config", str(conf), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------- propagate


def test_propagate_snapshot_and_residuals(workdir, snapshot):
    state, digest, mean = snapshot_from_json(snapshot.read_text())
    assert state.converged
    assert state.mode == "continuous"
    assert len(digest) == 64
    assert mean.size == 0
    residuals = (snapshot.parent / "residuals.csv").read_text().splitlines()
    assert residuals[0] == "iteration,residual"
    assert len(residuals) == state.iterations + 1


def test_propagate_center_records_the_mean(workdir, tmp_path):
    agents, edges, _ = _corpus_args(workdir)
    out = tmp_path / "centered"
    code = main([
        "propagate",
        "--config", str(workdir / "small.conf"),
        "--agents", str(agents),
        "--edges", str(edges),
        "--center",
        "--out", str(out),
    ])
    assert code == 0
    _, _, mean = snapshot_from_json((out / "snapshot.json").read_text())
    assert mean.shape == (64,)
    assert np.linalg.norm(mean) > 0


def test_propagate_zero_edge_corpus_settles_by_second_iteration(tmp_path):
    conf = tmp_path / "zero.conf"
    conf.write_text(SMALL_CONF + "corpus.labeled_edges = 0\ncorpus.payment_edges = 0\ncorpus.blind_edges = 0\n")
    corpus_dir = tmp_path / "corpus"
    assert main(["gen-corpus", "--config", str(conf), "--out", str(corpus_dir)]) == 0
    out = tmp_path / "prop"
    code = main([
        "propagate",
        "--config", str(conf),
        "--agents", str(corpus_dir / "agents.jsonl"),
        "--edges", str(corpus_dir / "edges.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    state, _, _ = snapshot_from_json((out / "snapshot.json").read_text())
    assert state.converged
    assert state.iterations == 2
    assert state.residuals[-1] < 1e-4


def test_propagate_non_convergence_exits_2_but_writes(workdir, tmp_path):
    conf = tmp_path / "tight.conf"
    conf.write_text(SMALL_CONF + "propagation.max_iters = 2\n")
    agents, edges, _ = _corpus_args(workdir)
    out = tmp_path / "prop"
    code = main([
        "propagate",
        "--config", str(conf),
        "--agents", str(agents),
        "--edges", str(edges),
        "--out", str(out),
    ])
    assert code == 2
    state, _, _ = snapshot_from_json((out / "snapshot.json").read_text())
    assert not state.converged
    assert state.iterations == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_residual_of_a_finite_step_too_large_to_square_is_finite(tmp_path, capsys):
    # a03's exogenous entries of 1e306 give row changes whose squares
    # overflow float64, though every state and every change is finite.
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus)]) == 0
    recs = [json.loads(line) for line in (corpus / "agents.jsonl").read_text().splitlines()]
    for rec in recs:
        if rec["id"] == "a03":
            rec["exogenous"] = [1e306] * len(rec["exogenous"])
    agents = tmp_path / "agents.jsonl"
    agents.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    out = tmp_path / "prop"
    code = main([
        "propagate", "--agents", str(agents), "--edges", str(corpus / "edges.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().err == ""
    text = (out / "snapshot.json").read_text()
    assert "Infinity" not in text
    state, _, _ = snapshot_from_json(text)
    assert state.converged
    rows = (out / "residuals.csv").read_text().splitlines()[1:]
    residuals = [float(row.split(",")[1]) for row in rows]
    assert residuals == list(state.residuals)
    assert np.isfinite(residuals).all()
    assert residuals[0] > 1e300


@pytest.fixture(scope="module")
def big_prior_corpus(tmp_path_factory):
    """gen-corpus defaults with every exogenous entry of a03 at 1e306."""
    corpus = tmp_path_factory.mktemp("big_prior")
    assert main(["gen-corpus", "--out", str(corpus)]) == 0
    agents = corpus / "agents.jsonl"
    recs = [json.loads(line) for line in agents.read_text().splitlines()]
    for rec in recs:
        if rec["id"] == "a03":
            rec["exogenous"] = [1e306] * len(rec["exogenous"])
    agents.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    return corpus


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("center", [[], ["--center"]], ids=["plain", "center"])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_propagate_a_prior_whose_norm_overflows(big_prior_corpus, tmp_path, capsys, mode, center):
    conf = tmp_path / "mode.conf"
    conf.write_text(f"propagation.mode = {mode}\n")
    out = tmp_path / "prop"
    code = main([
        "propagate", "--config", str(conf), "--agents", str(big_prior_corpus / "agents.jsonl"),
        "--edges", str(big_prior_corpus / "edges.jsonl"), *center, "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().err == ""
    text = (out / "snapshot.json").read_text()
    residuals = (out / "residuals.csv").read_text()
    assert "Infinity" not in text and "NaN" not in text
    assert "inf" not in residuals and "nan" not in residuals
    state, _, _ = snapshot_from_json(text)
    assert state.converged and np.isfinite(state.vectors).all()
    a03 = state.vectors[state.agent_ids.index("a03")]
    if mode == "discrete":
        # The prior is bucketed, not dropped as a zero row.
        assert a03.max() >= 1e306
        return
    assert np.linalg.norm(a03 / 1e306) > 1.0
    code = main([
        "query", "--snapshot", str(out / "snapshot.json"),
        "--queries", str(big_prior_corpus / "queries.jsonl"),
        "--agents", str(big_prior_corpus / "agents.jsonl"), "--out", str(tmp_path / "ranks.csv"),
    ])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_propagate_missing_file_is_io_error(workdir, tmp_path):
    agents, _, _ = _corpus_args(workdir)
    code = main([
        "propagate",
        "--agents", str(agents),
        "--edges", str(tmp_path / "nope.jsonl"),
        "--out", str(tmp_path),
    ])
    assert code == 3


def test_propagate_rejects_a_lone_surrogate_id(workdir, tmp_path, capsys):
    # The escape "\\ud800" stands for a string UTF-8 cannot encode, which the
    # writer could not write back: the reader rejects it.
    paths = []
    for path in _corpus_args(workdir)[:2]:
        paths.append(tmp_path / path.name)
        paths[-1].write_text(path.read_text().replace('"a03"', '"\\ud800"'))
    out = tmp_path / "out"
    code = main(["propagate", "--agents", str(paths[0]), "--edges", str(paths[1]),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: agents line 4: invalid json (") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("which, field", [("agents", "description"), ("queries", "text")])
def test_a_lone_surrogate_in_a_field_never_written_back_is_rejected(
    workdir, snapshot, tmp_path, capsys, which, field
):
    # Before, such a description propagated and such a query text ranked, exit 0.
    agents, edges, queries = _corpus_args(workdir)
    path = {"agents": agents, "queries": queries}[which]
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(f'"{field}":"', f'"{field}":"\\ud800', 1)
    bad = tmp_path / path.name
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    if which == "agents":
        code = main(["propagate", "--agents", str(bad), "--edges", str(edges), "--out", str(out)])
    else:
        code = main(["query", "--snapshot", str(snapshot), "--queries", str(bad),
                     "--agents", str(agents), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {which} line 2: invalid json (") and err.count("\n") == 1
    assert not out.exists()


def test_cli_reads_and_writes_utf8_in_any_locale(tmp_path):
    # Under the C locale with neither UTF-8 mode nor locale coercion,
    # Python's default text encoding is ASCII.
    env = dict(
        os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        PYTHONPATH=str(Path(trustprop.__file__).parents[1]),
    )

    def cli(*argv):
        code = "import sys; from trustprop.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        return done.stdout

    conf = tmp_path / "small.conf"
    conf.write_bytes(f"# corpus, klein genug: ä\n{SMALL_CONF}".encode())
    corpus = tmp_path / "korpus-ä"
    # A path the locale cannot decode prints as the bytes it was given.
    assert str(corpus).encode() in cli("gen-corpus", "--config", str(conf), "--out", str(corpus))
    for name, old, new in (("agents.jsonl", "a00", "ä00"), ("edges.jsonl", "a00", "ä00"),
                           ("queries.jsonl", "q00", "qä0")):
        path = corpus / name
        path.write_bytes(path.read_bytes().replace(f'"{old}"'.encode(), f'"{new}"'.encode()))
    cli("propagate", "--config", str(conf), "--agents", str(corpus / "agents.jsonl"),
        "--edges", str(corpus / "edges.jsonl"), "--out", str(tmp_path / "prop"))
    snapshot = tmp_path / "prop" / "snapshot.json"
    assert '"id": "ä00"' in snapshot.read_bytes().decode()
    printed = cli("query", "--config", str(conf), "--snapshot", str(snapshot),
                  "--queries", str(corpus / "queries.jsonl"),
                  "--agents", str(corpus / "agents.jsonl"), "--out", str(tmp_path / "ranks.csv"))
    assert "  qä0  strict=".encode() in printed
    ranks = (tmp_path / "ranks.csv").read_bytes().decode()
    assert ",ä00," in ranks and "\nqä0,1," in ranks


def test_an_error_names_a_non_ascii_id_in_utf8_in_any_locale(workdir, snapshot, tmp_path):
    # stderr is reconfigured as stdout is, so the id prints as the file spells it.
    env = dict(
        os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        PYTHONPATH=str(Path(trustprop.__file__).parents[1]),
    )
    agents, _, _ = _corpus_args(workdir)
    queries = tmp_path / "queries.jsonl"
    queries.write_bytes('{"id": "qä0", "text": "x", "embedding": [1.0, 0.0, 0.0]}\n'.encode())
    code = "import sys; from trustprop.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "query", "--snapshot", str(snapshot), "--queries",
         str(queries), "--agents", str(agents), "--out", str(tmp_path / "ranks.csv")],
        env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.decode("utf-8").startswith("error: query qä0: query dim 3 ")


def test_main_prints_to_a_redirected_stdout(workdir, snapshot, tmp_path):
    agents, _, queries = _corpus_args(workdir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["query", "--snapshot", str(snapshot), "--queries", str(queries),
                     "--agents", str(agents), "--out", str(tmp_path / "ranks.csv")])
    assert code == 0
    assert buf.getvalue().startswith("precision@5 (")


def test_propagate_null_base_weight_is_validation_error(workdir, tmp_path, capsys):
    agents, edges, _ = _corpus_args(workdir)
    lines = edges.read_text().splitlines()
    record = json.loads(lines[0])
    record["base_weight"] = None
    bad = tmp_path / "edges.jsonl"
    bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    code = main([
        "propagate",
        "--agents", str(agents),
        "--edges", str(bad),
        "--out", str(tmp_path / "prop"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "base_weight must be a number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "prop").exists()


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("case", ["paid", "two_unpaid"])
def test_propagate_rejects_weights_that_overflow(workdir, tmp_path, capsys, mode, case):
    # A paid 1e308 edge overflows when it is scaled; two unpaid ones overflow
    # their sender's row sum.
    agents, edges, _ = _corpus_args(workdir)
    records = [json.loads(line) for line in edges.read_text().splitlines()]
    if case == "paid":
        huge = [next(r for r in records if r["payment"])]
    else:
        unpaid = [r for r in records if r["kind"] == "labeled" and not r["payment"]]
        sender, count = Counter(r["sender"] for r in unpaid).most_common(1)[0]
        assert count >= 2
        huge = [r for r in unpaid if r["sender"] == sender][:2]
    for record in huge:
        record["base_weight"] = 1e308
    bad = tmp_path / "edges.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    conf = tmp_path / "mode.conf"
    conf.write_text(f"propagation.mode = {mode}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([
            "propagate", "--config", str(conf), "--agents", str(agents), "--edges", str(bad),
            "--out", str(tmp_path / "prop"),
        ])
    assert code == 1
    sender = huge[0]["sender"]
    assert capsys.readouterr().err == (
        f"error: edge weights of sender {sender!r} overflow the float range\n"
    )
    assert not (tmp_path / "prop").exists()


def test_propagate_string_payment_is_validation_error(workdir, tmp_path, capsys):
    # "false" is a truthy string; it must not count as a paid edge.
    agents, edges, _ = _corpus_args(workdir)
    lines = edges.read_text().splitlines()
    record = json.loads(lines[0])
    record["payment"] = "false"
    bad = tmp_path / "edges.jsonl"
    bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    code = main([
        "propagate",
        "--agents", str(agents),
        "--edges", str(bad),
        "--out", str(tmp_path / "prop"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "payment must be a boolean" in err
    assert "Traceback" not in err
    assert not (tmp_path / "prop").exists()


_DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize(
    "which, line, fields, message",
    [
        ("agents", "[1]", None, "agents line 21: expected a JSON object, got list"),
        ("edges", "[1]", None, "edges line 61: expected a JSON object, got list"),
        ("agents", _DEEP, None, "agents line 21: expected a JSON object, got list"),
        ("edges", "[" * 5000 + "NaN" + "]" * 5000, None, "edges line 61: invalid json"),
        ("agents", None, {"id": ["a00"]}, "agents line 1: id must be a string, got list"),
        ("agents", None, {"secondary_domains": "abc"},
         "agents line 1: secondary_domains must be a list of strings"),
        ("edges", None, {"sender": 5}, "edges line 1: sender must be a string, got int"),
    ],
    ids=["agents_list", "edges_list", "agents_deep", "edges_deep_nan",
         "list_id", "string_domains", "int_sender"],
)
def test_propagate_rejects_malformed_jsonl_lines(
    workdir, tmp_path, capsys, which, line, fields, message
):
    # Either append ``line`` to the file or overwrite ``fields`` of its first record.
    paths = dict(zip(("agents", "edges"), _corpus_args(workdir)))
    lines = paths[which].read_text().splitlines()
    if fields is None:
        lines.append(line)
    else:
        lines[0] = json.dumps({**json.loads(lines[0]), **fields})
    paths[which] = tmp_path / f"{which}.jsonl"
    paths[which].write_text("\n".join(lines) + "\n")
    code = main([
        "propagate",
        "--agents", str(paths["agents"]),
        "--edges", str(paths["edges"]),
        "--out", str(tmp_path / "prop"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "prop").exists()


@pytest.mark.parametrize(
    "which, field, value, message",
    [
        ("agents", "profile", lambda rec: [repr(x) for x in rec["profile"]],
         "agents line {line}: profile must be a vector of numbers, not str"),
        ("agents", "teleport", lambda rec: [x > 0 for x in rec["teleport"]],
         "agents line {line}: teleport must be a vector of numbers, not bool"),
        ("edges", "content", lambda rec: [repr(x) for x in rec["content"]],
         "edges line {line}: content must be a vector of numbers, not str"),
        ("edges", "base_weight", lambda rec: 10**400, "edges line {line}: invalid json ("),
        ("edges", "content", lambda rec: [1.0],
         "edge {sender} -> {receiver}: wrong content dim"),
        ("agents", "id", lambda rec: "a00", "agents line {line}: duplicate agent id 'a00'"),
    ],
    ids=["profile_strs", "teleport_bools", "content_strs", "huge_base_weight", "content_dim",
         "duplicate_id"],
)
def test_propagate_rejects_mistyped_fields(
    workdir, tmp_path, capsys, which, field, value, message
):
    # Change the last record with ``field``: a duplicated id comes after the original.
    paths = dict(zip(("agents", "edges"), _corpus_args(workdir)))
    records = [json.loads(line) for line in paths[which].read_text().splitlines()]
    i = max(i for i, rec in enumerate(records) if field in rec)
    records[i][field] = value(records[i])
    paths[which] = tmp_path / f"{which}.jsonl"
    paths[which].write_text("".join(json.dumps(rec) + "\n" for rec in records))
    code = main([
        "propagate", "--agents", str(paths["agents"]), "--edges", str(paths["edges"]),
        "--out", str(tmp_path / "prop"),
    ])
    assert code == 1
    expected = message.format(line=i + 1, **records[i])
    err = capsys.readouterr().err
    if expected.endswith("invalid json ("):  # orjson's wording follows
        assert err.startswith(f"error: {expected}") and err.count("\n") == 1
    else:
        assert err == f"error: {expected}\n"
    assert not (tmp_path / "prop").exists()


def _agent_line(aid, profile):
    teleport = [0.1 * x for x in profile]
    return json.dumps({"id": aid, "primary_domain": "d", "profile": profile,
                       "teleport": teleport, "exogenous": [0.0] * len(profile)})


@pytest.mark.parametrize(
    "center, message",
    [([], "edge a -> b: wrong content dim"),
     (["--center"], "dimension mismatch in centering corpus: (3,) != (2,)")],
    ids=["plain", "center"],
)
def test_propagate_rejects_contents_of_another_dim_than_the_profiles(
    tmp_path, capsys, center, message
):
    # Each file is clean on its own: 2-dim profiles, one 3-dim content.
    agents, edges = tmp_path / "agents.jsonl", tmp_path / "edges.jsonl"
    agents.write_text(_agent_line("a", [1.0, 0.0]) + "\n" + _agent_line("b", [0.0, 1.0]) + "\n")
    edges.write_text(json.dumps(
        {"sender": "a", "receiver": "b", "kind": "labeled", "content": [0.0, 0.0, 1.0]}
    ) + "\n")
    agents_from_jsonl(agents.read_text())
    edges_from_jsonl(edges.read_text())
    code = main([
        "propagate", "--agents", str(agents), "--edges", str(edges), *center,
        "--out", str(tmp_path / "prop"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "prop").exists()


def test_propagate_discrete_mode(workdir, tmp_path):
    conf = tmp_path / "disc.conf"
    conf.write_text(SMALL_CONF + "propagation.mode = discrete\npropagation.top_k = 2\n")
    agents, edges, _ = _corpus_args(workdir)
    out = tmp_path / "prop"
    code = main([
        "propagate",
        "--config", str(conf),
        "--agents", str(agents),
        "--edges", str(edges),
        "--out", str(out),
    ])
    assert code == 0
    state, _, _ = snapshot_from_json((out / "snapshot.json").read_text())
    assert state.mode == "discrete"
    assert state.vectors.shape[1] == 8  # one bucket per domain


TOPIC_GATES = pytest.mark.parametrize(
    "gate_conf",
    ["gates.entropy.enabled = true\n", "gates.kl.enabled = true\ngates.kl.form = softmax\n"],
    ids=["entropy", "kl_softmax"],
)


@TOPIC_GATES
def test_propagate_continuous_with_topic_distribution_gates(workdir, tmp_path, gate_conf):
    # These gates need domain centroids, which the CLI derives from the agents.
    conf = tmp_path / "gated.conf"
    conf.write_text(SMALL_CONF + gate_conf)
    agents, edges, _ = _corpus_args(workdir)
    out = tmp_path / "prop"
    code = main([
        "propagate",
        "--config", str(conf),
        "--agents", str(agents),
        "--edges", str(edges),
        "--out", str(out),
    ])
    assert code == 0
    state, _, _ = snapshot_from_json((out / "snapshot.json").read_text())
    assert state.mode == "continuous"
    assert state.converged


# ---------------------------------------------------------------- query


def test_query_writes_rankings_and_summary(workdir, snapshot, tmp_path, capsys):
    agents, _, queries = _corpus_args(workdir)
    out = tmp_path / "rankings.csv"
    code = main([
        "query",
        "--config", str(workdir / "small.conf"),
        "--snapshot", str(snapshot),
        "--queries", str(queries),
        "--agents", str(agents),
        "--strategy", "dot",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "query_id,rank,agent_id,score"
    assert len(lines) == 1 + 4 * 20  # every query ranks every agent
    captured = capsys.readouterr().out
    assert "precision@5 (dot)" in captured
    assert "mean" in captured


def test_query_writes_ids_with_commas_quotes_and_line_breaks_as_csv(workdir, tmp_path):
    agent_id, query_id = 'a,"0\n7', 'q,"0\r\n0'
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path, old, new in zip(_corpus_args(workdir), ("a07", "a07", "q00"),
                              (agent_id, agent_id, query_id)):
        text = path.read_text().replace(json.dumps(old), json.dumps(new))
        (corpus / path.name).write_text(text)
    agents, edges, queries = (corpus / p.name for p in _corpus_args(workdir))
    conf = str(workdir / "small.conf")
    assert main(["propagate", "--config", conf, "--agents", str(agents), "--edges", str(edges),
                 "--out", str(tmp_path / "prop")]) == 0
    out = tmp_path / "ranks.csv"
    assert main(["query", "--config", conf, "--snapshot", str(tmp_path / "prop" / "snapshot.json"),
                 "--queries", str(queries), "--agents", str(agents), "--out", str(out)]) == 0
    with out.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert {len(row) for row in rows} == {4}
    assert rows[0] == ["query_id", "rank", "agent_id", "score"]
    assert sum(row[0] == query_id for row in rows) == 20  # every agent, once
    assert sum(row[2] == agent_id for row in rows) == 4  # once per query


@pytest.mark.parametrize("strategy", ["cosine", "mixed", "pipeline"])
def test_query_alternative_strategies_run(workdir, snapshot, tmp_path, strategy):
    agents, _, queries = _corpus_args(workdir)
    out = tmp_path / f"{strategy}.csv"
    code = main([
        "query",
        "--snapshot", str(snapshot),
        "--queries", str(queries),
        "--agents", str(agents),
        "--strategy", strategy,
        "--out", str(out),
    ])
    assert code == 0
    assert out.exists()


def test_query_unknown_config_strategy_is_validation_error(workdir, snapshot, tmp_path):
    conf = tmp_path / "weird.conf"
    conf.write_text("retrieval.strategy = oracle\n")
    agents, _, queries = _corpus_args(workdir)
    code = main([
        "query",
        "--config", str(conf),
        "--snapshot", str(snapshot),
        "--queries", str(queries),
        "--agents", str(agents),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 1


def test_query_rejects_snapshot_missing_fields(workdir, tmp_path, capsys):
    agents, _, queries = _corpus_args(workdir)
    bad = tmp_path / "snapshot.json"
    bad.write_text('{"dims": {"N": 20, "E": 64}}\n')
    code = main([
        "query",
        "--snapshot", str(bad),
        "--queries", str(queries),
        "--agents", str(agents),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "missing field 'agents'" in err
    assert "Traceback" not in err


def _query_exit_and_err(workdir, tmp_path, capsys, snapshot_path, queries_path):
    agents, _, _ = _corpus_args(workdir)
    code = main([
        "query",
        "--snapshot", str(snapshot_path),
        "--queries", str(queries_path),
        "--agents", str(agents),
        "--out", str(tmp_path / "r.csv"),
    ])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_query_rejects_non_finite_snapshot(workdir, snapshot, tmp_path, capsys, token):
    obj = json.loads(snapshot.read_text())
    text = json.dumps(obj).replace(repr(obj["agents"][3]["r"][5]), token, 1)
    bad = tmp_path / "snapshot.json"
    bad.write_text(text)
    _, _, queries = _corpus_args(workdir)
    code, err = _query_exit_and_err(workdir, tmp_path, capsys, bad, queries)
    assert code == 1
    assert err.startswith("error: snapshot: invalid json (")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        (_DEEP, "snapshot must be a JSON object"),
        ('{"dims": ' + _DEEP + ', "agents": []}', "snapshot dims must be a JSON object"),
        ('{"dims": 5, "agents": []}', "snapshot dims must be a JSON object"),
        ('{"dims": {"N": 1, "E": 1}, "agents": 3}', "snapshot agents must be a JSON array"),
        ('{"dims": {"N": 1, "E": 1}, "agents": [' + _DEEP + "]}", "snapshot agent 0: must be"),
        ('{"dims": ' + "[" * 5000 + "NaN" + "]" * 5000 + "}", "snapshot: invalid json"),
    ],
    ids=["deep_list", "deep_dims", "int_dims", "int_agents", "deep_agent", "deep_nan"],
)
def test_query_rejects_malformed_snapshot_structure(workdir, tmp_path, capsys, text, message):
    bad = tmp_path / "snapshot.json"
    bad.write_text(text)
    _, _, queries = _corpus_args(workdir)
    code, err = _query_exit_and_err(workdir, tmp_path, capsys, bad, queries)
    assert code == 1
    assert message in err
    assert "Traceback" not in err


def test_query_rejects_duplicate_snapshot_ids(workdir, snapshot, tmp_path, capsys):
    # Before this was rejected, a renamed row listed one agent twice and
    # dropped another from every ranking.
    obj = json.loads(snapshot.read_text())
    obj["agents"][1]["id"] = obj["agents"][0]["id"]
    bad = tmp_path / "snapshot.json"
    bad.write_text(json.dumps(obj))
    _, _, queries = _corpus_args(workdir)
    code, err = _query_exit_and_err(workdir, tmp_path, capsys, bad, queries)
    assert code == 1
    assert "duplicate agent id" in err


def test_query_rejects_nan_query_embedding(workdir, snapshot, tmp_path, capsys):
    _, _, queries = _corpus_args(workdir)
    lines = queries.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["embedding"][0] = float("nan")
    bad = tmp_path / "queries.jsonl"
    bad.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    code, err = _query_exit_and_err(workdir, tmp_path, capsys, snapshot, bad)
    assert code == 1
    assert err.startswith("error: queries line 1: invalid json (")


def test_query_rejects_a_repeated_query_id(workdir, snapshot, tmp_path, capsys):
    # Before, ranks.csv held two blocks for one id.
    _, _, queries = _corpus_args(workdir)
    lines = queries.read_text().splitlines()
    bad = tmp_path / "queries.jsonl"
    bad.write_text("\n".join([lines[0], lines[0]] + lines[1:]) + "\n")
    code, err = _query_exit_and_err(workdir, tmp_path, capsys, snapshot, bad)
    assert code == 1
    assert err == "error: queries line 2: duplicate query id 'q00'\n"
    assert not (tmp_path / "r.csv").exists()


def test_query_rejects_a_beta_mix_that_ranks_by_id(workdir, snapshot, tmp_path, capsys):
    # Every norm ** 2000 underflows to 0: each score was 0.0 or -0.0, and the
    # ranking the order of the ids.
    agents, _, queries = _corpus_args(workdir)
    conf = tmp_path / "mixed.conf"
    conf.write_text("retrieval.beta_mix = 2000\n")
    out = tmp_path / "r.csv"
    code = main(["query", "--config", str(conf), "--strategy", "mixed", "--snapshot",
                 str(snapshot), "--queries", str(queries), "--agents", str(agents),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: query q00: beta_mix 2000\.0 takes the power factor of agent 'a\d+' to 0\.0; "
        r"it must stay finite and above 0\n",
        err,
    ), err
    assert not out.exists()


_TOO_DEEP = "[" * 150_000 + "]" * 150_000


def _cli_in_a_subprocess(*argv, timeout=120):
    """(exit code, stderr) of the CLI run in its own process: a parser that
    overflows the C stack ends that process, with exit code -11 or 139."""
    code = "import sys; from trustprop.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(trustprop.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stderr


@pytest.mark.parametrize("which", ["agents", "edges", "queries", "snapshot"])
def test_a_text_nested_past_the_bound_is_rejected_naming_its_file(
    workdir, snapshot, tmp_path, which
):
    agents, edges, queries = _corpus_args(workdir)
    paths = {"agents": agents, "edges": edges, "queries": queries, "snapshot": snapshot}
    bad = tmp_path / paths[which].name
    if which == "snapshot":
        bad.write_text(_TOO_DEEP)
        where = "snapshot"
    else:
        lines = paths[which].read_text().splitlines()
        bad.write_text("\n".join(lines + [_TOO_DEEP]) + "\n")
        where = f"{which} line {len(lines) + 1}"
    paths[which] = bad
    if which in ("agents", "edges"):
        argv = ["propagate", "--agents", paths["agents"], "--edges", paths["edges"]]
        out = tmp_path / "prop"
    else:
        argv = ["query", "--snapshot", paths["snapshot"], "--queries", paths["queries"],
                "--agents", paths["agents"]]
        out = tmp_path / "ranks.csv"
    code, err = _cli_in_a_subprocess(*argv, "--out", out)
    assert (code, err) == (1, f"error: {where}: invalid json (nested more than 10000 levels)\n")
    assert not out.exists()


# More than 10 000 openers, so the line is scanned, then a string of escaped
# quotes that never closes: a scan that reads it again from every quote takes
# quadratic time.
_UNTERMINATED = "[]" * 10_001 + '"' + '\\"' * 50_000


@pytest.mark.parametrize("which", ["agents", "edges", "snapshot"])
def test_an_unterminated_string_is_scanned_once(workdir, snapshot, tmp_path, which):
    agents, edges, queries = _corpus_args(workdir)
    bad = tmp_path / f"{which}.txt"
    if which == "snapshot":
        bad.write_text(_UNTERMINATED)
        argv = ["query", "--snapshot", bad, "--queries", queries, "--agents", agents]
        where = "snapshot"
    else:
        lines = (agents if which == "agents" else edges).read_text().splitlines()
        bad.write_text("\n".join(lines + [_UNTERMINATED]) + "\n")
        files = {"agents": agents, "edges": edges, which: bad}
        argv = ["propagate", "--agents", files["agents"], "--edges", files["edges"]]
        where = f"{which} line {len(lines) + 1}"
    out = tmp_path / "out"
    code, err = _cli_in_a_subprocess(*argv, "--out", out, timeout=20)
    assert code == 1 and err.startswith(f"error: {where}: invalid json ("), err
    assert not out.exists()


def test_brackets_inside_a_string_do_not_nest(workdir, tmp_path):
    # 30 000 "[" in a description: more than the bound, but text, not nesting.
    agents, edges, _ = _corpus_args(workdir)
    lines = agents.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "description": "[" * 30_000})
    wide = tmp_path / "agents.jsonl"
    wide.write_text("\n".join(lines) + "\n")
    code, err = _cli_in_a_subprocess("propagate", "--agents", wide, "--edges", edges,
                                     "--out", tmp_path / "prop")
    assert (code, err) == (0, "")
    assert (tmp_path / "prop" / "snapshot.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pipeline_query_whose_embedding_norm_overflows(workdir, snapshot, tmp_path, capsys):
    # Squaring the entries of a 1e306-scaled embedding overflows; its norm does not.
    agents, _, queries = _corpus_args(workdir)
    lines = queries.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["embedding"] = [1e306 * x for x in rec["embedding"]]
    big = tmp_path / "queries.jsonl"
    big.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    ranks = {}
    for name, path in (("plain", queries), ("big", big)):
        code = main([
            "query", "--snapshot", str(snapshot), "--queries", str(path),
            "--agents", str(agents), "--strategy", "pipeline",
            "--out", str(tmp_path / f"{name}.csv"),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
        ranks[name] = [row.split(",")[2] for row in rows if row.startswith(rec["id"] + ",")]
    assert ranks["big"] == ranks["plain"]


def _set(**fields):
    return lambda obj: obj.update(fields)


@pytest.mark.parametrize(
    "which, change, strategy, message",
    [
        ("queries", _set(embedding="1"), "dot",
         "queries line 1: embedding must be a vector of numbers, got str"),
        ("queries", _set(text=["x"]), "pipeline",
         "queries line 1: text must be a string, got list"),
        ("queries", _set(text=5), "pipeline", "queries line 1: text must be a string, got int"),
        ("queries", _set(expected_domains="abc"), "dot",
         "queries line 1: expected_domains must be a list of strings, got str"),
        ("queries", _set(expected_domains=[1]), "dot",
         "queries line 1: expected_domains entry must be a string, got int"),
        ("queries", _set(embedding=[1.0]), "dot",
         "query q00: query dim 1 does not match state width 64"),
        ("snapshot", _set(residuals={"a": 1}), "dot",
         "snapshot: residuals must be a vector of numbers, got dict"),
        ("snapshot", _set(mode="bogus"), "dot",
         "snapshot: mode must be one of continuous, discrete, got 'bogus'"),
        ("snapshot", _set(iterations="many"), "dot",
         "snapshot: iterations must be an integer, got str"),
        ("snapshot", _set(converged="no"), "dot",
         "snapshot: converged must be a boolean, got str"),
        ("snapshot", _set(config_digest=5), "dot",
         "snapshot: config_digest must be a string, got int"),
        ("snapshot", _set(mean=[0.5]), "dot", "snapshot: mean dim does not match the agent rows"),
        ("snapshot", lambda obj: obj["agents"][0].update(r=[True] * 64), "dot",
         "snapshot agent 0: r must be a vector of numbers, not bool"),
    ],
    ids=["embedding_str", "text_list", "text_int", "domains_str", "domains_int", "query_dim",
         "residuals_dict", "mode_bogus", "iterations_str", "converged_str", "digest_int",
         "mean_dim", "row_bools"],
)
def test_query_rejects_mistyped_fields(
    workdir, snapshot, tmp_path, capsys, which, change, strategy, message
):
    # The snapshot as one object, or the first line of the queries.
    paths = {"snapshot": snapshot, "queries": _corpus_args(workdir)[2]}
    text = paths[which].read_text()
    lines = [text] if which == "snapshot" else text.splitlines()
    obj = json.loads(lines[0])
    change(obj)
    lines[0] = json.dumps(obj)
    paths[which] = tmp_path / which
    paths[which].write_text("\n".join(lines) + "\n")
    code = main([
        "query", "--snapshot", str(paths["snapshot"]), "--queries", str(paths["queries"]),
        "--agents", str(_corpus_args(workdir)[0]), "--strategy", strategy,
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _skew(root, src, offset):
    """Copy corpus files, pushing every embedding toward one offset: the
    narrow cone of a raw embedding model that ``--center`` undoes."""
    def unit(v):
        v = np.asarray(v) + offset
        return (v / np.linalg.norm(v)).tolist()

    def scaled(v):
        n = np.linalg.norm(v)
        return (n * np.asarray(unit(np.asarray(v) / n))).tolist() if n else v

    fields = {
        "agents.jsonl": {"profile": unit, "teleport": scaled, "exogenous": scaled},
        "edges.jsonl": {"content": unit},
        "queries.jsonl": {"embedding": unit},
    }
    root.mkdir()
    for name, fns in fields.items():
        recs = [json.loads(line) for line in (src / name).read_text().splitlines()]
        for rec in recs:
            for field, fn in fns.items():
                if field in rec:
                    rec[field] = fn(rec[field])
        (root / name).write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    return root / "agents.jsonl", root / "edges.jsonl", root / "queries.jsonl"


CENTERED_P5_FLOOR = 0.7


def test_query_centers_with_the_snapshot_mean(workdir, tmp_path, capsys):
    offset = 3.0 * np.random.default_rng(7).normal(size=64) / 8.0
    agents, edges, queries = _skew(tmp_path / "skewed", workdir / "corpus", offset)
    out = tmp_path / "prop"
    assert main([
        "propagate", "--config", str(workdir / "small.conf"), "--agents", str(agents),
        "--edges", str(edges), "--center", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    for strategy in ("dot", "cosine", "mixed", "pipeline"):
        assert main([
            "query", "--config", str(workdir / "small.conf"),
            "--snapshot", str(out / "snapshot.json"), "--queries", str(queries),
            "--agents", str(agents), "--strategy", strategy,
            "--out", str(tmp_path / f"{strategy}.csv"),
        ]) == 0
        mean_line = capsys.readouterr().out.splitlines()[-1]
        strict = float(mean_line.split("strict=")[1].split()[0])
        # Raw skewed queries against the centered state reached 0.25-0.30.
        if strategy != "pipeline":
            assert strict >= CENTERED_P5_FLOOR, (strategy, mean_line)

    # The pipeline sees centered profiles as well as centered queries.
    state, _, mean = snapshot_from_json((out / "snapshot.json").read_text())
    centered = [
        replace(a, profile=center_and_normalize(mean, a.profile))
        for a in agents_from_jsonl(agents.read_text())
    ]
    q = queries_from_jsonl(queries.read_text())[0]
    q = replace(q, embedding=center_and_normalize(mean, q.embedding))
    want = [
        f"{q.id},{pos},{aid},{score!r}"
        for pos, (aid, score) in enumerate(pipeline_search(state, centered, q), start=1)
    ]
    got = (tmp_path / "pipeline.csv").read_text().splitlines()[1 : 1 + len(want)]
    assert got == want


@pytest.fixture(scope="module")
def centered_snapshot(workdir):
    agents, edges, _ = _corpus_args(workdir)
    out = workdir / "prop_centered"
    assert main([
        "propagate", "--config", str(workdir / "small.conf"), "--agents", str(agents),
        "--edges", str(edges), "--center", "--out", str(out),
    ]) == 0
    return out / "snapshot.json"


@pytest.mark.parametrize("case", ["wrong_dim", "the_mean"])
def test_a_query_the_snapshot_mean_cannot_center_is_named(
    workdir, centered_snapshot, tmp_path, capsys, case
):
    # A query the mean cannot center is named, like any query that does not
    # fit the snapshot.
    _, _, queries = _corpus_args(workdir)
    lines = queries.read_text().splitlines()
    rec = json.loads(lines[3])
    if case == "wrong_dim":
        rec["embedding"] = rec["embedding"][:3]
        message = "vector dim (3,) does not match centering model (64,)"
    else:
        rec["embedding"] = snapshot_from_json(centered_snapshot.read_text())[2].tolist()
        message = "vector is degenerate after centering (norm < 1e-12)"
    bad = tmp_path / "queries.jsonl"
    bad.write_text("\n".join(lines[:3] + [json.dumps(rec)]) + "\n")
    capsys.readouterr()
    code, err = _query_exit_and_err(workdir, tmp_path, capsys, centered_snapshot, bad)
    assert (code, err) == (1, f"error: query q03: {message}\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("centered", [False, True], ids=["plain", "centered"])
def test_pipeline_query_refuses_profiles_narrower_than_the_snapshot(
    workdir, snapshot, centered_snapshot, tmp_path, capsys, centered
):
    # The pipeline reads each profile at the snapshot's width, so narrower
    # profiles are refused, naming the agents file, before any centering.
    agents, _, queries = _corpus_args(workdir)
    recs = [json.loads(line) for line in agents.read_text().splitlines()]
    for rec in recs:
        rec.update(profile=[1.0, 0.0, 0.0], teleport=[0.3, 0.0, 0.0], exogenous=[0.0] * 3)
    narrow = tmp_path / "agents.jsonl"
    narrow.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    capsys.readouterr()
    code = main([
        "query", "--snapshot", str(centered_snapshot if centered else snapshot),
        "--queries", str(queries), "--agents", str(narrow), "--strategy", "pipeline",
        "--out", str(tmp_path / "r.csv"),
    ])
    err = capsys.readouterr().err
    assert (code, err) == (1, "error: agents: profile width 3 does not match snapshot width 64\n")
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------- attack


def test_attack_vote_ring_report(workdir, tmp_path, capsys):
    out = tmp_path / "attack"
    code = main([
        "attack",
        "--config", str(workdir / "small.conf"),
        "--scenario", "vote_ring",
        "--out", str(out),
    ])
    assert code == 0
    report = (out / "report_vote_ring.csv").read_text()
    assert report.startswith("scenario,vote_ring")
    assert "p5_strict_baseline" in report
    assert "vote_ring: P@5" in capsys.readouterr().out


def test_attack_flag_defense_report(tmp_path, capsys):
    out = tmp_path / "attack"
    args = ["attack", "--scenario", "same_domain_sybil", "--flag-defense", "--out", str(out)]
    assert main(args) == 0
    flag = run_flag_scenario(CorpusSpec(), scenario="same_domain_sybil")
    want = [",".join(row) for row in flag.csv_rows()]
    assert (out / "flag_defense.csv").read_text().splitlines() == want
    lines = [line for line in capsys.readouterr().out.splitlines() if "flag defense" in line]
    assert lines == [
        "flag defense: a48 magnitude reduced 100.0%",
        "flag defense: a49 magnitude reduced 100.0%",
    ]


def test_attack_rejects_unknown_scenario(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "attack",
            "--scenario", "meteor",
            "--out", str(tmp_path),
        ])
    assert exc.value.code == 1


@pytest.mark.parametrize("verb", ["attack", "bench"])
def test_attack_and_bench_reject_unknown_strategy_before_running(tmp_path, verb, capsys):
    conf = tmp_path / "oracle.conf"
    conf.write_text(SMALL_CONF + "retrieval.strategy = oracle\n")
    out = tmp_path / verb
    assert main([verb, "--config", str(conf), "--out", str(out)]) == 1
    assert "retrieval.strategy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("severity", ["1.5", "-0.1"])
def test_attack_rejects_flag_severity_outside_unit_interval(tmp_path, capsys, severity):
    conf = tmp_path / "severity.conf"
    conf.write_text(SMALL_CONF + f"attack.flag_severity = {severity}\n")
    out = tmp_path / "attack"
    args = ["attack", "--config", str(conf), "--flag-defense", "--out", str(out)]
    assert main(args) == 1
    assert "config key 'attack.flag_severity': must lie in [0.0, 1.0]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["attack", "bench"])
def test_attack_and_bench_reject_discrete_mode_before_running(
    tmp_path, verb, capsys, monkeypatch
):
    # Discrete states hold domain buckets; the corpus queries are E-dimensional.
    def no_corpus(spec):
        raise AssertionError("corpus generated")

    monkeypatch.setattr("trustprop.harness.generate_corpus", no_corpus)
    monkeypatch.setattr("trustprop.cli.generate_corpus", no_corpus)
    conf = tmp_path / "discrete.conf"
    conf.write_text(SMALL_CONF + "propagation.mode = discrete\n")
    out = tmp_path / verb
    assert main([verb, "--config", str(conf), "--out", str(out)]) == 1
    assert "propagation.mode = continuous" in capsys.readouterr().err
    assert not out.exists()


NO_FINANCE_ACTIVES = "corpus.n_agents = 12\ncorpus.hubs = 5\ncorpus.dormant = 3\n"


@pytest.mark.parametrize(
    "conf, argv, message",
    [
        ("corpus.malicious = 0\n", ["--scenario", "cross_domain_sybil"],
         "corpus has no malicious pair"),
        ("corpus.malicious = 0\n", ["--scenario", "same_domain_sybil"],
         "corpus has no malicious pair"),
        ("corpus.malicious = 0\n", ["--scenario", "laundering"],
         "corpus has no malicious agents"),
        ("corpus.malicious = 0\n", ["--scenario", "vote_ring", "--flag-defense"],
         "corpus has no malicious agents"),
        ("corpus.hubs = 0\n", ["--scenario", "cross_domain_sybil"], "no foreign hubs to spam"),
        ("corpus.hubs = 0\n", ["--scenario", "laundering"], "no hub to forward to"),
        (NO_FINANCE_ACTIVES, ["--scenario", "same_domain_sybil"],
         "no same-domain targets to spam"),
        (NO_FINANCE_ACTIVES, ["--scenario", "laundering"], "no intermediary available"),
        (NO_FINANCE_ACTIVES, ["--scenario", "vote_ring"],
         "not enough same-domain agents for a ring"),
    ],
    ids=["no_malicious-cross_sybil", "no_malicious-same_sybil", "no_malicious-laundering",
         "no_malicious-vote_ring_flags", "no_hubs-cross_sybil", "no_hubs-laundering",
         "no_finance_actives-same_sybil", "no_finance_actives-laundering",
         "no_finance_actives-vote_ring"],
)
def test_attack_a_corpus_cannot_take_is_refused_before_anything_runs(
    tmp_path, capsys, monkeypatch, conf, argv, message
):
    # An attack the corpus cannot take, or flags with no one to flag, is found
    # before the first propagation, and nothing is printed or written.
    runs = []
    real_run = trustprop.harness.run
    monkeypatch.setattr("trustprop.harness.run",
                        lambda *a, **k: runs.append("run") or real_run(*a, **k))
    path = tmp_path / "attack.conf"
    path.write_text(conf)
    out = tmp_path / "attack"
    assert main(["attack", "--config", str(path), *argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
    assert runs == []


# ---------------------------------------------------------------- bench


def test_bench_compares_operators_across_densities(workdir, tmp_path, capsys):
    out = tmp_path / "bench"
    code = main([
        "bench",
        "--config", str(workdir / "small.conf"),
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "operator,labeled_edges,iterations,p5_strict,p5_multilabel"
    assert len(lines) == 1 + 5 * 2  # five operators at two densities
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == [
        "operator", "labeled_edges", "iterations", "p5_strict", "p5_multilabel"
    ]


@pytest.mark.parametrize("verb", ["attack", "bench"])
def test_attack_and_bench_accept_every_strategy(workdir, tmp_path, verb):
    conf = tmp_path / "pipeline.conf"
    conf.write_text(
        SMALL_CONF + "retrieval.strategy = pipeline\nretrieval.variant = log_damped\n"
    )
    assert main([verb, "--config", str(conf), "--out", str(tmp_path / verb)]) == 0


@TOPIC_GATES
@pytest.mark.parametrize("verb", ["attack", "bench"])
def test_attack_and_bench_with_topic_distribution_gates(tmp_path, verb, gate_conf):
    # These gates need domain centroids, derived from each corpus's agents.
    conf = tmp_path / "gated.conf"
    conf.write_text(SMALL_CONF + gate_conf)
    assert main([verb, "--config", str(conf), "--out", str(tmp_path / verb)]) == 0


# ---------------------------------------------------------------- usage


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["propagate"])  # missing required arguments
    assert exc.value.code == 1


# ---------------------------------------------------------------- fuzz

# One value of each JSON type, and the awkward ones: an integer no float can
# hold, a numeric string, lists of each kind.
_JSON_VALUES = [None, True, False, 0, -1, 2.5, 10**400, "", "x", "0.5", [], ["x"], [1.0], {},
                {"a": 1}]
_ENTRY_VALUES = ["0.5", True, False, None, [1.0]]
_NON_FINITE = [float("nan"), float("inf"), float("-inf"), "@1e999"]
_NEST_DEPTHS = [3, 200, 2000]


def _dumps(obj):
    """json.dumps, with "@1e999" written as the literal and "@nestN" as N nested lists."""
    text = json.dumps(obj).replace('"@1e999"', "1e999")
    return re.sub(r'"@nest(\d+)"', lambda m: "[" * int(m[1]) + "]" * int(m[1]), text)


def _mutate(data, obj, ids):
    """Apply one drawn mutation to the JSON object ``obj`` in place; returns
    "truncate" when the caller should cut the line's text instead."""
    op = data.draw(st.sampled_from(["drop", "swap", "entry", "non_finite", "nest", "dup_id",
                                    "truncate"]))
    if op == "truncate":
        return op
    parent, key = obj, data.draw(st.sampled_from(sorted(obj)))
    if isinstance(parent[key], dict) and parent[key] and data.draw(st.booleans()):
        parent, key = parent[key], data.draw(st.sampled_from(sorted(parent[key])))
    elif key == "agents" and parent[key]:  # a snapshot's agent entry
        entry = data.draw(st.sampled_from(parent[key]))
        parent, key = entry, data.draw(st.sampled_from(sorted(entry)))
    value = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "swap":
        parent[key] = data.draw(st.sampled_from(_JSON_VALUES))
    elif op in ("entry", "non_finite") and isinstance(value, list) and value:
        pool = _ENTRY_VALUES if op == "entry" else _NON_FINITE
        value[data.draw(st.integers(0, len(value) - 1))] = data.draw(st.sampled_from(pool))
    elif op == "non_finite":
        parent[key] = data.draw(st.sampled_from(_NON_FINITE))
    elif op == "nest":
        parent[key] = f"@nest{data.draw(st.sampled_from(_NEST_DEPTHS))}"
    elif op == "dup_id":
        id_key = "id" if "id" in parent else "sender"
        parent[id_key] = data.draw(st.sampled_from(ids))
    return op


# An exit-1 message names where the input is wrong: a line of a JSONL file,
# the snapshot, or, for a rule across files, the query, edge or agent by id.
_WHERE = re.compile(
    r"^error: ((agents|edges|queries) line \d+: |snapshot|query \S+: |edge .+ -> .+: "
    r"|edge references unknown agent ')"
)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_fuzz_never_shows_a_traceback(workdir, snapshot, data):
    files = dict(zip(("agents", "edges", "queries"), _corpus_args(workdir)))
    texts = {name: path.read_text() for name, path in files.items()}
    texts["snapshot"] = snapshot.read_text()
    target = data.draw(st.sampled_from(["agents", "edges", "queries", "snapshot"]))
    if target == "snapshot":
        obj = json.loads(texts[target])
        ids = [entry["id"] for entry in obj["agents"]]
        op = _mutate(data, obj, ids)
        text = _dumps(obj)
    else:
        lines = texts[target].splitlines()
        records = [json.loads(line) for line in lines]
        ids = [rec.get("id", rec.get("sender")) for rec in records]
        i = data.draw(st.integers(0, len(lines) - 1))
        op = _mutate(data, records[i], ids)
        lines[i] = _dumps(records[i])
        if op == "truncate":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1))]
        text = "\n".join(lines) + "\n"
    if target == "snapshot" and op == "truncate":
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    fuzz = workdir / "fuzz"
    fuzz.mkdir(exist_ok=True)
    paths = {name: fuzz / f"{name}.json" for name in texts}
    for name, path in paths.items():
        path.write_text(text if name == target else texts[name])
    runs = []
    if target in ("agents", "edges"):
        runs.append(["propagate", "--agents", str(paths["agents"]), "--edges",
                     str(paths["edges"]), "--out", str(fuzz / "prop")])
    if target != "edges":
        strategy = data.draw(st.sampled_from(["dot", "cosine", "mixed", "pipeline"]))
        runs.append(["query", "--snapshot", str(paths["snapshot"]), "--queries",
                     str(paths["queries"]), "--agents", str(paths["agents"]),
                     "--strategy", strategy, "--out", str(fuzz / "r.csv")])
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert _WHERE.match(err.getvalue()), err.getvalue()
