"""Values at the edges of float64 in corpus records, through ``cli.main``.

From each of two base corpora, ``gen-corpus`` defaults and a small-count
one (12 agents, 8 dims), one value at a time goes into one place: entry
[0] and then every entry of a03's ``teleport`` and ``exogenous``, and one
labeled edge's ``base_weight``, ``content[0]`` and ``confidence``.  Each
corpus is propagated with three configs, with and without ``--center``, and
every continuous snapshot is queried with each strategy.  A run either
exits 0 or 2 with finite output, or exits 1 with one ``error:`` line;
pytest turns a numpy ``RuntimeWarning`` into an error, so a warning fails
the run too.
"""

import contextlib
import io
import itertools
import json

import numpy as np
import pytest

from trustprop.cli import main
from trustprop.retrieval import STRATEGIES

VALUES = {
    "+1e308": 1e308,
    "-1e308": -1e308,
    "1e306": 1e306,
    "1e200": 1e200,
    "1e154": 1e154,
    "min_normal": float(np.finfo(np.float64).tiny),
    "5e-324": 5e-324,
    "-0.0": -0.0,
}

PLACES = (
    "teleport[0]", "teleport", "exogenous[0]", "exogenous",
    "base_weight", "content[0]", "confidence",
)

CONFIGS = {
    "default": "",
    "discrete_top2": "propagation.mode = discrete\npropagation.top_k = 2\n",
    "scalar_gated": (
        "propagation.operator = scalar\ngates.kl.enabled = true\ngates.magnitude.enabled = true\n"
    ),
}
CONTINUOUS = ("default", "scalar_gated")
# A second base corpus with small counts: few edges per agent, 8 dims.
SMALL_BASE = (
    "corpus.n_agents = 12\ncorpus.hubs = 2\ncorpus.dormant = 1\ncorpus.specialists = 2\n"
    "corpus.labeled_edges = 6\ncorpus.payment_edges = 1\ncorpus.blind_edges = 20\n"
    "corpus.n_queries = 3\ncorpus.cross_domain_queries = 1\ncorpus.embedding_dim = 8\n"
)
CENTER = {"plain": [], "center": ["--center"]}


def _cli(argv):
    """(exit code, stderr) of ``main(argv)``, with stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    """Exit 0 or 2, or exit 1 with one ``error:`` line; True if output was written."""
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return False
    assert code in (0, 2), (code, err)
    return True


class _Sweep:
    """The sweep's corpora and propagate runs under one directory, each made once."""

    def __init__(self, root, base_config=""):
        self.root = root
        self.corpora = {}
        self.runs = {}
        (root / "base.conf").write_text(base_config)
        argv = ["gen-corpus", "--config", str(root / "base.conf"), "--out", str(root / "base")]
        assert _cli(argv)[0] == 0
        for name, text in CONFIGS.items():
            (root / f"{name}.conf").write_text(text)

    def corpus(self, value, place):
        """The directory of the corpus with ``VALUES[value]`` at ``place``."""
        key = (value, place)
        if key not in self.corpora:
            x = VALUES[value]
            base = self.root / "base"
            agents = [json.loads(s) for s in (base / "agents.jsonl").read_text().splitlines()]
            edges = [json.loads(s) for s in (base / "edges.jsonl").read_text().splitlines()]
            field, _, index = place.partition("[")
            if field in ("teleport", "exogenous"):
                rec = next(a for a in agents if a["id"] == "a03")
            else:
                rec = next(e for e in edges if e["kind"] == "labeled")
            if index:
                rec[field][0] = x
            elif field in ("teleport", "exogenous"):
                rec[field] = [x] * len(rec[field])
            else:
                rec[field] = x
            out = self.root / f"{value}_{field}{index and '0'}"
            out.mkdir()
            for name, recs in (("agents", agents), ("edges", edges)):
                (out / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
            (out / "queries.jsonl").write_text((base / "queries.jsonl").read_text())
            self.corpora[key] = out
        return self.corpora[key]

    def propagate(self, value, place, config, center):
        """(exit code, stderr, snapshot path) of one propagate run, or the
        exception it raised."""
        key = (value, place, config, center)
        if key not in self.runs:
            corpus = self.corpus(value, place)
            out = corpus / f"prop_{config}_{center}"
            try:
                code, err = _cli([
                    "propagate", "--config", str(self.root / f"{config}.conf"),
                    "--agents", str(corpus / "agents.jsonl"),
                    "--edges", str(corpus / "edges.jsonl"), *CENTER[center], "--out", str(out),
                ])
                self.runs[key] = code, err, out / "snapshot.json"
            except Exception as exc:  # kept, and raised by the run's own test
                self.runs[key] = exc
        return self.runs[key]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _Sweep(tmp_path_factory.mktemp("float_sweep"))


def _params(*axes):
    """The product of ``axes`` as pytest params."""
    return [pytest.param(*c, id="-".join(c)) for c in itertools.product(*axes)]


@pytest.mark.parametrize("value,place,config,center", _params(VALUES, PLACES, CONFIGS, CENTER))
def test_propagate(sweep, value, place, config, center):
    run = sweep.propagate(value, place, config, center)
    if isinstance(run, Exception):
        raise run
    code, err, snapshot = run
    if _assert_clean_exit(code, err):
        text = snapshot.read_text()
        assert "Infinity" not in text and "NaN" not in text and "null" not in text


@pytest.mark.parametrize(
    "value,place,config,center,strategy", _params(VALUES, PLACES, CONTINUOUS, CENTER, STRATEGIES)
)
def test_query(sweep, value, place, config, center, strategy):
    run = sweep.propagate(value, place, config, center)
    if isinstance(run, Exception) or run[0] not in (0, 2):
        pytest.skip("propagate wrote no snapshot to query")
    snapshot = run[2]
    corpus = sweep.corpus(value, place)
    out = snapshot.parent / f"ranks_{strategy}.csv"
    code, err = _cli([
        "query", "--snapshot", str(snapshot), "--queries", str(corpus / "queries.jsonl"),
        "--agents", str(corpus / "agents.jsonl"), "--strategy", strategy, "--out", str(out),
    ])
    if _assert_clean_exit(code, err):
        scores = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]]
        assert np.isfinite(scores).all()


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    return _Sweep(tmp_path_factory.mktemp("float_sweep_small"), SMALL_BASE)


@pytest.mark.parametrize("value,place,config,center", _params(VALUES, PLACES, CONFIGS, CENTER))
def test_propagate_small_corpus(small_sweep, value, place, config, center):
    test_propagate(small_sweep, value, place, config, center)


@pytest.mark.parametrize(
    "value,place,config,center,strategy", _params(VALUES, PLACES, CONTINUOUS, CENTER, STRATEGIES)
)
def test_query_small_corpus(small_sweep, value, place, config, center, strategy):
    test_query(small_sweep, value, place, config, center, strategy)
