"""Values at the edges of float64 in corpus records, through ``cli.main``.

From ``gen-corpus`` defaults, one value at a time goes into one place: entry
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
CENTER = {"plain": [], "center": ["--center"]}

# A row of ±1e308 entries has a norm past the float range, and the package
# has no boundary rule for such a vector yet (ROADMAP item 3): centering
# multiplies its inf norm, the discrete split and the gates overflow, and a
# -1e308 teleport row writes an inf residual.  Three plain default runs get
# through; the queries on the -1e308 exogenous one overflow.
WHOLE_ROW_OVERFLOW = pytest.mark.xfail(
    strict=True, reason="a whole row of ±1e308 has a norm past float64 (ROADMAP item 3)"
)
XFAIL_PROPAGATE = {
    (value, place, config, center)
    for value in ("+1e308", "-1e308")
    for place in ("teleport", "exogenous")
    for config in CONFIGS
    for center in CENTER
} - {
    ("+1e308", "teleport", "default", "plain"),
    ("+1e308", "exogenous", "default", "plain"),
    ("-1e308", "exogenous", "default", "plain"),
}
XFAIL_QUERY = {
    ("-1e308", "exogenous", "default", "plain", strategy) for strategy in STRATEGIES
}


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

    def __init__(self, root):
        self.root = root
        self.corpora = {}
        self.runs = {}
        assert _cli(["gen-corpus", "--out", str(root / "base")])[0] == 0
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


def _params(*axes, xfail):
    """The product of ``axes`` as pytest params, marked xfail where ``xfail`` says."""
    return [
        pytest.param(*c, id="-".join(c), marks=[WHOLE_ROW_OVERFLOW] if c in xfail else [])
        for c in itertools.product(*axes)
    ]


@pytest.mark.parametrize(
    "value,place,config,center", _params(VALUES, PLACES, CONFIGS, CENTER, xfail=XFAIL_PROPAGATE)
)
def test_propagate(sweep, value, place, config, center):
    run = sweep.propagate(value, place, config, center)
    if isinstance(run, Exception):
        raise run
    code, err, snapshot = run
    if _assert_clean_exit(code, err):
        text = snapshot.read_text()
        assert "Infinity" not in text and "NaN" not in text


@pytest.mark.parametrize(
    "value,place,config,center,strategy",
    _params(VALUES, PLACES, CONTINUOUS, CENTER, STRATEGIES, xfail=XFAIL_QUERY),
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
