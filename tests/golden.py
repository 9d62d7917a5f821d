"""Golden outputs: the SHA-256 of every file, stdout and stderr, and the exit
code, of a fixed list of CLI runs on the ``gen-corpus`` defaults.

``tests/test_golden.py`` compares a fresh run with ``tests/golden.json``.
A change that moves an output on purpose rewrites the file with

    PYTHONPATH=src python tests/golden.py --write

which lists the digests that moved; with no argument the script only
compares.  Each run goes through ``cli.main`` in process, with paths
relative to a scratch directory, so no output names the directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from trustprop.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden.json"
PERFBENCH_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
PACKAGES = ("numpy", "scipy", "orjson")

CONFIGS = {
    "gates.conf": "gates.kl.enabled = true\ngates.entropy.enabled = true\n"
                  "gates.magnitude.enabled = true\ngates.confidence.enabled = true\n",
    "discrete.conf": "propagation.mode = discrete\npropagation.top_k = 2\n",
    "pipeline.conf": "retrieval.strategy = pipeline\n",
}
SCENARIOS = ("cross_domain_sybil", "same_domain_sybil", "laundering", "vote_ring")
STRATEGIES = ("dot", "cosine", "mixed", "pipeline")
CORPUS = ["--agents", "corpus/agents.jsonl"]


def _runs() -> list[tuple[str, list[str]]]:
    """(name, argv) per run, in order; each run writes under ``--out name``."""
    prop = ["propagate", *CORPUS, "--edges", "corpus/edges.jsonl"]
    runs = [
        ("corpus", ["gen-corpus"]),
        ("propagate", prop),
        ("propagate_center", [*prop, "--center"]),
        ("propagate_gates", [*prop, "--center", "--config", "gates.conf"]),
        ("propagate_discrete", [*prop, "--config", "discrete.conf"]),
    ]
    for snap in ("propagate", "propagate_center", "propagate_gates"):
        for strategy in STRATEGIES:
            runs.append((f"query_{snap}_{strategy}", [
                "query", "--snapshot", f"{snap}/snapshot.json",
                "--queries", "corpus/queries.jsonl", *CORPUS, "--strategy", strategy,
            ]))
    for scenario in SCENARIOS:
        runs.append((f"attack_{scenario}", ["attack", "--scenario", scenario, "--flag-defense"]))
    runs += [
        ("attack_vote_ring_pipeline",
         ["attack", "--scenario", "vote_ring", "--config", "pipeline.conf"]),
        ("bench", ["bench"]),
        ("bench_pipeline", ["bench", "--config", "pipeline.conf"]),
        ("perfbench_propagate", ["propagate", "--agents", "perfbench/agents.jsonl",
                                 "--edges", "perfbench/edges.jsonl"]),
    ]
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_perfbench_inputs(root: Path) -> None:
    """The seed-1 3k/45k graph of perfbench's engine sweep, as JSONL.  Its
    positive edges span many receiver blocks, so on more than one CPU its run
    takes the threaded step, which the 50-agent corpus (one block) never does."""
    spec = importlib.util.spec_from_file_location("_perfbench_gen", PERFBENCH_GEN)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    corpus = gen.generate(1, 3000, 45000, 64)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "agents.jsonl").write_text(gen.agents_jsonl(corpus.agents))
    (root / "perfbench" / "edges.jsonl").write_text(
        gen.edges_jsonl(corpus.edges, corpus.agents.ids)
    )


def _written(out: Path) -> list[Path]:
    """What a run wrote: the one file of ``query``, the directory of any other
    verb, or nothing."""
    if out.is_dir():
        return sorted(out.iterdir())
    return [out] if out.exists() else []


def compute(root: Path) -> dict[str, str | int]:
    """Every run's outputs, keyed ``run/file``, ``run/stdout``, ``run/stderr``
    and ``run/exit``, made in the empty directory ``root``."""
    for name, text in CONFIGS.items():
        (root / name).write_text(text)
    _write_perfbench_inputs(root)
    outputs: dict[str, str | int] = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, argv in _runs():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", name])
            for path in _written(Path(name)):
                outputs[path.as_posix()] = _sha(path.read_bytes())
            outputs[f"{name}/stdout"] = _sha(stdout.getvalue().encode())
            outputs[f"{name}/stderr"] = _sha(stderr.getvalue().encode())
            outputs[f"{name}/exit"] = code
    finally:
        os.chdir(cwd)
    return outputs


def versions() -> dict[str, str]:
    return {name: importlib.metadata.version(name) for name in PACKAGES}


def differences(recorded: dict, outputs: dict[str, str | int]) -> list[str]:
    """One line per output that differs from ``recorded``, then one per
    package whose version differs from the recorded one; empty if all match."""
    want = recorded["outputs"]
    lines = [
        f"{key}: recorded {want.get(key, 'nothing')}, got {outputs.get(key, 'nothing')}"
        for key in sorted(want.keys() | outputs.keys())
        if want.get(key) != outputs.get(key)
    ]
    if lines:
        lines += [
            f"{name} is {now}; the digests were written with "
            f"{recorded['versions'].get(name, 'an unrecorded version')}"
            for name, now in versions().items()
            if recorded["versions"].get(name) != now
        ]
    return lines


def main_script(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print("usage: python tests/golden.py [--write]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outputs = compute(Path(tmp))
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"outputs": {}, "versions": {}}
    moved = differences(recorded, outputs)
    print("\n".join(moved) if moved else "no digest moved")
    if write:
        GOLDEN.write_text(
            json.dumps({"versions": versions(), "outputs": outputs}, indent=1) + "\n"
        )
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main_script(sys.argv[1:]))
