"""The CLI's outputs on the gen-corpus defaults match tests/golden.json.

A mismatch lists each output that moved and any numpy, scipy or orjson
version that differs from the one the digests were written with.  To
record an intended change, run ``PYTHONPATH=src python tests/golden.py
--write`` and say in CHANGES.md which digests moved and why.
"""

import json

import golden


def test_outputs_match_the_recorded_digests(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text())
    moved = golden.differences(recorded, golden.compute(tmp_path))
    assert not moved, "\n".join(moved)
