"""``tools/exactness_gate.py`` reads a tree the same way every time, so
that two of its documents differ only where two trees compute different
numbers."""

import importlib.util
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_gate(monkeypatch):
    """The gate, imported as it runs: from the checkout root."""
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(sys, "path", list(sys.path))  # it prepends src and perfbench
    spec = importlib.util.spec_from_file_location(
        "exactness_gate", os.path.join(REPO, "tools", "exactness_gate.py")
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_one_planted_configuration_repeats(tmp_path, monkeypatch):
    gate = load_gate(monkeypatch)
    assert len(gate.PLANTED_CONFIGS) == 32
    configs = gate.PLANTED_CONFIGS[:1]
    documents = [
        json.dumps(gate.planted_steps(str(tmp_path / run), configs), sort_keys=True)
        for run in ("first", "second")
    ]
    assert documents[0] == documents[1]
    (result,) = json.loads(documents[0]).values()
    steps = gate.PLANTED_STEPS_PER_PHASE * gate.POPULARITY.num_granularities
    assert len(result["losses"]) == steps
    assert all(float.fromhex(loss) > 0 for loss in result["losses"])
    assert len(result["tables"]) == 64
