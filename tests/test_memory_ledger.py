"""``tools/memory_ledger.py`` drives ``train()`` itself and prints a line
per call ``train()`` makes: every call of the first steps after the start
and after each evaluation, one line for the rest of each stretch, and
each evaluation's two calls."""

import importlib.util
import io
import os
import sys

import pytest

from jmpgcf import (
    InteractionDataset,
    PhaseSchedule,
    SelectedLayers,
    evaluation,
    model,
    training,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def ledger(monkeypatch):
    """The tool, imported as it runs: from the checkout root."""
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(sys, "path", list(sys.path))  # it prepends src and perfbench
    spec = importlib.util.spec_from_file_location(
        "memory_ledger", os.path.join(REPO, "tools", "memory_ledger.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def step_points(first, last):
    detailed = [f"step {step} {stage}" for step in (first, first + 1)
                for stage in ("propagate", "backward", "optimizer")]
    return detailed + [f"steps {first + 2}-{last}", "evaluation propagate",
                       "evaluation evaluate"]


def test_points_of_a_tiny_planted_run(ledger, tmp_path):
    import gen  # perfbench's generator, on the path the tool set

    train_lists, test_lists = gen.planted_lists(1, blocks=2, block_users=150, block_items=60,
                                                window=16, holdout=2)
    ds = InteractionDataset.from_lists(300, 120, train_lists, test_lists)
    steps = -(-ds.num_train_interactions // training.TrainConfig().batch_size)
    assert steps == 3  # so each epoch has a stretch after its detailed steps
    out = io.StringIO()
    records = ledger.run(ds, ds, PhaseSchedule.uniform(2, 1), SelectedLayers(1, 2), out,
                         str(tmp_path))
    assert len(records) == 3 and all("recall@20" in record for record in records)
    lines = out.getvalue().splitlines()
    assert lines[0].split() == ["point", "before_mb", "after_mb", "peak_mb"]
    points = [line[:28].strip() for line in lines[1:]]
    assert points == (["dataset loaded", "matrices built", "tables made"]
                      + step_points(1, 3) + step_points(4, 6) + step_points(7, 9)
                      + ["train() returned"])
    for point, line in zip(points, lines[1:]):
        numbers = [float(value) for value in line[28:].split()]
        assert len(numbers) == (2 if point in ("dataset loaded", "matrices built",
                                               "tables made", "train() returned") else 3)
        assert all(value > 0 for value in numbers), line
    # the wrapped calls are restored
    assert training.propagate is model.propagate
    assert evaluation.evaluate.__module__ == "jmpgcf.evaluation"
    assert sorted(os.listdir(tmp_path)) == ["checkpoint_final.ckpt", "checkpoint_phase1.ckpt",
                                            "checkpoint_phase2.ckpt", "checkpoint_phase3.ckpt",
                                            "metrics.jsonl"]
