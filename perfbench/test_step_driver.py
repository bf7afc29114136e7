"""The benchmark's step driver must be the training loop users run, and
its generators must be seeded and of the stated shape.

Run from the repository root:
``PYTHONPATH=src python -m pytest -q perfbench/test_step_driver.py``
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import gen  # noqa: E402
from jmpgcf import (  # noqa: E402
    PhaseSchedule,
    PopularityConfig,
    SelectedLayers,
    TrainConfig,
    TripleSampler,
    build_adjacency,
    build_normalized_adjacency,
    init_parameters,
    load_dataset,
    train,
    transpose,
)
from steps import StepDriver  # noqa: E402
from spans import Tracer  # noqa: E402


def test_one_epoch_matches_train_bit_for_bit(tmp_path):
    train_lists, test_lists = gen.planted_lists(3, blocks=2, block_users=60, block_items=90)
    ds = load_dataset(*gen.write_lists(tmp_path, train_lists, test_lists))
    pop = PopularityConfig(granularity_unit=0.1, max_granularity=2)
    adjacency = build_adjacency(ds)
    matrices = [build_normalized_adjacency(adjacency, k, pop) for k in range(3)]
    layers = SelectedLayers(3, 4)
    cfg = TrainConfig(batch_size=512, seed=5)
    steps = math.ceil(ds.num_train_interactions / cfg.batch_size)
    assert steps > 1

    for phase in (1, 2, 3):
        budget = tuple(int(p == phase) for p in (1, 2, 3))
        reference = init_parameters(ds.num_users, ds.num_items, 16, pop, seed=1)
        _, records = train(ds, reference, PhaseSchedule(2, budget), cfg, layers,
                           matrices=matrices)

        params = init_parameters(ds.num_users, ds.num_items, 16, pop, seed=1)
        driver = StepDriver(params, matrices, {k: transpose(m) for k, m in enumerate(matrices)},
                            layers, TripleSampler(ds), cfg, Tracer(enabled=phase == 2))
        losses = driver.run(tuple(steps * b for b in budget))
        total = 0.0
        for loss in losses:  # the order train() accumulates in
            total += loss
        assert total / (steps * cfg.batch_size) == records[0]["loss"]
        for ours, theirs in zip(params.base_embeddings, reference.base_embeddings):
            np.testing.assert_array_equal(ours, theirs)


def test_generators_are_seeded_and_shaped():
    for make in (gen.planted_lists, gen.gowalla_lists):
        first, again, other = make(7), make(7), make(8)
        for ours, theirs in zip(first, again):
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        assert any(not np.array_equal(a, b) for a, b in zip(first[0], other[0]))

    train_lists, test_lists = gen.gowalla_lists(7)
    train_total = sum(len(t) for t in train_lists)
    test_total = sum(len(t) for t in test_lists)
    assert len(train_lists) == gen.GOWALLA_USERS
    assert all(len(t) for t in train_lists)
    assert int(max(t.max() for t in train_lists)) + 1 == gen.GOWALLA_ITEMS
    assert abs(train_total - gen.GOWALLA_TRAIN) <= gen.GOWALLA_TOLERANCE * gen.GOWALLA_TRAIN
    assert abs(test_total - gen.GOWALLA_TEST) <= gen.GOWALLA_TOLERANCE * gen.GOWALLA_TEST
    for train_items, test_items in zip(train_lists, test_lists):
        assert np.intersect1d(train_items, test_items).size == 0
