"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-7 are desk scale and run in CI.  Criterion 8 is the
full-scale benchmark reproduction; it needs the public check-in dataset
and hours of compute, so it only runs when JMPGCF_GOWALLA_DIR points at
a directory holding its train.txt/test.txt.
"""

import itertools
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from jmpgcf import (
    InteractionDataset,
    LayerSelectionConfig,
    LayerSelectionError,
    ModelParameters,
    PhaseSchedule,
    PopularityConfig,
    SelectedLayers,
    TrainConfig,
    TripleSampler,
    backward,
    build_adjacency,
    build_normalized_adjacency,
    evaluate,
    init_parameters,
    load_dataset,
    ndcg_at_k,
    propagate,
    propagation_matrices,
    rank_user,
    recall_at_k,
    score_pair,
    select_layers,
    separated_bpr_loss,
    train,
)
from jmpgcf.graph import degrees

from conftest import make_blocked_dataset, make_random_dataset


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences
# --------------------------------------------------------------------------

def _finite_difference(params, mats, layers, batch, active, lam, eps):
    grads = []
    for ti, table in enumerate(params.base_embeddings):
        grad = np.zeros_like(table)
        for r in range(table.shape[0]):
            for c in range(table.shape[1]):
                for sign in (+1.0, -1.0):
                    tables = [t.copy() for t in params.base_embeddings]
                    tables[ti][r, c] += sign * eps
                    shifted = ModelParameters(
                        params.num_users, params.num_items, params.embed_dim,
                        params.popularity, tables,
                    )
                    out = propagate(shifted, mats, layers)
                    grad[r, c] += sign * separated_bpr_loss(out, batch, active, lam) / (2 * eps)
        grads.append(grad)
    return grads


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        layer_choices = [(3, 2), (1, 2), (3, 4), (1, 4), (3, 2)]
        worst = 0.0
        for instance in range(5):
            m = int(rng.integers(3, 11))
            n = int(rng.integers(3, 11))
            dim = int(rng.choice([2, 3, 4]))
            ds = make_random_dataset(rng, m, n, max_degree=min(4, n - 1))
            cfg = PopularityConfig(granularity_unit=0.1, max_granularity=2)
            mats = propagation_matrices(ds, cfg)
            params = init_parameters(m, n, dim, cfg, seed=instance)
            layers = SelectedLayers(*layer_choices[instance])
            batch = TripleSampler(ds).sample(6, np.random.default_rng(1000 + instance))
            active = {0, 1, 2}
            lam = 1e-2
            out = propagate(params, mats, layers)
            analytic = backward(out, batch, active, lam)
            numeric = _finite_difference(params, mats, layers, batch, active, lam, eps=1e-5)
            for a, f in zip(analytic, numeric):
                scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
                worst = max(worst, float(np.max(np.abs(a - f) / scale)))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-4, f"max relative gradient error {worst}"
        assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# criterion 2: sparse propagation vs dense brute force + column scaling
# --------------------------------------------------------------------------

def test_criterion_2_propagation_oracle():
    with criterion(2, "propagation oracle"):
        rng = np.random.default_rng(102)
        cfg = PopularityConfig(granularity_unit=0.1, max_granularity=2)
        for trial in range(20):
            m = int(rng.integers(2, 26))
            n = int(rng.integers(2, min(51 - m, 26)))
            ds = make_random_dataset(rng, m, n, max_degree=min(5, n))
            adjacency = build_adjacency(ds)
            dense_adj = adjacency.toarray()
            deg = dense_adj.sum(axis=1)
            base_dense = None
            for k in range(3):
                norm = build_normalized_adjacency(adjacency, k, cfg)
                dense = (
                    np.diag((deg + 1.0) ** -0.5)
                    @ (dense_adj + np.eye(m + n))
                    @ np.diag((deg + 1.0) ** (-0.5 + k * cfg.granularity_unit))
                )
                if k == 0:
                    base_dense = norm.toarray()
                else:
                    scaled = base_dense * (deg + 1.0) ** (k * cfg.granularity_unit)
                    np.testing.assert_allclose(
                        norm.toarray(), scaled, rtol=1e-12, atol=1e-14
                    )
                params = init_parameters(m, n, 3, cfg, seed=trial)
                out = propagate(params, [norm] * 3, SelectedLayers(3, 4))
                expected = params.base_for(k)
                for l in range(1, 5):
                    expected = dense @ expected
                    np.testing.assert_allclose(
                        out.layer(k, l), expected, rtol=1e-12, atol=1e-14
                    )


# --------------------------------------------------------------------------
# criterion 3: layer selection vs all-pairs shortest-path oracle
# --------------------------------------------------------------------------

def _floyd_warshall(ds):
    dense = build_adjacency(ds).toarray()
    nv = len(dense)
    dist = np.full((nv, nv), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[dense > 0] = 1.0
    for mid in range(nv):
        dist = np.minimum(dist, dist[:, mid:mid + 1] + dist[mid:mid + 1, :])
    return dist


def _oracle_selection(ds, alpha, max_hops):
    dist = _floyd_warshall(ds)
    m, n = ds.num_users, ds.num_items
    user_rows = dist[:m]
    l_odd = l_even = None
    for hop in range(1, max_hops + 1, 2):
        coverage = np.mean((user_rows[:, m:] == hop).sum(axis=1) / n)
        if coverage >= alpha:
            l_odd = hop
            break
    for hop in range(2, max_hops + 1, 2):
        coverage = np.mean((user_rows[:, :m] == hop).sum(axis=1) / m)
        if coverage >= alpha:
            l_even = hop
            break
    return l_odd, l_even


def test_criterion_3_layer_selection_oracle():
    with criterion(3, "layer selection oracle"):
        rng = np.random.default_rng(103)
        max_hops = 16
        for trial in range(20):
            m = int(rng.integers(2, 31))
            n = int(rng.integers(2, min(61 - m, 31)))
            train = []
            for _ in range(m):
                deg = int(rng.integers(0, min(n, 4) + 1))
                train.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
            ds = InteractionDataset.from_lists(m, n, train)
            for alpha in (0.3, 0.5, 0.8):
                cfg = LayerSelectionConfig(
                    alpha=alpha, sample_size=10**6, max_hops=max_hops, seed=trial
                )
                want_odd, want_even = _oracle_selection(ds, alpha, max_hops)
                if want_odd is None or want_even is None:
                    with pytest.raises(LayerSelectionError):
                        select_layers(ds, cfg)
                else:
                    got = select_layers(ds, cfg)
                    assert (got.l_odd, got.l_even) == (want_odd, want_even)
        complete = InteractionDataset.from_lists(
            6, 5, [list(range(5)) for _ in range(6)]
        )
        got = select_layers(complete, LayerSelectionConfig(alpha=0.5, seed=0))
        assert (got.l_odd, got.l_even) == (1, 2)


# --------------------------------------------------------------------------
# criterion 4: phase-stacked objective and prediction telescope exactly
# --------------------------------------------------------------------------

def test_criterion_4_loss_and_prediction_equivalence():
    with criterion(4, "loss/phase equivalence"):
        rng = np.random.default_rng(104)
        ds = make_random_dataset(rng, 8, 9, max_degree=5)
        cfg = PopularityConfig(granularity_unit=0.1, max_granularity=2)
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(8, 9, 4, cfg, seed=104)
        layers = SelectedLayers(3, 2)
        out = propagate(params, mats, layers)
        batch = TripleSampler(ds).sample(16, np.random.default_rng(105))
        lam = 1e-3
        schedule = PhaseSchedule.uniform(2, 1)
        cumulative_loss = 0.0
        for phase in range(1, schedule.num_phases + 1):
            cumulative_loss += separated_bpr_loss(
                out, batch, {schedule.new_granularity(phase)}, lam
            )
        joint = separated_bpr_loss(out, batch, {0, 1, 2}, lam)
        assert math.isclose(cumulative_loss, joint, rel_tol=1e-12, abs_tol=1e-12)

        for u, i in [(0, 0), (3, 5), (7, 8)]:
            cumulative_score = 0.0
            for phase in range(1, schedule.num_phases + 1):
                new_k = schedule.new_granularity(phase)
                cumulative_score += score_pair(out, u, i, granularities=[new_k])
            full = score_pair(out, u, i)
            assert math.isclose(cumulative_score, full, rel_tol=1e-12, abs_tol=1e-12)


# --------------------------------------------------------------------------
# criterion 5: end-to-end learning on the planted two-block dataset
# --------------------------------------------------------------------------

def test_criterion_5_learning_sanity():
    with criterion(5, "learning sanity"):
        started = time.perf_counter()
        ds = make_blocked_dataset(num_users=100, num_items=100, holdout=5, seed=42)
        assert ds.num_train_interactions == 500
        cfg = PopularityConfig(granularity_unit=0.1, max_granularity=2)
        params = init_parameters(100, 100, 16, cfg, seed=0)
        mats = propagation_matrices(ds, cfg)
        layers = SelectedLayers(3, 4)
        schedule = PhaseSchedule.uniform(2, 100)
        params, _ = train(ds, params, schedule, TrainConfig(seed=0), layers, matrices=mats)
        out = propagate(params, mats, layers, retain_chain=False)

        test_report = evaluate(params, out, ds, 20)
        replay = InteractionDataset.from_lists(
            100, 100, [[] for _ in range(100)], [list(items) for items in ds.train]
        )
        replay_report = evaluate(params, out, replay, 20)
        elapsed = time.perf_counter() - started
        assert test_report.recall >= 0.5, f"test recall {test_report.recall:.3f}"
        assert replay_report.recall >= 0.9, f"replay recall {replay_report.recall:.3f}"
        assert elapsed < 300.0, f"learning-sanity run took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# criterion 6: higher granularity dominates componentwise on all-ones input
# --------------------------------------------------------------------------

def test_criterion_6_popularity_monotonicity():
    with criterion(6, "popularity monotonicity"):
        rng = np.random.default_rng(106)
        cfg = PopularityConfig(granularity_unit=0.1, max_granularity=2)
        for trial in range(6):
            m = int(rng.integers(2, 15))
            n = int(rng.integers(2, 15))
            train = []
            for _ in range(m):
                deg = int(rng.integers(0, min(n, 4) + 1))
                train.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
            ds = InteractionDataset.from_lists(m, n, train)
            mats = propagation_matrices(ds, cfg)
            ones = [np.ones((m + n, 2)) for _ in range(3)]
            params = ModelParameters(m, n, 2, cfg, ones)
            out = propagate(params, mats, SelectedLayers(3, 2))
            deg = degrees(build_adjacency(ds))
            touched = deg > 0
            for l in (1, 2, 3):
                low = out.layer(0, l)
                high = out.layer(2, l)
                assert np.all(high >= low)
                assert np.all(high[touched] > low[touched])
                assert np.all(high[~touched] == low[~touched])


# --------------------------------------------------------------------------
# criterion 7: metrics vs brute force over exhaustive permutations
# --------------------------------------------------------------------------

def _reference_rank(scores, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[:k]


def _reference_recall(topk, relevant):
    return len(set(topk) & relevant) / len(relevant)


def _reference_ndcg(topk, relevant, k):
    dcg = 0.0
    for position in range(len(topk)):
        if topk[position] in relevant:
            dcg += 1.0 / math.log2(position + 2)
    ideal = 0.0
    for position in range(min(len(relevant), k)):
        ideal += 1.0 / math.log2(position + 2)
    return dcg / ideal


def _relevant_families(n):
    if n <= 5:
        items = list(range(n))
        return [
            set(combo)
            for size in range(1, n + 1)
            for combo in itertools.combinations(items, size)
        ]
    return [{0}, {n - 1}, set(range(n // 2)), set(range(n))]


def test_criterion_7_metric_correctness():
    with criterion(7, "metric correctness"):
        for n in range(1, 9):
            families = _relevant_families(n)
            for perm in itertools.permutations(range(n)):
                scores = np.array(perm, dtype=np.float64)
                full = rank_user(scores, set(), 4)
                assert full.tolist() == _reference_rank(scores, 4)
                for k in range(1, 5):
                    topk = full[:k] if k <= len(full) else full
                    topk_list = topk.tolist()
                    for relevant in families:
                        assert recall_at_k(topk_list, relevant) == _reference_recall(
                            topk_list, relevant
                        )
                        assert ndcg_at_k(topk_list, relevant, k) == _reference_ndcg(
                            topk_list, relevant, k
                        )


# --------------------------------------------------------------------------
# criterion 8 (extended, opt-in): full-scale benchmark reproduction
# --------------------------------------------------------------------------

FULL_SCALE_ENV = "JMPGCF_GOWALLA_DIR"


@pytest.mark.skipif(
    FULL_SCALE_ENV not in os.environ,
    reason=f"full-scale run takes hours; set {FULL_SCALE_ENV} to the dataset directory",
)
def test_criterion_8_full_scale_reproduction():
    with criterion(8, "full-scale reproduction"):
        data_dir = os.environ[FULL_SCALE_ENV]
        ds = load_dataset(
            os.path.join(data_dir, "train.txt"), os.path.join(data_dir, "test.txt")
        )
        assert (ds.num_users, ds.num_items) == (29858, 40981)
        total = ds.num_train_interactions + sum(len(t) for t in ds.test)
        assert total == 1027370

        selected = select_layers(ds, LayerSelectionConfig(alpha=0.5, seed=0))
        assert (selected.l_odd, selected.l_even) == (3, 4)

        cfg = PopularityConfig(granularity_unit=0.1, max_granularity=2)
        params = init_parameters(ds.num_users, ds.num_items, 64, cfg, seed=0)
        mats = propagation_matrices(ds, cfg)
        schedule = PhaseSchedule.uniform(2, 300)
        train_cfg = TrainConfig(
            learning_rate=1e-3, l2_coeff=1e-4, batch_size=2048, seed=0
        )
        params, _ = train(ds, params, schedule, train_cfg, selected, matrices=mats)
        out = propagate(params, mats, selected, retain_chain=False)
        report = evaluate(params, out, ds, 20, workers=4)
        print(
            f"[acceptance] full-scale recall@20={report.recall:.4f} "
            f"ndcg@20={report.ndcg:.4f}"
        )
        assert abs(report.recall - 0.1871) <= 0.005
