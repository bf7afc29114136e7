import logging
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from jmpgcf import (
    InteractionDataset,
    ModelParameters,
    PhaseSchedule,
    PopularityConfig,
    SelectedLayers,
    TrainConfig,
    TrainingDivergedError,
    TripleSampler,
    backward,
    init_optimizer_state,
    init_parameters,
    optimizer_step,
    propagate,
    propagation_matrices,
    separated_bpr_loss,
    train,
)
from jmpgcf.training import TripleBatch

from conftest import make_random_dataset, manual_output


class TestTripleSampler:
    def test_forced_negative(self):
        # the only possible negative for user 0 is item 7
        ds = InteractionDataset.from_lists(1, 9, [[0, 1, 2, 3, 4, 5, 6, 8]])
        batch = TripleSampler(ds).sample(64, np.random.default_rng(0))
        assert np.all(batch.neg_items == 7)
        assert np.all(batch.users == 0)
        assert np.all(np.isin(batch.pos_items, ds.train[0]))

    def test_deterministic_sequence(self):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        ds = make_random_dataset(np.random.default_rng(1), 20, 15)
        sampler_a, sampler_b = TripleSampler(ds), TripleSampler(ds)
        for _ in range(3):
            a = sampler_a.sample(32, rng_a)
            b = sampler_b.sample(32, rng_b)
            for lhs, rhs in zip(a, b):
                np.testing.assert_array_equal(lhs, rhs)

    def test_triple_invariants(self):
        ds = make_random_dataset(np.random.default_rng(2), 25, 12)
        batch = TripleSampler(ds).sample(256, np.random.default_rng(4))
        for u, i, j in zip(batch.users, batch.pos_items, batch.neg_items):
            assert i in ds.train[u]
            assert j not in ds.train[u]

    def test_negative_uniformity_chi_squared(self):
        """Rejection resampling leaves the negatives uniform over the
        user's non-interacted items."""
        ds = InteractionDataset.from_lists(1, 5, [[1, 3]])
        batch = TripleSampler(ds).sample(100_000, np.random.default_rng(5))
        values, counts = np.unique(batch.neg_items, return_counts=True)
        np.testing.assert_array_equal(values, [0, 2, 4])
        assert chisquare(counts).pvalue > 0.01

    def test_saturated_user_skipped_with_one_log(self, caplog):
        ds = InteractionDataset.from_lists(2, 3, [[0, 1, 2], [0]])
        sampler = TripleSampler(ds)
        rng = np.random.default_rng(6)
        with caplog.at_level(logging.WARNING, logger="jmpgcf.training"):
            first = sampler.sample(16, rng)
            sampler.sample(16, rng)
        assert np.all(first.users == 1)
        assert sum("skipped" in rec.message for rec in caplog.records) == 1

    def test_untrainable_dataset(self):
        ds = InteractionDataset.from_lists(1, 2, [[0, 1]])
        with pytest.raises(ValueError):
            TripleSampler(ds)


def equal_score_output(num_granularities=3, rows=6, dim=2, num_users=3):
    chains = [[np.zeros((rows, dim))] * 3 for _ in range(num_granularities)]
    return manual_output(chains, num_users=num_users)


class TestSeparatedLoss:
    def test_equal_scores_give_log2_per_term(self):
        """Zero margins: every of the 2 * |active| terms contributes ln 2."""
        out = equal_score_output()
        batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
        loss = separated_bpr_loss(out, batch, {0, 1, 2}, l2_coeff=0.0)
        assert loss == pytest.approx(6 * math.log(2), rel=1e-12)

    def test_perfect_separation_drives_loss_to_zero(self):
        user = np.array([[1.0, 0.0]])
        items = np.array([[50.0, 0.0], [-50.0, 0.0]])
        mat = np.vstack([user, items])
        out = manual_output([[mat, mat, mat]], num_users=1, weights=(1.0,))
        batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
        loss = separated_bpr_loss(out, batch, {0}, l2_coeff=0.0)
        assert loss == pytest.approx(0.0, abs=1e-20)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(7)
        ds = make_random_dataset(rng, 5, 5)
        cfg = PopularityConfig()
        params = init_parameters(5, 5, 2, cfg, seed=7)
        layers = SelectedLayers(1, 2)
        out = propagate(params, propagation_matrices(ds, cfg), layers)
        batch = TripleSampler(ds).sample(6, np.random.default_rng(8))
        lam = 0.37
        expected = 0.0
        reg = 0.0
        for k in range(3):
            for l in (1, 2):
                emb = out.layer(k, l)
                for u, i, j in zip(batch.users, batch.pos_items, batch.neg_items):
                    margin = float(emb[u] @ emb[5 + i]) - float(emb[u] @ emb[5 + j])
                    expected += math.log1p(math.exp(-margin))
                    reg += float(
                        emb[u] @ emb[u] + emb[5 + i] @ emb[5 + i] + emb[5 + j] @ emb[5 + j]
                    )
        expected += lam * reg / len(batch)
        got = separated_bpr_loss(out, batch, {0, 1, 2}, lam)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_numerically_stable_at_extreme_margins(self):
        user = np.array([[1.0]])
        items = np.array([[-800.0], [800.0]])
        mat = np.vstack([user, items])
        out = manual_output([[mat, mat, mat]], num_users=1, weights=(1.0,))
        batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
        with np.errstate(over="raise"):
            loss = separated_bpr_loss(out, batch, {0}, l2_coeff=0.0)
        assert loss == pytest.approx(2 * 1600.0, rel=1e-12)

    def test_separated_upper_bounds_merged_margin(self):
        """-ln s(a) - ln s(b) >= -ln s(a+b) for every pair of margins."""
        rng = np.random.default_rng(9)
        a = rng.normal(scale=3.0, size=1000)
        b = rng.normal(scale=3.0, size=1000)
        separated = np.logaddexp(0, -a) + np.logaddexp(0, -b)
        merged = np.logaddexp(0, -(a + b))
        assert np.all(separated >= merged - 1e-12)

    def test_active_set_validation(self):
        out = equal_score_output()
        batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            separated_bpr_loss(out, batch, set(), 0.0)
        with pytest.raises(ValueError):
            separated_bpr_loss(out, batch, {3}, 0.0)


def finite_difference_grads(params, mats, layers, batch, active, lam, full_reg=False, eps=1e-5):
    grads = []
    for ti, table in enumerate(params.base_embeddings):
        grad = np.zeros_like(table)
        for r in range(table.shape[0]):
            for c in range(table.shape[1]):
                for sign in (+1, -1):
                    tables = [t.copy() for t in params.base_embeddings]
                    tables[ti][r, c] += sign * eps
                    shifted = ModelParameters(
                        params.num_users,
                        params.num_items,
                        params.embed_dim,
                        params.popularity,
                        tables,
                        shared_base=params.shared_base,
                    )
                    out = propagate(shifted, mats, layers)
                    value = separated_bpr_loss(out, batch, active, lam, full_reg)
                    grad[r, c] += sign * value / (2 * eps)
        grads.append(grad)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - f) / scale)))
    return worst


class TestBackward:
    def test_zero_margin_row_gradient(self):
        """At margin 0 the positive item's row receives -1/2 * e_u from
        each of the two layer terms (identity pullback)."""
        user = np.array([[2.0, -1.0]])
        items = np.array([[0.5, 0.5], [0.5, 0.5]])
        mat = np.vstack([user, items])
        import scipy.sparse as sp

        from jmpgcf import SparseMatrix

        eye = SparseMatrix.from_scipy(sp.identity(3, format="csr"))
        out = manual_output([[mat, mat, mat]], num_users=1, weights=(1.0,), matrices=[eye])
        batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
        grads = backward(out, batch, {0}, l2_coeff=0.0)
        np.testing.assert_allclose(grads[0][1], 2 * (-0.5) * user[0], rtol=1e-12)

    def test_finite_difference_small_instance(self):
        rng = np.random.default_rng(10)
        ds = make_random_dataset(rng, 6, 6)
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(6, 6, 3, cfg, seed=10)
        layers = SelectedLayers(3, 2)
        batch = TripleSampler(ds).sample(5, np.random.default_rng(11))
        out = propagate(params, mats, layers)
        analytic = backward(out, batch, {0, 1, 2}, l2_coeff=1e-2)
        numeric = finite_difference_grads(params, mats, layers, batch, {0, 1, 2}, 1e-2)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_finite_difference_full_matrix_regularizer(self):
        rng = np.random.default_rng(12)
        ds = make_random_dataset(rng, 4, 4)
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(4, 4, 2, cfg, seed=12)
        layers = SelectedLayers(1, 2)
        batch = TripleSampler(ds).sample(3, np.random.default_rng(13))
        out = propagate(params, mats, layers)
        analytic = backward(out, batch, {0, 1, 2}, l2_coeff=0.05, full_matrix_reg=True)
        numeric = finite_difference_grads(
            params, mats, layers, batch, {0, 1, 2}, 0.05, full_reg=True
        )
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_finite_difference_shared_base(self):
        rng = np.random.default_rng(14)
        ds = make_random_dataset(rng, 4, 5)
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(4, 5, 2, cfg, seed=14, shared_base=True)
        layers = SelectedLayers(1, 2)
        batch = TripleSampler(ds).sample(4, np.random.default_rng(15))
        out = propagate(params, mats, layers)
        analytic = backward(out, batch, {0, 1, 2}, l2_coeff=1e-3)
        assert len(analytic) == 1
        numeric = finite_difference_grads(params, mats, layers, batch, {0, 1, 2}, 1e-3)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_inactive_granularities_get_exact_zeros(self):
        rng = np.random.default_rng(16)
        ds = make_random_dataset(rng, 5, 5)
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(5, 5, 2, cfg, seed=16)
        out = propagate(params, mats, SelectedLayers(1, 2))
        batch = TripleSampler(ds).sample(4, np.random.default_rng(17))
        grads = backward(out, batch, {2}, l2_coeff=1e-2)
        assert np.all(grads[2] != 0) or np.any(grads[2] != 0)
        np.testing.assert_array_equal(grads[0], np.zeros_like(grads[0]))
        np.testing.assert_array_equal(grads[1], np.zeros_like(grads[1]))


class TestOptimizer:
    def make(self, optimizer="adam", lr=0.1):
        cfg = PopularityConfig(max_granularity=0)
        params = ModelParameters(1, 1, 1, cfg, [np.array([[1.0], [2.0]])])
        state = init_optimizer_state(params)
        train_cfg = TrainConfig(learning_rate=lr, optimizer=optimizer)
        return params, state, train_cfg

    def test_zero_gradient_is_a_fixed_point(self):
        params, state, cfg = self.make()
        before = params.base_embeddings[0].copy()
        optimizer_step(params, [np.zeros((2, 1))], state, cfg)
        np.testing.assert_array_equal(params.base_embeddings[0], before)

    def test_sgd_step(self):
        params, state, cfg = self.make(optimizer="sgd", lr=0.1)
        grad = np.array([[0.5], [-1.0]])
        optimizer_step(params, [grad], state, cfg)
        np.testing.assert_allclose(
            params.base_embeddings[0], [[1.0 - 0.05], [2.0 + 0.1]], rtol=1e-15
        )

    def test_adaptive_update_matches_hand_recurrence(self):
        params, state, cfg = self.make(optimizer="adam", lr=0.01)
        grads = [np.array([[1.0], [-2.0]]), np.array([[0.5], [0.5]]), np.array([[-3.0], [1.0]])]
        theta = params.base_embeddings[0].copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t, grad in enumerate(grads, start=1):
            optimizer_step(params, [grad], state, cfg)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            theta = theta - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(params.base_embeddings[0], theta, rtol=1e-12)

    def test_nonfinite_gradient_aborts(self):
        params, state, cfg = self.make()
        with pytest.raises(TrainingDivergedError, match="table 0"):
            optimizer_step(params, [np.array([[np.nan], [0.0]])], state, cfg)


class TestPhaseSchedule:
    def test_coarse_to_fine_activation(self):
        schedule = PhaseSchedule.uniform(2, 10)
        assert schedule.num_phases == 3
        assert schedule.active_granularities(1) == {2}
        assert schedule.active_granularities(2) == {1, 2}
        assert schedule.active_granularities(3) == {0, 1, 2}

    def test_degenerate_single_phase(self):
        schedule = PhaseSchedule.uniform(0, 5)
        assert schedule.num_phases == 1
        assert schedule.active_granularities(1) == {0}

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSchedule(max_granularity=1, epochs_per_phase=(5,))
        with pytest.raises(ValueError):
            PhaseSchedule(max_granularity=0, epochs_per_phase=(-1,))
        with pytest.raises(ValueError):
            PhaseSchedule.uniform(1, 5).active_granularities(3)


class TestLossEquivalence:
    def test_final_phase_objective_equals_joint_loss(self):
        """Summing the per-phase objectives over the whole schedule gives
        exactly the all-granularity loss."""
        rng = np.random.default_rng(18)
        ds = make_random_dataset(rng, 6, 7)
        cfg = PopularityConfig()
        params = init_parameters(6, 7, 3, cfg, seed=18)
        out = propagate(params, propagation_matrices(ds, cfg), SelectedLayers(3, 2))
        batch = TripleSampler(ds).sample(8, np.random.default_rng(19))
        lam = 1e-3
        schedule = PhaseSchedule.uniform(2, 1)
        cumulative = 0.0
        for phase in range(1, schedule.num_phases + 1):
            new_k = schedule.new_granularity(phase)
            cumulative += separated_bpr_loss(out, batch, {new_k}, lam)
        joint = separated_bpr_loss(out, batch, {0, 1, 2}, lam)
        assert cumulative == pytest.approx(joint, rel=1e-12, abs=1e-12)


class TestTrainLoop:
    def small_setup(self, seed=0, max_granularity=2):
        ds = make_random_dataset(np.random.default_rng(seed), 12, 10, max_degree=5)
        cfg = PopularityConfig(max_granularity=max_granularity)
        params = init_parameters(12, 10, 4, cfg, seed=seed)
        return ds, cfg, params

    def test_loss_decreases_on_fixed_dataset(self):
        ds, cfg, params = self.small_setup(seed=20, max_granularity=0)
        schedule = PhaseSchedule.uniform(0, 50)
        train_cfg = TrainConfig(batch_size=32, seed=20, optimizer="adam")
        _, records = train(ds, params, schedule, train_cfg, SelectedLayers(1, 2))
        assert records[-1]["loss"] < records[0]["loss"]

    def test_epoch_accounting_and_phases(self):
        ds, cfg, params = self.small_setup(seed=21)
        schedule = PhaseSchedule.uniform(2, 2)
        train_cfg = TrainConfig(batch_size=16, seed=21)
        _, records = train(ds, params, schedule, train_cfg, SelectedLayers(1, 2))
        assert len(records) == 6
        assert [r["phase"] for r in records] == [1, 1, 2, 2, 3, 3]
        assert [r["epoch"] for r in records] == [1, 2, 3, 4, 5, 6]

    def test_deterministic_loss_sequence(self):
        losses = []
        for _ in range(2):
            ds, cfg, params = self.small_setup(seed=22)
            schedule = PhaseSchedule.uniform(2, 2)
            train_cfg = TrainConfig(batch_size=16, seed=22)
            _, records = train(ds, params, schedule, train_cfg, SelectedLayers(1, 2))
            losses.append([r["loss"] for r in records])
        assert losses[0] == losses[1]

    def test_checkpoints_written_per_phase(self, tmp_path):
        ds, cfg, params = self.small_setup(seed=23)
        schedule = PhaseSchedule.uniform(2, 1)
        train_cfg = TrainConfig(batch_size=16, seed=23)
        train(
            ds, params, schedule, train_cfg, SelectedLayers(1, 2),
            checkpoint_dir=str(tmp_path),
        )
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "checkpoint_final.ckpt",
            "checkpoint_phase1.ckpt",
            "checkpoint_phase2.ckpt",
            "checkpoint_phase3.ckpt",
        ]

    def test_metrics_jsonl_and_periodic_eval(self, tmp_path):
        import json

        ds, cfg, params = self.small_setup(seed=24)
        # move one item per user from train to test
        train_lists = [list(t[1:]) if len(t) > 1 else list(t) for t in ds.train]
        test_lists = [[int(t[0])] if len(t) > 1 else [] for t in ds.train]
        eval_ds = InteractionDataset.from_lists(12, 10, train_lists, test_lists)
        params = init_parameters(12, 10, 4, cfg, seed=24)
        schedule = PhaseSchedule.uniform(2, 2)
        train_cfg = TrainConfig(batch_size=16, seed=24)
        path = tmp_path / "metrics.jsonl"
        _, records = train(
            eval_ds, params, schedule, train_cfg, SelectedLayers(1, 2),
            eval_ds=eval_ds, eval_every=2, eval_topk=5, metrics_path=str(path),
        )
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 6
        assert all("loss" in r and "wallclock_s" in r for r in lines)
        assert "recall@5" in lines[1] and "ndcg@5" in lines[1]
        assert "recall@5" not in lines[0]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_parameters_abort(self):
        ds, cfg, params = self.small_setup(seed=25)
        params.base_embeddings[0][:] = np.nan
        schedule = PhaseSchedule.uniform(2, 1)
        train_cfg = TrainConfig(batch_size=8, seed=25)
        with pytest.raises(TrainingDivergedError):
            train(ds, params, schedule, train_cfg, SelectedLayers(1, 2))

    def test_schedule_parameter_mismatch(self):
        ds, cfg, params = self.small_setup(seed=26, max_granularity=1)
        schedule = PhaseSchedule.uniform(2, 1)
        with pytest.raises(ValueError):
            train(ds, params, schedule, TrainConfig(), SelectedLayers(1, 2))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(l2_coeff=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="momentum")
