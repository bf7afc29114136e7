import math

import numpy as np
import pytest
import scipy.sparse as sp

from jmpgcf import (
    CheckpointFormatError,
    InteractionDataset,
    ModelParameters,
    PopularityConfig,
    SelectedLayers,
    SparseMatrix,
    init_parameters,
    load_checkpoint,
    propagate,
    propagation_matrices,
    save_checkpoint,
    score_all_items,
    score_pair,
    spmm,
)

from conftest import make_random_dataset, manual_output


def identity_matrices(nv, count=3):
    return [SparseMatrix.from_scipy(sp.identity(nv, format="csr")) for _ in range(count)]


class TestInitParameters:
    def test_xavier_bound(self):
        params = init_parameters(10, 20, 64, PopularityConfig(), seed=0)
        bound = math.sqrt(6.0 / 128.0)
        assert bound == pytest.approx(0.2165, abs=5e-5)
        for table in params.base_embeddings:
            assert table.shape == (30, 64)
            assert np.all(np.abs(table) <= bound)

    def test_deterministic(self):
        a = init_parameters(5, 5, 8, PopularityConfig(), seed=123)
        b = init_parameters(5, 5, 8, PopularityConfig(), seed=123)
        for ta, tb in zip(a.base_embeddings, b.base_embeddings):
            np.testing.assert_array_equal(ta, tb)

    def test_one_table_per_granularity(self):
        params = init_parameters(3, 3, 4, PopularityConfig(max_granularity=2), seed=0)
        assert len(params.base_embeddings) == 3

    def test_shared_base_single_table(self):
        params = init_parameters(3, 3, 4, PopularityConfig(), seed=0, shared_base=True)
        assert len(params.base_embeddings) == 1
        assert params.base_for(0) is params.base_for(2)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            init_parameters(3, 3, 0, PopularityConfig(), seed=0)


class TestPropagate:
    def test_identity_matrices_leave_base_unchanged(self):
        params = init_parameters(3, 4, 5, PopularityConfig(), seed=1)
        out = propagate(params, identity_matrices(7), SelectedLayers(1, 2), depth=4)
        for k in range(3):
            for l in range(5):
                np.testing.assert_array_equal(out.layer(k, l), params.base_for(k))

    def test_deeper_layer_contains_shallower_chain(self):
        """Applying the matrix twice to layer 1 reproduces layer 3."""
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng, 5, 5)
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(5, 5, 3, cfg, seed=2)
        out = propagate(params, mats, SelectedLayers(3, 2))
        for k in range(3):
            rebuilt = spmm(mats[k], spmm(mats[k], out.layer(k, 1)))
            np.testing.assert_array_equal(rebuilt, out.layer(k, 3))

    def test_matches_dense_oracle(self):
        ds = InteractionDataset.from_lists(2, 2, [[0], [0, 1]])
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(2, 2, 2, cfg, seed=3)
        out = propagate(params, mats, SelectedLayers(1, 2))
        for k in range(3):
            dense = mats[k].toarray()
            expected = dense @ (dense @ params.base_for(k))
            np.testing.assert_allclose(out.layer(k, 2), expected, rtol=1e-12, atol=1e-15)

    def test_depth_defaults_to_deepest_selected(self):
        params = init_parameters(2, 2, 2, PopularityConfig(), seed=0)
        out = propagate(params, identity_matrices(4), SelectedLayers(3, 2))
        assert out.depth == 3

    def test_depth_below_selected_rejected(self):
        params = init_parameters(2, 2, 2, PopularityConfig(), seed=0)
        with pytest.raises(ValueError):
            propagate(params, identity_matrices(4), SelectedLayers(3, 4), depth=2)

    def test_chain_dropped_unless_retained(self):
        params = init_parameters(2, 2, 2, PopularityConfig(), seed=0)
        out = propagate(
            params, identity_matrices(4), SelectedLayers(1, 4), retain_chain=False
        )
        out.layer(0, 1)
        out.layer(0, 4)
        with pytest.raises(RuntimeError):
            out.layer(0, 2)

    def test_granularity_subset_skips_other_chains(self):
        params = init_parameters(2, 2, 2, PopularityConfig(), seed=0)
        out = propagate(
            params, identity_matrices(4), SelectedLayers(1, 2), granularities={1, 2}
        )
        assert out.num_granularities == 3
        out.layer(1, 2)
        out.layer(2, 1)
        with pytest.raises(RuntimeError):
            out.layer(0, 1)

    def test_wrong_matrix_count(self):
        params = init_parameters(2, 2, 2, PopularityConfig(), seed=0)
        with pytest.raises(ValueError):
            propagate(params, identity_matrices(4, count=2), SelectedLayers(1, 2))

    def test_popularity_monotone_with_all_ones_base(self):
        """With an all-ones base, one propagation step at a higher
        granularity dominates a lower one componentwise."""
        rng = np.random.default_rng(4)
        ds = make_random_dataset(rng, 8, 7)
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        ones = [np.ones((15, 3)) for _ in range(3)]
        params = ModelParameters(8, 7, 3, cfg, ones)
        out = propagate(params, mats, SelectedLayers(1, 2))
        low = out.layer(0, 1)
        high = out.layer(2, 1)
        assert np.all(high >= low)
        has_edge = np.array([len(ds.train[u]) > 0 for u in range(8)])
        assert np.all(high[:8][has_edge] > low[:8][has_edge])


class TestScoring:
    def test_all_zero_embeddings(self):
        chains = [[np.zeros((4, 2))] * 3 for _ in range(2)]
        out = manual_output(chains, num_users=2)
        assert score_pair(out, 0, 1) == 0.0

    def test_hand_computed_linearity(self):
        # one user, one item, embed_dim 1; user value k+1 per granularity,
        # item value 1, identical at both layers
        chains = []
        for k in range(3):
            mat = np.array([[float(k + 1)], [1.0]])
            chains.append([mat, mat, mat])
        out = manual_output(chains, num_users=1)
        assert score_pair(out, 0, 0) == pytest.approx(2 * (1 + 2 + 3))

    def test_matches_scalar_brute_force(self):
        rng = np.random.default_rng(5)
        ds = make_random_dataset(rng, 6, 5)
        cfg = PopularityConfig(granularity_weights=(1.0, 2.0, 0.5))
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(6, 5, 3, cfg, seed=5)
        layers = SelectedLayers(3, 2)
        out = propagate(params, mats, layers)
        for u, i in [(0, 0), (3, 4), (5, 2)]:
            expected = 0.0
            for k, w in enumerate(cfg.granularity_weights):
                for l in (layers.l_odd, layers.l_even):
                    emb = out.layer(k, l)
                    expected += w * sum(
                        emb[u][d] * emb[6 + i][d] for d in range(3)
                    )
            assert score_pair(out, u, i) == pytest.approx(expected, rel=1e-12)

    def test_score_all_items_agrees_with_pairs(self):
        rng = np.random.default_rng(6)
        ds = make_random_dataset(rng, 4, 3)
        cfg = PopularityConfig()
        out = propagate(
            init_parameters(4, 3, 4, cfg, seed=6),
            propagation_matrices(ds, cfg),
            SelectedLayers(1, 2),
        )
        scores = score_all_items(out, 2)
        assert scores.shape == (3,)
        for i in range(3):
            assert scores[i] == pytest.approx(score_pair(out, 2, i), rel=1e-10)

    def test_single_granularity_weight_is_rank_invariant(self):
        rng = np.random.default_rng(7)
        chains = [[rng.normal(size=(9, 3)) for _ in range(3)] for _ in range(2)]
        out = manual_output(chains, num_users=4)
        base = score_all_items(out, 1, weights=(1.0, 1.0), granularities=[1])
        scaled = score_all_items(out, 1, weights=(1.0, 10.0), granularities=[1])
        np.testing.assert_array_equal(np.argsort(base), np.argsort(scaled))
        np.testing.assert_allclose(scaled, 10.0 * base, rtol=1e-12)

    def test_bilinear_in_propagated_rows(self):
        rng = np.random.default_rng(8)
        chains = [[rng.normal(size=(5, 2)) for _ in range(3)]]
        out = manual_output(chains, num_users=2, weights=(1.0,))
        before = score_pair(out, 0, 1)
        t = 3.5
        odd_term = float(chains[0][1][0] @ chains[0][1][3])
        chains_scaled = [[m.copy() for m in chains[0]]]
        chains_scaled[0][1][0] *= t
        scaled_out = manual_output(chains_scaled, num_users=2, weights=(1.0,))
        after = score_pair(scaled_out, 0, 1)
        assert after - before == pytest.approx((t - 1) * odd_term, rel=1e-10)

    def test_granularity_subset_telescopes(self):
        """Stacking one granularity at a time reproduces the full score."""
        rng = np.random.default_rng(9)
        ds = make_random_dataset(rng, 5, 6)
        cfg = PopularityConfig()
        out = propagate(
            init_parameters(5, 6, 3, cfg, seed=9),
            propagation_matrices(ds, cfg),
            SelectedLayers(1, 2),
        )
        max_k = cfg.max_granularity
        cumulative = 0.0
        for phase in range(1, max_k + 2):
            new_k = max_k - phase + 1
            cumulative += score_pair(out, 1, 2, granularities=[new_k])
            restricted = score_pair(out, 1, 2, granularities=range(new_k, max_k + 1))
            assert cumulative == pytest.approx(restricted, rel=1e-12, abs=1e-12)
        full = score_pair(out, 1, 2)
        assert cumulative == pytest.approx(full, rel=1e-12, abs=1e-12)

    def test_index_bounds(self):
        chains = [[np.zeros((4, 2))] * 3]
        out = manual_output(chains, num_users=2, weights=(1.0,))
        with pytest.raises(IndexError):
            score_pair(out, 2, 0)
        with pytest.raises(IndexError):
            score_pair(out, 0, 5)
        with pytest.raises(IndexError):
            score_all_items(out, -1)


class TestCheckpoint:
    def roundtrip(self, tmp_path, shared=False):
        cfg = PopularityConfig(granularity_unit=0.1, max_granularity=2)
        params = init_parameters(4, 6, 5, cfg, seed=11, shared_base=shared)
        layers = SelectedLayers(3, 4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, layers, phase=2, epoch=57)
        return params, load_checkpoint(path, shared_base=shared)

    def test_bit_exact_roundtrip(self, tmp_path):
        params, ckpt = self.roundtrip(tmp_path)
        assert ckpt.layers == SelectedLayers(3, 4)
        assert (ckpt.phase, ckpt.epoch) == (2, 57)
        assert ckpt.params.embed_dim == 5
        assert ckpt.params.popularity.granularity_unit == 0.1
        for original, restored in zip(params.base_embeddings, ckpt.params.base_embeddings):
            np.testing.assert_array_equal(original, restored)

    def test_shared_base_roundtrip(self, tmp_path):
        params, ckpt = self.roundtrip(tmp_path, shared=True)
        assert ckpt.params.shared_base
        assert len(ckpt.params.base_embeddings) == 1
        np.testing.assert_array_equal(
            params.base_embeddings[0], ckpt.params.base_embeddings[0]
        )

    def test_shared_base_load_rejects_separate_tables(self, tmp_path):
        self.roundtrip(tmp_path)
        with pytest.raises(CheckpointFormatError, match="shared_base"):
            load_checkpoint(tmp_path / "model.ckpt", shared_base=True)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTAMODEL 1 1 1 0 0.1 1 2 1 1\n" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError, match="header"):
            load_checkpoint(path)

    def test_truncated_table(self, tmp_path):
        cfg = PopularityConfig()
        params = init_parameters(2, 2, 2, cfg, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, SelectedLayers(1, 2), 1, 1)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        cfg = PopularityConfig()
        params = init_parameters(2, 2, 2, cfg, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, SelectedLayers(1, 2), 1, 1)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(path)


def test_model_parameters_validation():
    cfg = PopularityConfig()
    with pytest.raises(ValueError, match="base tables"):
        ModelParameters(2, 2, 2, cfg, [np.zeros((4, 2))] * 2)
    with pytest.raises(ValueError, match="shape"):
        ModelParameters(2, 2, 2, cfg, [np.zeros((3, 2))] * 3)
