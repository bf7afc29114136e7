import math
import re

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
    TripleSampler,
    backward,
    init_parameters,
    load_checkpoint,
    propagate,
    propagation_matrices,
    save_checkpoint,
    score_all_items,
    separated_bpr_loss,
    spmm,
)
from jmpgcf import model
from jmpgcf import training as training_module
from jmpgcf.model import score_users

from conftest import (
    assert_near_term_by_term,
    make_random_dataset,
    manual_output,
    out_of_place_scores,
    stacked_scores,
)


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
        for pair in ((1, 2), (3, 4)):
            out = propagate(params, identity_matrices(7), SelectedLayers(*pair))
            for k in range(3):
                for l in (0, *pair):
                    np.testing.assert_array_equal(out.layer(k, l), params.base_for(k))

    def test_deeper_layer_contains_shallower_chain(self):
        """Applying the matrix twice to layer 1 reproduces layer 3."""
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng, 5, 5)
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(5, 5, 3, cfg, seed=2)
        shallow = propagate(params, mats, SelectedLayers(1, 2), retain_chain=False)
        deep = propagate(params, mats, SelectedLayers(3, 2), retain_chain=False)
        for k in range(3):
            rebuilt = spmm(mats[k], spmm(mats[k], shallow.layer(k, 1)))
            np.testing.assert_array_equal(rebuilt, deep.layer(k, 3))

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

    def test_eager_output_drops_unselected_layers(self):
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


class TestDeferredLayer:
    """A retained chain leaves its deepest layer to be read on demand."""

    def make(self):
        ds = make_random_dataset(np.random.default_rng(30), 9, 11)
        cfg = PopularityConfig()
        return init_parameters(9, 11, 3, cfg, seed=30), propagation_matrices(ds, cfg)

    def outputs(self, layers=SelectedLayers(3, 4), granularities=None):
        params, mats = self.make()
        training = propagate(params, mats, layers, granularities=granularities)
        return training, propagate(params, mats, layers, retain_chain=False)

    @pytest.mark.parametrize("layers", [SelectedLayers(3, 4), SelectedLayers(3, 2)])
    def test_full_layer_equals_eager(self, layers):
        training, eager = self.outputs(layers=layers)
        for k in range(3):
            assert training.chains[k][layers.depth] is None
            deep = training.layer(k, layers.depth)
            np.testing.assert_array_equal(deep, eager.layer(k, layers.depth))
            assert training.layer(k, layers.depth) is deep  # computed once

    def test_eager_output_has_every_selected_layer(self):
        _, eager = self.outputs(layers=SelectedLayers(1, 4))
        assert eager.deferred == frozenset()
        for chain in eager.chains:
            assert all(chain[l] is not None for l in (0, 1, 4))

    def test_inactive_granularity_is_not_deferred(self):
        training, _ = self.outputs(granularities={1, 2})
        assert training.deferred == {1, 2}
        with pytest.raises(RuntimeError):
            training.layer(0, 4)


class TestKeptLayers:
    """An output keeps exactly the layers that are read later: a training
    output its selected layers and the one the deferred deepest layer is
    computed from, an eager output its selected layers as views of the
    stacked factor."""

    LAYERS = [SelectedLayers(3, 4), SelectedLayers(1, 2), SelectedLayers(3, 2),
              SelectedLayers(1, 4)]

    @pytest.fixture(scope="class")
    def made(self):
        ds = make_random_dataset(np.random.default_rng(50), 9, 11)
        cfg = PopularityConfig()
        return ds, init_parameters(9, 11, 3, cfg, seed=50), propagation_matrices(ds, cfg)

    @staticmethod
    def kept(chain):
        return {l for l, mat in enumerate(chain) if mat is not None}

    @pytest.mark.parametrize("granularities", [None, {1, 2}])
    @pytest.mark.parametrize("layers", LAYERS)
    def test_training_output(self, made, layers, granularities):
        _, params, mats = made
        out = propagate(params, mats, layers, granularities=granularities)
        active = {0, 1, 2} if granularities is None else granularities
        read = {0, layers.l_odd, layers.l_even, layers.depth - 1} - {layers.depth}
        assert out.deferred == active
        for k, chain in enumerate(out.chains):
            assert len(chain) == layers.depth + 1
            assert self.kept(chain) == (read if k in active else set())
        assert out.factor is None
        for score in (lambda: score_users(out, [0, 1]), lambda: score_all_items(out, 0)):
            with pytest.raises(RuntimeError, match=r"propagate\(retain_chain=False\)"):
                score()

    @pytest.mark.parametrize("granularities", [None, {1, 2}])
    @pytest.mark.parametrize("layers", LAYERS)
    def test_eager_output(self, made, layers, granularities):
        _, params, mats = made
        if granularities is not None:  # a proper subset: an eager output stacks them all
            with pytest.raises(ValueError, match="every granularity"):
                propagate(params, mats, layers, retain_chain=False, granularities=granularities)
            return
        out = propagate(params, mats, layers, retain_chain=False)
        assert out.deferred == frozenset()
        for k, chain in enumerate(out.chains):
            assert len(chain) == layers.depth + 1
            assert self.kept(chain) == {0, layers.l_odd, layers.l_even}
            assert chain[0] is params.base_for(k)
            for l in (layers.l_odd, layers.l_even):
                assert chain[l].base is out.factor

    @pytest.mark.parametrize("layers", LAYERS)
    def test_full_matrix_reg_computes_the_deferred_layer_once(self, made, layers, monkeypatch):
        ds, params, mats = made
        out = propagate(params, mats, layers)
        hops = {model: [], training_module: []}

        def counting(module):
            spmm = module.spmm

            def hop(matrix, dense, out=None):
                hops[module].append(matrix.shape[0])
                return spmm(matrix, dense, out)
            return hop

        for module in hops:
            monkeypatch.setattr(module, "spmm", counting(module))
        batch = TripleSampler(ds).sample(8, np.random.default_rng(51))
        for _ in range(2):
            separated_bpr_loss(out, batch, {0, 1, 2}, 0.1, full_matrix_reg=True)
            backward(out, batch, {0, 1, 2}, 0.1, full_matrix_reg=True)
        # one full forward hop per granularity, and no row-restricted hop:
        # the loss and backward take only the full pull-back hops
        assert hops[model] == [20] * 3
        assert len(hops[training_module]) == 2 * 3 * layers.depth
        assert set(hops[training_module]) == {20}
        for k in range(3):
            assert out.chains[k][layers.depth] is not None


class TestStackedFactor:
    """An eager output keeps its selected layers side by side in one
    factor, and scoring reads only that factor."""

    dim = 3

    @pytest.fixture(scope="class")
    def made(self):
        ds = make_random_dataset(np.random.default_rng(40), 9, 11)
        cfg = PopularityConfig()
        return init_parameters(9, 11, self.dim, cfg, seed=40), propagation_matrices(ds, cfg)

    @pytest.fixture(scope="class")
    def out(self, made):
        return propagate(*made, SelectedLayers(3, 4), retain_chain=False)

    def test_layers_are_views_of_their_blocks(self, made, out):
        params, _ = made
        assert out.factor.shape == (20, 2 * 3 * self.dim)
        for k in range(3):
            assert out.chains[k][0] is params.base_for(k)
            for j, l in enumerate((3, 4)):
                start = (2 * k + j) * self.dim
                block = out.factor[:, start:start + self.dim]
                assert np.shares_memory(out.chains[k][l], block)
                assert out.chains[k][l].tobytes() == block.tobytes()
            assert out.chains[k][1] is None and out.chains[k][2] is None

    def test_layers_equal_chained_spmm(self, made, out):
        params, mats = made
        for k in range(3):
            chain = [params.base_for(k)]
            for _ in range(4):
                chain.append(spmm(mats[k], chain[-1]))
            for l in (3, 4):
                assert out.layer(k, l).tobytes() == chain[l].tobytes()

    def test_granularity_subset(self, made, out):
        with pytest.raises(ValueError, match="every granularity"):
            propagate(*made, SelectedLayers(3, 4), retain_chain=False, granularities={2, 0})
        every = propagate(*made, SelectedLayers(3, 4), retain_chain=False, granularities={2, 1, 0})
        assert every.factor.tobytes() == out.factor.tobytes()
        # scoring leaves the other granularity out by its weight, 0.0
        got = score_users(out, [1, 4], weights=(1.0, 0.0, 1.0))
        assert got.tobytes() == stacked_scores(out, [1, 4], weights=(1.0, 0.0, 1.0)).tobytes()
        assert_near_term_by_term(got, out, [1, 4], weights=(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("weights", [None, (1.0, 0.5, 1 / 3)])
    def test_scalar_user_and_item_shapes(self, out, weights):
        for users, items, shape in [(3, 2, ()), (3, None, (11,)), ([3], 2, (1,)),
                                    (3, [2, 5], (2,)), ([3, 4], [2], (2, 1)),
                                    ([3, 4], None, (2, 11))]:
            got = score_users(out, users, items, weights=weights)
            assert np.shape(got) == shape
            if shape == ():
                assert type(got) is np.float64
            want = stacked_scores(out, users, items, weights=weights)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_one_product_for_every_weight_vector(self, out, monkeypatch):
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        for weights in (None, (1.0, 2.0, 2.0), (0.5, 1 / 3, 0.7)):
            calls.clear()
            result = np.empty((3, 11))
            assert score_users(out, [0, 5, 8], weights=weights, result=result) is result
            score_users(out, [0, 5, 8], weights=(1.0, 0.0, 1.0))
            score_users(out, 5, weights=weights)
            assert calls == [(3, 18), (3, 18), (18,)]


class TestScoring:
    def test_all_zero_embeddings(self):
        chains = [[np.zeros((4, 2))] * 3 for _ in range(2)]
        out = manual_output(chains, num_users=2)
        assert score_users(out, 0, 1) == 0.0

    def test_hand_computed_linearity(self):
        # one user, one item, embed_dim 1; user value k+1 per granularity,
        # item value 1, identical at both layers
        chains = []
        for k in range(3):
            mat = np.array([[float(k + 1)], [1.0]])
            chains.append([mat, mat, mat])
        out = manual_output(chains, num_users=1)
        assert score_users(out, 0, 0) == pytest.approx(2 * (1 + 2 + 3))

    def test_matches_scalar_brute_force(self):
        rng = np.random.default_rng(5)
        ds = make_random_dataset(rng, 6, 5)
        cfg = PopularityConfig(granularity_weights=(1.0, 2.0, 0.5))
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(6, 5, 3, cfg, seed=5)
        layers = SelectedLayers(3, 2)
        out = propagate(params, mats, layers, retain_chain=False)
        for u, i in [(0, 0), (3, 4), (5, 2)]:
            expected = 0.0
            for k, w in enumerate(cfg.granularity_weights):
                for l in (layers.l_odd, layers.l_even):
                    emb = out.layer(k, l)
                    expected += w * sum(
                        emb[u][d] * emb[6 + i][d] for d in range(3)
                    )
            assert score_users(out, u, i) == pytest.approx(expected, rel=1e-12)

    def test_score_all_items_agrees_with_pairs(self):
        rng = np.random.default_rng(6)
        ds = make_random_dataset(rng, 4, 3)
        cfg = PopularityConfig()
        out = propagate(
            init_parameters(4, 3, 4, cfg, seed=6),
            propagation_matrices(ds, cfg),
            SelectedLayers(1, 2),
            retain_chain=False,
        )
        scores = score_all_items(out, 2)
        assert scores.shape == (3,)
        for i in range(3):
            assert scores[i] == pytest.approx(score_users(out, 2, i), rel=1e-10)

    def test_single_granularity_weight_is_rank_invariant(self):
        rng = np.random.default_rng(7)
        chains = [[rng.normal(size=(9, 3)) for _ in range(3)] for _ in range(2)]
        out = manual_output(chains, num_users=4)
        base = score_users(out, 1, weights=(0.0, 1.0))
        scaled = score_users(out, 1, weights=(0.0, 10.0))
        np.testing.assert_array_equal(np.argsort(base), np.argsort(scaled))
        np.testing.assert_allclose(scaled, 10.0 * base, rtol=1e-12)

    def test_bilinear_in_propagated_rows(self):
        rng = np.random.default_rng(8)
        chains = [[rng.normal(size=(5, 2)) for _ in range(3)]]
        out = manual_output(chains, num_users=2, weights=(1.0,))
        before = score_users(out, 0, 1)
        t = 3.5
        odd_term = float(chains[0][1][0] @ chains[0][1][3])
        chains_scaled = [[m.copy() for m in chains[0]]]
        chains_scaled[0][1][0] *= t
        scaled_out = manual_output(chains_scaled, num_users=2, weights=(1.0,))
        after = score_users(scaled_out, 0, 1)
        assert after - before == pytest.approx((t - 1) * odd_term, rel=1e-10)

    def test_granularity_subset_telescopes(self):
        """Stacking one granularity at a time, each by a one-hot weight
        vector, reproduces the full score."""
        rng = np.random.default_rng(9)
        ds = make_random_dataset(rng, 5, 6)
        cfg = PopularityConfig()
        out = propagate(
            init_parameters(5, 6, 3, cfg, seed=9),
            propagation_matrices(ds, cfg),
            SelectedLayers(1, 2),
            retain_chain=False,
        )
        max_k = cfg.max_granularity
        one_hot = np.eye(max_k + 1)
        cumulative = 0.0
        for phase in range(1, max_k + 2):
            new_k = max_k - phase + 1
            cumulative += score_users(out, 1, 2, weights=one_hot[new_k])
            restricted = score_users(out, 1, 2, weights=one_hot[new_k:].sum(axis=0))
            assert cumulative == pytest.approx(restricted, rel=1e-12, abs=1e-12)
        full = score_users(out, 1, 2)
        assert cumulative == pytest.approx(full, rel=1e-12, abs=1e-12)

    def test_index_bounds(self):
        """A user or item outside the output (its row would be one of the
        other kind), or a weight vector that is not one weight per
        granularity (K=2: three), is refused."""
        chains = [[np.zeros((4, 2))] * 3]
        out = manual_output(chains, num_users=2, weights=(1.0,))
        for u in (-1, 2):
            with pytest.raises(IndexError, match=r"user index outside \[0, 2\)"):
                score_all_items(out, u)
            with pytest.raises(IndexError, match="user index"):
                score_users(out, [0, u], 1)
        for i in (-1, 2):
            with pytest.raises(IndexError, match=r"item index outside \[0, 2\)"):
                score_users(out, 0, [1, i])
        assert score_users(out, [], [0, 1]).shape == (0, 2)
        out = manual_output(chains * 3, num_users=2)
        for weights in ((1, 1, 1, 5, 7), (1,), ()):
            named = f"expected 3 granularity weights, got {len(weights)}"
            with pytest.raises(ValueError, match=named):
                score_users(out, [0, 1], weights=weights)
        assert score_users(out, 0, 1, weights=(0, 0, 0)) == 0.0


class TestScoreUsersBitwise:
    """The scores equal the stacked-factor reference bit for bit, and the
    term-by-term sum within 1e-12."""

    WEIGHTS = [None, (1.0, 1.0, 1.0), (0.5, 1 / 3, 0.7), (1.0, 0.1, 3.0), (0.5, 2.0, 0.5),
               (1.0, 1.0, 0.5), (1.0, 0.5, 1 / 3)]

    @pytest.fixture(scope="class")
    def out(self):
        rng = np.random.default_rng(11)
        ds = make_random_dataset(rng, 23, 31, max_degree=6)
        cfg = PopularityConfig()
        params = init_parameters(23, 31, 7, cfg, seed=11)
        return propagate(params, propagation_matrices(ds, cfg), SelectedLayers(3, 4),
                         retain_chain=False)

    @staticmethod
    def assert_bitwise(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    def assert_scores(self, got, out, *args, **kwargs):
        self.assert_bitwise(got, stacked_scores(out, *args, **kwargs))
        assert_near_term_by_term(got, out, *args, **kwargs)

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_user_chunk(self, out, weights):
        users = [0, 3, 4, 9, 22, 17]
        self.assert_scores(score_users(out, users, weights=weights), out, users, weights=weights)

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_scalar_user_and_item(self, out, weights):
        for u in (0, 7, 22):
            for i in (0, 13, 30):
                got = score_users(out, u, i, weights=weights)
                assert type(got) is np.float64
                self.assert_scores(got, out, u, i, weights=weights)

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_scalar_user(self, out, weights):
        for u in (1, 12):
            got = score_users(out, u, weights=weights)
            assert got.shape == (31,)
            self.assert_scores(got, out, u, weights=weights)
            if weights is None:
                self.assert_bitwise(score_all_items(out, u), got)

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_item_subset(self, out, weights):
        users, items = [2, 5, 19], [30, 0, 4, 4, 11]
        self.assert_scores(score_users(out, users, items, weights=weights), out, users, items,
                           weights=weights)

    @pytest.mark.parametrize("kept", [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]])
    def test_zero_weights_leave_granularities_out(self, out, kept):
        for weights in self.WEIGHTS:
            zeroed = [w if k in kept else 0.0
                      for k, w in enumerate(weights or out.default_weights)]
            self.assert_scores(score_users(out, [6, 8], weights=zeroed), out, [6, 8],
                               weights=zeroed)
            self.assert_scores(score_users(out, 6, 3, weights=zeroed), out, 6, 3,
                               weights=zeroed)

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_into_given_buffers(self, out, weights):
        """The scores are written into the one ``result`` array given."""
        users = [1, 4, 4, 20]
        result = np.full((4, 31), np.nan)
        got = score_users(out, users, weights=weights, result=result)
        assert got is result
        self.assert_scores(got, out, users, weights=weights)
        zeroed = (0.0, (weights or out.default_weights)[1], 0.0)
        got = score_users(out, users, weights=zeroed, result=result)
        assert got is result
        self.assert_scores(got, out, users, weights=zeroed)

    def test_scoring_never_writes_into_the_factor(self, out):
        """Under non-unit weights the users' rows are scaled in a copy: for
        one user, ``factor[u]`` is a view of the factor."""
        weights = (0.5, 2.0, 1 / 3)
        before = out.factor.copy()
        calls = [lambda: score_users(out, 3, 7, weights=weights),
                 lambda: score_users(out, 3, weights=weights),
                 lambda: score_users(out, [3, 9, 3], weights=weights),
                 lambda: score_users(out, [3, 9], [30, 0, 4], weights=weights)]
        for call in calls:
            first = np.asarray(call()).tobytes()
            assert out.factor.tobytes() == before.tobytes()
            assert np.asarray(call()).tobytes() == first

    def test_result_is_a_fresh_array(self, out):
        """The caller owns the scores: writing them leaves the layers alone."""
        before = [out.layer(k, l).copy() for k in range(3) for l in (3, 4)]
        scores = score_users(out, [0, 1])
        scores[:] = -np.inf
        after = [out.layer(k, l) for k in range(3) for l in (3, 4)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert np.all(np.isfinite(score_users(out, [0, 1])))


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

    @pytest.mark.parametrize("index, value, field", [
        (1, "-1", "m"), (2, "-2", "n"), (1, "x", "m"), (3, "-1", "embed_dim"),
        (3, "0", "embed_dim"), (6, "0", "l_odd"), (6, "-1", "l_odd"), (6, "2", "l_odd"),
        (7, "0", "l_even"), (7, "-1", "l_even"), (7, "3", "l_even"), (8, "-7", "phase"),
        (9, "-1", "epoch"), (9, "1.5", "epoch"),
    ])
    def test_bad_header_field_names_the_file_and_the_field(self, tmp_path, index, value,
                                                            field):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_parameters(2, 3, 2, PopularityConfig(), seed=0),
                        SelectedLayers(1, 2), 1, 1)
        header, tables = path.read_bytes().split(b"\n", 1)
        fields = header.split()
        fields[index] = value.encode()
        path.write_bytes(b" ".join(fields) + b"\n" + tables)
        with pytest.raises(CheckpointFormatError,
                           match=f"^{re.escape(str(path))}: bad header field \\({field} "):
            load_checkpoint(path)

    def test_phase_and_epoch_zero_load(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_parameters(2, 3, 2, PopularityConfig(), seed=0),
                        SelectedLayers(1, 2), 0, 0)
        ckpt = load_checkpoint(path)
        assert (ckpt.phase, ckpt.epoch) == (0, 0)

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
