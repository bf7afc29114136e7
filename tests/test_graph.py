import numpy as np
import pytest
import scipy.sparse as sp

from jmpgcf import (
    GraphConfigError,
    InteractionDataset,
    PopularityConfig,
    SparseMatrix,
    build_adjacency,
    build_normalized_adjacency,
    spmm,
    transpose,
)
from jmpgcf.graph import degrees

from conftest import dense_normalized, make_random_dataset


class TestBuildAdjacency:
    def test_single_edge(self):
        ds = InteractionDataset.from_lists(1, 1, [[0]])
        adj = build_adjacency(ds).toarray()
        np.testing.assert_array_equal(adj, [[0, 1], [1, 0]])

    def test_no_edges(self):
        ds = InteractionDataset.from_lists(2, 2, [[], []])
        adj = build_adjacency(ds)
        assert adj.nnz == 0
        np.testing.assert_array_equal(adj.toarray(), np.zeros((4, 4)))

    def test_hand_enumerated(self):
        ds = InteractionDataset.from_lists(2, 2, [[0], [0, 1]])
        adj = build_adjacency(ds)
        assert adj.nnz == 6
        dense = adj.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert dense[0, 2] == 1 and dense[1, 2] == 1 and dense[1, 3] == 1
        assert np.all(np.diag(dense) == 0)

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        ds = make_random_dataset(rng, 12, 9)
        dense = build_adjacency(ds).toarray()
        np.testing.assert_array_equal(dense, dense.T)


class TestPopularityConfig:
    def test_defaults(self):
        cfg = PopularityConfig()
        assert cfg.num_granularities == 3
        assert cfg.granularity_weights == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(granularity_unit=0.0),
            dict(granularity_unit=-0.1),
            dict(max_granularity=-1),
            dict(granularity_unit=0.3, max_granularity=4),  # exponent reaches +0.7
            dict(granularity_weights=(1.0, 1.0)),
            dict(granularity_weights=(1.0, 0.0, 1.0)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(GraphConfigError):
            PopularityConfig(**kwargs)


class TestNormalizedAdjacency:
    def test_single_edge_base_granularity(self):
        ds = InteractionDataset.from_lists(1, 1, [[0]])
        norm = build_normalized_adjacency(build_adjacency(ds), 0, PopularityConfig())
        dense = norm.toarray()
        np.testing.assert_allclose(dense, [[0.5, 0.5], [0.5, 0.5]], rtol=1e-15)

    def test_single_edge_granularity_one(self):
        ds = InteractionDataset.from_lists(1, 1, [[0]])
        norm = build_normalized_adjacency(build_adjacency(ds), 1, PopularityConfig())
        # degree 1 both sides: 2^{-1/2} * 2^{-0.4} = 2^{-0.9}
        np.testing.assert_allclose(norm.toarray(), np.full((2, 2), 2.0 ** -0.9), rtol=1e-14)

    def test_isolated_node_keeps_unit_self_loop(self):
        ds = InteractionDataset.from_lists(2, 1, [[0], []])
        adj = build_adjacency(ds)
        for k in range(3):
            dense = build_normalized_adjacency(adj, k, PopularityConfig()).toarray()
            assert dense[1, 1] == 1.0
            assert np.all(dense[1, [0, 2]] == 0)

    def test_granularity_out_of_range(self):
        ds = InteractionDataset.from_lists(1, 1, [[0]])
        adj = build_adjacency(ds)
        with pytest.raises(GraphConfigError):
            build_normalized_adjacency(adj, 3, PopularityConfig())
        with pytest.raises(GraphConfigError):
            build_normalized_adjacency(adj, -1, PopularityConfig())

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(1)
        cfg = PopularityConfig()
        for trial in range(5):
            ds = make_random_dataset(rng, int(rng.integers(2, 10)), int(rng.integers(2, 10)))
            adj = build_adjacency(ds)
            for k in range(3):
                got = build_normalized_adjacency(adj, k, cfg).toarray()
                want = dense_normalized(ds, k, cfg.granularity_unit)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_all_stored_values_positive_and_diagonal_present(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng, 8, 6)
        adj = build_adjacency(ds)
        for k in range(3):
            norm = build_normalized_adjacency(adj, k, PopularityConfig())
            assert np.all(norm.values > 0)
            assert np.all(norm.toarray().diagonal() > 0)

    def test_column_scaling_law(self):
        """Granularity k equals the base matrix with columns scaled by
        (d_j + 1)^(k * unit)."""
        rng = np.random.default_rng(3)
        cfg = PopularityConfig()
        for trial in range(5):
            ds = make_random_dataset(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)))
            adj = build_adjacency(ds)
            deg = degrees(adj)
            base = build_normalized_adjacency(adj, 0, cfg).toarray()
            for k in (1, 2):
                got = build_normalized_adjacency(adj, k, cfg).toarray()
                scaled = base * (deg + 1.0) ** (k * cfg.granularity_unit)
                np.testing.assert_allclose(got, scaled, rtol=1e-13, atol=1e-15)

    def test_entrywise_monotone_in_granularity(self):
        rng = np.random.default_rng(4)
        cfg = PopularityConfig()
        ds = make_random_dataset(rng, 10, 8)
        adj = build_adjacency(ds)
        deg = degrees(adj)
        mats = [build_normalized_adjacency(adj, k, cfg).toarray() for k in range(3)]
        for low, high in ((0, 1), (1, 2), (0, 2)):
            assert np.all(mats[high] >= mats[low])
            strict = (mats[low] > 0) & (deg[None, :] > 0)
            assert np.all(mats[high][strict] > mats[low][strict])


class TestSpmm:
    def test_identity(self):
        rng = np.random.default_rng(5)
        eye = SparseMatrix.from_scipy(sp.identity(6, format="csr"))
        x = rng.normal(size=(6, 3))
        np.testing.assert_array_equal(spmm(eye, x), x)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            dense = rng.normal(size=(20, 20)) * (rng.random((20, 20)) < 0.2)
            mat = SparseMatrix.from_scipy(sp.csr_matrix(dense))
            x = rng.normal(size=(20, 7))
            np.testing.assert_allclose(spmm(mat, x), dense @ x, rtol=1e-12, atol=1e-14)

    def test_zero_matrix(self):
        mat = SparseMatrix.from_scipy(sp.csr_matrix((4, 4)))
        x = np.ones((4, 2))
        np.testing.assert_array_equal(spmm(mat, x), np.zeros((4, 2)))

    def test_dimension_mismatch(self):
        mat = SparseMatrix.from_scipy(sp.identity(4, format="csr"))
        with pytest.raises(ValueError, match="mismatch"):
            spmm(mat, np.ones((5, 2)))


class TestTranspose:
    def test_symmetric_base_matrix_is_fixed_point(self):
        rng = np.random.default_rng(7)
        ds = make_random_dataset(rng, 7, 5)
        norm = build_normalized_adjacency(build_adjacency(ds), 0, PopularityConfig())
        np.testing.assert_array_equal(transpose(norm).toarray(), norm.toarray())

    def test_star_graph_granularity_one(self):
        ds = InteractionDataset.from_lists(1, 4, [[0, 1, 2, 3]])
        norm = build_normalized_adjacency(build_adjacency(ds), 1, PopularityConfig())
        np.testing.assert_array_equal(transpose(norm).toarray(), norm.toarray().T)

    def test_double_transpose_identity(self):
        rng = np.random.default_rng(8)
        ds = make_random_dataset(rng, 9, 9)
        norm = build_normalized_adjacency(build_adjacency(ds), 2, PopularityConfig())
        back = transpose(transpose(norm))
        np.testing.assert_array_equal(back.toarray(), norm.toarray())
        np.testing.assert_array_equal(back.row_offsets, norm.row_offsets)
        np.testing.assert_array_equal(back.col_indices, norm.col_indices)
