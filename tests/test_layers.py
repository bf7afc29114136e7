import numpy as np
import pytest

from jmpgcf import (
    InteractionDataset,
    LayerSelectionConfig,
    LayerSelectionError,
    PopularityConfig,
    SelectedLayers,
    build_adjacency,
    graph,
    hop_coverages,
    propagation_matrices,
    select_layers,
)
from jmpgcf.layers import _sample_users

from conftest import count_k_hop_neighbors


def complete_bipartite(num_users, num_items):
    return InteractionDataset.from_lists(
        num_users, num_items, [list(range(num_items)) for _ in range(num_users)]
    )


def shortest_path_matrix(ds):
    """Floyd-Warshall distances over the joined node space (inf = unreachable)."""
    dense = build_adjacency(ds).toarray()
    nv = len(dense)
    dist = np.full((nv, nv), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[dense > 0] = 1.0
    for mid in range(nv):
        dist = np.minimum(dist, dist[:, mid:mid + 1] + dist[mid:mid + 1, :])
    return dist


class TestCountKHopNeighbors:
    def test_star_direct_neighbors(self):
        ds = InteractionDataset.from_lists(1, 3, [[0, 1, 2]])
        assert count_k_hop_neighbors(ds, 0, 1) == 3

    def test_path_three_hops(self):
        # u0 - i0 - u1 - i1 chain
        ds = InteractionDataset.from_lists(2, 2, [[0], [0, 1]])
        assert count_k_hop_neighbors(ds, 0, 1) == 1
        assert count_k_hop_neighbors(ds, 0, 2) == 1
        assert count_k_hop_neighbors(ds, 0, 3) == 1

    def test_beyond_diameter_is_zero(self):
        ds = InteractionDataset.from_lists(2, 2, [[0], [0, 1]])
        assert count_k_hop_neighbors(ds, 0, 4) == 0
        assert count_k_hop_neighbors(ds, 0, 9) == 0

    def test_isolated_user(self):
        ds = InteractionDataset.from_lists(2, 2, [[0, 1], []])
        for hop in (1, 2, 5):
            assert count_k_hop_neighbors(ds, 1, hop) == 0

    def test_hop_must_be_positive(self):
        ds = InteractionDataset.from_lists(1, 1, [[0]])
        with pytest.raises(ValueError):
            count_k_hop_neighbors(ds, 0, 0)

    def test_matches_shortest_path_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(8):
            m = int(rng.integers(3, 15))
            n = int(rng.integers(3, 15))
            train = []
            for _ in range(m):
                deg = int(rng.integers(0, min(n, 5) + 1))
                train.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
            ds = InteractionDataset.from_lists(m, n, train)
            dist = shortest_path_matrix(ds)
            for u in range(m):
                for hop in range(1, 8):
                    exact = int(np.sum(dist[u] == hop))
                    assert count_k_hop_neighbors(ds, u, hop) == exact
                # the exact-hop shells, one past the farthest, partition u's component
                component = np.isfinite(dist[u])
                farthest = int(dist[u][component].max())
                shells = sum(count_k_hop_neighbors(ds, u, hop) for hop in range(1, farthest + 2))
                assert 1 + shells == int(component.sum())


class TestOneJoinedAdjacency:
    """The joined adjacency is built once per dataset and shared."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counting(ds):
            calls.append(ds)
            return train_matrix(ds)

        train_matrix = graph.train_matrix
        monkeypatch.setattr(graph, "train_matrix", counting)
        return calls

    def test_repeated_counts_build_once(self, builds):
        rng = np.random.default_rng(11)
        train = [sorted(rng.choice(9, size=int(rng.integers(0, 4)), replace=False).tolist())
                 for _ in range(8)]
        ds = InteractionDataset.from_lists(8, 9, train)
        fresh = InteractionDataset.from_lists(8, 9, train)
        dist = shortest_path_matrix(fresh)
        builds.clear()
        for u in range(ds.num_users):
            for hop in range(1, 6):
                assert count_k_hop_neighbors(ds, u, hop) == int(np.sum(dist[u] == hop))
        assert builds == [ds]

    def test_shared_by_layers_and_propagation(self, builds):
        ds = InteractionDataset.from_lists(3, 4, [[0, 1], [1, 2], [3]])
        adjacency = build_adjacency(ds)
        hop_coverages(ds, LayerSelectionConfig(max_hops=4))
        count_k_hop_neighbors(ds, 0, 3)
        propagation_matrices(ds, PopularityConfig())
        assert build_adjacency(ds) is adjacency
        assert builds == [ds]
        other = InteractionDataset.from_lists(3, 4, [[0, 1], [1, 2], [3]])
        assert build_adjacency(other) is not adjacency
        assert builds == [ds, other]


class TestHopCoverages:
    @staticmethod
    def oracle_coverages(ds, cfg):
        dist = shortest_path_matrix(ds)
        sampled = _sample_users(ds, cfg)
        totals = np.array(
            [int(np.sum(dist[sampled] == hop)) for hop in range(1, cfg.max_hops + 1)],
            dtype=np.int64,
        )
        odd, even = {}, {}
        for hop in range(1, cfg.max_hops + 1):
            space = ds.num_items if hop % 2 == 1 else ds.num_users
            (odd if hop % 2 == 1 else even)[hop] = float(totals[hop - 1] / space / len(sampled))
        return odd, even

    @pytest.mark.parametrize("sample_size", [150, 70])
    def test_matches_shortest_path_oracle_across_blocks(self, sample_size):
        # 150 users span three 64-source blocks; users 0, 75 and 149 have
        # no items, and items 0 and 59 (the last node) have no users
        rng = np.random.default_rng(13)
        m, n = 150, 60
        train = [
            sorted(rng.choice(np.arange(1, n - 1), size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(m)
        ]
        for u in (0, 75, 149):
            train[u] = []
        ds = InteractionDataset.from_lists(m, n, train)
        row_degrees = np.diff(build_adjacency(ds).row_offsets)
        assert row_degrees[[0, 75, 149, m, m + n - 1]].tolist() == [0] * 5
        cfg = LayerSelectionConfig(sample_size=sample_size, max_hops=12, seed=3)
        assert hop_coverages(ds, cfg) == self.oracle_coverages(ds, cfg)

    def test_no_interactions_gives_zero_coverage(self):
        ds = InteractionDataset.from_lists(3, 2, [[], [], []])
        odd, even = hop_coverages(ds, LayerSelectionConfig(max_hops=4))
        assert set(odd.values()) == set(even.values()) == {0.0}


class TestSelectLayers:
    def test_complete_bipartite(self):
        ds = complete_bipartite(4, 3)
        got = select_layers(ds, LayerSelectionConfig(alpha=0.5, seed=0))
        assert (got.l_odd, got.l_even) == (1, 2)

    def test_selection_failure_reports_coverage(self):
        # two disconnected user-item pairs: coverage is capped at 1/2
        ds = InteractionDataset.from_lists(2, 2, [[0], [1]])
        with pytest.raises(LayerSelectionError) as err:
            select_layers(ds, LayerSelectionConfig(alpha=0.9, max_hops=6, seed=0))
        assert max(err.value.odd_coverage.values()) == pytest.approx(0.5)
        assert max(err.value.even_coverage.values()) == 0.0

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(11)
        train = [sorted(rng.choice(40, size=4, replace=False).tolist()) for _ in range(60)]
        ds = InteractionDataset.from_lists(60, 40, train)
        cfg = LayerSelectionConfig(alpha=0.3, sample_size=10, seed=5)
        assert select_layers(ds, cfg) == select_layers(ds, cfg)
        assert hop_coverages(ds, cfg) == hop_coverages(ds, cfg)

    def test_small_population_uses_every_user(self):
        ds = complete_bipartite(5, 4)
        a = hop_coverages(ds, LayerSelectionConfig(alpha=0.5, sample_size=100, seed=1))
        b = hop_coverages(ds, LayerSelectionConfig(alpha=0.5, sample_size=100, seed=99))
        assert a == b

    def test_output_parity(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            m = int(rng.integers(4, 20))
            n = int(rng.integers(4, 20))
            train = [
                sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())
                for _ in range(m)
            ]
            ds = InteractionDataset.from_lists(m, n, train)
            try:
                got = select_layers(ds, LayerSelectionConfig(alpha=0.3, seed=trial))
            except LayerSelectionError:
                continue
            assert got.l_odd % 2 == 1
            assert got.l_even % 2 == 0

    def test_precomputed_coverages_shortcut(self):
        ds = complete_bipartite(3, 3)
        cfg = LayerSelectionConfig(alpha=0.5, seed=0)
        coverages = hop_coverages(ds, cfg)
        assert select_layers(ds, cfg, coverages=coverages) == select_layers(ds, cfg)

    def test_empty_dataset_rejected(self):
        ds = InteractionDataset.from_lists(0, 0, [])
        with pytest.raises(ValueError):
            select_layers(ds, LayerSelectionConfig())


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [dict(alpha=0.0), dict(alpha=1.2), dict(sample_size=0), dict(max_hops=1)])
    def test_bad_selection_config(self, kwargs):
        with pytest.raises(ValueError):
            LayerSelectionConfig(**kwargs)

    @pytest.mark.parametrize("l_odd,l_even", [(2, 2), (1, 3), (0, 2), (1, 0), (-1, 2)])
    def test_bad_selected_layers(self, l_odd, l_even):
        with pytest.raises(ValueError):
            SelectedLayers(l_odd=l_odd, l_even=l_even)

    def test_depth(self):
        assert SelectedLayers(3, 4).depth == 4
        assert SelectedLayers(3, 2).depth == 3
