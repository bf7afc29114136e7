import inspect
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmpgcf import (
    InteractionDataset,
    PopularityConfig,
    SelectedLayers,
    evaluate,
    evaluate_cutoffs,
    init_parameters,
    ndcg_at_k,
    propagate,
    propagation_matrices,
    rank_user,
    recall_at_k,
)
from jmpgcf import evaluation, graph
from jmpgcf.evaluation import MetricsReport, format_report, report_as_dict
from jmpgcf.model import score_users

from conftest import (
    assert_near_term_by_term,
    make_random_dataset,
    manual_output,
    out_of_place_scores,
    stacked_scores,
)


@pytest.fixture
def cores(monkeypatch):
    """Sets the process's CPU affinity to the given number of cores, as
    evaluate_cutoffs sees it (it runs no more threads than that)."""

    def set_cores(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)

    return set_cores


@pytest.fixture
def pool_sizes(monkeypatch):
    """The number of threads of every ``side_by_side`` call evaluate_cutoffs
    makes, in order: the runner makes one workspace per thread."""
    sizes = []
    runner = evaluation.side_by_side

    def spying_runner(tasks, workspace, threads=None):
        made = []

        def counted():
            made.append(workspace())
            return made[-1]

        try:
            return runner(tasks, counted, threads)
        finally:
            sizes.append(len(made))

    monkeypatch.setattr(evaluation, "side_by_side", spying_runner)
    return sizes


def sort_oracle(scores, exclude, k):
    """Reference ranking: sort by (-score, index), NaN last, drop excluded."""
    order = sorted(
        (i for i in range(len(scores)) if i not in exclude),
        key=lambda i: (math.isnan(scores[i]), 0.0 if math.isnan(scores[i]) else -scores[i], i),
    )
    return order[:k]


def negated_copy_ranking(scores, exclude, k):
    """The reference top-k: argpartition of a negated copy, then a stable
    sort of everything at or above the k-th value."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    exclude = np.unique(np.asarray(list(exclude), dtype=np.int64))
    k = min(k, n - exclude.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    masked = scores.copy()
    masked[exclude] = -np.inf
    if k < n:
        threshold = masked[np.argpartition(-masked, k - 1)[:k]].min()
        if math.isfinite(threshold):
            candidates = np.flatnonzero(masked >= threshold)
            return candidates[np.argsort(-masked[candidates], kind="stable")][:k]
    return np.argsort(-masked, kind="stable")[:k]


class TestRankUser:
    def test_identity_scores(self):
        got = rank_user(np.array([0.0, 1.0, 2.0, 3.0]), set(), 2)
        np.testing.assert_array_equal(got, [3, 2])

    def test_excluded_top_scorer_never_appears(self):
        scores = np.array([9.0, 1.0, 5.0])
        got = rank_user(scores, {0}, 2)
        np.testing.assert_array_equal(got, [2, 1])

    def test_short_candidate_list_returned_whole(self):
        scores = np.array([3.0, 2.0, 1.0, 0.0])
        got = rank_user(scores, {0, 1, 2}, 10)
        np.testing.assert_array_equal(got, [3])

    def test_ties_break_by_ascending_index(self):
        scores = np.array([1.0, 2.0, 2.0, 1.0, 2.0])
        got = rank_user(scores, set(), 4)
        np.testing.assert_array_equal(got, [1, 2, 4, 0])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=n), 1)
            exclude = set(
                rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()
            )
            k = int(rng.integers(1, 8))
            got = rank_user(scores, exclude, k)
            np.testing.assert_array_equal(got, sort_oracle(scores, exclude, k))

    def test_repeated_exclusions_count_once(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        once = rank_user(scores, [1], 4)
        np.testing.assert_array_equal(once, [0, 2, 3, 4])
        np.testing.assert_array_equal(rank_user(scores, [1, 1], 4), once)
        np.testing.assert_array_equal(rank_user(scores, np.array([3, 1, 3, 1, 3]), 9), [0, 2, 4])

    @pytest.mark.parametrize("exclude", [[-1], [-5], [5], [0, 7], np.array([2, -3])])
    def test_exclude_outside_the_scores_is_an_error(self, exclude):
        """A negative index would wrap round to the end of the scores."""
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        with pytest.raises(IndexError, match=r"exclude index outside \[0, 5\)"):
            rank_user(scores, exclude, 5)
        np.testing.assert_array_equal(scores, [5.0, 4.0, 3.0, 2.0, 1.0])

    def test_gowalla_width_row(self):
        """A row as wide as the Gowalla catalogue: 64 items per group."""
        rng = np.random.default_rng(22)
        n = 40_981
        scores = np.round(rng.normal(size=n), 2)  # ties at every score
        exclude = set(rng.choice(n, size=120, replace=False).tolist())
        exclude.update(np.argsort(-scores, kind="stable")[:10].tolist())  # the ten best
        for k in (1, 20, 40):
            np.testing.assert_array_equal(rank_user(scores, exclude, k),
                                          sort_oracle(scores, exclude, k))

    def test_scores_left_unchanged(self):
        scores = np.array([1.0, 3.0, 2.0])
        rank_user(scores, [1], 2)
        np.testing.assert_array_equal(scores, [1.0, 3.0, 2.0])

    def test_matches_copy_and_negate_ranking(self):
        """Same lists as the negated-copy ranking, boundary ties included."""
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = int(rng.integers(1, 60))
            scores = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            exclude = rng.integers(0, n, size=int(rng.integers(0, n + 3)))
            k = int(rng.integers(1, n + 3))
            np.testing.assert_array_equal(rank_user(scores, exclude, k),
                                          negated_copy_ranking(scores, exclude, k))


def masked_block(scores, excluded):
    masked = np.array(scores, dtype=np.float64)
    for row, items in enumerate(excluded):
        masked[row, items] = -np.inf
    return masked


class TestRankRows:
    """The block ranker behind rank_user and evaluate_cutoffs, row for row
    against the sort oracle."""

    def check(self, scores, excluded, k, keep=None):
        n = scores.shape[1]
        most = np.array([min(k, n - len(items)) for items in excluded])
        keep = most if keep is None else np.minimum(keep, most)
        width = min(k, n)
        ranked = evaluation._rank_rows(masked_block(scores, excluded), keep, excluded, width)
        assert ranked.shape == (scores.shape[0], width)
        for row, items in enumerate(excluded):
            expected = sort_oracle(scores[row], set(items), keep[row])
            np.testing.assert_array_equal(ranked[row, :keep[row]], expected)
            assert np.all(ranked[row, keep[row]:] == n)  # padding: one past the last item

    def test_tie_heavy_integer_scores(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 50))
            scores = rng.integers(-2, 3, size=(rows, n)).astype(float)
            excluded = [np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
                        for _ in range(rows)]
            self.check(scores, excluded, int(rng.integers(1, n + 5)))

    def test_edge_rows(self):
        n = 12
        scores = np.tile(np.arange(n) % 3, (5, 1)).astype(float)
        scores[3, [1, 4]] = scores[4, [3, 4]] = -np.inf  # candidates scoring -inf
        excluded = [
            np.arange(n),  # every item excluded
            np.array([], dtype=np.int64),  # nothing excluded, k at or above n
            np.arange(n - 2),  # 2 candidates, fewer than k: the k-th value is -inf
            np.array([0, 2]),  # 2 of the 10 candidates score -inf, as the excluded items do
            np.array([0, 5, 6, 7, 8, 9, 10, 11]),  # the 4th of 4 candidates scores -inf
        ]
        self.check(scores, excluded, n)
        self.check(scores, excluded, 4)
        for row in range(5):  # one-row blocks
            self.check(scores[row:row + 1], excluded[row:row + 1], 4)

    def test_multi_group_rows(self):
        """Rows of 64 * width items and more, in up to 64 groups, most with a
        tail of n - g * 64 items, against the sort oracle."""
        rng = np.random.default_rng(32)
        for trial in range(60):
            k = int(rng.integers(1, 41))
            n = 64 * k + int(rng.integers(0, 3000))
            rows = int(rng.integers(1, 5))
            scores = np.round(rng.normal(size=(rows, n)), int(rng.integers(0, 3)))
            excluded = [np.sort(rng.choice(n, size=int(rng.integers(0, n // 8)), replace=False))
                        for _ in range(rows)]
            keep = rng.integers(0, k + 1, size=rows) if trial % 3 == 0 else None
            self.check(scores, excluded, k, keep)

    def test_ties_straddle_the_threshold(self):
        """Every group's maximum ties with the threshold: the candidates are
        hundreds of tied items, of which the list takes the lowest indices."""
        n, k = 64 * 20 + 37, 20
        scores = np.zeros((3, n))
        scores[0, ::7] = 1.0  # ~200 tied items, more than k, one in most groups
        scores[1, :k - 3] = 2.0  # k - 3 above the tie, the tie straddles the k-th place
        scores[1, 5::3] = 1.0
        scores[2, -30:] = 1.0  # the best items are all in the tail, in no group
        excluded = [np.array([0, 7]), np.array([2]), np.arange(n - 30, n - 20)]
        self.check(scores, excluded, k)
        self.check(scores, excluded, k, keep=np.array([3, 19, 1]))

    def test_whole_groups_at_minus_inf(self):
        """Groups whose every item is excluded or scores -inf: with fewer than
        width groups above -inf, a row is sorted whole."""
        rng = np.random.default_rng(33)
        n, k = 64 * 30 + 11, 30
        size = n // 64
        scores = rng.normal(size=(4, n))
        scores[0, :64 * size] = -np.inf  # only the tail, in no group, scores: sorted whole
        scores[0, 64 * size:] = np.arange(11.0)
        scores[1, :64 * size].reshape(64, size)[:, 5:] = -np.inf  # 5 groups above -inf
        scores[2, ::2] = -np.inf  # every other group, as candidates scoring -inf
        excluded = [np.array([], dtype=np.int64), np.arange(0, 64 * size, size),
                    np.arange(1, 64 * size, 2 * size), np.arange(n)[rng.random(n) < 0.97]]
        self.check(scores, excluded, k)
        self.check(scores, excluded, 3 * k)

    def test_infinite_and_nan_scores(self):
        """+inf scores rank first, by index; a row with width of them, or
        holding any NaN, is sorted whole, NaN after every other candidate."""
        rng = np.random.default_rng(34)
        n, k = 64 * 20 + 5, 20
        scores = np.round(rng.normal(size=(6, n)), 1)
        scores[0, rng.choice(n, 7, replace=False)] = np.inf  # fewer than k
        scores[1, rng.choice(n, 300, replace=False)] = np.inf  # more than k
        scores[2, rng.choice(n, 3, replace=False)] = np.nan  # fewer than k
        scores[3, rng.choice(n, 700, replace=False)] = np.nan  # more than k
        scores[4, :] = np.nan
        scores[5, [3, 9, 500]] = [np.nan, np.inf, -np.inf]
        excluded = [np.array([], dtype=np.int64), np.flatnonzero(np.isinf(scores[1]))[:290],
                    np.arange(0, n, 5), np.arange(100), np.arange(n - 10), np.array([9])]
        self.check(scores, excluded, k)
        self.check(scores, excluded, k, keep=np.array([0, 5, 19, 1, 7, 20]))
        self.check(scores[2:3], excluded[2:3], 300)  # fewer candidates than NaN-free items

    @pytest.mark.parametrize("n, k", [(64 * 20, 20), (39, 20)])
    def test_nan_among_the_maxima(self, n, k):
        """A NaN group maximum would count as one of the width largest: with
        each group's maximum its only high score (one per item at G = 1),
        fewer than width items would reach the threshold."""
        size = n // max(1, min(64, n // k))
        scores = np.full((1, n), -10.0)
        scores[0, :size] = np.arange(size)  # group j's maximum is j
        scores[0, size % n] = np.nan  # in group 0, the whole row at G = 1
        self.check(scores, [np.array([], dtype=np.int64)], k)

    @settings(max_examples=200, deadline=None, database=None)
    @given(k=st.integers(1, 40), groups=st.integers(1, 70), tail=st.integers(0, 100),
           rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           pool=st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])
                         | st.floats(-3, 3), min_size=1, max_size=6),
           excluded_share=st.floats(0, 1), cut_keep=st.booleans())
    def test_matches_sort_oracle_property(self, k, groups, tail, rows, seed, pool,
                                          excluded_share, cut_keep):
        """Rows drawn from a few values (ties, -inf, +inf, NaN) in 1 to 70
        groups per width, against the sort oracle."""
        rng = np.random.default_rng(seed)
        n = groups * k + tail
        scores = rng.choice(np.array(pool), size=(rows, n))
        excluded = [np.flatnonzero(rng.random(n) < excluded_share) for _ in range(rows)]
        keep = rng.integers(0, k + 1, size=rows) if cut_keep else None
        self.check(scores, excluded, k, keep)

    def test_rank_user_is_the_one_row_case(self):
        scores = np.array([2.0, 1.0, 2.0, -np.inf, 1.0])
        np.testing.assert_array_equal(rank_user(scores, [0], 3), [2, 1, 4])
        np.testing.assert_array_equal(rank_user(scores, [0, 1, 2, 4], 3), [3])
        assert rank_user(scores, range(5), 3).size == 0
        assert rank_user(scores, [], 0).size == 0


class TestRecall:
    def test_all_relevant_retrieved(self):
        assert recall_at_k([1, 2, 3, 9], {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert recall_at_k([1, 2], {3, 4}) == 0.0

    def test_partial(self):
        assert recall_at_k([1, 2, 7, 8], {1, 2, 3, 4, 5}) == pytest.approx(0.4)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([1], set())


class TestNdcg:
    def test_single_hit_at_top(self):
        assert ndcg_at_k([5, 1, 2], {5}, 3) == 1.0

    def test_single_hit_at_second_position(self):
        got = ndcg_at_k([0] + [7] + [1] * 18, {7}, 20)
        assert got == pytest.approx(1.0 / math.log2(3))

    def test_no_hits(self):
        assert ndcg_at_k([1, 2, 3], {9}, 3) == 0.0

    def test_perfect_prefix_is_exactly_one(self):
        relevant = {0, 1, 2, 3, 4, 5}
        assert ndcg_at_k([0, 1, 2], relevant, 3) == 1.0

    def test_upper_bound(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, 6))
            ranked = rng.permutation(n)[:k].tolist()
            relevant = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            value = ndcg_at_k(ranked, relevant, k)
            assert 0.0 <= value <= 1.0 + 1e-15


def single_user_output(item_scores):
    """Output whose scores for user 0 equal 2 * item_scores."""
    user = np.array([[1.0]])
    items = np.asarray(item_scores, dtype=float)[:, None]
    mat = np.vstack([user, items])
    return manual_output([[mat, mat, mat]], num_users=1, weights=(1.0,))


class TestEvaluate:
    def test_perfect_model_scores_one(self):
        # user 0: train {0}, test {1, 2}; items 1, 2 get the top scores
        ds = InteractionDataset.from_lists(1, 4, [[0]], [[1, 2]])
        out = single_user_output([50.0, 10.0, 9.0, 0.1])
        report = evaluate(None, out, ds, k=2)
        assert report.recall == 1.0
        assert report.ndcg == 1.0
        assert report.num_users_evaluated == 1

    def test_users_without_test_items_are_skipped(self):
        ds = InteractionDataset.from_lists(2, 3, [[0], [1]], [[1], []])
        user = np.array([[1.0], [1.0]])
        items = np.array([[3.0], [2.0], [1.0]])
        mat = np.vstack([user, items])
        out = manual_output([[mat, mat, mat]], num_users=2, weights=(1.0,))
        report = evaluate(None, out, ds, k=2)
        assert report.num_users_evaluated == 1

    def test_no_evaluable_users_is_an_error(self):
        ds = InteractionDataset.from_lists(1, 2, [[0]], [[]])
        out = single_user_output([1.0, 2.0])
        with pytest.raises(ValueError):
            evaluate(None, out, ds, k=1)

    def test_deterministic_and_worker_invariant(self, cores, pool_sizes):
        cores(4)
        rng = np.random.default_rng(2)
        num_users, num_items = 30, 40
        train = [[int(rng.integers(0, num_items))] for _ in range(num_users)]
        test = []
        for u in range(num_users):
            rest = [i for i in range(num_items) if i != train[u][0]]
            test.append(sorted(rng.choice(rest, size=3, replace=False).tolist()))
        ds = InteractionDataset.from_lists(num_users, num_items, train, test)
        chains = [[rng.normal(size=(70, 4)) for _ in range(3)] for _ in range(2)]
        out = manual_output(chains, num_users=30)
        a = evaluate(None, out, ds, k=5)
        b = evaluate(None, out, ds, k=5)
        c = evaluate(None, out, ds, k=5, workers=4, chunk_size=7)
        assert a == b == c
        assert pool_sizes == [1, 1, 4]

    def test_threads_capped_by_cores_and_chunks(self, cores, pool_sizes):
        """Eight workers on two cores run two threads, and on one chunk
        none; the reports are those of one worker."""
        ds = make_random_dataset(np.random.default_rng(6), 40, 30, max_degree=6, with_test=True)
        chains = [[np.random.default_rng(7).normal(size=(70, 4)) for _ in range(3)]]
        out = manual_output(chains, num_users=40)
        single = evaluate_cutoffs(None, out, ds, (1, 5), workers=1, chunk_size=3)
        cores(2)
        assert evaluate_cutoffs(None, out, ds, (1, 5), workers=8, chunk_size=3) == single
        assert pool_sizes == [1, 2]
        assert evaluate_cutoffs(None, out, ds, (1, 5), workers=8, chunk_size=256) == single
        assert pool_sizes == [1, 2, 1]

    def test_threads_beyond_the_cores_score_every_chunk_once(self, cores, pool_sizes,
                                                              monkeypatch):
        """Eight threads on chunks of one user, switching every microsecond:
        each chunk is claimed by exactly one thread, and the reports are
        those of one thread."""
        cores(8)
        monkeypatch.setattr(graph, "_pool", None)  # a pool of seven threads
        ds = make_random_dataset(np.random.default_rng(10), 60, 30, max_degree=6,
                                 with_test=True)
        out = manual_output([[np.random.default_rng(11).normal(size=(90, 4))] * 3],
                            num_users=60)
        single = evaluate_cutoffs(None, out, ds, (1, 5), workers=1, chunk_size=1)
        scored, box = [], {}
        score = evaluation.score_users

        def spying_score(out, users, **kwargs):
            scored.extend(users)  # list.extend is atomic
            return score(out, users, **kwargs)

        def call():
            box["reports"] = evaluate_cutoffs(None, out, ds, (1, 5), workers=8, chunk_size=1)

        monkeypatch.setattr(evaluation, "score_users", spying_score)
        thread = threading.Thread(target=call)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            graph._pool.shutdown()
        assert not thread.is_alive()
        assert box["reports"] == single and pool_sizes == [1, 8]
        assert sorted(scored) == [u for u in range(60) if len(ds.test[u])]

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.5)])
    def test_score_buffers_made_once_per_thread(self, cores, pool_sizes, weights, monkeypatch):
        """Two threads score 14 chunks into two score arrays, one per
        thread, each reused for every chunk its thread scores, under equal
        and unequal weights alike."""
        cores(2)
        ds = make_random_dataset(np.random.default_rng(8), 40, 30, max_degree=6, with_test=True)
        rng = np.random.default_rng(9)
        out = manual_output([[rng.normal(size=(70, 4)) for _ in range(3)] for _ in range(2)],
                            num_users=40, weights=weights)
        single = evaluate_cutoffs(None, out, ds, (1, 5), workers=1, chunk_size=3)
        used = []
        score = evaluation.score_users

        def spying_score(out, users, *, weights, result):
            used.append(result.base)
            return score(out, users, weights=weights, result=result)

        monkeypatch.setattr(evaluation, "score_users", spying_score)
        assert evaluate_cutoffs(None, out, ds, (1, 5), workers=2, chunk_size=3) == single
        evaluable = sum(1 for u in range(40) if len(ds.test[u]))
        assert pool_sizes == [1, 2] and len(used) == -(-evaluable // 3) > 2
        assert len({id(base) for base in used}) <= 2
        assert all(base is not None and base.shape == (3, 30) for base in used)

    def test_propagated_output_worker_invariant(self, cores):
        """Threads score a propagated output as one thread does; a training
        output cannot be scored at all."""
        cores(2)
        ds = make_random_dataset(np.random.default_rng(5), 40, 30, max_degree=6, with_test=True)
        cfg = PopularityConfig()
        mats = propagation_matrices(ds, cfg)
        params = init_parameters(40, 30, 4, cfg, seed=5)
        layers = SelectedLayers(3, 4)
        out = propagate(params, mats, layers, retain_chain=False)
        threaded = evaluate(params, out, ds, k=5, workers=2, chunk_size=3)
        assert threaded == evaluate(params, out, ds, k=5)
        with pytest.raises(RuntimeError, match=r"retain_chain=False"):
            evaluate(params, propagate(params, mats, layers), ds, k=5, workers=2)

    def test_cutoffs_equal_separate_evaluations(self, cores, pool_sizes):
        cores(3)
        rng = np.random.default_rng(4)
        num_users, num_items = 20, 30
        train, test = [], []
        for _ in range(num_users):
            picked = rng.choice(num_items, size=6, replace=False).tolist()
            train.append(picked[:2])
            test.append(picked[2:])
        ds = InteractionDataset.from_lists(num_users, num_items, train, test)
        # a coarse score grid, so the rankings have many ties
        chains = [[np.round(rng.normal(size=(50, 3))) for _ in range(3)]]
        out = manual_output(chains, num_users=num_users)
        cutoffs = (5, 1, 28, 3, 5, 40)
        reports = evaluate_cutoffs(None, out, ds, cutoffs, workers=3, chunk_size=6)
        assert pool_sizes == [3]
        assert reports == [evaluate(None, out, ds, k=k) for k in cutoffs]

    @pytest.mark.parametrize("cutoffs", [(0,), (-3,), (2, 0), ()])
    def test_cutoff_below_one_is_an_error(self, cutoffs):
        ds = InteractionDataset.from_lists(1, 4, [[0]], [[1, 2]])
        out = single_user_output([50.0, 10.0, 9.0, 0.1])
        with pytest.raises(ValueError, match="cutoffs must be >= 1"):
            evaluate_cutoffs(None, out, ds, cutoffs)
        if len(cutoffs) == 1:
            with pytest.raises(ValueError, match="cutoffs must be >= 1"):
                evaluate(None, out, ds, k=cutoffs[0])

    def test_rank_metrics_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=25)
        relevant = {1, 5, 9}
        exclude = {0, 2}
        for transform in (lambda s: 2.0 * s + 3.0, np.exp, lambda s: s ** 3):
            base = rank_user(scores, exclude, 6)
            mapped = rank_user(transform(scores), exclude, 6)
            np.testing.assert_array_equal(base, mapped)
            assert recall_at_k(base, relevant) == recall_at_k(mapped, relevant)
            assert ndcg_at_k(base, relevant, 6) == ndcg_at_k(mapped, relevant, 6)

    def test_random_scores_match_hypergeometric_expectation(self):
        """With exchangeable random scores the expected recall equals the
        hypergeometric hit rate of a size-k draw from the candidates."""
        num_users, num_items, k = 100, 1000, 20
        train_count, test_count = 5, 5
        candidates = num_items - train_count
        expected = k / candidates
        p = test_count / candidates
        var_hits = k * p * (1 - p) * (candidates - k) / (candidates - 1)
        var_mean = var_hits / test_count**2 / num_users
        seeds = range(4)
        means = []
        for seed in seeds:
            rng = np.random.default_rng(100 + seed)
            train, test = [], []
            for _ in range(num_users):
                picked = rng.choice(num_items, size=train_count + test_count, replace=False)
                train.append(sorted(picked[:train_count].tolist()))
                test.append(sorted(picked[train_count:].tolist()))
            ds = InteractionDataset.from_lists(num_users, num_items, train, test)
            chains = [
                [rng.normal(size=(num_users + num_items, 8)) for _ in range(3)]
                for _ in range(3)
            ]
            out = manual_output(chains, num_users=num_users)
            means.append(evaluate(None, out, ds, k=k).recall)
        sigma = math.sqrt(var_mean / len(means))
        assert abs(np.mean(means) - expected) <= 3 * sigma


def reference_reports(out, ds, cutoffs, chunk_size, weights=None):
    """evaluate_cutoffs rebuilt from the stacked-factor reference scores
    and the negated-copy ranking of each row, over the same chunks."""
    evaluable = [u for u in range(ds.num_users) if len(ds.test[u])]
    recalls, ndcgs = np.zeros((2, len(cutoffs), len(evaluable)))
    for start in range(0, len(evaluable), chunk_size):
        users = evaluable[start:start + chunk_size]
        scores = stacked_scores(out, users, weights=weights)
        for row, u in enumerate(users):
            ranked = negated_copy_ranking(scores[row], ds.train[u], max(cutoffs))
            for c, k in enumerate(cutoffs):
                recalls[c, start + row] = recall_at_k(ranked[:k], ds.test[u])
                ndcgs[c, start + row] = ndcg_at_k(ranked[:k], ds.test[u], k)
    return [MetricsReport(k, float(recalls[c].mean()), float(ndcgs[c].mean()), len(evaluable))
            for c, k in enumerate(cutoffs)]


class TestEvaluateExactness:
    """evaluate_cutoffs masks and ranks the chunk's scores in place; its
    reports equal the stacked-factor reference bit for bit, and its scores
    the term-by-term sum within 1e-12."""

    CUTOFFS = (1, 5, 20, 40)
    num_users, num_items = 41, 26

    @pytest.fixture(scope="class")
    def ds(self):
        rng = np.random.default_rng(21)
        train, test = [], []
        for u in range(self.num_users):
            if u == 7:  # 2 unexcluded candidates, fewer than every cutoff but 1
                picked = rng.permutation(self.num_items)
                train.append(picked[:24].tolist())
                test.append(picked[24:25].tolist())
                continue
            picked = rng.choice(self.num_items, size=int(rng.integers(1, 12)), replace=False)
            cut = int(rng.integers(0, picked.size))
            train.append(picked[:cut].tolist())
            test.append([] if u % 9 == 4 else picked[cut:].tolist())
        return InteractionDataset.from_lists(self.num_users, self.num_items, train, test)

    def output(self, integer_valued, weights=(1.0, 0.5, 1 / 3)):
        rng = np.random.default_rng(22)
        rows = self.num_users + self.num_items
        if integer_valued:  # scores are small integers: ties at every boundary
            chains = [[rng.integers(-1, 2, size=(rows, 3)).astype(float) for _ in range(3)]
                      for _ in range(3)]
        else:
            chains = [[rng.normal(size=(rows, 5)) for _ in range(3)] for _ in range(3)]
        for chain in chains:
            for layer in chain:
                layer[5] = 0.0  # user 5 scores every item equally
                layer[self.num_users + 3] = layer[self.num_users + 8]  # items 3 and 8 tie
        return manual_output(chains, num_users=self.num_users, weights=weights)

    @pytest.mark.parametrize("integer_valued", [True, False])
    @pytest.mark.parametrize("workers, chunk_size", [(1, 256), (1, 7), (3, 7), (3, 10), (3, 1)])
    def test_reports_equal_reference(self, ds, integer_valued, workers, chunk_size, cores):
        cores(workers)
        out = self.output(integer_valued)
        got = evaluate_cutoffs(None, out, ds, self.CUTOFFS, workers=workers,
                               chunk_size=chunk_size)
        assert got == reference_reports(out, ds, self.CUTOFFS, chunk_size)
        if integer_valued:  # under dyadic weights every sum is exact: chunks cannot matter
            dyadic = self.output(True, weights=(1.0, 0.5, 0.25))
            got = evaluate_cutoffs(None, dyadic, ds, self.CUTOFFS, workers=workers,
                                   chunk_size=chunk_size)
            assert got == reference_reports(dyadic, ds, self.CUTOFFS, 256)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, 256])
    def test_reports_are_per_user_means_to_the_bit(self, ds, workers, chunk_size, cores,
                                                   monkeypatch):
        """Each report is the mean of recall_at_k / ndcg_at_k over the
        users, ranked by the sort oracle; blocks of 3 rows leave a ragged
        block in every chunk of 7."""
        cores(workers)
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", 3 * self.num_items)
        out = self.output(True)
        got = evaluate_cutoffs(None, out, ds, self.CUTOFFS, workers=workers,
                               chunk_size=chunk_size)
        evaluable = [u for u in range(self.num_users) if len(ds.test[u])]
        # scored in evaluate_cutoffs' chunks: a user's scores can depend on its chunk
        scores = np.concatenate([stacked_scores(out, evaluable[start:start + chunk_size])
                                 for start in range(0, len(evaluable), chunk_size)])
        for report, k in zip(got, self.CUTOFFS):
            ranked = [sort_oracle(scores[row], set(ds.train[u].tolist()), k)
                      for row, u in enumerate(evaluable)]
            recall = np.array([recall_at_k(r, ds.test[u]) for r, u in zip(ranked, evaluable)])
            ndcg = np.array([ndcg_at_k(r, ds.test[u], k) for r, u in zip(ranked, evaluable)])
            assert report.recall.hex() == float(recall.mean()).hex()
            assert report.ndcg.hex() == float(ndcg.mean()).hex()
            assert report.num_users_evaluated == len(evaluable)

    @pytest.mark.parametrize("integer_valued", [True, False])
    def test_scores_near_term_by_term_sum(self, integer_valued):
        out = self.output(integer_valued)
        users = list(range(self.num_users))
        assert_near_term_by_term(score_users(out, users), out, users)

    def test_fixture_has_the_edge_cases(self, ds):
        out = self.output(True)
        scores = out_of_place_scores(out, list(range(self.num_users)))
        assert np.all(scores[5] == 0.0) and len(ds.test[5])
        assert self.num_items - len(ds.train[7]) < 5 and len(ds.test[7])
        assert np.array_equal(scores[:, 3], scores[:, 8])
        assert any(len(t) == 0 for t in ds.test)
        # a tie straddles the top-5 boundary of some user
        for u in range(self.num_users):
            if not len(ds.test[u]):
                continue
            row = np.delete(scores[u], ds.train[u])
            if row.size > 5 and np.sort(row)[::-1][4] == np.sort(row)[::-1][5]:
                break
        else:
            pytest.fail("no boundary tie")


def test_report_formats():
    report = MetricsReport(k=20, recall=0.25, ndcg=0.125, num_users_evaluated=7)
    payload = report_as_dict(report)
    assert payload == {"recall@20": 0.25, "ndcg@20": 0.125, "num_users_evaluated": 7}
    text = format_report(report)
    assert "recall@20" in text and "0.250000" in text
    assert text.splitlines()[-1].split() == ["users_evaluated", "7"]


def test_one_default_chunk_size():
    """``predict`` scores a user in the chunk ``evaluate`` scores it in
    only while the defaults agree."""
    for fn in (evaluation.evaluate, evaluation.evaluate_cutoffs, evaluation._chunk_of):
        assert inspect.signature(fn).parameters["chunk_size"].default == evaluation.CHUNK_SIZE
