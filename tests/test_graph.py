import functools
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from jmpgcf import graph
from jmpgcf import (
    GraphConfigError,
    InteractionDataset,
    PopularityConfig,
    SelectedLayers,
    SparseMatrix,
    TripleSampler,
    build_adjacency,
    build_normalized_adjacency,
    init_parameters,
    propagate,
    propagation_matrices,
    spmm,
    transpose,
)
from jmpgcf.graph import degrees
from jmpgcf.training import _batch_terms, _matrix_rows

from conftest import RecordingKernels, dense_normalized, make_random_dataset


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
            dict(granularity_unit=float("nan")),
            dict(granularity_unit=float("inf"), max_granularity=0),  # 0 * inf is nan
            dict(granularity_weights=(1.0, float("nan"), 1.0)),
            dict(granularity_weights=(1.0, 1.0, float("inf"))),
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


def _assert_serial_bits(mat, dense):
    got = spmm(mat, dense)
    want = mat.to_scipy() @ dense
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _random_csr(rng, rows, cols, density):
    dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
    return SparseMatrix.from_scipy(sp.csr_matrix(dense))


class TestParallelSpmm:
    @pytest.fixture(params=[2, 3, 8])
    def cores(self, request, monkeypatch):
        monkeypatch.setattr(graph, "_cores", lambda: request.param)
        return request.param

    def test_empty_leading_and_trailing_rows(self, split, cores):
        rng = np.random.default_rng(20)
        dense = rng.normal(size=(40, 30)) * (rng.random((40, 30)) < 0.3)
        dense[:5] = 0
        dense[-6:] = 0
        mat = SparseMatrix.from_scipy(sp.csr_matrix(dense))
        _assert_serial_bits(mat, rng.normal(size=(30, 5)))
        assert len(split.blocks) > 1 and sum(split.blocks) <= 40

    def test_one_row_holds_most_entries(self, split, cores):
        rng = np.random.default_rng(21)
        dense = rng.normal(size=(50, 600)) * (rng.random((50, 600)) < 0.01)
        dense[7] = rng.normal(size=600)
        mat = SparseMatrix.from_scipy(sp.csr_matrix(dense))
        assert mat.to_scipy()[7].nnz > mat.nnz / 2
        _assert_serial_bits(mat, rng.normal(size=(600, 4)))
        assert len(split.blocks) > 1

    def test_fewer_rows_than_threads(self, split, cores):
        rng = np.random.default_rng(22)
        mat = _random_csr(rng, 1, 9, 1.0)
        _assert_serial_bits(mat, rng.normal(size=(9, 3)))
        mat = _random_csr(rng, 3, 9, 0.7)
        _assert_serial_bits(mat, rng.normal(size=(9, 3)))

    def test_fortran_ordered_and_sliced_dense(self, split, cores):
        rng = np.random.default_rng(23)
        mat = _random_csr(rng, 60, 40, 0.2)
        base = rng.normal(size=(80, 12))
        _assert_serial_bits(mat, np.asfortranarray(base[:40]))
        _assert_serial_bits(mat, base[::2])
        _assert_serial_bits(mat, base[:40, 1::3])
        _assert_serial_bits(mat, base[:40][::-1])

    def test_integer_dense(self, split, cores):
        rng = np.random.default_rng(24)
        mat = _random_csr(rng, 30, 20, 0.3)
        _assert_serial_bits(mat, rng.integers(-5, 6, size=(20, 4)))

    def test_width_one(self, split, cores):
        rng = np.random.default_rng(25)
        mat = _random_csr(rng, 70, 50, 0.2)
        _assert_serial_bits(mat, rng.normal(size=(50, 1)))
        # far less work than one block's PARALLEL_WORK: one block per core
        assert mat.nnz < graph.PARALLEL_WORK
        assert len(split.blocks) == min(cores, 70)
        assert sum(split.blocks) == 70

    def test_concurrent_callers_get_serial_bits(self, split):
        rng = np.random.default_rng(26)
        mat = _random_csr(rng, 2000, 2000, 0.01)
        xs = [rng.normal(size=(2000, 16)) for _ in range(4)]
        wants = [(mat.to_scipy() @ x).tobytes() for x in xs]
        results = [[] for _ in xs]
        start = threading.Barrier(len(xs))

        def call(i):
            start.wait()
            for _ in range(20):
                results[i].append(spmm(mat, xs[i]).tobytes())

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, wants):
            assert got == [want] * 20

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_can_call_spmm(self, split, monkeypatch):
        monkeypatch.setattr(graph, "_cores", lambda: 2)
        rng = np.random.default_rng(27)
        mat = _random_csr(rng, 300, 300, 0.05)
        x = rng.normal(size=(300, 8))
        want = spmm(mat, x).tobytes()
        assert graph._pool is not None  # the parent's pool has a thread
        pid = os.fork()
        if pid == 0:  # child: only os._exit leaves it
            code = 1
            try:
                fresh = graph._pool is None
                code = 0 if fresh and spmm(mat, x).tobytes() == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's spmm did not return")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    def test_small_products_stay_serial(self, monkeypatch):
        kernels = RecordingKernels()
        monkeypatch.setattr(graph, "_sparsetools", kernels)
        rng = np.random.default_rng(28)
        mat = _random_csr(rng, 100, 100, 0.1)
        _assert_serial_bits(mat, rng.normal(size=(100, 64)))
        assert kernels.blocks == [100]  # one block of every row

    def test_threshold_between_planted_and_gowalla_hops(self, monkeypatch):
        # the planted benchmark graph's hop (69k entries x 64 columns) stays
        # serial; the Gowalla-shaped one (1.7M entries x 64) is split
        assert 69_000 * 64 < graph.PARALLEL_WORK <= 1_691_471 * 64
        # into 12 blocks of rows on two cores, none of them empty
        monkeypatch.setattr(graph, "_cores", lambda: 2)
        row_offsets = np.round(np.linspace(0, 1_691_471, 70_840)).astype(np.int64)
        bounds = graph._row_bounds(row_offsets, 64)
        assert len(bounds) - 1 == 1_691_471 * 64 // graph.PARALLEL_WORK == 12
        assert all(hi > lo for lo, hi in zip(bounds[:-1], bounds[1:]))

    @pytest.mark.parametrize("cores", [2, 3])
    def test_large_products_take_more_blocks_than_cores(self, cores, monkeypatch):
        """Above a lowered threshold, a product with a dense row and empty
        leading and trailing rows is cut into more blocks than cores; they
        are contiguous and cover every row once, and each block zero-fills
        its own rows of a used result."""
        monkeypatch.setattr(graph, "_cores", lambda: cores)
        monkeypatch.setattr(graph, "_pool", None)
        kernels = RecordingKernels()
        monkeypatch.setattr(graph, "_sparsetools", kernels)
        rng = np.random.default_rng(32)
        dense = rng.normal(size=(120, 400)) * (rng.random((120, 400)) < 0.02)
        dense[:7] = 0
        dense[-9:] = 0
        dense[50] = rng.normal(size=400)
        mat = sp.csr_matrix(dense)
        x = rng.normal(size=(400, 6))
        want = (mat @ x).tobytes()
        # about four blocks' work per core
        monkeypatch.setattr(graph, "PARALLEL_WORK", mat.nnz * 6 // (4 * cores))
        out = np.full((120, 6), np.nan)
        try:
            assert spmm(mat, x, out) is out and out.tobytes() == want
            assert spmm(mat, x).tobytes() == want
        finally:
            graph._pool.shutdown()
        ranges = kernels.row_ranges(out)
        assert len(ranges) > cores
        assert ranges[0][0] == 0 and ranges[-1][1] == 120
        assert all(end == first for (_, end), (first, _) in zip(ranges[:-1], ranges[1:]))


class TestSideBySide:
    @pytest.fixture(params=[2, 3])
    def cores(self, request, monkeypatch):
        """A fresh pool of this many cores."""
        monkeypatch.setattr(graph, "_cores", lambda: request.param)
        monkeypatch.setattr(graph, "_pool", None)
        yield request.param
        if graph._pool is not None:
            graph._pool.shutdown()

    def run_bounded(self, call):
        """``call()`` on a daemon thread that must finish within a minute.
        If it does not, the pool's queued work is cancelled, which ends any
        wait on it, and the test fails instead of hanging."""
        box = {}

        def target():
            try:
                box["result"] = call()
            except Exception as exc:  # handed to the test below
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        if thread.is_alive():
            if graph._pool is not None:
                graph._pool.shutdown(wait=False, cancel_futures=True)
            pytest.fail("side_by_side did not return within a minute")
        return box

    def test_every_task_runs_once_and_results_keep_their_order(self, monkeypatch):
        """More threads than cores, switching every microsecond: each task is
        taken by exactly one thread, and a failing task's exception is the
        first in order and comes once every task has ended."""
        monkeypatch.setattr(graph, "_cores", lambda: 8)
        monkeypatch.setattr(graph, "_pool", None)
        ran = []

        def task(i, space):
            ran.append(i)  # list.append is atomic
            space += 1
            return float(np.full(200, i).sum())

        try:
            tasks = [functools.partial(task, i) for i in range(300)]
            box = self.run_bounded(lambda: graph.side_by_side(tasks, lambda: np.zeros(1)))
            assert box["result"] == [200.0 * i for i in range(300)]
            assert sorted(ran) == list(range(300))

            def failing(i):
                ran.append(i)
                if i in (7, 11):
                    raise ValueError(f"task {i}")
                return i

            ran.clear()
            box = self.run_bounded(
                lambda: graph.side_by_side(functools.partial(failing, i) for i in range(40)))
            assert str(box["error"]) == "task 7"
            assert sorted(ran) == list(range(40))
        finally:
            graph._pool.shutdown()

    def test_nothing_is_held_once_it_returns(self, cores):
        """A helper's work item may stay with its pool thread for a while
        after the call returns, but it keeps none of the call's tasks,
        their arguments and results, or the workspaces alive."""
        class Thing:
            pass

        held = [Thing() for _ in range(8)]
        refs = [weakref.ref(thing) for thing in held]

        def workspace():
            space = Thing()
            refs.append(weakref.ref(space))
            return space

        results = graph.side_by_side(
            (functools.partial(lambda thing, space: Thing(), thing) for thing in held),
            workspace)
        refs.extend(weakref.ref(result) for result in results)
        assert len(refs) == 8 + cores + 8
        del held, results
        assert [ref for ref in refs if ref() is not None] == []

    def test_tasks_may_call_side_by_side(self, cores):
        """Six outer tasks of five inner tasks each, on as many threads as
        there are cores: every result comes back, in order."""

        def outer(i):
            return graph.side_by_side(functools.partial(lambda i, j: 10 * i + j, i, j)
                                      for j in range(5))

        box = self.run_bounded(
            lambda: graph.side_by_side(functools.partial(outer, i) for i in range(6)))
        assert box["result"] == [[10 * i + j for j in range(5)] for i in range(6)]

    def test_nested_error_reaches_the_caller_in_order(self, cores):
        """A nested task's exception is its outer task's, and the caller gets
        the first failing outer task's."""

        def inner(i, j):
            if (i, j) in {(2, 3), (2, 4), (4, 1)}:
                raise ValueError(f"task {i}.{j}")
            return j

        def outer(i):
            return graph.side_by_side(functools.partial(inner, i, j) for j in range(5))

        box = self.run_bounded(
            lambda: graph.side_by_side(functools.partial(outer, i) for i in range(6)))
        assert str(box["error"]) == "task 2.3"

    def test_a_busy_pool_leaves_the_tasks_to_the_caller(self, monkeypatch):
        """With the pool's only thread held, a 3-task call returns on the
        calling thread alone, and its helper, cancelled before it started,
        runs no task once the thread is free."""
        monkeypatch.setattr(graph, "_cores", lambda: 2)
        monkeypatch.setattr(graph, "_pool", None)
        release = threading.Event()
        held = graph._get_pool().submit(release.wait)
        ran = []

        def task(i):
            ran.append((i, threading.current_thread().name))
            return i

        def call():
            result = graph.side_by_side(functools.partial(task, i) for i in range(3))
            return result, threading.current_thread().name

        try:
            box = self.run_bounded(call)
        finally:
            release.set()
            held.result(timeout=60)
            graph._pool.shutdown()  # waits for anything still queued
        result, caller = box["result"]
        assert result == [0, 1, 2]
        assert ran == [(i, caller) for i in range(3)]

    @pytest.mark.parametrize("threads, spaces", [(1, 1), (2, 2)])
    def test_threads_caps_the_workspaces_and_threads(self, threads, spaces, monkeypatch):
        """At three cores, ``threads=1`` makes one workspace and runs every
        task on the calling thread, and ``threads=2`` makes two."""
        monkeypatch.setattr(graph, "_cores", lambda: 3)
        monkeypatch.setattr(graph, "_pool", None)
        made, names = [], []

        def workspace():
            made.append(len(made))
            return made[-1]

        def task(i, space):
            names.append(threading.current_thread().name)
            return i

        try:
            result = graph.side_by_side((functools.partial(task, i) for i in range(6)),
                                        workspace, threads)
        finally:
            if graph._pool is not None:
                graph._pool.shutdown()
        assert result == list(range(6)) and len(made) == spaces
        if threads == 1:
            assert graph._pool is None  # nothing was submitted
            assert names == [threading.current_thread().name] * 6


class TestSpmmInto:
    """spmm(out=) writes the product into a given array with the bits of
    scipy's own product, for CSR, CSC and SparseMatrix operands alike,
    split by rows or not, at every core count."""

    FORMS = ["csr", "csc", "SparseMatrix"]

    @staticmethod
    def operands(form, seed):
        rng = np.random.default_rng(seed)
        mat = _random_csr(rng, 40, 30, 0.2)
        scipy_form = mat.to_scipy().tocsc() if form == "csc" else mat.to_scipy()
        return mat if form == "SparseMatrix" else scipy_form, scipy_form, rng

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("split_by_rows", [False, True])
    @pytest.mark.parametrize("form", FORMS)
    def test_equals_scipy_product_in_a_used_buffer(self, form, split_by_rows, cores, request,
                                                   monkeypatch):
        kernels = request.getfixturevalue("split") if split_by_rows else RecordingKernels()
        monkeypatch.setattr(graph, "_sparsetools", kernels)
        monkeypatch.setattr(graph, "_cores", lambda: cores)
        matrix, scipy_form, rng = self.operands(form, 29)
        dense = rng.normal(size=(30, 6))
        out = rng.normal(size=(40, 6))  # stale values are overwritten, not added to
        got = spmm(matrix, dense, out)
        want = scipy_form @ dense
        assert got is out and got.tobytes() == want.tobytes()
        if form == "csc":  # a CSC product is never split
            assert kernels.blocks == []
        else:  # far less than one block's work: one block per core when
            # split, else one of every row
            assert matrix.nnz * 6 < graph.PARALLEL_WORK
            assert len(kernels.blocks) == (cores if split_by_rows else 1)
            assert sum(kernels.blocks) == 40

    @pytest.mark.parametrize("form", FORMS)
    def test_rejects_a_vector(self, form):
        matrix, _, rng = self.operands(form, 31)
        vector = rng.normal(size=30)
        for out in (None, rng.normal(size=40)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                spmm(matrix, vector, out)

    @pytest.mark.parametrize("form", FORMS)
    def test_rejects_a_buffer_it_cannot_fill(self, form):
        matrix, _, rng = self.operands(form, 30)
        dense = rng.normal(size=(30, 4))
        for out in (np.empty((40, 8))[:, :4], np.empty((39, 4)), np.empty((40, 4), np.float32),
                    np.empty(40)):
            with pytest.raises(ValueError, match="out must be"):
                spmm(matrix, dense, out)


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


def _scipy_transpose(mat):
    want = mat.to_scipy().transpose().tocsr()
    want.sort_indices()
    return want


def _assert_same_bits(got, want_shape, arrays):
    assert got.shape == want_shape
    for name, want in zip(("row_offsets", "col_indices", "values"), arrays):
        actual = getattr(got, name)
        assert actual.dtype == want.dtype, name
        assert actual.tobytes() == want.tobytes(), name


def _with_isolated_nodes(seed):
    """A random graph in which every fifth user and the last three items
    have no interaction."""
    ds = make_random_dataset(np.random.default_rng(seed), 20, 14, max_degree=6)
    train = [[] if u % 5 == 0 else items.tolist() for u, items in enumerate(ds.train)]
    return InteractionDataset.from_lists(20, 17, train)


class TestTransposeFromScalings:
    """``transpose`` computes the transposed values from the matrix's row
    and column factors and matches scipy's transpose bit for bit."""

    @pytest.mark.parametrize("max_granularity", [0, 2, 4])
    def test_equals_scipy_and_double_transpose_gives_the_arrays(self, max_granularity):
        # at K=4 the column exponents run from -0.5 to -0.5 + 4 * 0.24 = 0.46
        cfg = PopularityConfig(0.24, max_granularity)
        for seed in (33, 34):
            ds = _with_isolated_nodes(seed)
            assert (np.diff(build_adjacency(ds).row_offsets) == 0).sum() >= 4 + 3
            for m in propagation_matrices(ds, cfg):
                want = _scipy_transpose(m)
                once = transpose(m)
                _assert_same_bits(once, want.shape, (want.indptr, want.indices, want.data))
                twice = transpose(once)
                _assert_same_bits(twice, m.shape, (m.row_offsets, m.col_indices, m.values))
                assert twice.row_offsets is m.row_offsets
                assert twice.col_indices is m.col_indices

    def test_refuses_a_matrix_that_is_not_a_propagation_matrix(self):
        adjacency = build_adjacency(make_random_dataset(np.random.default_rng(35), 6, 5))
        for mat in (SparseMatrix.from_scipy(sp.identity(3, format="csr")), adjacency,
                    SparseMatrix.from_scipy(adjacency.to_scipy())):
            with pytest.raises(ValueError, match="propagation matrix"):
                transpose(mat)

    def test_normalization_refuses_a_hand_built_adjacency(self):
        adjacency = build_adjacency(make_random_dataset(np.random.default_rng(36), 6, 5))
        by_hand = SparseMatrix.from_scipy(adjacency.to_scipy())
        with pytest.raises(ValueError, match="build_adjacency"):
            build_normalized_adjacency(by_hand, 0, PopularityConfig())

    def test_propagation_transposes_share_one_pattern(self):
        rng = np.random.default_rng(31)
        ds = make_random_dataset(rng, 15, 11, max_degree=6)
        mats = propagation_matrices(ds, PopularityConfig())
        trans = [transpose(m) for m in mats]
        for m, t in zip(mats, trans):
            want = _scipy_transpose(m)
            _assert_same_bits(t, want.shape, (want.indptr, want.indices, want.data))
            _assert_same_bits(transpose(t), m.shape, (m.row_offsets, m.col_indices, m.values))
            for other in (*mats, *trans):
                assert np.shares_memory(other.row_offsets, m.row_offsets)
                assert np.shares_memory(other.col_indices, m.col_indices)
        stored = {id(a): a.nbytes for m in (*mats, *trans)
                  for a in (m.row_offsets, m.col_indices, m.values)}
        pattern = mats[0].row_offsets.nbytes + mats[0].col_indices.nbytes
        assert len(stored) == 2 + 6
        assert sum(stored.values()) == pattern + 6 * mats[0].values.nbytes

    def test_normalized_values_match_scipy_expression(self):
        # the shared pattern's values are today's expression, bit for bit
        rng = np.random.default_rng(32)
        ds = make_random_dataset(rng, 14, 10, max_degree=5)
        adj = build_adjacency(ds)
        cfg = PopularityConfig()
        log_d1 = np.log(degrees(adj) + 1.0)
        left = np.exp(-0.5 * log_d1)
        with_loops = adj.to_scipy() + sp.identity(adj.num_rows, format="csr")
        with_loops.sort_indices()
        for k in range(cfg.num_granularities):
            right = np.exp(cfg.column_exponent(k) * log_d1)
            values = (with_loops.data * np.repeat(left, np.diff(with_loops.indptr))
                      * right[with_loops.indices])
            _assert_same_bits(build_normalized_adjacency(adj, k, cfg), adj.shape,
                              (with_loops.indptr, with_loops.indices, values))


def _unpaneled_graph(seed):
    """A random graph of 61 users and 48 items, 109 nodes, which no panel
    size of the tests divides; every fifth user and the last three items
    have no interaction."""
    ds = make_random_dataset(np.random.default_rng(seed), 61, 45, max_degree=6)
    train = [[] if u % 5 == 0 else items.tolist() for u, items in enumerate(ds.train)]
    return InteractionDataset.from_lists(61, 48, train)


NODES = 109


class TestPanels:
    """A matrix of more than ``PANEL_ROWS`` nodes is cut by columns into
    panels, and every hop, row-order array and row block of it is the same
    bit for bit as that of the one-panel matrix."""

    @pytest.fixture(params=[7, 64])
    def panel_rows(self, request, monkeypatch):
        monkeypatch.setattr(graph, "PANEL_ROWS", request.param)
        return request.param

    @staticmethod
    def operators(seed, cfg=PopularityConfig(0.24, 2)):
        mats = propagation_matrices(_unpaneled_graph(seed), cfg)
        return mats + [transpose(m) for m in mats]

    def test_panels_hold_each_rows_entries_of_their_columns(self, panel_rows):
        ops = self.operators(40)
        offsets, indices = ops[0]._panels
        assert len(offsets) == -(-NODES // panel_rows) > 1
        for b, panel in enumerate(offsets):
            lo, hi = b * panel_rows, (b + 1) * panel_rows
            for i in range(NODES):
                row = ops[0].col_indices[ops[0].row_offsets[i]:ops[0].row_offsets[i + 1]]
                np.testing.assert_array_equal(indices[panel[i]:panel[i + 1]],
                                              row[(row >= lo) & (row < hi)])
        # one shared pattern; each matrix stores one value array, in panel order
        stored = {id(a): a.nbytes for m in ops
                  for a in (m.row_offsets, m.col_indices, *offsets, indices, m._values)}
        assert all(m._panels is ops[0]._panels for m in ops)
        assert len(stored) == 2 + len(offsets) + 1 + len(ops)
        assert all(m._values.shape == (m.nnz,) for m in ops)

    def test_row_order_arrays_equal_the_one_panel_matrix(self, panel_rows, monkeypatch):
        paneled = self.operators(41)
        monkeypatch.setattr(graph, "PANEL_ROWS", NODES)
        single = self.operators(41)
        assert len(single[0]._panels[0]) == 1 and single[0]._values is single[0].values
        for got, want in zip(paneled, single):
            assert not np.array_equal(got._values, want._values)  # another order
            _assert_same_bits(got, want.shape, (want.row_offsets, want.col_indices, want.values))
            scipy_form = got.to_scipy()
            for name in ("indptr", "indices", "data"):
                assert getattr(scipy_form, name).tobytes() == \
                    getattr(want.to_scipy(), name).tobytes()
        for m, t in zip(paneled[:3], paneled[3:]):
            want = _scipy_transpose(m)
            _assert_same_bits(t, want.shape, (want.indptr, want.indices, want.data))

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_hops_equal_scipy_products(self, panel_rows, cores, monkeypatch):
        monkeypatch.setattr(graph, "_cores", lambda: cores)
        monkeypatch.setattr(graph, "_pool", None)
        # a product of more than 64 entries x columns is cut into blocks of rows
        monkeypatch.setattr(graph, "PARALLEL_WORK", 64)
        kernels = RecordingKernels()
        rng = np.random.default_rng(42)
        ops = self.operators(42)
        panels = len(ops[0]._panels[0])
        monkeypatch.setattr(graph, "_sparsetools", kernels)
        try:
            for m in ops:
                x = rng.normal(size=(NODES, 5))
                want = (m.to_scipy() @ x).tobytes()
                out = np.full((NODES, 5), np.nan)
                kernels.blocks.clear()
                assert spmm(m, x, out) is out and out.tobytes() == want
                assert spmm(m, x).tobytes() == want
                # a call per panel and row block; one row block on one core
                calls = len(kernels.blocks) // 2
                assert calls % panels == 0
                assert calls == panels if cores == 1 else calls > panels
        finally:
            if graph._pool is not None:
                graph._pool.shutdown()

    def test_rows_equal_scipy_rows(self, panel_rows):
        rng = np.random.default_rng(43)
        ops = self.operators(43)
        for rows in (np.arange(NODES), np.sort(rng.choice(NODES, 30, replace=False)),
                     np.array([0, 5, 61, NODES - 1])):  # isolated nodes
            pattern = ops[0].row_pattern(rows)
            for m in ops:
                want = m.to_scipy()[rows]
                for got in (m.rows(rows), m.rows(rows, pattern)):
                    assert got.shape == want.shape
                    for name in ("indptr", "indices", "data"):
                        assert np.array_equal(getattr(got, name), getattr(want, name)), name
                    assert got.data.tobytes() == want.data.tobytes()

    def test_batch_rows_equal_scipy_rows(self, panel_rows):
        ds = _unpaneled_graph(44)
        cfg = PopularityConfig()
        params = init_parameters(ds.num_users, ds.num_items, 4, cfg, seed=44)
        out = propagate(params, propagation_matrices(ds, cfg), SelectedLayers(1, 2))
        batch = TripleSampler(ds).sample(16, np.random.default_rng(44))
        terms = _batch_terms(out, batch)
        blocks = [_matrix_rows(out, terms, k) for k in range(cfg.num_granularities)]
        for k, block in enumerate(blocks):
            want = out.matrices[k].to_scipy()[terms.rows]
            assert block.shape == want.shape
            assert block.data.tobytes() == want.data.tobytes()
            np.testing.assert_array_equal(block.indptr, want.indptr)
            np.testing.assert_array_equal(block.indices, want.indices)
            # the granularities share one extraction of the rows' pattern
            assert np.shares_memory(block.indices, blocks[0].indices)
