import itertools
import logging
import math
import os
import re
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit
from scipy.stats import chisquare

from jmpgcf import graph, training
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
    spmm,
    train,
    transpose,
)
from jmpgcf.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TripleBatch,
    _batch_terms,
    _block,
    _matrix_rows,
    _RowScatter,
)

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
        grads = backward(out, batch, {0}, l2_coeff=0.0, transposed={0: eye})  # eye^T = eye
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
        assert np.any(grads[2] != 0)
        np.testing.assert_array_equal(grads[0], np.zeros_like(grads[0]))
        np.testing.assert_array_equal(grads[1], np.zeros_like(grads[1]))


    @pytest.mark.parametrize("shared_base", [False, True], ids=["separate", "shared"])
    def test_bad_result_is_refused(self, shared_base):
        """``result`` needs one C-contiguous float64 array of the table's
        shape per base table; a wrong one is refused before anything is
        written into the others."""
        ds = make_random_dataset(np.random.default_rng(18), 6, 5)
        cfg = PopularityConfig()
        params = init_parameters(6, 5, 2, cfg, seed=18, shared_base=shared_base)
        out = propagate(params, propagation_matrices(ds, cfg), SelectedLayers(1, 2))
        batch = TripleSampler(ds).sample(4, np.random.default_rng(19))
        shape = params.base_embeddings[0].shape
        tables = len(params.base_embeddings)
        good = [np.full(shape, 3.0) for _ in range(tables)]
        bad = {
            "one too few": good[:-1],
            "one too many": good + [np.zeros(shape)],
            "shape": good[:-1] + [np.zeros((shape[0] - 1, shape[1]))],
            "dtype": good[:-1] + [np.zeros(shape, dtype=np.float32)],
            "fortran order": good[:-1] + [np.zeros(shape, order="F")],
            "strided view": good[:-1] + [np.zeros((shape[0], 2 * shape[1]))[:, ::2]],
            "not an array": good[:-1] + [np.zeros(shape).tolist()],
        }
        for name, result in bad.items():
            with pytest.raises(ValueError, match="result must be"):
                backward(out, batch, {0, 1, 2}, 1e-2, result=result)
            assert all(np.all(a == 3.0) for a in good), name


# The full-row step: loss, backward pass and optimizer step over whole
# layers and full-size gradients, with every sum in the order the row-
# restricted step must keep.  That step has to give the same bits.

def reference_loss(out, batch, active, l2_coeff, full_matrix_reg):
    users = batch.users
    pos_rows = out.num_users + batch.pos_items
    neg_rows = out.num_users + batch.neg_items
    total = 0.0
    reg = 0.0
    for k in sorted(active):
        for l in (out.layers.l_odd, out.layers.l_even):
            emb = out.layer(k, l)
            e_u, e_i, e_j = emb[users], emb[pos_rows], emb[neg_rows]
            margin = np.einsum("bd,bd->b", e_u, e_i) - np.einsum("bd,bd->b", e_u, e_j)
            total += float(np.logaddexp(0.0, -margin).sum())
            if full_matrix_reg:
                reg += float((emb * emb).sum())
            else:
                reg += float((e_u * e_u).sum() + (e_i * e_i).sum() + (e_j * e_j).sum())
    if not full_matrix_reg:
        reg /= len(batch)
    return total + l2_coeff * reg


def reference_backward(out, batch, active, l2_coeff, full_matrix_reg, transposed):
    users = batch.users
    pos_rows = out.num_users + batch.pos_items
    neg_rows = out.num_users + batch.neg_items
    depth = out.depth
    selected = (out.layers.l_odd, out.layers.l_even)
    num_tables = 1 if out.shared_base else out.num_granularities
    shape = out.layer(min(active), selected[0]).shape
    grads = [np.zeros(shape) for _ in range(num_tables)]
    for k in sorted(active):
        inject = {}
        for l in selected:
            emb = out.layer(k, l)
            e_u, e_i, e_j = emb[users], emb[pos_rows], emb[neg_rows]
            margin = np.einsum("bd,bd->b", e_u, e_i) - np.einsum("bd,bd->b", e_u, e_j)
            weight = expit(-margin)[:, None]
            grad = np.zeros(shape)
            np.add.at(grad, users, -weight * (e_i - e_j))
            np.add.at(grad, pos_rows, -weight * e_u)
            np.add.at(grad, neg_rows, weight * e_u)
            if full_matrix_reg:
                grad += (2.0 * l2_coeff) * emb
            else:
                scale = 2.0 * l2_coeff / len(batch)
                np.add.at(grad, users, scale * e_u)
                np.add.at(grad, pos_rows, scale * e_i)
                np.add.at(grad, neg_rows, scale * e_j)
            inject[l] = grad
        pulled = inject[depth] if depth in inject else np.zeros(shape)
        for l in range(depth, 0, -1):
            pulled = spmm(transposed[k], pulled)
            if l - 1 in inject:
                pulled = pulled + inject[l - 1]
        grads[0 if out.shared_base else k] += pulled
    return grads


def reference_optimizer_step(params, grads, state, cfg):
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for table, grad, m, v in zip(
        params.base_embeddings, grads, state.first_moment, state.second_moment
    ):
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        table -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


@pytest.mark.parametrize("into", [False, True], ids=["new", "result"])
@pytest.mark.parametrize("l2_coeff", [0.1, 0.0])
@pytest.mark.parametrize("full_matrix_reg", [False, True])
@pytest.mark.parametrize("shared_base", [False, True])
@pytest.mark.parametrize("layers", [(3, 4), (1, 2), (3, 2), (1, 4)])
def test_step_is_bitwise_equal_to_full_row_reference(layers, shared_base, full_matrix_reg,
                                                     l2_coeff, into):
    """Losses, gradients, tables and moments over steps through the three
    phases, with sampled batches (users and items repeat) and a batch
    that touches every row, compare == with the full-row step, with and
    without the L2 term, and with the gradients in new arrays or written
    into the same given ones at every step."""
    assert_step_matches_reference(layers, shared_base, full_matrix_reg, l2_coeff, into)


STEP_CONFIGURATIONS = list(itertools.product(
    [(3, 4), (1, 2), (3, 2), (1, 4)], [False, True], [False, True]))


def assert_step_matches_reference(layers, shared_base, full_matrix_reg, l2_coeff=0.1,
                                  into=False):
    """With ``into``, every step's gradients are written into one set of
    arrays, filled with nonzeros before the first step (whose inactive
    tables must come out as exact zeros), and match the call that makes
    new arrays in every bit."""
    num_users, num_items = 12, 10
    ds = make_random_dataset(np.random.default_rng(31), num_users, num_items, max_degree=5)
    pop = PopularityConfig()
    mats = propagation_matrices(ds, pop)
    transposed = {k: transpose(m) for k, m in enumerate(mats)}
    layers = SelectedLayers(*layers)
    cfg = TrainConfig(learning_rate=0.05, l2_coeff=l2_coeff, full_matrix_reg=full_matrix_reg)
    params = init_parameters(num_users, num_items, 4, pop, seed=31, shared_base=shared_base)
    ref = init_parameters(num_users, num_items, 4, pop, seed=31, shared_base=shared_base)
    state, ref_state = init_optimizer_state(params), init_optimizer_state(ref)
    sampler = TripleSampler(ds)
    rng = np.random.default_rng(32)
    span = np.arange(max(num_users, num_items))
    every_row = TripleBatch(span % num_users, span % num_items, (span + 3) % num_items)
    batches = [sampler.sample(40, rng), every_row, sampler.sample(40, rng),
               every_row, sampler.sample(3, rng)]
    phases = [{2}, {2}, {1, 2}, {0, 1, 2}, {0, 1, 2}]
    assert np.unique(batches[0].users).size < len(batches[0])
    assert np.unique(batches[0].pos_items).size < len(batches[0])
    touched = np.concatenate([every_row.users, num_users + every_row.pos_items])
    assert np.unique(touched).size == num_users + num_items
    given = [np.full(table.shape, -7.5) for table in params.base_embeddings]
    for batch, active in zip(batches, phases):
        out = propagate(params, mats, layers, granularities=active)
        loss = separated_bpr_loss(out, batch, active, cfg.l2_coeff, full_matrix_reg)
        grads = backward(out, batch, active, cfg.l2_coeff, full_matrix_reg, transposed)
        if into:
            written = backward(out, batch, active, cfg.l2_coeff, full_matrix_reg, transposed,
                               result=given)
            assert all(a is b for a, b in zip(written, given)) and len(written) == len(given)
            for ours, new in zip(written, grads):
                np.testing.assert_array_equal(bits(ours), bits(new))
            grads = written
        optimizer_step(params, grads, state, cfg)

        ref_out = propagate(ref, mats, layers, retain_chain=False)
        ref_loss = reference_loss(ref_out, batch, active, cfg.l2_coeff, full_matrix_reg)
        ref_grads = reference_backward(ref_out, batch, active, cfg.l2_coeff, full_matrix_reg,
                                       transposed)
        reference_optimizer_step(ref, ref_grads, ref_state, cfg)

        assert loss == ref_loss
        for ours, theirs in zip(grads, ref_grads):
            np.testing.assert_array_equal(ours, theirs)
        for ours, theirs in zip(params.base_embeddings, ref.base_embeddings):
            np.testing.assert_array_equal(ours, theirs)
        for ours, theirs in zip(state.first_moment + state.second_moment,
                                ref_state.first_moment + ref_state.second_moment):
            np.testing.assert_array_equal(ours, theirs)


class PoolSpy:
    """Stands in for graph's pool and records, for every submission, the
    submitted function's name and the functions on the submitting stack,
    and the threads the submissions came from."""

    def __init__(self, workers):
        self.pool = ThreadPoolExecutor(workers, thread_name_prefix="jmpgcf")
        self.submissions = []
        self.submitters = []

    def submit(self, fn, *args):
        callers, frame = [], sys._getframe(1)
        while frame is not None:
            callers.append(frame.f_code.co_name)
            frame = frame.f_back
        self.submissions.append((fn.__name__, callers))
        self.submitters.append(threading.current_thread().name)
        return self.pool.submit(fn, *args)

    def shutdown(self):
        self.pool.shutdown()

    def fan_outs_from(self):
        """The stages that handed their own tasks to the pool (not the row
        blocks of a split product)."""
        stages = {"propagate", "separated_bpr_loss", "backward", "optimizer_step"}
        return {stage for name, callers in self.submissions
                if name == "drain" and "spmm" not in callers
                for stage in stages & set(callers)}

    def split_products(self):
        """Submissions of a split product's row blocks."""
        return [name for name, callers in self.submissions if "spmm" in callers]

    def nested(self):
        """Submissions made from a pool thread, that is from inside a task
        that a helper was running (a task on the calling thread runs inside
        its ``drain`` frame too, so the stack cannot tell them apart)."""
        return [name for (name, _), thread in zip(self.submissions, self.submitters)
                if thread.startswith("jmpgcf")]


def small_train(seed=50, layers=SelectedLayers(3, 4), epochs=1):
    """train() over the three phases, with per-epoch evaluation, on a
    small dataset; returns its records with floats as float.hex, and the
    bytes of its tables."""
    ds = make_random_dataset(np.random.default_rng(seed), 30, 24, max_degree=6, with_test=True)
    params = init_parameters(30, 24, 8, PopularityConfig(), seed=seed)
    cfg = TrainConfig(batch_size=16, seed=seed, learning_rate=0.01)
    _, records = train(ds, params, PhaseSchedule.uniform(2, epochs), cfg, layers,
                       eval_ds=ds, eval_every=1, eval_topk=5)
    hexed = [{key: value.hex() if isinstance(value, float) else value
              for key, value in record.items() if key != "wallclock_s"} for record in records]
    return hexed, [table.tobytes() for table in params.base_embeddings]


class TestSideBySide:
    """Per-granularity work runs side by side on graph's pool when no hop
    of it splits by rows, with the same bits at every core count."""

    @pytest.fixture(params=[1, 2, 3])
    def cores(self, request, monkeypatch):
        monkeypatch.setattr(graph, "_cores", lambda: request.param)
        monkeypatch.setattr(graph, "_pool", None)  # a pool of this many cores
        yield request.param
        if graph._pool is not None:
            graph._pool.shutdown()

    @pytest.fixture
    def spy(self, monkeypatch):
        spy = PoolSpy(max(1, graph._cores() - 1))
        monkeypatch.setattr(graph, "_pool", spy)
        yield spy
        spy.shutdown()

    def test_step_configurations_at_every_core_count(self, cores):
        for configuration in STEP_CONFIGURATIONS:
            assert_step_matches_reference(*configuration)
            assert_step_matches_reference(*configuration, into=True)

    @pytest.mark.parametrize("layers", [SelectedLayers(3, 4), SelectedLayers(1, 2)],
                             ids=["3-4", "1-2"])
    def test_train_is_bitwise_equal_at_every_core_count(self, cores, layers, monkeypatch):
        got = small_train(layers=layers)
        with monkeypatch.context() as serial:
            serial.setattr(graph, "_cores", lambda: 1)
            assert small_train(layers=layers) == got

    def test_train_is_bitwise_equal_when_hops_split(self, split, monkeypatch):
        monkeypatch.setattr(graph, "_cores", lambda: 2)
        got = small_train()
        assert split.blocks  # every hop took the row split
        monkeypatch.setattr(graph, "_cores", lambda: 1)
        assert small_train() == got

    def test_pool_sees_each_stage_fan_out(self, cores, spy):
        small_train()
        if cores == 1:
            assert spy.submissions == []
        else:
            assert spy.fan_outs_from() == {"propagate", "separated_bpr_loss", "backward",
                                           "optimizer_step"}
            assert {name for name, _ in spy.submissions} == {"drain"}
        assert spy.nested() == []

    def test_split_hops_run_one_granularity_at_a_time(self, split, monkeypatch, spy):
        """When hops split, a stage runs its tasks on the calling thread, so
        no stage task runs on a helper, and the hops still split."""
        monkeypatch.setattr(graph, "_cores", lambda: 2)
        small_train()
        # the optimizer runs no sparse product, so it fans out still
        assert spy.fan_outs_from() == {"optimizer_step"}
        assert spy.split_products()
        # a stage task on a helper would submit its hops' blocks from there
        assert spy.nested() == []

    @pytest.mark.parametrize("bad_entries, named", [
        ({1: {(3, 2): np.nan, (5, 0): np.inf}, 2: {(0, 0): np.nan}}, r"table 1 \(2 bad entries\)"),
        ({2: {(0, 0): -np.inf}}, r"table 2 \(1 bad entries\)"),
    ], ids=["first-bad-table", "last-table-only"])
    def test_nonfinite_gradient_changes_nothing(self, cores, bad_entries, named):
        """A bad entry in any table stops the step before any table or
        moment moves, the tables ahead of it included, and the first bad
        table is named."""
        ds = make_random_dataset(np.random.default_rng(51), 12, 10, max_degree=5)
        pop = PopularityConfig()
        mats = propagation_matrices(ds, pop)
        params = init_parameters(12, 10, 4, pop, seed=51)
        cfg = TrainConfig()
        state = init_optimizer_state(params)
        batch = TripleSampler(ds).sample(16, np.random.default_rng(52))
        out = propagate(params, mats, SelectedLayers(3, 4))
        optimizer_step(params, backward(out, batch, {0, 1, 2}, cfg.l2_coeff), state, cfg)
        grads = backward(out, batch, {0, 1, 2}, cfg.l2_coeff)
        for table, entries in bad_entries.items():
            for at, value in entries.items():
                grads[table][at] = value
        before = [a.copy() for a in (*params.base_embeddings, *state.first_moment,
                                     *state.second_moment)]
        message = rf"^non-finite gradient for {named} at optimizer step 2$"
        with pytest.raises(TrainingDivergedError, match=message):
            optimizer_step(params, grads, state, cfg)
        assert state.step == 1
        after = (*params.base_embeddings, *state.first_moment, *state.second_moment)
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_trains(self, monkeypatch):
        monkeypatch.setattr(graph, "_cores", lambda: 2)
        monkeypatch.setattr(graph, "_pool", None)
        want = small_train()
        assert graph._pool is not None  # the parent's pool has a thread
        pid = os.fork()
        if pid == 0:  # child: only os._exit leaves it
            code = 1
            try:
                fresh = graph._pool is None
                code = 0 if fresh and small_train() == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish training")
            time.sleep(0.01)
        graph._pool.shutdown()
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def bits(array):
    """The bytes of a float64 array as int64, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(array).view(np.int64)


def scattered(num_rows, ats, parts, add_at=False):
    """A compact gradient after adding ``parts`` in backward's order: the
    user, positive and negative parts of the pairwise term, then (when
    there are six) those of the L2 term.  ``ats`` holds the three parts'
    row of each batch position; ``add_at`` adds with np.add.at instead of
    the batch's row scatters."""
    grad = np.zeros((num_rows, parts[0].shape[1]))
    if add_at:
        for at, values in zip(itertools.cycle(ats), parts):
            np.add.at(grad, at, values)
    else:
        scatters = [_RowScatter(np.asarray(at), num_rows) for at in ats]
        for scatter, values in zip(itertools.cycle(scatters), parts):
            scatter.add(grad, values)
    return grad


def summed_by_block(num_rows, ats, parts):
    """``grad += S @ values`` per part: each row's block summed first."""
    grad = np.zeros((num_rows, parts[0].shape[1]))
    for at, values in zip(itertools.cycle(ats), parts):
        pattern = sp.csr_matrix((np.ones(len(at)), (at, np.arange(len(at)))),
                                shape=(num_rows, len(at)))
        grad += pattern @ values
    return grad


class TestRowScatter:
    """The batch's row scatters add each part as np.add.at does, bit for
    bit: every row gets the same additions in the same order."""

    @pytest.mark.parametrize("parts", [3, 6], ids=["full_matrix_reg", "batch_reg"])
    def test_order_dependent_row_and_signed_zeros(self, parts):
        """Row 0 is hit by all six parts, with 1e16, 1.0 and -1e16 whose
        sum depends on the order; the pairwise parts add only signed
        zeros to row 3, so only the L2 parts move it (with
        ``full_matrix_reg`` the L2 term is not scattered)."""
        ats = ([0, 0, 1, 3], [2, 0, 0, 3], [0, 1, 2, 3])
        blocks = [
            [[1.0, 1e16], [0.5, 1.0], [3.0, 4.0], [-0.0, 0.0]],
            [[2.0, -0.0], [1e16, -1e16], [-1e16, 2.0], [0.0, -0.0]],
            [[1.0, 1.0], [-0.0, 5.0], [6.0, -0.0], [-0.0, -0.0]],
            [[-1e16, 1.0], [1.0, 1e16], [7.0, -0.0], [1.5, -2.5]],
            [[-0.0, 8.0], [1.0, -1e16], [-1e16, 1.0], [0.25, -0.0]],
            [[1e16, 1.0], [9.0, -0.0], [-1.0, 1.0], [-0.0, 3.0]],
        ]
        blocks = [np.array(block) for block in blocks[:parts]]
        got = scattered(4, ats, blocks)
        assert np.array_equal(bits(got), bits(scattered(4, ats, blocks, add_at=True)))
        # the rows' sums depend on the order of their additions
        assert not np.array_equal(bits(got), bits(summed_by_block(4, ats, blocks)))
        if parts == 6:
            assert np.all(got[3] != 0)

    @pytest.mark.parametrize("parts", [3, 6], ids=["full_matrix_reg", "batch_reg"])
    @pytest.mark.parametrize("b", [1, 2048])
    def test_random_batch(self, b, parts):
        """Values from 1e-8 to 1e16 in magnitude, of both signs, with
        signed zeros, on rows that repeat (a batch of 2048 over 60 rows)."""
        rng = np.random.default_rng(b + parts)
        num_rows = 3 if b == 1 else 60
        ats = ([0], [1], [2]) if b == 1 else tuple(rng.integers(0, num_rows, (3, b)))
        blocks = []
        for _ in range(parts):
            block = rng.choice([-1.0, 1.0], (b, 5)) * 10.0 ** rng.uniform(-8, 16, (b, 5))
            block[rng.random((b, 5)) < 0.05] = -0.0
            block[rng.random((b, 5)) < 0.05] = 0.0
            blocks.append(block)
        got = scattered(num_rows, ats, blocks)
        assert np.array_equal(bits(got), bits(scattered(num_rows, ats, blocks, add_at=True)))
        if b > 1:
            assert not np.array_equal(bits(got), bits(summed_by_block(num_rows, ats, blocks)))

    @pytest.mark.parametrize("full_matrix_reg", [False, True])
    @pytest.mark.parametrize("b", [1, 2048])
    def test_backward_equals_reference(self, b, full_matrix_reg):
        """backward's gradients, to the sign of zero, equal those of the
        reference that scatters with np.add.at, on tables whose entries
        span twelve orders of magnitude."""
        ds = make_random_dataset(np.random.default_rng(41), 12, 10, max_degree=5)
        pop = PopularityConfig()
        mats = propagation_matrices(ds, pop)
        transposed = {k: transpose(m) for k, m in enumerate(mats)}
        layers = SelectedLayers(3, 4)
        params = init_parameters(12, 10, 4, pop, seed=41)
        rng = np.random.default_rng(42)
        for table in params.base_embeddings:
            table *= 10.0 ** rng.uniform(-6, 6, table.shape)
        batch = TripleSampler(ds).sample(b, rng)
        active = {0, 1, 2}
        out = propagate(params, mats, layers, granularities=active)
        grads = backward(out, batch, active, 0.1, full_matrix_reg, transposed)
        ref_out = propagate(params, mats, layers, retain_chain=False)
        ref_grads = reference_backward(ref_out, batch, active, 0.1, full_matrix_reg, transposed)
        for ours, theirs in zip(grads, ref_grads):
            assert np.array_equal(bits(ours), bits(theirs))


class TestBatchRows:
    """A step reads the deferred deepest layer at its batch's rows, as
    ``A_k[rows] @ chains[k][depth - 1]``, bit for bit the layer's rows,
    without computing the layer; its loss and backward pass share one
    extraction of ``A_k[rows]`` and one such product per granularity."""

    def make(self):
        ds = make_random_dataset(np.random.default_rng(30), 9, 11)
        cfg = PopularityConfig()
        return ds, init_parameters(9, 11, 3, cfg, seed=30), propagation_matrices(ds, cfg)

    def test_deferred_rows_equal_layer_rows(self):
        ds, params, mats = self.make()
        out = propagate(params, mats, SelectedLayers(3, 4))
        full = [[params.base_for(k)] for k in range(3)]
        for k, chain in enumerate(full):
            for _ in range(4):
                chain.append(spmm(mats[k], chain[-1]))
        sampler, rng = TripleSampler(ds), np.random.default_rng(31)
        first, second = sampler.sample(5, rng), sampler.sample(7, rng)
        for batch in (first, second, first):  # each a new batch on the output
            terms = _batch_terms(out, batch)
            for k in range(3):
                for l in (0, 3, 4):
                    sub, at = _block(out, terms, k, l)
                    for rows, joined in zip(at, terms.joined):
                        np.testing.assert_array_equal(sub[rows], full[k][l][joined])
                deep, _ = _block(out, terms, k, 4)
                assert deep.tobytes() == full[k][4][terms.rows].tobytes()
                np.testing.assert_array_equal(_matrix_rows(out, terms, k).toarray(),
                                              mats[k].toarray()[terms.rows])
        for k in range(3):
            # the deepest layer's rows did not need the whole layer
            assert out.chains[k][4] is None
            np.testing.assert_array_equal(out.layer(k, 4), full[k][4])

    def test_deferred_rows_take_the_split_path(self, split, monkeypatch):
        """On the split path (forced here) the deferred layer's rows go
        through spmm's row split, one block per core since the product is
        far below ``PARALLEL_WORK``, and still equal the layer's rows."""
        monkeypatch.setattr(graph, "_cores", lambda: 2)
        ds, params, mats = self.make()
        out = propagate(params, mats, SelectedLayers(3, 4))
        terms = _batch_terms(out, TripleSampler(ds).sample(8, np.random.default_rng(32)))
        for k in range(3):
            full = params.base_for(k)
            for _ in range(4):
                full = mats[k].to_scipy() @ full
            split.blocks.clear()
            rows, _ = _block(out, terms, k, 4)
            assert mats[k].nnz * full.shape[1] < graph.PARALLEL_WORK
            assert len(split.blocks) == 2 and sum(split.blocks) == terms.rows.size
            assert rows.tobytes() == full[terms.rows].tobytes()
            assert out.chains[k][4] is None

    def test_granularity_not_propagated_raises(self):
        ds, params, mats = self.make()
        out = propagate(params, mats, SelectedLayers(3, 4), granularities={1, 2})
        terms = _batch_terms(out, TripleSampler(ds).sample(4, np.random.default_rng(33)))
        for l in (0, 3, 4):
            with pytest.raises(RuntimeError, match=f"layer {l} of granularity 0"):
                _block(out, terms, 0, l)

    def test_loss_and_backward_share_the_batch_rows(self, monkeypatch):
        """Per active granularity, one extraction of ``A_k[rows]`` and one
        row-restricted product serve the loss and backward of a batch; a
        new batch computes both again, and so does backward alone."""
        ds, params, mats = self.make()
        active = {1, 2}
        out = propagate(params, mats, SelectedLayers(3, 4), granularities=active)
        transposed = {k: transpose(m) for k, m in enumerate(mats)}
        sampler, rng = TripleSampler(ds), np.random.default_rng(34)
        first, second = sampler.sample(6, rng), sampler.sample(6, rng)
        extractions, products = [], []
        getitem, product = sp.csr_matrix.__getitem__, training.spmm

        def extracting(matrix, key):
            extractions.append(matrix.shape)
            return getitem(matrix, key)

        def hop(matrix, dense, out=None):
            if isinstance(matrix, sp.csr_matrix):  # rows of a matrix, not a full hop
                products.append(matrix.shape)
            return product(matrix, dense, out)

        monkeypatch.setattr(sp.csr_matrix, "__getitem__", extracting)
        monkeypatch.setattr(training, "spmm", hop)

        def loss(batch):
            separated_bpr_loss(out, batch, active, 0.1)

        def grads(batch):
            backward(out, batch, active, 0.1, transposed=transposed)

        def counted(*calls):
            extractions.clear()
            products.clear()
            for stage, batch in calls:
                stage(batch)
            return len(extractions), len(products)

        assert counted((loss, first), (grads, first)) == (2, 2)
        assert counted((loss, first), (grads, first)) == (0, 0)
        assert counted((loss, second), (grads, second)) == (2, 2)
        assert counted((grads, first)) == (2, 2)


class TestOptimizer:
    def make(self, lr=0.1):
        cfg = PopularityConfig(max_granularity=0)
        params = ModelParameters(1, 1, 1, cfg, [np.array([[1.0], [2.0]])])
        state = init_optimizer_state(params)
        train_cfg = TrainConfig(learning_rate=lr)
        return params, state, train_cfg

    def test_zero_gradient_is_a_fixed_point(self):
        params, state, cfg = self.make()
        before = params.base_embeddings[0].copy()
        optimizer_step(params, [np.zeros((2, 1))], state, cfg)
        np.testing.assert_array_equal(params.base_embeddings[0], before)

    def test_adaptive_update_matches_hand_recurrence(self):
        params, state, cfg = self.make(lr=0.01)
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

    def test_untouched_table_is_skipped(self):
        """Zero moments and a zero gradient: the table keeps its bits
        (a -0.0 included) and the moments stay exactly zero."""
        params, state, cfg = self.make()
        params.base_embeddings[0][0, 0] = -0.0
        before = params.base_embeddings[0].copy()
        for _ in range(3):
            optimizer_step(params, [np.zeros((2, 1))], state, cfg)
        assert params.base_embeddings[0].tobytes() == before.tobytes()
        assert not state.first_moment[0].any() and not state.second_moment[0].any()
        assert state.step == 3

    def test_zero_gradient_with_moments_still_moves(self):
        params, state, cfg = self.make(lr=0.01)
        grads = [np.array([[1.0], [-2.0]]), np.zeros((2, 1)), np.zeros((2, 1))]
        theta = params.base_embeddings[0].copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t, grad in enumerate(grads, start=1):
            before = params.base_embeddings[0].copy()
            optimizer_step(params, [grad], state, cfg)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            theta = theta - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(params.base_embeddings[0], theta, rtol=1e-12)
            assert np.all(params.base_embeddings[0] != before)

    def test_nonfinite_later_table_aborts_before_any_update(self):
        cfg = PopularityConfig(max_granularity=1)
        tables = [np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])]
        params = ModelParameters(1, 1, 1, cfg, tables)
        state = init_optimizer_state(params)
        before = [t.copy() for t in tables]
        grads = [np.array([[0.5], [-1.0]]), np.array([[0.0], [np.nan]])]
        with pytest.raises(TrainingDivergedError, match="table 1"):
            optimizer_step(params, grads, state, TrainConfig(learning_rate=0.1))
        for table, old in zip(params.base_embeddings, before):
            assert table.tobytes() == old.tobytes()
        assert state.step == 0
        assert not state.first_moment[0].any() and not state.second_moment[0].any()


    @staticmethod
    def one_adam_step(table, grad, lr):
        """A first adaptive step from zero moments, in optimizer_step's
        operation order; returns (table, m, v)."""
        m = grad * (1.0 - 0.9)
        v = grad * (1.0 - 0.999) * grad
        step = m / (1.0 - 0.9) * lr / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
        return table - step, m, v

    def test_huge_gradient_is_not_taken_for_nonfinite(self):
        """The squares of 1e200 overflow to inf; the entries are finite,
        so the step goes on."""
        params, state, cfg = self.make(lr=0.1)
        grad = np.array([[1e200], [-1e200]])
        table = params.base_embeddings[0].copy()
        with np.errstate(over="ignore"):
            optimizer_step(params, [grad], state, cfg)
            want, m, v = self.one_adam_step(table, grad, 0.1)
        assert state.step == 1
        assert params.base_embeddings[0].tobytes() == want.tobytes()
        assert state.first_moment[0].tobytes() == m.tobytes()
        assert state.second_moment[0].tobytes() == v.tobytes()

    def test_tiny_gradient_with_zero_moments_is_applied(self):
        """The squares of 1e-200 underflow to 0; the gradient is not zero,
        so the table is not skipped."""
        cfg = PopularityConfig(max_granularity=0)
        params = ModelParameters(1, 1, 1, cfg, [np.array([[3e-193], [0.0]])])
        state = init_optimizer_state(params)
        grad = np.array([[1e-200], [-1e-200]])
        want, m, v = self.one_adam_step(params.base_embeddings[0].copy(), grad, 0.1)
        optimizer_step(params, [grad], state, TrainConfig(learning_rate=0.1))
        assert np.all(want != [[3e-193], [0.0]])
        assert params.base_embeddings[0].tobytes() == want.tobytes()
        assert state.first_moment[0].tobytes() == m.tobytes()
        assert state.second_moment[0].tobytes() == v.tobytes()

    def test_nonfinite_last_table_message(self):
        cfg = PopularityConfig(max_granularity=2)
        tables = [np.full((2, 1), float(k)) for k in range(3)]
        params = ModelParameters(1, 1, 1, cfg, tables)
        state = init_optimizer_state(params)
        state.step = 4
        before = [t.copy() for t in tables]
        grads = [np.ones((2, 1)), np.ones((2, 1)), np.array([[np.inf], [np.nan]])]
        message = "non-finite gradient for table 2 (2 bad entries) at optimizer step 5"
        with pytest.raises(TrainingDivergedError, match=f"^{re.escape(message)}$"):
            optimizer_step(params, grads, state, TrainConfig(learning_rate=0.1))
        for table, old in zip(params.base_embeddings, before):
            assert table.tobytes() == old.tobytes()
        assert state.step == 4
        assert not any(m.any() or v.any()
                       for m, v in zip(state.first_moment, state.second_moment))


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
        train_cfg = TrainConfig(batch_size=32, seed=20)
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

    def spied_train(self, monkeypatch, epochs=2, eval_every=1):
        """train() through the three phases with evaluation every
        ``eval_every`` epochs, recording in order each propagate (training
        or evaluation output), backward, optimizer step and evaluate call,
        with weak references to the outputs and gradients, and what was
        alive when each call started."""
        cfg = PopularityConfig()
        ds = make_random_dataset(np.random.default_rng(27), 12, 10, max_degree=5,
                                 with_test=True)
        params = init_parameters(12, 10, 4, cfg, seed=27)
        calls = []

        def alive(kind):
            return [ref for k, ref in calls if k == kind and ref() is not None]

        def spy_propagate(*args, retain_chain=True, **kwargs):
            before = {"evaluation outputs": alive("evaluation output")}
            out = propagate(*args, retain_chain=retain_chain, **kwargs)
            calls.append(("before propagate", before))
            calls.append(("training output" if retain_chain else "evaluation output",
                          weakref.ref(out)))
            if out.factor is not None:
                calls.append(("evaluation output", weakref.ref(out.factor)))
            return out

        def spy_backward(*args, **kwargs):
            grads = backward(*args, **kwargs)
            calls.extend(("gradient", weakref.ref(grad)) for grad in grads)
            return grads

        def spy_optimizer_step(params, grads, state, cfg):
            # one weak reference per array: a dead one equals only itself,
            # so arrays made anew never pass for the earlier ones
            calls.append(("optimizer step", tuple(weakref.ref(grad) for grad in grads)))
            return optimizer_step(params, grads, state, cfg)

        def spy_evaluate(*args, **kwargs):
            calls.append(("before evaluate", {"gradients": alive("gradient"),
                                              "training outputs": alive("training output")}))
            return evaluate(*args, **kwargs)

        evaluate = training.evaluation.evaluate
        monkeypatch.setattr(training, "propagate", spy_propagate)
        monkeypatch.setattr(training, "backward", spy_backward)
        monkeypatch.setattr(training, "optimizer_step", spy_optimizer_step)
        monkeypatch.setattr(training.evaluation, "evaluate", spy_evaluate)
        _, records = train(ds, params, PhaseSchedule.uniform(2, epochs),
                           TrainConfig(batch_size=8, seed=27), SelectedLayers(1, 2),
                           eval_ds=ds, eval_every=eval_every, eval_topk=3)
        steps_per_epoch = math.ceil(ds.num_train_interactions / 8)
        assert steps_per_epoch >= 3
        return calls, records, steps_per_epoch

    def test_one_gradient_set_per_epoch(self, monkeypatch):
        """Every step of an epoch hands the optimizer the same arrays, and
        the per-epoch evaluation drops them, so the next epoch makes one
        new set."""
        calls, records, steps = self.spied_train(monkeypatch)
        epochs = [[]]  # each epoch's optimizer steps, cut at its evaluation
        for kind, value in calls:
            if kind == "optimizer step":
                epochs[-1].append(value)
            elif kind == "before evaluate":
                epochs.append([])
        assert epochs.pop() == [] and len(epochs) == len(records) == 6
        assert all(len(epoch) == steps and all(arrays == epoch[0] for arrays in epoch)
                   for epoch in epochs)
        assert epochs[0][0] != epochs[1][0]

    def test_one_gradient_set_without_evaluation(self, monkeypatch):
        calls, records, steps = self.spied_train(monkeypatch, eval_every=0)
        sets = [value for kind, value in calls if kind == "optimizer step"]
        assert len(sets) == 6 * steps and all(arrays == sets[0] for arrays in sets)
        assert len(records) == 6
        assert not any(kind == "evaluation output" for kind, _ in calls)

    def test_evaluation_runs_beside_no_gradient_or_training_output(self, monkeypatch):
        calls, records, _ = self.spied_train(monkeypatch)
        seen = [value for kind, value in calls if kind == "before evaluate"]
        assert len(seen) == len(records) == 6
        assert seen == [{"gradients": [], "training outputs": []}] * 6
        assert sum(kind == "gradient" for kind, _ in calls) > 0

    def test_evaluation_output_is_dead_before_the_next_step(self, monkeypatch):
        calls, records, steps = self.spied_train(monkeypatch)
        seen = [value["evaluation outputs"] for kind, value in calls
                if kind == "before propagate"]
        assert len(seen) == 6 * (steps + 1)  # each epoch's steps and its evaluation
        assert seen == [[]] * len(seen)
        assert sum(kind == "evaluation output" for kind, _ in calls) == 2 * 6

    def test_schedule_parameter_mismatch(self):
        ds, cfg, params = self.small_setup(seed=26, max_granularity=1)
        schedule = PhaseSchedule.uniform(2, 1)
        with pytest.raises(ValueError):
            train(ds, params, schedule, TrainConfig(), SelectedLayers(1, 2))


@pytest.mark.parametrize("name", ["optimizer", "adam_beta1", "adam_beta2", "adam_eps"])
def test_deleted_train_settings_are_refused(name):
    """Training always runs Adam with the module constants; none of them,
    nor the optimizer, is a setting."""
    assert not hasattr(TrainConfig(), name)
    with pytest.raises(TypeError, match=name):
        TrainConfig(**{name: 0.5})


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(l2_coeff=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    nan, inf = float("nan"), float("inf")
    for name, value in [("learning_rate", nan), ("learning_rate", inf), ("l2_coeff", nan),
                        ("l2_coeff", inf)]:
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})
    TrainConfig(l2_coeff=0.0)
