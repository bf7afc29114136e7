"""The benchmark's workloads.

Both workloads train and evaluate, so each reports every end-to-end
metric, but they stress different layers:

* ``gowalla``: the Gowalla-shaped graph.  The equal-phase training step
  plan (sparse multiplies over a working set far larger than L3; a batch
  touches ~8% of the rows), and propagation plus full-ranking
  evaluation of the trained model, read back from its checkpoint, on a
  seeded user sample (score GEMMs and per-user top-K).
* ``planted-schedule``: one real ``train()`` call over the whole
  three-phase schedule on a small planted-block graph that fits in
  cache, with per-epoch evaluation, the metrics sink and checkpoints
  (fixed per-call costs dominate; a batch touches nearly every row),
  plus the same step plan and evaluation on that graph.

After set-up a workload runs rounds until ``seconds`` have passed (at
least two): each round runs every measured job once, from the same
state, so every job's samples spread over the whole run and a burst of
load on the machine hits few of them.  Metrics are medians over the
samples, and every repetition must give the same numbers.  A traced run
makes three rounds, the middle one traced; the tracing overhead is the
traced round's time against the mean of the other two.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import scipy

import gen
from spans import Tracer
from steps import StepDriver
from jmpgcf import (
    InteractionDataset,
    LayerSelectionConfig,
    ModelParameters,
    PhaseSchedule,
    PopularityConfig,
    SelectedLayers,
    TrainConfig,
    TripleSampler,
    build_adjacency,
    build_normalized_adjacency,
    evaluate,
    hop_coverages,
    init_parameters,
    load_checkpoint,
    load_dataset,
    propagate,
    rank_user,
    save_checkpoint,
    score_all_items,
    select_layers,
    spmm,
    train,
    transpose,
)

TOPK = 20
EMBED_DIM = 64
POPULARITY = PopularityConfig(granularity_unit=0.1, max_granularity=2)
PLANTED_LAYERS = SelectedLayers(3, 4)
# planted-schedule: train() budget, and the held-out Recall@20 it must reach
PLANTED_EPOCHS_PER_PHASE = 1
PLANTED_RECALL_FLOOR = 0.9
# users scored per evaluation pass (in EVAL_CHUNKS evaluate calls), users
# checked against the brute force, and users whose rank_user call is timed
GOWALLA_EVAL_USERS = 2048
EVAL_CHUNKS = 4
CHECK_USERS = 32
RANK_USERS = 256
PLANTED_STEPS_PER_PHASE = 4
SPMM_REPEATS = 5
CHECKPOINT_REPEATS = 3


class ShapeError(RuntimeError):
    """The input graph is not the shape the workload is defined on."""


@dataclass
class Setup:
    ds: InteractionDataset
    layers: SelectedLayers
    matrices: list
    transposed: dict
    adjacency: object
    sampler: TripleSampler
    params: ModelParameters


class Run:
    """One benchmark process: its arguments, checks, metrics and spans."""

    def __init__(self, seed, seconds, trace, workdir, data_dir, nproc):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.data_dir = data_dir
        self.nproc = nproc
        self.workers = nproc  # evaluation threads, each with one BLAS thread
        self.tracer = Tracer(trace)
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.metrics = {}
        self.info = {}
        self.env = {}

    def check(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"check": name, "ok": bool(ok), "detail": str(detail)})

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def rounds(self, jobs):
        """Run every ``job(traced)`` once per round until ``seconds`` have
        passed, at least twice (three times in a traced run, the middle
        round traced); returns one result list per job."""
        results = [[] for _ in jobs]
        started = time.perf_counter()
        while len(results[0]) < (3 if self.trace else 2) or (
            not self.trace and time.perf_counter() - started < self.seconds
        ):
            traced = self.trace and len(results[0]) == 1
            self.tracer.enabled = traced
            for job, out in zip(jobs, results):
                out.append(job(traced))
            self.tracer.enabled = self.trace
        return results


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_threads():
    """Threads of the OpenBLAS bundled with numpy, as it reports them."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None


def _l3_bytes():
    """L3 size from glibc's sysconf (Python has no name for it), or None."""
    try:
        return os.sysconf(194) or None  # _SC_LEVEL3_CACHE_SIZE
    except (ValueError, OSError):
        return None


def record_environment(run):
    blas = _openblas_threads()
    run.env = {
        "nproc": run.nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "openblas_threads": blas,
        "eval_workers": run.workers,
        "l3_bytes": _l3_bytes(),
    }
    run.check("threads within nproc", (blas or 1) * run.workers <= run.nproc,
              f"{blas} BLAS thread(s) x {run.workers} evaluation worker(s), nproc {run.nproc}")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _input_files(run, shape):
    if run.data_dir is not None:
        paths = tuple(os.path.join(run.data_dir, f) for f in ("train.txt", "test.txt"))
        run.info["data"] = {"source": os.path.abspath(run.data_dir)}
        return paths
    make = gen.gowalla_lists if shape == "gowalla" else gen.planted_lists
    train_lists, test_lists = make(run.seed)
    run.info["data"] = {"source": f"synthetic {shape}, seed {run.seed}"}
    return gen.write_lists(run.workdir, train_lists, test_lists)


def _check_gowalla_shape(run, ds):
    test_total = sum(len(t) for t in ds.test)
    run.info["data"].update(users=ds.num_users, items=ds.num_items,
                            train=ds.num_train_interactions, test=test_total)

    def near(got, want):
        return abs(got - want) <= gen.GOWALLA_TOLERANCE * want

    ok = (ds.num_users == gen.GOWALLA_USERS and ds.num_items == gen.GOWALLA_ITEMS
          and near(ds.num_train_interactions, gen.GOWALLA_TRAIN)
          and near(test_total, gen.GOWALLA_TEST))
    detail = (f"{ds.num_users} users, {ds.num_items} items, {ds.num_train_interactions} train, "
              f"{test_total} test")
    run.check("gowalla shape", ok, detail)
    if not ok:
        raise ShapeError(f"not the Gowalla shape: {detail}")


def _build_graph(run, ds):
    span = run.tracer.span
    with span("bench.build_graph"):
        with span("graph.build_adjacency"):
            adjacency = build_adjacency(ds)
        matrices = []
        for k in range(POPULARITY.num_granularities):
            with span("graph.build_normalized_adjacency"):
                matrices.append(build_normalized_adjacency(adjacency, k, POPULARITY))
        transposed = {}
        for k, mat in enumerate(matrices):
            with span("graph.transpose"):
                transposed[k] = transpose(mat)
    return adjacency, matrices, transposed


def _timed_setup(run, setup_once):
    """One timed set-up; its seconds go to ``run.info["setup_s_each"]``."""
    started = time.perf_counter()
    with run.tracer.span("bench.setup"):
        setup = setup_once()
    run.info.setdefault("setup_s_each", []).append(time.perf_counter() - started)
    run.env["matrix_nnz"] = setup.matrices[0].nnz
    return setup


def _timed_setups(run, setup_once, repeats):
    """``repeats`` timed set-ups (one in a traced run); returns the last."""
    for _ in range(1 if run.trace else repeats):
        setup = _timed_setup(run, setup_once)
    return setup


def _setup_metric(run):
    if not run.trace:
        run.metric("setup_s", statistics.median(run.info["setup_s_each"]), "s")


def _clone(params):
    return ModelParameters(
        num_users=params.num_users,
        num_items=params.num_items,
        embed_dim=params.embed_dim,
        popularity=params.popularity,
        base_embeddings=[t.copy() for t in params.base_embeddings],
        shared_base=params.shared_base,
    )


def _restrict(ds, users):
    """``ds`` with held-out items kept only for ``users``."""
    keep = set(users)
    empty = np.empty(0, dtype=np.int64)
    test = tuple(t if u in keep else empty for u, t in enumerate(ds.test))
    return InteractionDataset(ds.num_users, ds.num_items, ds.train, test,
                              ds.num_train_interactions)


def _sample_users(ds, count, seed):
    """``count`` seeded users with held-out items, in ascending order."""
    evaluable = np.flatnonzero([len(t) > 0 for t in ds.test])
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(evaluable, size=min(count, evaluable.size), replace=False).tolist())


def _brute_force(out, ds, users, weights):
    """Mean Recall@K / NDCG@K by full argsort (ties by ascending item index)."""
    m = ds.num_users
    recalls, ndcgs = [], []
    for u in users:
        scores = np.zeros(ds.num_items)
        for k in range(out.num_granularities):
            for layer in (out.layers.l_odd, out.layers.l_even):
                emb = out.chains[k][layer]
                scores += weights[k] * (emb[m:] @ emb[u])
        scores[ds.train[u]] = -np.inf
        top = np.argsort(-scores, kind="stable")[:TOPK]
        relevant = set(ds.test[u].tolist())
        hits = [item in relevant for item in top.tolist()]
        recalls.append(sum(hits) / len(relevant))
        dcg = sum(1.0 / math.log2(p + 2) for p, hit in enumerate(hits) if hit)
        idcg = sum(1.0 / math.log2(p + 2) for p in range(min(len(relevant), TOPK)))
        ndcgs.append(dcg / idcg)
    return float(np.mean(recalls)), float(np.mean(ndcgs))


class Plan:
    """Repetitions of the equal-phase step plan from the same initial tables."""

    def __init__(self, run, setup, steps_per_phase):
        self.run = run
        self.setup = setup
        self.steps_per_phase = steps_per_phase
        self.driver = None  # the traced repetition's, else the latest

    def __call__(self, traced):
        run, setup = self.run, self.setup
        if traced or not run.trace:
            self.driver = None  # let the previous repetition's memory go first
        driver = StepDriver(_clone(setup.params), setup.matrices, setup.transposed,
                            setup.layers, setup.sampler, TrainConfig(seed=run.seed), run.tracer)
        started = time.perf_counter()
        with run.tracer.span("bench.plan"):
            losses = driver.run((self.steps_per_phase,) * POPULARITY.num_granularities)
        seconds = time.perf_counter() - started
        run.attempted += len(losses)
        if self.driver is None:
            self.driver = driver
        return driver.steps, seconds

    def finish(self, reps):
        """Checks and metrics over the repetitions ``[(steps, seconds)]``."""
        run = self.run
        losses = [[loss for _, loss, _ in steps] for steps, _ in reps]
        run.check("plan loss sequence repeats", all(seq == losses[0] for seq in losses), losses)
        if not run.trace:
            # phases x batch / sum over phases of the median step seconds
            steps = [step for steps, _ in reps for step in steps]
            medians = [statistics.median(s for p, _, s in steps if p == phase)
                       for phase in range(1, POPULARITY.num_granularities + 1)]
            run.metric("train_triples_per_s",
                       len(medians) * self.driver.cfg.batch_size / sum(medians), "triples/s")
        run.info["plan"] = {"steps_per_phase": self.steps_per_phase, "losses": losses[0],
                            "seconds_each": [w for _, w in reps],
                            "step_seconds_each": [[s for _, _, s in st] for st, _ in reps]}


class Evaluation:
    """Passes of propagate(retain_chain=False) + evaluate over fixed users.

    A pass evaluates the users in EVAL_CHUNKS interleaved chunks, one
    ``evaluate`` call each, so ``eval_users_per_s`` = users / (median
    propagate seconds + sum over chunks of the median chunk seconds) rests
    on many short timings.  ``params`` is set before the first pass.
    """

    def __init__(self, run, setup, ds, users):
        self.run = run
        self.setup = setup
        self.ds = ds
        self.users = users
        self.chunks = [_restrict(ds, users[c::EVAL_CHUNKS]) for c in range(EVAL_CHUNKS)]
        self.params = None
        self.out = None

    def __call__(self, traced):
        run, span = self.run, self.run.tracer.span
        with span("bench.eval_pass"):
            started = time.perf_counter()
            with span("model.propagate"):
                self.out = propagate(self.params, self.setup.matrices, self.setup.layers,
                                     retain_chain=False)
            propagate_s = time.perf_counter() - started
            reports, evaluate_s = [], []
            for chunk in self.chunks:
                started = time.perf_counter()
                with span("evaluation.evaluate"):
                    reports.append(evaluate(self.params, self.out, chunk, TOPK,
                                            workers=run.workers))
                evaluate_s.append(time.perf_counter() - started)
        run.attempted += 1
        return reports, propagate_s, evaluate_s

    def finish(self, passes):
        """Checks and metrics over the passes; returns users per pass."""
        run, out, params = self.run, self.out, self.params
        reports = [r for r, _, _ in passes]
        run.check("eval metrics repeat", all(r == reports[0] for r in reports),
                  [[(c.recall, c.ndcg) for c in r] for r in reports])
        seconds = statistics.median(p for _, p, _ in passes) + sum(
            statistics.median(e[c] for _, _, e in passes) for c in range(EVAL_CHUNKS))
        evaluated = sum(c.num_users_evaluated for c in reports[0])
        if not run.trace:
            run.metric("eval_users_per_s", evaluated / seconds, "users/s")
        checked = self.users[:CHECK_USERS]
        report = evaluate(params, out, _restrict(self.ds, checked), TOPK, workers=run.workers)
        expected = _brute_force(out, self.ds, checked, params.popularity.granularity_weights)
        run.check("evaluate matches brute force",
                  abs(report.recall - expected[0]) <= 1e-12
                  and abs(report.ndcg - expected[1]) <= 1e-12,
                  f"evaluate {(report.recall, report.ndcg)} brute force {expected}")
        run.info["eval"] = {
            "users_per_pass": evaluated,
            "propagate_seconds_each": [p for _, p, _ in passes],
            "evaluate_seconds_each": [e for _, _, e in passes],
            "recall_at_20": sum(c.recall * c.num_users_evaluated for c in reports[0]) / evaluated,
            "ndcg_at_20": sum(c.ndcg * c.num_users_evaluated for c in reports[0]) / evaluated,
        }
        return evaluated


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

def _matrix_bytes(mat):
    return mat.values.nbytes + mat.col_indices.nbytes + mat.row_offsets.nbytes


def _support1_share(adjacency, rows):
    csr = adjacency.to_scipy()
    touched = np.zeros(csr.shape[0], dtype=bool)
    touched[rows] = True
    touched[csr[rows].indices] = True
    return touched.mean()


def _layer_metrics(run, setup, plan, evaluation, evaluated, overhead):
    tr, metric = run.tracer, run.metric
    tr.enabled = True
    span = tr.span
    ds = setup.ds
    rows = ds.num_users + ds.num_items
    driver, params, out = plan.driver, evaluation.params, evaluation.out

    if not tr.self_times("layers.hop_coverages"):
        with span("layers.hop_coverages"):
            hop_coverages(ds, LayerSelectionConfig())
    for _ in range(SPMM_REPEATS):
        with span("graph.spmm"):
            spmm(setup.matrices[0], params.base_embeddings[0])
    for _ in range(CHECKPOINT_REPEATS):
        path = os.path.join(run.workdir, "layer.ckpt")
        with span("model.save_checkpoint"):
            save_checkpoint(path, params, setup.layers, POPULARITY.num_granularities, 1)
        with span("model.load_checkpoint"):
            load_checkpoint(path)
    with span("bench.evaluate_1worker"), span("evaluation.evaluate"):
        evaluate(params, out, _restrict(ds, evaluation.users), TOPK, workers=1)
    for u in evaluation.users[:RANK_USERS]:
        scores = score_all_items(out, u)
        with span("evaluation.rank_user"):
            rank_user(scores, ds.train[u], TOPK)

    def med(name, parent=None):
        return statistics.median(tr.self_times(name, parent))

    def per_step(name):
        return sum(tr.self_times(name, "bench.step")) / len(driver.steps)

    metric("data.load_s", med("data.load_dataset"), "s")
    metric("layers.hop_coverages_s", med("layers.hop_coverages"), "s")
    metric("graph.build_s", statistics.median(tr.durations("bench.build_graph")), "s")
    stored = [*setup.matrices, *setup.transposed.values()]
    metric("graph.matrix_mb", sum(_matrix_bytes(m) for m in stored) / 1e6, "MB")
    metric("graph.spmm_hop_s", med("graph.spmm"), "s")
    depth = setup.layers.depth
    hops = [2 * depth * len(driver.schedule.active_granularities(phase))
            for phase, _, _ in driver.steps]
    metric("graph.spmm_hops_per_step", sum(hops) / len(hops), "count")
    a0 = setup.matrices[0]
    metric("graph.spmm_flops_per_hop", 2 * a0.nnz * EMBED_DIM, "flop")
    metric("graph.spmm_bytes_per_hop",
           _matrix_bytes(a0) + 2 * rows * EMBED_DIM * 8, "B")
    metric("model.propagate_s", per_step("model.propagate"), "s")
    metric("model.chain_mb", driver.chain_bytes / 1e6, "MB")
    metric("model.checkpoint_save_s", med("model.save_checkpoint"), "s")
    metric("model.checkpoint_load_s", med("model.load_checkpoint"), "s")
    metric("training.sample_s", per_step("training.sample"), "s")
    metric("training.loss_s", per_step("training.separated_bpr_loss"), "s")
    metric("training.backward_s", per_step("training.backward"), "s")
    metric("training.optimizer_s", per_step("training.optimizer_step"), "s")
    for phase in range(1, POPULARITY.num_granularities + 1):
        metric(f"training.step_s.phase{phase}",
               statistics.median(s for p, _, s in driver.steps if p == phase), "s")
    batch_rows = [np.unique(np.concatenate([b.users, ds.num_users + b.pos_items,
                                            ds.num_users + b.neg_items]))
                  for b in driver.batches]
    metric("training.batch_rows_share", np.mean([r.size / rows for r in batch_rows]), "ratio")
    metric("training.batch_support1_share",
           np.mean([_support1_share(setup.adjacency, r) for r in batch_rows]), "ratio")
    metric("evaluation.evaluate_s", sum(tr.self_times("evaluation.evaluate", "bench.eval_pass")), "s")
    metric("evaluation.evaluate_1worker_s",
           med("evaluation.evaluate", "bench.evaluate_1worker"), "s")
    metric("evaluation.rank_user_us", 1e6 * med("evaluation.rank_user"), "us")
    terms = POPULARITY.num_granularities * 2
    metric("evaluation.score_gflop", 2 * evaluated * ds.num_items * EMBED_DIM * terms / 1e9,
           "GFLOP")
    metric("trace.overhead_share", overhead, "ratio")
    run.info["self_s_by_layer"] = tr.self_time_by_layer()


def _overhead(seconds):
    """Tracing overhead from the (untraced, traced, untraced) rounds."""
    untraced = (seconds[0] + seconds[2]) / 2
    return (seconds[1] - untraced) / untraced


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def gowalla(run):
    paths = _input_files(run, "gowalla")
    span = run.tracer.span

    def setup_once():
        with span("data.load_dataset"):
            ds = load_dataset(*paths)
        selection = LayerSelectionConfig()
        with span("layers.hop_coverages"):
            coverages = hop_coverages(ds, selection)
        with span("layers.select_layers"):
            layers = select_layers(ds, selection, coverages=coverages)
        adjacency, matrices, transposed = _build_graph(run, ds)
        with span("training.TripleSampler"):
            sampler = TripleSampler(ds)
        with span("model.init_parameters"):
            params = init_parameters(ds.num_users, ds.num_items, EMBED_DIM, POPULARITY, run.seed)
        return Setup(ds, layers, matrices, transposed, adjacency, sampler, params)

    setup = _timed_setups(run, setup_once, repeats=2)
    _setup_metric(run)
    _check_gowalla_shape(run, setup.ds)
    chosen = (setup.layers.l_odd, setup.layers.l_even)
    run.check("select_layers gives (3, 4)", chosen == (3, 4), chosen)
    if chosen != (3, 4):
        raise ShapeError(f"select_layers chose {chosen}, not (3, 4)")

    plan = Plan(run, setup, 1)
    evaluation = Evaluation(run, setup, setup.ds, _sample_users(setup.ds, GOWALLA_EVAL_USERS,
                                                                run.seed))

    def evaluate_trained(traced):
        if evaluation.params is None:
            # evaluate the way `jmpgcf evaluate` does: from the checkpoint
            ckpt = os.path.join(run.workdir, "trained.ckpt")
            trained = plan.driver.params
            save_checkpoint(ckpt, trained, setup.layers, POPULARITY.num_granularities, 0)
            evaluation.params = load_checkpoint(ckpt).params
            run.check("checkpoint round trip", all(
                np.array_equal(a, b)
                for a, b in zip(evaluation.params.base_embeddings, trained.base_embeddings)))
        return evaluation(traced)

    reps, passes = run.rounds([plan, evaluate_trained])
    plan.finish(reps)
    if not run.trace:
        run.metric("schedule_s", statistics.median(w for _, w in reps), "s")
    evaluated = evaluation.finish(passes)
    if run.trace:
        _layer_metrics(run, setup, plan, evaluation, evaluated, _overhead([w for _, w in reps]))


def planted_schedule(run):
    paths = _input_files(run, "planted")
    span = run.tracer.span

    def setup_once():
        with span("data.load_dataset"):
            ds = load_dataset(*paths)
        adjacency, matrices, transposed = _build_graph(run, ds)
        with span("training.TripleSampler"):
            sampler = TripleSampler(ds)
        with span("model.init_parameters"):
            params = init_parameters(ds.num_users, ds.num_items, EMBED_DIM, POPULARITY, run.seed)
        return Setup(ds, PLANTED_LAYERS, matrices, transposed, adjacency, sampler, params)

    setup = _timed_setups(run, setup_once, repeats=3)
    ds = setup.ds
    run.info["data"].update(users=ds.num_users, items=ds.num_items,
                            train=ds.num_train_interactions,
                            test=sum(len(t) for t in ds.test))
    schedule = PhaseSchedule.uniform(POPULARITY.max_granularity, PLANTED_EPOCHS_PER_PHASE)
    users = [u for u in range(ds.num_users) if len(ds.test[u])]
    evaluation = Evaluation(run, setup, ds, users)
    outputs = []  # the first schedule's trained tables and output directory

    def schedule_job(traced):
        out_dir = tempfile.mkdtemp(prefix="schedule-", dir=run.workdir)
        started = time.perf_counter()
        with span("training.train"):
            params, records = train(ds, _clone(setup.params), schedule, TrainConfig(seed=run.seed),
                                    setup.layers, matrices=setup.matrices, eval_ds=ds,
                                    eval_every=1, eval_topk=TOPK,
                                    metrics_path=os.path.join(out_dir, "metrics.jsonl"),
                                    checkpoint_dir=out_dir)
        seconds = time.perf_counter() - started
        run.attempted += len(records)
        if not outputs:
            outputs.extend([params, out_dir])
            evaluation.params = params
        return records, seconds

    def setup_job(traced):
        # set-up takes ~0.1 s here, so it also repeats once per round, and its
        # samples spread over the run like those of the measured jobs
        _timed_setup(run, setup_once)

    plan = Plan(run, setup, PLANTED_STEPS_PER_PHASE)
    schedules, reps, passes, _ = run.rounds([schedule_job, plan, evaluation, setup_job])
    _setup_metric(run)

    stripped = [[{k: v for k, v in r.items() if k != "wallclock_s"} for r in records]
                for records, _ in schedules]
    run.check("schedule records repeat", all(s == stripped[0] for s in stripped), stripped[0])
    recall = stripped[0][-1][f"recall@{TOPK}"]
    run.check("recall@20 reaches the floor", recall >= PLANTED_RECALL_FLOOR,
              f"{recall} >= {PLANTED_RECALL_FLOOR}")
    params, out_dir = outputs
    written = sorted(os.listdir(out_dir))
    expected = sorted(["metrics.jsonl", "checkpoint_final.ckpt"]
                      + [f"checkpoint_phase{p}.ckpt" for p in range(1, schedule.num_phases + 1)])
    run.check("schedule outputs written", written == expected, written)
    with open(os.path.join(out_dir, "metrics.jsonl"), encoding="ascii") as fh:
        logged = [json.loads(line) for line in fh]
    run.check("metrics.jsonl holds the epoch records",
              [{k: v for k, v in r.items() if k != "wallclock_s"} for r in logged] == stripped[0])
    trained = load_checkpoint(os.path.join(out_dir, "checkpoint_final.ckpt")).params
    run.check("final checkpoint holds the trained tables",
              all(np.array_equal(a, b)
                  for a, b in zip(trained.base_embeddings, params.base_embeddings)))
    standalone = evaluate(params, evaluation.out, ds, TOPK, workers=run.workers).recall
    run.check("standalone evaluate matches the schedule's last epoch",
              standalone == recall, (standalone, recall))
    if not run.trace:
        run.metric("schedule_s", statistics.median(s for _, s in schedules), "s")
    run.info["schedule"] = {"epochs_per_phase": PLANTED_EPOCHS_PER_PHASE,
                            "seconds_each": [s for _, s in schedules], "records": stripped[0]}

    plan.finish(reps)
    evaluated = evaluation.finish(passes)
    if run.trace:
        _layer_metrics(run, setup, plan, evaluation, evaluated,
                       _overhead([s for _, s in schedules]))


WORKLOADS = {
    "gowalla": gowalla,
    "planted-schedule": planted_schedule,
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
