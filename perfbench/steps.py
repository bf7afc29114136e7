"""The training step exactly as ``jmpgcf.train`` runs it, one public call at a time.

``train()`` cannot be timed per stage from outside, so the benchmark
drives the same calls itself: ``TripleSampler.sample`` -> ``propagate``
-> ``separated_bpr_loss`` -> ``backward(transposed=...)`` ->
``optimizer_step``, in that order, drawing from one generator seeded
with ``TrainConfig.seed``.  ``test_step_driver.py`` pins this to
``train()`` bit for bit.
"""

from __future__ import annotations

import math
import time

import numpy as np

from jmpgcf import (
    PhaseSchedule,
    TrainingDivergedError,
    backward,
    init_optimizer_state,
    optimizer_step,
    propagate,
    separated_bpr_loss,
)


class StepDriver:
    """Runs optimizer steps on ``params`` in place, phase by phase."""

    def __init__(self, params, matrices, transposed, layers, sampler, cfg, tracer):
        self.params = params
        self.matrices = matrices
        self.transposed = transposed
        self.layers = layers
        self.sampler = sampler
        self.cfg = cfg
        self.tracer = tracer
        self.schedule = PhaseSchedule.uniform(params.popularity.max_granularity, 1)
        self.rng = np.random.default_rng(cfg.seed)
        self.state = init_optimizer_state(params)
        self.steps = []  # (phase, loss, seconds) per step
        self.batches = []
        self.chain_bytes = 0

    def step(self, phase):
        cfg, span = self.cfg, self.tracer.span
        active = self.schedule.active_granularities(phase)
        started = time.perf_counter()
        with span("bench.step"):
            with span("training.sample"):
                batch = self.sampler.sample(cfg.batch_size, self.rng)
            with span("model.propagate"):
                out = propagate(self.params, self.matrices, self.layers, granularities=active)
            with span("training.separated_bpr_loss"):
                loss = separated_bpr_loss(out, batch, active, cfg.l2_coeff, cfg.full_matrix_reg)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at step {len(self.steps) + 1}")
            with span("training.backward"):
                grads = backward(
                    out, batch, active, cfg.l2_coeff, cfg.full_matrix_reg, self.transposed
                )
            with span("training.optimizer_step"):
                optimizer_step(self.params, grads, self.state, cfg)
        seconds = time.perf_counter() - started
        self.steps.append((phase, loss, seconds))
        self.batches.append(batch)
        arrays = {id(a): a.nbytes for chain in out.chains for a in chain if a is not None}
        self.chain_bytes = max(self.chain_bytes, sum(arrays.values()))
        return loss

    def run(self, steps_per_phase):
        """``steps_per_phase[p - 1]`` steps in phase p, phases in order."""
        for phase, count in enumerate(steps_per_phase, start=1):
            for _ in range(count):
                self.step(phase)
        return [loss for _, loss, _ in self.steps]
