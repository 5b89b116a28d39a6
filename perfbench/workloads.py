"""The benchmark's workloads: input generation, set-up and timed units.

Every workload uses the model and optimizer settings of
``configs/synthetic_study.ini`` (copied below, so an edit to that file does
not silently change the benchmark). The package only ever sees the
generated TSV, manifest and checkpoint files, loaded through its own API.
"""

from __future__ import annotations

import copy
import hashlib
import statistics
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ckml import autodiff as ad
from ckml import dataio, evaluator, model, trainer
from ckml.config import HyperConfig

TOP_N = 10
# Steps per timed unit of step-fullgraph; each unit samples a fresh epoch.
STEP_CHUNK = 4
# Evaluations after each epoch of epoch-large-batch; one takes about 0.1 s,
# too short for a median of three to hold still.
EPOCH_EVALS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "step", "epoch" or "eval"
    users: int
    items: int
    per_user: int       # interactions per user per behavior
    batch_size: int
    precision: str
    setups: int         # set-ups per run; setup_s is their median
    min_units: int      # timed units per untraced run, at least
    trace_units: int    # units per phase (untraced, traced) of a traced run


WORKLOADS = {w.name: w for w in (
    Workload("step-fullgraph", "step", 2000, 4000, 10, 64, "f64",
             setups=3, min_units=2, trace_units=2),
    # synthetic_study.ini's batch of 512: an epoch of the step graph is 75
    # full-graph steps, about 22 s, so a run holds one.
    Workload("epoch-large-batch", "epoch", 2000, 4000, 10, 512, "f32",
             setups=3, min_units=1, trace_units=1),
    # One set-up here costs about 17 s, nearly all of it the O(users x items)
    # eval-negative sampler; two keep a full benchmark pass within its time budget.
    Workload("eval-wide", "eval", 8000, 16000, 5, 64, "f64",
             setups=2, min_units=3, trace_units=4),
)}
# Sizes for the smoke test: 6 planted prototypes leave 100 items each, and
# every user keeps more than 99 eval-negative candidates.
TINY = {"users": 100, "items": 600, "per_user": 5}


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def gen_config(wl: Workload) -> dataio.GenConfig:
    return dataio.GenConfig(
        num_users=wl.users, num_items=wl.items, num_behaviors=2,
        relation_count=2, shared_prototypes=2, specific_prototypes=2,
        interactions_per_user=wl.per_user, correlation=0.2, relation_degree=3)


def hyper_config(wl: Workload, seed: int) -> HyperConfig:
    return HyperConfig(
        embed_dim=16, specific_interests=2, shared_interests=2,
        attention_heads=2, routing_iterations=2, learning_rate=0.01,
        decay_rate=0.995, beta=0.5, reg_lambda=1e-6, epochs=1,
        batch_size=wl.batch_size, precision=wl.precision, seed=seed)


# ------------------------------------------------------------ preparation

def prepare(wl: Workload, seed: int, out_dir: str):
    """Write the workload's input files from the seed alone."""
    cfg = gen_config(wl)
    records, rel_records, _ = dataio.synthesize_records(cfg, seed)
    dataio.write_interactions(f"{out_dir}/interactions.tsv", records)
    dataio.write_relations(f"{out_dir}/relations.tsv", rel_records)
    dataio.write_manifest(
        f"{out_dir}/manifest.txt", num_users=cfg.num_users,
        num_items=cfg.num_items, num_behaviors=cfg.num_behaviors,
        relation_count=cfg.relation_count, target_behavior=cfg.num_behaviors - 1,
        seed=seed, interactions="interactions.tsv", relations="relations.tsv")
    if wl.kind == "eval":
        ds = dataio.assemble_dataset(
            records, rel_records, cfg.num_users, cfg.num_items, cfg.num_behaviors,
            cfg.relation_count, cfg.num_behaviors - 1, seed, eval_negatives=False)
        hyper = hyper_config(wl, seed)
        params = trainer.init_params(hyper, ds)
        fit = trainer.FitResult(params, trainer.Adam(params), best_epoch=0,
                                best_ndcg=0.0)
        trainer.save_fit_checkpoint(f"{out_dir}/model.ckml", fit, ds, hyper,
                                    use_best=False)


# ----------------------------------------------------------------- set-up

@dataclass
class State:
    dataset: object
    ctx: object
    hyper: HyperConfig
    params: OrderedDict
    rng: np.random.Generator | None


def setup(wl: Workload, seed: int, data_dir: str) -> State:
    """What a user pays before the first step or evaluation: load the data,
    build the ModelContext and obtain parameters (fresh or from the
    checkpoint, as `ckml eval` does)."""
    ds = dataio.load_dataset(f"{data_dir}/manifest.txt")
    if wl.kind == "eval":
        ckpt = trainer.load_checkpoint(f"{data_dir}/model.ckml")
        trainer.check_compatible(ckpt, ds)
        hyper = ckpt.hyper()
        params, rng = ckpt.model_params(), None
    else:
        hyper = hyper_config(wl, seed)
        hyper.validate(ds.num_behaviors)
        rng = np.random.default_rng(seed)
        params = trainer.init_params(hyper, ds, rng=rng)
    return State(ds, model.ModelContext(ds, hyper), hyper, params, rng)


# ---------------------------------------------------------------- helpers

def params_hash(params) -> str:
    h = hashlib.sha256()
    for name, arr in params.items():
        h.update(f"{name}:{arr.dtype}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def checked_evaluate(state: State):
    """(hr, ndcg, users) on the target behavior, after the output checks."""
    ds = state.dataset
    report = evaluator.evaluate(state.params, state.ctx, state.hyper, TOP_N)
    hr, ndcg, users = report.per_behavior[ds.target_behavior]
    if users != len(ds.test_positive):
        raise CheckFailed(f"evaluated {users} users, expected {len(ds.test_positive)}")
    if not (0.0 <= hr <= 1.0 and 0.0 <= ndcg <= 1.0):
        raise CheckFailed(f"metric out of [0, 1]: hr={hr} ndcg={ndcg}")
    return float(hr), float(ndcg), int(users)


def expect_equal(what, first, again):
    if first != again:
        raise CheckFailed(f"{what} differs between identical computations: "
                          f"{first!r} != {again!r}")


class _StopTraining(Exception):
    """Raised inside train_epoch once a chunk has taken its steps."""


class StepHook:
    """Stands in for trainer.batch_loss while train_epoch runs: checks that
    every step's loss is finite, keeps the first step's batch and the loss
    and triple count of each step, and ends the epoch after `limit` steps."""

    def __init__(self, limit=None):
        self.limit = limit
        self.first_batch = None
        self.losses = []
        self.triples = []

    def __enter__(self):
        self._original = trainer.batch_loss
        trainer.batch_loss = self
        return self

    def __exit__(self, *exc):
        trainer.batch_loss = self._original
        return False

    def __call__(self, tensors, ctx, hyper, rank_batches, rel_batches):
        if self.limit is not None and len(self.losses) >= self.limit:
            raise _StopTraining
        out = self._original(tensors, ctx, hyper, rank_batches, rel_batches)
        loss = out[0].data
        if not np.isfinite(loss):
            raise CheckFailed(f"non-finite loss {loss!r}")
        if self.first_batch is None:
            self.first_batch = (rank_batches, rel_batches)
        self.losses.append(loss)
        self.triples.append(sum(len(b[0]) for b in rank_batches if b is not None))
        return out


def train(state: State, adam, rng, hook: StepHook):
    """One trainer.train_epoch, cut short by the hook if it has a limit."""
    try:
        trainer.train_epoch(state.params, state.ctx, state.hyper, adam, rng, 0)
    except _StopTraining:
        pass
    return True


def check_trained(state: State, hook: StepHook):
    """Training must lower the loss on the first batch it stepped on; a
    missing or wrong gradient fails this. Returns (before, after)."""
    tensors = {k: ad.Tensor(v) for k, v in state.params.items()}
    after = model.batch_loss(tensors, state.ctx, state.hyper, *hook.first_batch)[0].data
    before = hook.losses[0]
    if not after < before:
        raise CheckFailed(f"training did not lower the first batch's loss: "
                          f"{before!r} -> {after!r}")
    return float(before), float(after)


def fresh_params(params):
    return OrderedDict((k, v.copy()) for k, v in params.items())


# ------------------------------------------------------------ timed loops

# The machine's speed drifts by a third within minutes (other tenants share
# the cores), and a pure-Python loop slows by the same factor as the
# package does. Each timed op is therefore bracketed by this loop and its
# time rescaled to a machine that runs the loop in CAL_REFERENCE_S. The
# loop's best of three ignores blips shorter than the op.
CAL_LOOPS = 50_000
CAL_REFERENCE_S = 0.003


def calibration_seconds():
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CAL_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class _Segments:
    """Time of one op, split at marks. With calibration, each segment is
    rescaled by the calibrations at its two ends, and calibrating is not
    timed."""

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.pieces = []
        self.calibrations = [calibration_seconds()] if calibrate else []
        self._start = time.perf_counter()

    def mark(self):
        elapsed = time.perf_counter() - self._start
        if self.calibrate:
            self.calibrations.append(calibration_seconds())
            elapsed *= CAL_REFERENCE_S / (
                (self.calibrations[-2] + self.calibrations[-1]) / 2)
        self.pieces.append(elapsed)
        self._start = time.perf_counter()


class Ops:
    """Attempted and failed operations. A failure is an exception raised by
    the program (NumericError, an evaluation that raises, ...) or a failed
    output check."""

    def __init__(self, log, calibrate=True):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.calibrations = []
        self._log = log
        self._calibrate = calibrate

    def run(self, what, fn, *args):
        """Call fn; return (result, seconds), or (None, seconds) if it failed.
        Seconds are speed-normalised unless calibration is off."""
        out, pieces = self.run_marked(what, fn, *args)
        return out, sum(pieces)

    def run_marked(self, what, fn, *args, marks=()):
        """Like `run`, but split the time at every call of the functions in
        `marks`, (module, name) pairs such as the step inside an epoch, and
        return the pieces: before the first call, between calls, after the
        last. A long op is normalised piecewise between them."""
        self.attempted += 1
        segments = _Segments(self._calibrate)
        patched = []
        for owner, name in marks:
            original = getattr(owner, name)
            patched.append((owner, name, original))
            setattr(owner, name, _after_mark(segments, original))
        try:
            out = fn(*args)
        except Exception as exc:  # the op boundary: count it, keep measuring
            self.failed += 1
            self.errors.append(f"{what}: {exc!r}")
            self._log(f"{what} failed: {exc!r}")
            out = None
        finally:
            for owner, name, original in patched:
                setattr(owner, name, original)
        segments.mark()
        self.calibrations.extend(segments.calibrations)
        return out, segments.pieces


def _after_mark(segments, fn):
    def marked(*args, **kwargs):
        segments.mark()
        return fn(*args, **kwargs)
    return marked


class Runner:
    """One workload's warm-up and timed unit over a set-up State.

    `warm_up` settles lazy work and records the quality and determinism
    facts; each `unit` returns a list of samples (unit seconds, work
    seconds, work done), or None if it failed. Evaluate calls after the
    warm-up one are timed into `eval_seconds`.
    """

    def __init__(self, wl: Workload, seed: int, state: State, ops: Ops):
        self.wl, self.seed, self.state, self.ops = wl, seed, state, ops
        self.eval_seconds = []
        self.facts = {}
        self.target_ndcg = None
        self._first = None

    def evaluate(self, state=None, timed=True):
        out, dt = self.ops.run("evaluate", checked_evaluate, state or self.state)
        if out is not None:
            if timed:
                self.eval_seconds.append(dt)
            if self._first is None:
                self._first = out
            else:
                self.ops.run("evaluate determinism", expect_equal,
                             "evaluation", self._first, out)
        return out

    def _train(self, what, adam, rng, limit=None):
        """train_epoch under a StepHook, its time split at every step.
        Returns (hook, pieces), or (None, pieces) if it failed."""
        with StepHook(limit) as hook:
            out, pieces = self.ops.run_marked(
                what, train, self.state, adam, rng, hook,
                marks=[(trainer, "batch_loss")])
        return (hook if out else None), pieces

    def _check_trained(self, hook):
        out, _ = self.ops.run("training progress", check_trained, self.state, hook)
        self.facts["first_batch_loss"] = out

    def _repeat_steps(self, steps):
        """`steps` steps from the set-up parameters, taken twice from the
        same start; the two must agree bitwise. Returns the second's
        (hook, adam) and leaves its parameters in the state."""
        st = self.state
        init, rng = st.params, st.rng
        runs = []
        for _ in range(2):
            st.params = fresh_params(init)
            st.rng = copy.deepcopy(rng)
            adam = trainer.Adam(st.params)
            hook, _ = self._train("step", adam, st.rng, limit=steps)
            runs.append((params_hash(st.params),
                         [repr(x) for x in hook.losses] if hook else None))
        self.ops.run("training determinism", expect_equal, "trained parameters",
                     runs[0], runs[1])
        # A fact, not a check: precision=f32 still yields a float64 loss.
        self.facts["loss_dtype"] = str(hook.losses[-1].dtype) if hook else None
        return hook, adam

    # --- step-fullgraph: optimizer steps on a full-graph forward/backward

    def _warm_step(self):
        st = self.state
        hook, self._adam = self._repeat_steps(2)
        if hook:
            self._check_trained(hook)
        self.facts["param_sha256"] = params_hash(st.params)
        # Each chunk of steps is followed by an evaluation of this snapshot,
        # so the evaluations see the same drift in machine speed as the steps.
        self._snapshot = replace(st, params=fresh_params(st.params))
        out = self.evaluate(self._snapshot, timed=False)
        self.target_ndcg = out[1] if out else None

    def _step(self):
        """A chunk of STEP_CHUNK steps of a fresh epoch; each step is timed
        from its batch_loss call to the next."""
        st = self.state
        hook, pieces = self._train("steps", self._adam, st.rng, limit=STEP_CHUNK)
        self.evaluate(self._snapshot)
        if hook is None:
            return None
        return [(dt, dt, n) for dt, n in zip(pieces[1:], hook.triples)]

    # --- epoch-large-batch: whole train_epoch calls, each followed by evaluate

    def _warm_epoch(self):
        self._repeat_steps(1)
        # Gated quality is that of the model after this one warm-up step:
        # after a whole epoch, NDCG depends on how far the seed's model has
        # started to learn and spreads by a fifth over ten seeds, too close
        # to the largest allowed bound. The trained value stays in the facts,
        # exact for the seed, and the training-progress check fails an epoch
        # that does not train.
        out = self.evaluate(timed=False)
        self.target_ndcg = out[1] if out else None
        self._first = None  # units compare against the first trained model

    def _epoch(self):
        st = self.state
        rng = np.random.default_rng(self.seed)
        st.params = trainer.init_params(st.hyper, st.dataset, rng=rng)
        hook, pieces = self._train("epoch", trainer.Adam(st.params), rng)
        out = self.evaluate() if hook is not None else None
        if out is None:
            return None
        digest = params_hash(st.params)
        if "param_sha256" not in self.facts:
            self._check_trained(hook)
            self.facts["param_sha256"] = digest
            self.facts["trained_ndcg10"] = out[1]
        else:
            self.ops.run("training determinism", expect_equal, "trained parameters",
                         self.facts["param_sha256"], digest)
        for _ in range(EPOCH_EVALS - 1):
            self.evaluate()
        train_s = sum(pieces)
        eval_s = median(self.eval_seconds[-EPOCH_EVALS:])
        return [(train_s + eval_s, train_s, sum(hook.triples))]

    # --- eval-wide: the evaluation step of `ckml eval`

    def _warm_eval(self):
        self.facts["param_sha256"] = params_hash(self.state.params)
        out = self.evaluate(timed=False)
        self.target_ndcg = out[1] if out else None

    def _eval(self):
        out = self.evaluate()
        if out is None:
            return None
        dt = self.eval_seconds[-1]
        return [(dt, dt, out[2])]

    def warm_up(self):
        {"step": self._warm_step, "epoch": self._warm_epoch,
         "eval": self._warm_eval}[self.wl.kind]()

    def unit(self):
        return {"step": self._step, "epoch": self._epoch,
                "eval": self._eval}[self.wl.kind]()


def median(values):
    """Median, or 0.0 when every sample failed (the run then reports failures)."""
    return statistics.median(values) if values else 0.0
