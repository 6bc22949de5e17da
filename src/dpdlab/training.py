"""Adam optimizer, segment-based training with early stopping, and a
finite-difference gradient checker.

Training operates on (input, target) sequence pairs cut into contiguous
equal-length segments.  Every fifth segment is held out for validation; the
rest are shuffled each epoch (seeded) and processed in accumulated batches.
Each segment is treated as an independent sequence, so only its interior
(TapWindow.interior) counts in the loss and the validation score.  The
best-validation parameters are restored at the end, and the pre-training state
is recorded as epoch 0, so a trained model can never end worse than it started
on validation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .exceptions import TrainingDivergedError
from .rules import check, check_all
from .signal import ComplexSequence, FramedSequence, TapWindow, as_samples, nmse_db

VAL_EVERY = 5


@dataclass(frozen=True)
class TrainConfig:
    """Adam and training-loop settings; each keeps the rule of its name."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 50
    segment_len: int = 1024
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        check_all(**vars(self))


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n_params: int) -> "AdamState":
        return cls(first_moment=np.zeros(n_params), second_moment=np.zeros(n_params))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              cfg: TrainConfig) -> tuple[AdamState, np.ndarray]:
    """One Adam update with bias-corrected moments; returns new state and params."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError("params, grads and state shapes must all match")
    step = state.step + 1
    m = cfg.beta1 * state.first_moment + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * state.second_moment + (1.0 - cfg.beta2) * grads * grads
    m_hat = m / (1.0 - cfg.beta1 ** step)
    v_hat = v / (1.0 - cfg.beta2 ** step)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return AdamState(first_moment=m, second_moment=v, step=step), new_params


@dataclass
class TrainHistory:
    """Per-epoch record; epoch 0 is the untouched starting model."""

    epochs: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_nmse_db: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    def best_val_nmse_db(self) -> float:
        return self.val_nmse_db[self.epochs.index(self.best_epoch)]

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_nmse_db"]
        for epoch, loss, val in zip(self.epochs, self.train_loss, self.val_nmse_db):
            lines.append(f"{epoch},{loss:.12e},{val:.6f}")
        return "\n".join(lines) + "\n"


def segment_ranges(n_samples: int, segment_len: int) -> list[tuple[int, int]]:
    """Contiguous equal-length segments; a short tail is dropped."""
    check("segment_len", segment_len)
    n_full = n_samples // segment_len
    return [(i * segment_len, (i + 1) * segment_len) for i in range(n_full)]


def split_segments(segments: list) -> tuple[list, list]:
    """Deterministic 80/20 split: every fifth segment goes to validation."""
    if len(segments) < 2:
        raise ValueError("need at least two segments (one training, one validation)")
    val_idx = {i for i in range(len(segments)) if i % VAL_EVERY == VAL_EVERY - 1}
    if not val_idx:
        val_idx = {len(segments) - 1}
    train = [segments[i] for i in range(len(segments)) if i not in val_idx]
    val = [segments[i] for i in sorted(val_idx)]
    return train, val


def segment_pairs(psi, phi, window: TapWindow, segment_len: int) -> tuple[list, list]:
    """Cut equal-length (input, target) sequences into segments and split them
    (split_segments) into training and validation (input, target) pairs.

    Each input is a FramedSequence that holds its tap matrix, built once here
    for every gradient and validation pass of the fit.
    """
    psi_s = as_samples(psi)
    phi_s = as_samples(phi)
    if psi_s.size != phi_s.size:
        raise ValueError("input and target lengths differ")
    ranges = segment_ranges(psi_s.size, segment_len)
    if len(ranges) < 2:
        made = f"{len(ranges)} segment{'' if len(ranges) == 1 else 's'}"
        raise ValueError(f"{psi_s.size} samples make {made} of {segment_len}; "
                         "need at least two (one training, one validation)")
    train_ranges, val_ranges = split_segments(ranges)
    window.interior(segment_len)  # reject a too-short segment before framing any

    def pairs(ranges):
        return [(FramedSequence(psi_s[a:b], window=window), ComplexSequence(phi_s[a:b]))
                for a, b in ranges]

    return pairs(train_ranges), pairs(val_ranges)


def validation_nmse_db(model, pairs) -> float:
    """nmse_db of the model's output over the concatenated interiors
    (TapWindow.interior of the model's window) of the given segment pairs."""
    pred, ref = [], []
    for seg_psi, seg_phi in pairs:
        rows = model.window.interior(len(seg_psi))
        pred.append(model.predict(seg_psi).samples[rows])
        ref.append(seg_phi.samples[rows])
    return nmse_db(np.concatenate(pred), np.concatenate(ref))


def best_fit(fits):
    """The model-selection rule of every candidate search: the (model,
    val_nmse_db) pair of best validation; ties go to fewer parameters, then to
    smaller sizes in the order of the family's PARAMS.sizes."""
    return min(fits, key=lambda fit: (fit[1], fit[0].n_params(),
                                      tuple(getattr(fit[0], s) for s in fit[0].PARAMS.sizes)))


@contextmanager
def _diverges_as(what: str):
    """Run a training pass with NumPy raising on an overflow, an invalid
    operation and a division by zero, where a pass on finite parameters first
    leaves float64's range: TrainingDivergedError, "non-finite `what`"."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise TrainingDivergedError(f"non-finite {what}") from None


def train(model, psi, phi, cfg: TrainConfig):
    """Fit `model` to map psi -> phi; returns (best model, TrainHistory).

    The model protocol: a `window` attribute, param_vector, with_param_vector,
    predict, `PARAMS.views(model, vec)` (its parameter arrays as views of a
    flat vector) and the rows kernel `loss_rows(rows, target_rows, grads) ->
    loss` (modelfile.ParamModel), which writes the gradient of the mean loss
    over the rows into `grads`.  Each call prepares, once, every training
    segment's scored rows (TapWindow.scored_rows) and one flat gradient vector
    with its views; every step hands them to the kernel.

    A non-finite training loss or validation score, or any overflowing pass,
    raises TrainingDivergedError naming the epoch.  Fully deterministic for
    fixed (model, data, cfg).
    """
    train_pairs, val_pairs = segment_pairs(psi, phi, model.window, cfg.segment_len)
    scored = [model.window.scored_rows(*pair) for pair in train_pairs]

    rng = np.random.default_rng(cfg.seed)
    params = model.param_vector()
    grad = np.empty(params.size)
    grads = model.PARAMS.views(model, grad)
    state = AdamState.zeros(params.size)
    work = model

    history = TrainHistory()
    with _diverges_as("training loss at epoch 0"):
        initial_loss = float(np.mean([work.loss_rows(*rows, grads) for rows in scored]))
    with _diverges_as("validation score at epoch 0"):
        best_val = validation_nmse_db(work, val_pairs)
    history.epochs.append(0)
    history.train_loss.append(initial_loss)
    history.val_nmse_db.append(best_val)
    best_params = params.copy()
    best_epoch = 0

    stopped = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(scored))
        batch_losses = []
        with _diverges_as(f"training loss at epoch {epoch}"):
            for start in range(0, order.size, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                grad_acc = np.zeros_like(params)
                batch_loss = 0.0
                for seg_i in batch:
                    batch_loss += work.loss_rows(*scored[seg_i], grads)
                    grad_acc += grad
                grad_acc /= batch.size
                batch_loss /= batch.size
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
                state, params = adam_step(state, params, grad_acc, cfg)
                work = work.with_param_vector(params)
                batch_losses.append(batch_loss)
        with _diverges_as(f"validation score at epoch {epoch}"):
            val = validation_nmse_db(work, val_pairs)
        history.epochs.append(epoch)
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_nmse_db.append(val)
        stopped = epoch
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best_params = params.copy()
        elif epoch - best_epoch >= cfg.patience:
            break
    history.best_epoch = best_epoch
    history.stopped_epoch = stopped
    return work.with_param_vector(best_params), history


# The central-difference step of finite_diff_check, on every parameter, and
# the most parameters it checks.
FINITE_DIFF_STEP = 1e-6
FINITE_DIFF_MAX_PARAMS = 1000


def finite_diff_check(model, psi, phi) -> float:
    """Worst relative error between analytic and central-difference gradients.

    The relative error divides by max(|analytic|, |numeric|, 1e-7).  A
    non-finite gradient entry, analytic or numeric, makes the result NaN, which
    fails every threshold.  Limited to models with at most
    FINITE_DIFF_MAX_PARAMS parameters.
    """
    params = model.param_vector()
    if params.size > FINITE_DIFF_MAX_PARAMS:
        raise ValueError(f"finite-difference check is limited to {FINITE_DIFF_MAX_PARAMS} parameters")
    _, analytic = model.loss_and_gradient(psi, phi)
    numeric = np.empty(params.size)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + FINITE_DIFF_STEP
        loss_plus = model.with_param_vector(bumped).loss_and_gradient(psi, phi)[0]
        bumped[i] = params[i] - FINITE_DIFF_STEP
        loss_minus = model.with_param_vector(bumped).loss_and_gradient(psi, phi)[0]
        numeric[i] = (loss_plus - loss_minus) / (2.0 * FINITE_DIFF_STEP)
    if not (np.all(np.isfinite(numeric)) and np.all(np.isfinite(analytic))):
        return float("nan")
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-7)
    return float(np.max(np.abs(numeric - analytic) / denom))
