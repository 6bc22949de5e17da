"""Real-valued time-delay dense network baseline.

The input of sample n is the interleaved real/imaginary parts of the tap
window (2T features), followed by two tanh hidden layers and a linear
two-unit output read back as a complex sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modelfile
from .signal import ComplexSequence, TapWindow, as_samples, delayed_matrix
from .training import best_fit, train

MODEL_KIND = "rvftdnn"


@dataclass(frozen=True)
class RvftdnnModel(modelfile.ParamModel):
    """Dense 2T -> n1 -> n2 -> 2 network with tanh hidden activations."""

    window: TapWindow
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    # The layer widths are read off the bias lengths; every weight is checked
    # against them.
    PARAMS = modelfile.ParamTable(MODEL_KIND, sizes=("n1", "n2"), params=(
        modelfile.Param("w1", "w1", lambda d: (2 * d["n_taps"], d["n1"])),
        modelfile.Param("b1", "b1", lambda d: (d["n1"],)),
        modelfile.Param("w2", "w2", lambda d: (d["n1"], d["n2"])),
        modelfile.Param("b2", "b2", lambda d: (d["n2"],)),
        modelfile.Param("w3", "w3", lambda d: (d["n2"], 2)),
        modelfile.Param("b3", "b3", lambda d: (2,)),
    ))

    @property
    def n1(self) -> int:
        return int(self.b1.size)

    @property
    def n2(self) -> int:
        return int(self.b2.size)

    @classmethod
    def init(cls, window: TapWindow, n1: int, n2: int, seed: int = 0) -> "RvftdnnModel":
        """Seeded init: zero biases, weights scaled by 1/sqrt(fan_in)."""
        if n1 < 1 or n2 < 1:
            raise ValueError("layer widths must be at least 1")
        rng = np.random.default_rng(seed)
        t2 = 2 * window.n_taps
        return cls(
            window=window,
            w1=rng.standard_normal((t2, n1)) / np.sqrt(t2),
            b1=np.zeros(n1),
            w2=rng.standard_normal((n1, n2)) / np.sqrt(n1),
            b2=np.zeros(n2),
            w3=rng.standard_normal((n2, 2)) / np.sqrt(n2),
            b3=np.zeros(2),
        )

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _features(self, x) -> np.ndarray:
        """Interleaved re/im tap features, shape (N, 2T): the tap matrix seen
        as float64, without a copy."""
        return delayed_matrix(x, self.window).view(np.float64)

    def predict(self, x) -> ComplexSequence:
        seq = x if isinstance(x, ComplexSequence) else ComplexSequence(as_samples(x))
        feats = self._features(seq)
        h1 = np.tanh(feats @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        out = h2 @ self.w3 + self.b3
        return ComplexSequence(out[:, 0] + 1j * out[:, 1],
                               sample_rate_hint=seq.sample_rate_hint)

    def backward(self, x, target) -> tuple[float, dict]:
        """Mean |output - target|^2 over the window's interior
        (TapWindow.interior) and its exact gradients, one gradient array per
        parameter attribute."""
        psi = as_samples(x)
        phi = as_samples(target)
        if psi.size != phi.size:
            raise ValueError("input and target lengths differ")
        idx = self.window.interior(psi.size)
        feats = self._features(x)[idx]
        h1 = np.tanh(feats @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        out = h2 @ self.w3 + self.b3
        err = out - phi[idx].view(np.float64).reshape(-1, 2)
        count = err.shape[0]
        loss = float(np.mean(err[:, 0] ** 2 + err[:, 1] ** 2))
        d_out = (2.0 / count) * err
        g_w3 = h2.T @ d_out
        g_b3 = d_out.sum(axis=0)
        d_h2 = (d_out @ self.w3.T) * (1.0 - h2 * h2)
        g_w2 = h1.T @ d_h2
        g_b2 = d_h2.sum(axis=0)
        d_h1 = (d_h2 @ self.w2.T) * (1.0 - h1 * h1)
        g_w1 = feats.T @ d_h1
        g_b1 = d_h1.sum(axis=0)
        return loss, {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2, "w3": g_w3, "b3": g_b3}

    # ------------------------------------------------------------------
    # flat parameter vector protocol
    # ------------------------------------------------------------------

    def with_param_vector(self, vec: np.ndarray) -> "RvftdnnModel":
        return self.PARAMS.with_param_vector(self, vec)

    def loss_and_gradient(self, x, target) -> tuple[float, np.ndarray]:
        loss, grads = self.backward(x, target)
        return loss, self.PARAMS.flatten(grads)

    @classmethod
    def from_parsed(cls, path, parsed) -> "RvftdnnModel":
        """The model in the file at `path`, already parsed by read_model."""
        window, _, _, arrays = cls.PARAMS.load(path, parsed)
        return cls(window=window, **arrays)


def rvftdnn_param_count(n_taps: int, n1: int, n2: int) -> int:
    """Trainable parameter count of a (T taps, n1, n2) network, from its
    parameter table."""
    if n_taps < 1 or n1 < 1 or n2 < 1:
        raise ValueError("taps and layer widths must be at least 1")
    return RvftdnnModel.PARAMS.count({"n_taps": n_taps, "n1": n1, "n2": n2})


def architecture_search(window: TapWindow, psi, phi, cfg, grid,
                        budget_lo: int = 100, budget_hi: int = 600,
                        seed: int = 0) -> tuple[RvftdnnModel, float]:
    """Train every grid pair within the parameter budget.

    Returns best_fit's (model, validation NMSE) pick of the trained
    candidates.  Raises ValueError when no grid entry fits the budget.
    """
    feasible = [(n1, n2) for n1, n2 in grid
                if budget_lo <= rvftdnn_param_count(window.n_taps, n1, n2) <= budget_hi]
    if not feasible:
        raise ValueError(
            f"no (n1, n2) in the search grid fits the parameter budget [{budget_lo}, {budget_hi}]")
    fits = []
    for n1, n2 in feasible:
        trained, history = train(RvftdnnModel.init(window, n1, n2, seed=seed), psi, phi, cfg)
        fits.append((trained, history.best_val_nmse_db()))
    return best_fit(fits)
