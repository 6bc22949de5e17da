"""Real-valued time-delay dense network baseline.

The input of sample n is the interleaved real/imaginary parts of the tap
window (2T features), followed by two tanh hidden layers and a linear
two-unit output read back as a complex sample.

The forward and backward passes write in place: each layer's bias add and
tanh, the output error, the tanh slope 1 - h*h and its product with the
back-propagated error reuse their array, and every gradient is written with
`out=` into one flat vector in PARAMS order.  They give, bit for bit, the
values of the kernels they replaced (kept as the test oracle), because every
value keeps its operations and their order.  That rests on facts about numpy
that the code does not show:

- A ufunc computes each element the same way whether it writes a new array
  or, through `out=`, one of its inputs; a product is the same either way
  round.  So `h += b`, `np.tanh(h, out=h)` and `d *= slope` are exact, and the
  slope keeps its form 1 - h*h ((1 - h) * (1 + h) rounds differently).
- An (N, k) array plus a (k,) bias broadcast down its rows adds the same two
  numbers at each element as the same-shape add of that bias repeated down N
  rows, so both give the same bits.  numpy runs the broadcast add as N inner
  loops of k elements, which at the search's widths costs more than the
  layer's gemm; so each layer adds its bias from a row tile, built once per
  model (ParamModel._row_tiles), and a parameter update builds one set.
- np.matmul into an `out=` view of the flat gradient makes the gemm call it
  makes into a new array.
- `d.sum(axis=0)` of an (N, k) C-contiguous array with k >= 2 adds the rows in
  order, one short row at a time; np.einsum("ij->j", d) adds them in the same
  order in one pass per column, without the per-row cost.  A single column
  (k = 1) is contiguous, and sum adds it pairwise, so a width-1 layer keeps
  sum.
- np.mean of a vector is its pairwise sum divided by its length.

predict runs on predict_rows' 1024-row blocks, and a block's dgemm can round
unlike the whole matrix's: of 900 scanned shapes (1-13 taps, widths 1-24, up
to 16390 rows) only the 10 at 13 taps, n1 = 3 and 16390 rows moved a bit.
Validation's output_rows on a segment's interior rows, which start pre_taps
rows in, moved a row's last bit against predict on 211 of 585 perturbed
models (1-13 taps, widths 1-24; at every tap count but 1, 5, 9 and 13) and
the pooled validation NMSE on none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import modelfile
from .rules import check_all
from .signal import TapWindow
from .training import FitOutcome, best_fit, train

# Default trainable-parameter budget (low, high) of an architecture search.
DEFAULT_BUDGET = (100, 600)


@dataclass(frozen=True)
class RvftdnnModel(modelfile.ParamModel):
    """Dense 2T -> n1 -> n2 -> 2 network with tanh hidden activations."""

    window: TapWindow
    n1: int
    n2: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    PARAMS = modelfile.ParamTable("rvftdnn", sizes=("n1", "n2"), params=(
        modelfile.Param("w1", "w1", lambda d: (2 * d["n_taps"], d["n1"])),
        modelfile.Param("b1", "b1", lambda d: (d["n1"],)),
        modelfile.Param("w2", "w2", lambda d: (d["n1"], d["n2"])),
        modelfile.Param("b2", "b2", lambda d: (d["n2"],)),
        modelfile.Param("w3", "w3", lambda d: (d["n2"], 2)),
        modelfile.Param("b3", "b3", lambda d: (2,)),
    ))

    @classmethod
    def init(cls, window: TapWindow, n1: int, n2: int, seed: int = 0) -> "RvftdnnModel":
        """Seeded init: zero biases, weights scaled by 1/sqrt(fan_in)."""
        check_all(n1=n1, n2=n2, seed=seed)
        rng = np.random.default_rng(seed)
        t2 = 2 * window.n_taps
        return cls(
            window=window, n1=n1, n2=n2,
            w1=rng.standard_normal((t2, n1)) / np.sqrt(t2),
            b1=np.zeros(n1),
            w2=rng.standard_normal((n1, n2)) / np.sqrt(n1),
            b2=np.zeros(n2),
            w3=rng.standard_normal((n2, 2)) / np.sqrt(n2),
            b3=np.zeros(2),
        )

    @classmethod
    def fit(cls, psi, phi, spec, cfg, seed: int = 0) -> FitOutcome:
        """Train (n1, n2) from init, or architecture_search spec.search_grid."""
        if spec.search_grid is not None:
            return FitOutcome(*architecture_search(spec.window, psi, phi, cfg, spec.search_grid,
                                                   *spec.budget, seed=seed))
        trained, history = train(cls.init(spec.window, spec.n1, spec.n2, seed=seed), psi, phi, cfg)
        return FitOutcome(model=trained, postinv_nmse_db=history.best_val_nmse_db())

    @classmethod
    def fit_options(cls, spec) -> tuple:
        return ("search_grid", "budget")

    @classmethod
    def tap_sweep_spec(cls, base, budget, *, nn_grid, **_):
        """A search over nn_grid's (n1, n2) pairs within the budget; None if none is."""
        grid = tuple((a, b) for a in nn_grid for b in nn_grid
                     if budget[0] <= replace(base, n1=a, n2=b).n_params() <= budget[1])
        return replace(base, search_grid=grid, budget=budget) if grid else None

    @classmethod
    def complexity_specs(cls, base, **_) -> list:
        return [replace(base, n1=a, n2=b) for a in range(2, 25) for b in range(2, 25)]

    # ------------------------------------------------------------------
    # forward, loss and gradient, the flat parameter vector protocol
    # ------------------------------------------------------------------

    def _tile_rows(self, rows: int) -> tuple:
        """b1, b2 and b3 repeated down `rows` rows (ParamModel._row_tiles)."""
        return tuple(np.tile(b, (rows, 1)) for b in (self.b1, self.b2, self.b3))

    def _forward(self, feats: np.ndarray):
        """(h1, h2, out) of the rows of a feature matrix, the interleaved re/im
        tap features (the tap matrix seen as float64, shape (N, 2T)); each
        layer's bias, from its row tile, and tanh are applied in place."""
        b1, b2, b3 = self._row_tiles(feats.shape[0])
        h1 = feats @ self.w1
        h1 += b1
        np.tanh(h1, out=h1)
        h2 = h1 @ self.w2
        h2 += b2
        np.tanh(h2, out=h2)
        out = h2 @ self.w3
        out += b3
        return h1, h2, out

    def output_rows(self, rows: np.ndarray) -> np.ndarray:
        """The network output on the rows of a tap matrix, its (re, im) output
        pairs read as complex samples."""
        return self._forward(rows.view(np.float64))[2].view(np.complex128)[:, 0]

    def loss_rows(self, delayed: np.ndarray, phi: np.ndarray, grads: dict) -> float:
        """The rows kernel (ParamModel): mean |output - target|^2 over the
        rows of a tap matrix, its gradient written layer by layer into the
        views `grads`."""
        feats = delayed.view(np.float64)
        h1, h2, err = self._forward(feats)
        err -= phi.view(np.float64).reshape(-1, 2)
        count = err.shape[0]
        loss = float((err[:, 0] ** 2 + err[:, 1] ** 2).sum()) / count
        d_out = np.multiply(err, 2.0 / count, out=err)
        np.matmul(h2.T, d_out, out=grads["w3"])
        _column_sums(d_out, grads["b3"])
        d_h2 = d_out @ self.w3.T
        d_h2 *= _tanh_slope(h2)
        np.matmul(h1.T, d_h2, out=grads["w2"])
        _column_sums(d_h2, grads["b2"])
        d_h1 = d_h2 @ self.w2.T
        d_h1 *= _tanh_slope(h1)
        np.matmul(feats.T, d_h1, out=grads["w1"])
        _column_sums(d_h1, grads["b1"])
        return loss


def _tanh_slope(h: np.ndarray) -> np.ndarray:
    """1 - h*h, written over h (a layer's tanh output, no longer needed)."""
    np.multiply(h, h, out=h)
    return np.subtract(1.0, h, out=h)


def _column_sums(d: np.ndarray, out: np.ndarray) -> None:
    """d.sum(axis=0) written into out, bit for bit: einsum adds the rows in
    the same order, except for a single column, which sum adds pairwise."""
    if d.shape[1] == 1:
        d.sum(axis=0, out=out)
    else:
        np.einsum("ij->j", d, out=out)


def rvftdnn_param_count(n_taps: int, n1: int, n2: int) -> int:
    """Trainable parameter count of a (T taps, n1, n2) network, from its
    parameter table."""
    return RvftdnnModel.PARAMS.count(check_all(n_taps=n_taps, n1=n1, n2=n2))


def architecture_search(window: TapWindow, psi, phi, cfg, grid,
                        budget_lo: int = DEFAULT_BUDGET[0], budget_hi: int = DEFAULT_BUDGET[1],
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
