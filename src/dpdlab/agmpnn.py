"""Attention-gated mixture of offset memory-polynomial experts.

Each of the M experts is a memory polynomial over the shared tap window whose
real amplitude offset b shifts its active amplitude band; the basis term is
x[n-l] * max(0, |x[n-l]| + b)^(2k).  A per-sample attention head scores every
expert from the rectified tap amplitudes max(0, |x[n-l]| + b) built with the
same offsets, and the model output is the softmax-weighted sum of expert
outputs.  Because the offsets are shared between basis and attention, their
gradient accumulates both paths.

Forward and backward passes are exact analytic computations in numpy; the
rectifier kink uses the zero subgradient.  The experts' even powers come from
signal.even_powers, the one even-power chain of the PA, the MPM and the experts.

The kernels are expert-major: scores, softmax weights, mixing, error
sensitivities and offset sums are (M, N) arrays, one row per expert, and the
basis terms (M, N, T) arrays.  They give, bit for bit, the values of the
per-expert loops they replaced (kept as the test oracle), because they keep
every value's operations and reduction order.  That rests on facts about numpy
and OpenBLAS that the code does not show:

- A complex einsum such as "nt,nt->n" sums its products, each without FMA,
  sequentially from 0 whatever the operand layout: the expert-major
  "nt,mnt->mn" and a tap-major "tn" layout give the same bits.
- A real x complex product equals its split real products (r * re, r * im),
  so a power times a coefficient is exact in any layout, and a product by an
  exact 1 or a sum started from an exact 0 can be left out.
- A numpy complex x complex product uses FMA and does not equal its split real
  products, so it stays one complex product.
- A gemv's bits change with its operands' layout (C or F order, a strided
  vector) and when columns are stacked into one matrix; a batched np.matmul
  over a leading axis makes the same gemv calls and keeps them.  A one-row
  matrix product is a dot product, whose bits differ from the gemv's.
- A reduction along a contiguous axis is sequential below 8 entries and
  pairwise from 8 on, so the softmax's expert sum stays on the (N, M) layout.
- On one OpenBLAS thread, which importing dpdlab sets, the attention gemv
  gives each row the same bits in a block of rows that starts at a multiple
  of 16 rows as in the whole matrix, so predict's row blocks change no output
  bit (measured at 7, 13, 28, 29 and 32 taps on 16390 samples).  Two threads
  split a long gemv and, from 29 taps on, move a few rows' bits.
- Validation's output_rows on a segment's interior rows, which start pre_taps
  rows in, moved a row's last bit against predict on 10 of 260 perturbed
  models (1-13 taps; all 10 at 8-12) and the pooled validation NMSE on none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import modelfile
from .mpm import MpmCoefficients, rectified_amplitude
from .rules import check_all
from .signal import TapWindow, as_samples, even_powers
from .training import FitOutcome, train

# Attention score bias applied to expert 1 when warm starting, large enough
# that the initial model reproduces the warm-start predictor to well below
# 0.01 dB, small enough that the other experts still receive usable gradients.
WARM_START_SCORE_BIAS = 10.0


def count_params_formula(n_taps: int, k_orders: int, n_experts: int) -> int:
    """Nominal complexity figure reported in sweeps: 4LKM + LM + 4L + 2M + 2.

    Counts the attention head as a generic two-layer block; exceeds the
    enumerated trainable count, which count_params_actual reports.
    """
    l, k, m = int(n_taps), int(k_orders), int(n_experts)
    check_all(n_taps=l, k_orders=k, n_experts=m)
    return 4 * l * k * m + l * m + 4 * l + 2 * m + 2


def count_params_actual(model: "AgmpnnModel") -> int:
    """Real trainable degrees of freedom of a model, from its parameter table."""
    return model.n_params()


def _tile_sum(factors, tiles, start=None) -> np.ndarray:
    """start + sum_k factors[k] * tiles[k], added in k order, as a new complex
    array: real (M, N, T) factors times complex coefficient tiles."""
    out = np.multiply(factors[0], tiles[0])
    if start is not None:
        out += start
    term = np.empty_like(out)
    for factor, tile in zip(factors[1:], tiles[1:]):
        np.multiply(factor, tile, out=term)
        out += term
    return out


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the first axis, the experts.

    Only the expert sum depends on an order: it is taken along the contiguous
    last axis of the (..., M) layout, whose reduction order a per-sample
    softmax over M scores has.
    """
    e = np.exp(scores - scores.max(axis=0))
    return e / np.ascontiguousarray(e.T).sum(axis=-1)


@dataclass(frozen=True)
class AgmpnnModel(modelfile.ParamModel):
    """Mixture of M offset memory-polynomial experts with softmax attention."""

    window: TapWindow
    k_orders: int
    n_experts: int
    expert_coeff: np.ndarray  # (M, T, K) complex
    amp_offsets: np.ndarray   # (M,) real, shared by expert basis and attention
    attn_scale: np.ndarray    # (M, T) real
    # Only each row sum of attn_bias enters the scores, so one bias per expert
    # would do; collapsing it to (M,) would change the parameter counts and
    # the sweep CSV bytes, so it stays (M, T).
    attn_bias: np.ndarray     # (M, T) real

    # expert_coeff is complex; in a gradient its real and imaginary parts are
    # the derivatives with respect to the coefficient's real and imaginary parts.
    PARAMS = modelfile.ParamTable("agmpnn", sizes=("k_orders", "n_experts"), params=(
        modelfile.Param("expert_coeff", "coeff",
                        lambda d: (d["n_experts"], d["n_taps"], d["k_orders"]),
                        is_complex=True, tap_axis=1),
        modelfile.Param("amp_offsets", "offsets", lambda d: (d["n_experts"],)),
        modelfile.Param("attn_scale", "attn_scale", lambda d: (d["n_experts"], d["n_taps"]),
                        tap_axis=1),
        modelfile.Param("attn_bias", "attn_bias", lambda d: (d["n_experts"], d["n_taps"]),
                        tap_axis=1),
    ))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def init(cls, window: TapWindow, k_orders: int, n_experts: int,
             warm_start: MpmCoefficients | None = None, seed: int = 0,
             calibration=None, perturb: float = 1e-3) -> "AgmpnnModel":
        """Seeded initialization.

        With `warm_start` (a fitted memory polynomial with zero amplitude
        offset and matching window/orders) every expert copies its
        coefficients, optionally perturbed per coefficient by `perturb`
        relative complex noise, and expert 1's attention bias is raised so the
        starting mixture reproduces the warm-start predictor.  Without it,
        coefficients are small seeded noise with the current-sample linear term
        set to 1.

        Offsets step down from 0 in increments of A95/M, where A95 is the 95th
        percentile amplitude of `calibration` (default 1.0), so the experts
        start rectified around different amplitude bands.  A `calibration`
        (the fit's input) with a non-finite sample raises ValueError.
        """
        check_all(k_orders=k_orders, n_experts=n_experts)
        rng = np.random.default_rng(seed)
        t_taps = window.n_taps
        m = n_experts
        if warm_start is not None:
            if warm_start.spec.window != window or warm_start.spec.k_orders != k_orders:
                raise ValueError("warm start window/orders do not match the model")
            if warm_start.spec.amp_offset != 0.0:
                raise ValueError("warm start must have zero amplitude offset")
            coeff = np.broadcast_to(warm_start.coeff, (m, t_taps, k_orders)).copy()
            if perturb:
                noise = (rng.standard_normal((m, t_taps, k_orders))
                         + 1j * rng.standard_normal((m, t_taps, k_orders))) / np.sqrt(2.0)
                coeff = coeff + perturb * np.abs(coeff) * noise
        else:
            coeff = 1e-2 * (rng.standard_normal((m, t_taps, k_orders))
                            + 1j * rng.standard_normal((m, t_taps, k_orders))) / np.sqrt(2.0)
            coeff[:, 0, 0] = 1.0
        if calibration is not None:
            amps = np.abs(as_samples(calibration))
            if not np.isfinite(amps).all():
                raise ValueError("input sequence holds a non-finite sample")
            amp95 = float(np.percentile(amps, 95))
            if amp95 <= 0.0:
                amp95 = 1.0
        else:
            amp95 = 1.0
        offsets = -np.arange(m, dtype=np.float64) * amp95 / m
        attn_scale = 0.01 * rng.standard_normal((m, t_taps))
        attn_bias = np.zeros((m, t_taps))
        if warm_start is not None:
            attn_bias[0, :] = WARM_START_SCORE_BIAS / t_taps
        return cls(window=window, k_orders=k_orders, n_experts=n_experts,
                   expert_coeff=coeff, amp_offsets=offsets,
                   attn_scale=attn_scale, attn_bias=attn_bias)

    @classmethod
    def fit(cls, psi, phi, spec, cfg, seed: int = 0) -> FitOutcome:
        """Train from init, warm-started (spec.warm_start) by the MPM fit of
        the spec, which never holds a search_grid."""
        warm = MpmCoefficients.fit(psi, phi, spec, cfg) if spec.warm_start else FitOutcome(None, None)
        model = cls.init(spec.window, spec.k_orders, spec.n_experts, warm_start=warm.model,
                         seed=seed, calibration=psi, perturb=0.0)
        trained, history = train(model, psi, phi, cfg)
        return FitOutcome(model=trained, postinv_nmse_db=history.best_val_nmse_db(),
                          warm_start_nmse_db=warm.postinv_nmse_db)

    @classmethod
    def fit_options(cls, spec) -> tuple:
        """warm_start, and with a warm start the ridge of its MPM fit."""
        return ("warm_start", "ridge") if spec.warm_start else ("warm_start",)

    @classmethod
    def tap_sweep_spec(cls, base, budget, **_):
        return replace(base, k_orders=3, n_experts=3)

    @classmethod
    def complexity_specs(cls, base, **_) -> list:
        return [replace(base, k_orders=k, n_experts=m) for k in range(1, 7) for m in range(1, 9)]

    def params_formula(self) -> int:
        return count_params_formula(self.window.n_taps, self.k_orders, self.n_experts)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _tile_rows(self, rows: int) -> tuple:
        """expert_coeff as a (K, M, rows, T) array, repeated down `rows` rows
        (ParamModel._row_tiles), so that every coefficient product is a
        same-shape product along the flattened rows and taps."""
        return (np.tile(np.moveaxis(self.expert_coeff, 2, 0)[:, :, None, :], (rows, 1)),)

    def _forward_arrays(self, delayed: np.ndarray):
        """Expert-major forward pass over the rows of an (N, T) tap matrix.

        Returns (output, expert_out, weights, rect, powers): output is (N,),
        expert_out and weights are (M, N), one row per expert, rect holds the
        (M, N, T) rectified amplitudes and powers their even powers
        [rect^2, ..., rect^(2K-2)].
        """
        n = delayed.shape[0]
        rect = rectified_amplitude(delayed, self.amp_offsets[:, None, None])
        powers = list(even_powers(rect, self.k_orders - 1))
        tiles, = self._row_tiles(n)
        poly = _tile_sum(powers, tiles[1:], start=tiles[0]) if powers else tiles[0]
        expert_out = np.einsum("nt,mnt->mn", delayed, poly)
        scores = (np.matmul(rect, self.attn_scale[:, :, None])[:, :, 0]
                  + self.attn_bias.sum(axis=1)[:, None])
        weights = _softmax(scores)
        output = np.einsum("mn,mn->n", weights, expert_out)
        return output, expert_out, weights, rect, powers

    def output_rows(self, rows: np.ndarray) -> np.ndarray:
        """The model output on the rows of a tap matrix: the forward pass's."""
        return self._forward_arrays(rows)[0]

    # ParamModel's protocol, bound here for perfbench/tracer.py.  predict's row
    # blocks bound the expert-major temporaries and move no output bit.
    predict = modelfile.ParamModel.predict
    with_param_vector = modelfile.ParamModel.with_param_vector
    loss_and_gradient = modelfile.ParamModel.loss_and_gradient

    # ------------------------------------------------------------------
    # loss and gradient
    # ------------------------------------------------------------------

    def loss_rows(self, delayed: np.ndarray, phi: np.ndarray, grads: dict) -> float:
        """The rows kernel (ParamModel): mean |output - target|^2 over the
        rows of a tap matrix and its exact gradient, written into the views
        `grads`.

        The forward pass keeps the rectified amplitudes and their powers for
        the gradients.  Shared offsets accumulate the expert-basis and
        attention paths; k = 0 basis terms contribute nothing to the offset
        gradient.
        """
        output, expert_out, weights, rect, powers = self._forward_arrays(delayed)
        err = output - phi
        count = err.size
        loss = float(np.mean(np.abs(err) ** 2))
        scale = 2.0 / count

        # lambda: carrier sum_n err * conj(w * tap * rect^2k), one gemv per
        # expert and order; the k = 0 power is an exact 1.  weights is
        # C-contiguous, so each expert's gemv vector has unit stride.
        conj_delayed = np.conj(delayed)
        weighted_err = (weights * err)[:, None, :]
        sums = [np.matmul(weighted_err, conj_delayed)]
        carrier = np.empty(rect.shape, dtype=np.complex128)
        for power in powers:
            np.multiply(power, conj_delayed, out=carrier)
            sums.append(np.matmul(weighted_err, carrier))
        np.multiply(scale, np.stack([s[:, 0] for s in sums], axis=-1), out=grads["expert_coeff"])

        # attention chain: d(output)/d(score_j) = w_j * (E_j - output)
        score_sens = np.real(np.conj(err) * (expert_out - output)) * weights
        np.multiply(scale, np.matmul(score_sens[:, None, :], rect)[:, 0], out=grads["attn_scale"])
        grads["attn_bias"][:] = scale * score_sens.sum(axis=1)[:, None]

        # offset through the expert basis: sum_{k>=1} 2k coef rect^(2k-1), the
        # odd powers stepping by rect^2; where a rectifier is off every term is
        # an exact zero, so the taps need no mask
        g_expert = 0.0
        if powers:
            odd_powers = [2.0 * rect]
            odd_power = rect
            for k in range(2, self.k_orders):
                odd_power = odd_power * powers[0]
                odd_powers.append((2.0 * k) * odd_power)
            db_poly = _tile_sum(odd_powers, self._row_tiles(count)[0][1:])
            expert_path = np.einsum("nt,mnt->mn", delayed, db_poly)
            g_expert = np.real(np.conj(err) * weights * expert_path).sum(axis=1)
        active = np.greater(rect, 0.0, out=np.empty_like(rect))
        g_attn = (score_sens * np.matmul(active, self.attn_scale[:, :, None])[:, :, 0]).sum(axis=1)
        np.multiply(scale, g_expert + g_attn, out=grads["amp_offsets"])
        return loss


def attention_weights(model: AgmpnnModel, tap_values) -> np.ndarray:
    """Softmax expert weights for one tap window (length n_taps): the weight
    column of the model's own forward pass on that one row."""
    taps = np.asarray(tap_values, dtype=np.complex128).reshape(1, -1)
    if taps.size != model.window.n_taps:
        raise ValueError(f"expected {model.window.n_taps} tap values, got {taps.size}")
    return model._forward_arrays(taps)[2][:, 0]
