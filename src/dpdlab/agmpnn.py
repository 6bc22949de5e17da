"""Attention-gated mixture of offset memory-polynomial experts.

Each of the M experts is a memory polynomial over the shared tap window whose
real amplitude offset b shifts its active amplitude band; the basis term is
x[n-l] * max(0, |x[n-l]| + b)^(2k).  A per-sample attention head scores every
expert from the rectified tap amplitudes max(0, |x[n-l]| + b) built with the
same offsets, and the model output is the softmax-weighted sum of expert
outputs.  Because the offsets are shared between basis and attention, their
gradient accumulates both paths.

Forward and backward passes are exact analytic computations in numpy; the
rectifier kink uses the zero subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modelfile
from .mpm import MpmCoefficients
from .signal import ComplexSequence, TapWindow, as_samples, delayed_matrix

MODEL_KIND = "agmpnn"

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
    if l < 1 or k < 1 or m < 1:
        raise ValueError("taps, orders and experts must all be at least 1")
    return 4 * l * k * m + l * m + 4 * l + 2 * m + 2


def count_params_actual(model: "AgmpnnModel") -> int:
    """Real trainable degrees of freedom of a model, from its parameter table."""
    return model.n_params()


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis."""
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
    PARAMS = modelfile.ParamTable(MODEL_KIND, sizes=("k_orders", "n_experts"), params=(
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
        start rectified around different amplitude bands.
        """
        if k_orders < 1 or n_experts < 1:
            raise ValueError("k_orders and n_experts must be at least 1")
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
            amp95 = float(np.percentile(np.abs(as_samples(calibration)), 95))
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

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _forward_arrays(self, delayed: np.ndarray, keep_bases: bool = False):
        """Vectorized forward pass over the rows of a (N, T) tap matrix.

        Returns (output, expert_out, weights, bases) where expert_out and
        weights are (N, M).  With `keep_bases`, bases[j] holds expert j's
        rectified amplitudes and their even powers, (rect, [rect^0, rect^2,
        ...]), each (N, T); otherwise bases is None.
        """
        amp = np.abs(delayed)
        n = delayed.shape[0]
        m = self.n_experts
        expert_out = np.empty((n, m), dtype=np.complex128)
        scores = np.empty((n, m))
        bases = [] if keep_bases else None
        for j in range(m):
            rect = np.maximum(amp + self.amp_offsets[j], 0.0)
            rect_sq = rect * rect
            coef = self.expert_coeff[j]
            poly = np.zeros((n, self.window.n_taps), dtype=np.complex128)
            powers = []
            power = np.ones_like(rect)
            for k in range(self.k_orders):
                if k:
                    power = power * rect_sq
                poly += power * coef[:, k][None, :]
                if keep_bases:
                    powers.append(power)
            expert_out[:, j] = np.einsum("nt,nt->n", delayed, poly)
            scores[:, j] = rect @ self.attn_scale[j] + self.attn_bias[j].sum()
            if keep_bases:
                bases.append((rect, powers))
        weights = _softmax(scores)
        output = np.einsum("nm,nm->n", weights, expert_out)
        return output, expert_out, weights, bases

    def predict(self, x) -> ComplexSequence:
        seq = x if isinstance(x, ComplexSequence) else ComplexSequence(as_samples(x))
        output, _, _, _ = self._forward_arrays(delayed_matrix(seq, self.window))
        return ComplexSequence(output, sample_rate_hint=seq.sample_rate_hint)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward(self, x, target) -> tuple[float, dict]:
        """Mean-squared-error loss and its exact gradients, one gradient array
        per parameter attribute.

        The loss is mean |output - target|^2 across the window's interior
        (TapWindow.interior), and the forward pass runs on those rows only,
        keeping each expert's rectified amplitudes and their powers for the
        gradients.  Shared offsets accumulate the expert-basis and attention
        paths; k = 0 basis terms contribute nothing to the offset gradient.
        """
        psi = as_samples(x)
        phi = as_samples(target)
        if psi.size != phi.size:
            raise ValueError("input and target lengths differ")
        idx = self.window.interior(psi.size)
        delayed = delayed_matrix(x, self.window)[idx]
        output, expert_out, weights, bases = self._forward_arrays(delayed, keep_bases=True)
        err = output - phi[idx]
        count = err.size
        loss = float(np.mean(np.abs(err) ** 2))
        scale = 2.0 / count

        m = self.n_experts
        t_taps = self.window.n_taps
        k_orders = self.k_orders
        g_coeff = np.empty((m, t_taps, k_orders), dtype=np.complex128)
        g_offsets = np.empty(m)
        g_scale = np.empty((m, t_taps))
        g_bias = np.empty((m, t_taps))
        conj_delayed = np.conj(delayed)
        for j, (rect, powers) in enumerate(bases):
            active = (rect > 0.0).astype(np.float64)
            coef = self.expert_coeff[j]

            # lambda: carrier sum_n err * conj(w * tap * rect^2k)
            weighted_err = weights[:, j] * err
            for k, power in enumerate(powers):
                g_coeff[j, :, k] = scale * (weighted_err @ (conj_delayed * power))

            # attention chain: d(output)/d(score_j) = w_j * (E_j - output)
            score_sens = np.real(np.conj(err) * (expert_out[:, j] - output)) * weights[:, j]
            g_scale[j] = scale * (score_sens @ rect)
            g_bias[j] = scale * score_sens.sum()

            # offset through the expert basis: sum_{k>=1} 2k coef rect^(2k-1),
            # the odd powers stepping by rect^2 = powers[1]
            db_poly = np.zeros((count, t_taps), dtype=np.complex128)
            odd_power = None
            for k in range(1, k_orders):
                odd_power = rect if k == 1 else odd_power * powers[1]
                db_poly += (2.0 * k) * odd_power * coef[:, k][None, :]
            if k_orders > 1:
                expert_path = np.einsum("nt,nt->n", delayed * active, db_poly)
                g_expert = float(np.sum(np.real(np.conj(err) * weights[:, j] * expert_path)))
            else:
                g_expert = 0.0
            g_attn = float(np.sum(score_sens * (active @ self.attn_scale[j])))
            g_offsets[j] = scale * (g_expert + g_attn)
        return loss, {"expert_coeff": g_coeff, "amp_offsets": g_offsets,
                      "attn_scale": g_scale, "attn_bias": g_bias}

    # ------------------------------------------------------------------
    # flat parameter vector protocol (used by the optimizer)
    # ------------------------------------------------------------------

    def with_param_vector(self, vec: np.ndarray) -> "AgmpnnModel":
        return self.PARAMS.with_param_vector(self, vec)

    def loss_and_gradient(self, x, target) -> tuple[float, np.ndarray]:
        loss, grads = self.backward(x, target)
        return loss, self.PARAMS.flatten(grads)

    @classmethod
    def from_parsed(cls, path, parsed) -> "AgmpnnModel":
        """The model in the file at `path`, already parsed by read_model."""
        window, sizes, _, arrays = cls.PARAMS.load(path, parsed)
        return cls(window=window, **sizes, **arrays)


def attention_weights(model: AgmpnnModel, tap_values) -> np.ndarray:
    """Softmax expert weights for one tap window (length n_taps)."""
    taps = np.asarray(tap_values, dtype=np.complex128).reshape(-1)
    if taps.size != model.window.n_taps:
        raise ValueError(f"expected {model.window.n_taps} tap values, got {taps.size}")
    rect = np.maximum(np.abs(taps)[None, :] + model.amp_offsets[:, None], 0.0)
    scores = np.sum(model.attn_scale * rect, axis=1) + model.attn_bias.sum(axis=1)
    return _softmax(scores)

