"""Straight-line reference evaluators used as oracles by the test suite.

The evaluators are plain per-sample loops, written directly from the model
definitions, independent of the vectorized package implementations.  The last
four sections keep the agmpnn and rvftdnn kernels, the MPM order-search
factor and the PA polynomial as they were before their rewrites, as bitwise
oracles for the code that replaced them.
"""

import math

import numpy as np

from dpdlab.mpm import _check_system, build_basis
from dpdlab.signal import TapWindow, as_samples, delayed_matrix


def tap_values(samples, n, pre_taps, post_taps):
    """[x_{n+post}, ..., x_n, ..., x_{n-pre}] with zeros off the ends."""
    out = []
    for delay in range(-post_taps, pre_taps + 1):
        idx = n - delay
        out.append(samples[idx] if 0 <= idx < len(samples) else 0.0 + 0.0j)
    return out


def mpm_basis_row(taps, k_orders, amp_offset):
    row = []
    for v in taps:
        base = max(0.0, abs(v) + amp_offset)
        for k in range(k_orders):
            row.append(v * base ** (2 * k))
    return row


def mpm_predict(samples, coeff_lk, pre_taps, post_taps, amp_offset=0.0):
    """coeff_lk: (T, K) complex, tap-major."""
    t_total, k_orders = coeff_lk.shape
    out = np.zeros(len(samples), dtype=np.complex128)
    for n in range(len(samples)):
        row = mpm_basis_row(tap_values(samples, n, pre_taps, post_taps), k_orders, amp_offset)
        acc = 0.0 + 0.0j
        for t in range(t_total):
            for k in range(k_orders):
                acc += coeff_lk[t, k] * row[t * k_orders + k]
        out[n] = acc
    return out


def agmpnn_forward(samples, expert_coeff, amp_offsets, attn_scale, attn_bias,
                   pre_taps, post_taps):
    """Mixture of amplitude-offset polynomial experts with per-sample gating.

    expert_coeff: (M, T, K) complex; amp_offsets: (M,); attn_scale/attn_bias: (M, T).
    """
    m_experts, t_total, k_orders = expert_coeff.shape
    out = np.zeros(len(samples), dtype=np.complex128)
    for n in range(len(samples)):
        taps = tap_values(samples, n, pre_taps, post_taps)
        scores = []
        experts = []
        for m in range(m_experts):
            b = amp_offsets[m]
            score = 0.0
            value = 0.0 + 0.0j
            for t in range(t_total):
                rect = max(0.0, abs(taps[t]) + b)
                score += attn_scale[m, t] * rect + attn_bias[m, t]
                for k in range(k_orders):
                    value += expert_coeff[m, t, k] * taps[t] * rect ** (2 * k)
            scores.append(score)
            experts.append(value)
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        total = sum(exps)
        out[n] = sum((e / total) * v for e, v in zip(exps, experts))
    return out


def rvftdnn_forward(samples, w1, b1, w2, b2, w3, b3, pre_taps, post_taps):
    """Interleaved-I/Q feature vector through two tanh layers and a linear head."""
    out = np.zeros(len(samples), dtype=np.complex128)
    n1 = w1.shape[1]
    n2 = w2.shape[1]
    for n in range(len(samples)):
        taps = tap_values(samples, n, pre_taps, post_taps)
        feats = []
        for v in taps:
            feats.append(v.real)
            feats.append(v.imag)
        h1 = [math.tanh(sum(feats[i] * w1[i, j] for i in range(len(feats))) + b1[j])
              for j in range(n1)]
        h2 = [math.tanh(sum(h1[i] * w2[i, j] for i in range(n1)) + b2[j])
              for j in range(n2)]
        re = sum(h2[i] * w3[i, 0] for i in range(n2)) + b3[0]
        im = sum(h2[i] * w3[i, 1] for i in range(n2)) + b3[1]
        out[n] = re + 1j * im
    return out


def adam_trace(params, grad_sequence, lr, beta1, beta2, eps):
    """Apply a sequence of gradient vectors with bias-corrected moment updates."""
    p = np.array(params, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for step, g in enumerate(grad_sequence, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** step)
        v_hat = v / (1.0 - beta2 ** step)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def lstsq_pinv(matrix, targets):
    return np.linalg.pinv(matrix) @ targets


# Real trainable degrees of freedom of each family, written out by hand from
# the parameter arrays (two per complex coefficient).

def mpm_param_count(n_taps, k_orders):
    """2TK: T x K complex coefficients."""
    return 2 * n_taps * k_orders


def agmpnn_param_count(n_taps, k_orders, n_experts):
    """M(2TK + 1 + 2T): per expert T x K complex coefficients, one offset, T
    attention scales and T attention biases."""
    return n_experts * (2 * n_taps * k_orders + 1 + 2 * n_taps)


def rvftdnn_param_count(n_taps, n1, n2):
    """2T*n1 + n1 + n1*n2 + 3*n2 + 2: the 2T -> n1 -> n2 -> 2 weights and biases."""
    return 2 * n_taps * n1 + n1 + n1 * n2 + 3 * n2 + 2


# The per-expert AgmpnnModel kernels as they stood before the expert-major
# rewrite, kept unchanged (self -> model) as the bitwise oracle for it.

def _agmpnn_softmax(scores):
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def agmpnn_forward_arrays(model, delayed, keep_bases=False):
    """(output, expert_out, weights, bases) of one (N, T) tap matrix, one
    expert at a time; expert_out and weights are (N, M)."""
    amp = np.abs(delayed)
    n = delayed.shape[0]
    m = model.n_experts
    expert_out = np.empty((n, m), dtype=np.complex128)
    scores = np.empty((n, m))
    bases = [] if keep_bases else None
    for j in range(m):
        rect = np.maximum(amp + model.amp_offsets[j], 0.0)
        rect_sq = rect * rect
        coef = model.expert_coeff[j]
        poly = np.zeros((n, model.window.n_taps), dtype=np.complex128)
        powers = []
        power = np.ones_like(rect)
        for k in range(model.k_orders):
            if k:
                power = power * rect_sq
            poly += power * coef[:, k][None, :]
            if keep_bases:
                powers.append(power)
        expert_out[:, j] = np.einsum("nt,nt->n", delayed, poly)
        scores[:, j] = rect @ model.attn_scale[j] + model.attn_bias[j].sum()
        if keep_bases:
            bases.append((rect, powers))
    weights = _agmpnn_softmax(scores)
    output = np.einsum("nm,nm->n", weights, expert_out)
    return output, expert_out, weights, bases


def agmpnn_backward(model, delayed, phi):
    """(loss, gradients) over the rows of an (N, T) tap matrix `delayed`
    (already cut to the window's interior) against the target rows `phi`."""
    output, expert_out, weights, bases = agmpnn_forward_arrays(model, delayed, keep_bases=True)
    err = output - phi
    count = err.size
    loss = float(np.mean(np.abs(err) ** 2))
    scale = 2.0 / count

    m = model.n_experts
    t_taps = model.window.n_taps
    k_orders = model.k_orders
    g_coeff = np.empty((m, t_taps, k_orders), dtype=np.complex128)
    g_offsets = np.empty(m)
    g_scale = np.empty((m, t_taps))
    g_bias = np.empty((m, t_taps))
    conj_delayed = np.conj(delayed)
    for j, (rect, powers) in enumerate(bases):
        active = (rect > 0.0).astype(np.float64)
        coef = model.expert_coeff[j]

        weighted_err = weights[:, j] * err
        for k, power in enumerate(powers):
            g_coeff[j, :, k] = scale * (weighted_err @ (conj_delayed * power))

        score_sens = np.real(np.conj(err) * (expert_out[:, j] - output)) * weights[:, j]
        g_scale[j] = scale * (score_sens @ rect)
        g_bias[j] = scale * score_sens.sum()

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
        g_attn = float(np.sum(score_sens * (active @ model.attn_scale[j])))
        g_offsets[j] = scale * (g_expert + g_attn)
    return loss, {"expert_coeff": g_coeff, "amp_offsets": g_offsets,
                  "attn_scale": g_scale, "attn_bias": g_bias}


# The RvftdnnModel kernels as they stood before the in-place rewrite, kept
# unchanged (self -> model) as the bitwise oracle for it.

def _rvftdnn_features(model, x):
    return delayed_matrix(x, model.window).view(np.float64)


def rvftdnn_rows(model, feats):
    """The predict pass on the rows of a feature matrix, as complex outputs."""
    h1 = np.tanh(feats @ model.w1 + model.b1)
    h2 = np.tanh(h1 @ model.w2 + model.b2)
    out = h2 @ model.w3 + model.b3
    return out[:, 0] + 1j * out[:, 1]


def rvftdnn_backward(model, x, target):
    psi = as_samples(x)
    phi = as_samples(target)
    if psi.size != phi.size:
        raise ValueError("input and target lengths differ")
    idx = model.window.interior(psi.size)
    feats = _rvftdnn_features(model, x)[idx]
    h1 = np.tanh(feats @ model.w1 + model.b1)
    h2 = np.tanh(h1 @ model.w2 + model.b2)
    out = h2 @ model.w3 + model.b3
    err = out - phi[idx].view(np.float64).reshape(-1, 2)
    count = err.shape[0]
    loss = float(np.mean(err[:, 0] ** 2 + err[:, 1] ** 2))
    d_out = (2.0 / count) * err
    g_w3 = h2.T @ d_out
    g_b3 = d_out.sum(axis=0)
    d_h2 = (d_out @ model.w3.T) * (1.0 - h2 * h2)
    g_w2 = h1.T @ d_h2
    g_b2 = d_h2.sum(axis=0)
    d_h1 = (d_h2 @ model.w2.T) * (1.0 - h1 * h1)
    g_w1 = feats.T @ d_h1
    g_b1 = d_h1.sum(axis=0)
    return loss, {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2, "w3": g_w3, "b3": g_b3}


# mpm.order_blocked_qr as it stood before the in-place rewrite, kept
# unchanged: basis row blocks gathered into the factor, np.linalg.qr per order
# block.  order_blocked_basis_blocks gives it fit_orders's blocks as they were
# built then.

def order_blocked_basis_blocks(pairs, spec):
    """The interior build_basis rows of each (input, target) pair of segment arrays."""
    return [build_basis(psi, spec).data[spec.window.interior(len(psi))] for psi, _ in pairs]


def order_blocked_qr(blocks, spec, targets):
    phi = as_samples(targets)
    t_taps, k_orders, cols = spec.window.n_taps, spec.k_orders, spec.n_columns
    # Column-major, so every block and every prefix of blocks is a contiguous
    # matrix with the same leading dimension at any top order.
    q = np.empty((phi.size, cols), dtype=np.complex128, order="F")
    rows = 0
    for data in blocks:
        end = rows + data.shape[0]
        # Rows past the targets are only counted, for _check_system's message.
        if end <= phi.size:
            for k in range(k_orders):
                q[rows:end, k * t_taps:(k + 1) * t_taps] = data[:, k::k_orders]
        rows = end
    _check_system(rows, cols, phi.size)
    r = np.zeros((cols, cols), dtype=np.complex128)
    qh_phi = np.empty(cols, dtype=np.complex128)
    for start in range(0, cols, t_taps):
        block = slice(start, start + t_taps)
        done = q[:, :start]
        rest = q[:, block]
        # The second pass removes what rounding left of the first.
        for _ in range(2 if start else 0):
            proj = (rest.conj().T @ done).conj().T
            rest -= done @ proj
            r[:start, block] += proj
        q[:, block], r[block, block] = np.linalg.qr(rest)
        qh_phi[block] = q[:, block].conj().T @ phi
    return r, qh_phi


# pa_sim.pa_forward's drive, limiter and polynomial as they stood before the
# polynomial took its powers from signal.even_powers, kept unchanged: every
# order, 0 included, multiplies the taps by a power chain started from ones.

def pa_forward_polynomial(cfg, x):
    """The noiseless PA output on x."""
    u = as_samples(x) * cfg.drive_gain
    if cfg.smooth_limit is not None:
        u = u / (1.0 + (np.abs(u) / cfg.smooth_limit) ** 6) ** (1.0 / 6.0)
    delayed = delayed_matrix(u, TapWindow(pre_taps=cfg.memory_depth))
    amp_sq = np.abs(delayed) ** 2
    y = np.zeros(u.size, dtype=np.complex128)
    power = np.ones_like(amp_sq)
    for k in range(cfg.n_orders):
        if k:
            power = power * amp_sq
        y += (delayed * power) @ cfg.coeffs[:, k]
    return y
