"""Attention-gated mixture of offset memory-polynomial experts."""

import numpy as np
import pytest

from dpdlab import (
    AgmpnnModel,
    FormatError,
    MpmCoefficients,
    MpmSpec,
    RvftdnnModel,
    TapWindow,
    TrainConfig,
    build_basis,
    count_params_actual,
    count_params_formula,
    generate_waveform,
    ls_fit,
    nmse_db,
    train,
)
from dpdlab.agmpnn import WARM_START_SCORE_BIAS, attention_weights
from dpdlab.signal import PREDICT_BLOCK_ROWS, as_samples, delayed_matrix

import reference_impls as ref


def _rich_model(pre=3, post=0, k=3, m=3, seed=0):
    """Random model whose rectifiers are active everywhere (no kinks) and
    whose attention has meaningful spread; suitable for gradient checks."""
    window = TapWindow(pre_taps=pre, post_taps=post)
    model = AgmpnnModel.init(window, k, m, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    n = model.param_vector().size
    t = window.n_taps
    n_coeff = 2 * m * t * k
    vec = np.empty(n)
    vec[:n_coeff] = 0.3 * rng.standard_normal(n_coeff)
    vec[n_coeff:n_coeff + m] = np.sort(rng.uniform(0.05, 0.6, size=m))[::-1]
    vec[n_coeff + m:] = 0.4 * rng.standard_normal(2 * m * t)
    return model.with_param_vector(vec)


# === parameter counts ===

def test_formula_count_examples():
    assert count_params_formula(1, 1, 1) == 13
    assert count_params_formula(7, 3, 3) == 309


def test_formula_count_closed_form_in_taps():
    # At K = 3, M = 3 the count grows by 43 per extra tap on top of 51.
    for taps in range(4, 11):
        assert count_params_formula(taps, 3, 3) == 43 * (taps - 1) + 51


def test_actual_count_examples():
    window = TapWindow(pre_taps=6)
    model = AgmpnnModel.init(window, 3, 3)
    assert count_params_actual(model) == 171
    assert model.param_vector().size == 171
    tiny = AgmpnnModel.init(TapWindow(pre_taps=0), 1, 1)
    assert count_params_actual(tiny) == 5


def test_actual_never_exceeds_formula():
    for taps in (1, 3, 7, 10):
        for k in (1, 2, 4):
            for m in (1, 3, 6):
                model = AgmpnnModel.init(TapWindow(pre_taps=taps - 1), k, m)
                assert count_params_actual(model) <= count_params_formula(taps, k, m)
                assert count_params_actual(model) == model.param_vector().size


# === initialization ===

def test_cold_init_is_seed_deterministic():
    window = TapWindow(pre_taps=4)
    a = AgmpnnModel.init(window, 3, 3, seed=5)
    b = AgmpnnModel.init(window, 3, 3, seed=5)
    c = AgmpnnModel.init(window, 3, 3, seed=6)
    assert np.array_equal(a.param_vector(), b.param_vector())
    assert not np.array_equal(a.param_vector(), c.param_vector())


def test_cold_init_linear_passthrough_bias():
    model = AgmpnnModel.init(TapWindow(pre_taps=2), 3, 4, seed=0)
    assert np.all(model.expert_coeff[:, 0, 0] == 1.0)
    others = np.delete(model.expert_coeff.reshape(4, -1), 0, axis=1)
    assert np.max(np.abs(others)) < 0.1


def test_init_offsets_step_down_from_calibration():
    calib = np.full(100, 0.9 + 0.0j)  # 95th percentile amplitude = 0.9
    model = AgmpnnModel.init(TapWindow(pre_taps=1), 2, 3, calibration=calib)
    assert np.allclose(model.amp_offsets, [0.0, -0.3, -0.6])
    default = AgmpnnModel.init(TapWindow(pre_taps=1), 2, 4)
    assert np.allclose(default.amp_offsets, [0.0, -0.25, -0.5, -0.75])


def test_warm_start_reproduces_polynomial_predictor():
    chi = generate_waveform(1, 4096, 0.25)
    y = chi.samples * (1.0 - 0.2 * np.abs(chi.samples) ** 2)
    spec = MpmSpec(window=TapWindow(pre_taps=6), k_orders=3)
    lam = ls_fit(build_basis(chi, spec), y, ridge=0.0)
    reference = lam.predict(chi)
    for seed in range(10):
        model = AgmpnnModel.init(spec.window, 3, 3, warm_start=lam, seed=seed,
                                 calibration=chi, perturb=0.0)
        assert nmse_db(model.predict(chi), reference) < -80.0
    assert abs(model.attn_bias[0].sum() - WARM_START_SCORE_BIAS) < 1e-12
    assert np.all(model.attn_bias[1:] == 0.0)


def test_warm_start_perturbation_is_relative():
    chi = generate_waveform(2, 2048, 0.25)
    spec = MpmSpec(window=TapWindow(pre_taps=3), k_orders=2)
    lam = ls_fit(build_basis(chi, spec), chi.samples, ridge=0.0)
    model = AgmpnnModel.init(spec.window, 2, 2, warm_start=lam, seed=0,
                             perturb=1e-3)
    rel = np.abs(model.expert_coeff - lam.coeff[None]) / np.maximum(np.abs(lam.coeff[None]), 1e-300)
    assert np.all(rel < 1e-2)
    assert np.any(rel > 0)


def test_warm_start_rejects_mismatched_shape():
    spec = MpmSpec(window=TapWindow(pre_taps=3), k_orders=2)
    lam = MpmCoefficients(spec=spec, coeff=np.zeros((4, 2), dtype=complex) + 1)
    with pytest.raises(ValueError):
        AgmpnnModel.init(TapWindow(pre_taps=2), 2, 2, warm_start=lam)
    with pytest.raises(ValueError):
        AgmpnnModel.init(TapWindow(pre_taps=3), 3, 2, warm_start=lam)
    offset_spec = MpmSpec(window=TapWindow(pre_taps=3), k_orders=2, amp_offset=-0.1)
    offset_lam = MpmCoefficients(spec=offset_spec, coeff=np.zeros((4, 2), dtype=complex) + 1)
    with pytest.raises(ValueError):
        AgmpnnModel.init(TapWindow(pre_taps=3), 2, 2, warm_start=offset_lam)


# === attention ===

def test_attention_single_expert_is_unity():
    model = AgmpnnModel.init(TapWindow(pre_taps=2), 2, 1)
    w = attention_weights(model, np.zeros(3, dtype=complex))
    assert np.allclose(w, [1.0])


def test_attention_equal_scores_split_evenly():
    base = AgmpnnModel.init(TapWindow(pre_taps=0), 1, 2)
    model = AgmpnnModel(window=base.window, k_orders=1, n_experts=2,
                        expert_coeff=base.expert_coeff,
                        amp_offsets=np.zeros(2),
                        attn_scale=np.zeros((2, 1)),
                        attn_bias=np.zeros((2, 1)))
    assert np.allclose(attention_weights(model, [0.7 + 0.1j]), [0.5, 0.5])


def test_attention_log_ratio_example():
    base = AgmpnnModel.init(TapWindow(pre_taps=0), 1, 2)
    model = AgmpnnModel(window=base.window, k_orders=1, n_experts=2,
                        expert_coeff=base.expert_coeff,
                        amp_offsets=np.zeros(2),
                        attn_scale=np.zeros((2, 1)),
                        attn_bias=np.array([[np.log(3.0)], [0.0]]))
    assert np.allclose(attention_weights(model, [0.2j]), [0.75, 0.25], atol=1e-12)


def test_attention_weights_always_normalized():
    rng = np.random.default_rng(7)
    for seed in range(5):
        model = _rich_model(pre=2, k=2, m=4, seed=seed)
        for _ in range(10):
            taps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = attention_weights(model, taps)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) < 1e-12


def test_attention_extreme_scores_do_not_overflow():
    base = AgmpnnModel.init(TapWindow(pre_taps=0), 1, 2)
    model = AgmpnnModel(window=base.window, k_orders=1, n_experts=2,
                        expert_coeff=base.expert_coeff,
                        amp_offsets=np.zeros(2),
                        attn_scale=np.zeros((2, 1)),
                        attn_bias=np.array([[2000.0], [-2000.0]]))
    w = attention_weights(model, [1.0 + 0j])
    assert np.isfinite(w).all()
    assert np.allclose(w, [1.0, 0.0])


def test_forcing_attention_onto_a_null_expert_silences_output():
    window = TapWindow(pre_taps=1)
    coeff = np.zeros((2, 2, 2), dtype=complex)
    coeff[0] = 1.0  # expert 1 loud, expert 2 silent
    model = AgmpnnModel(window=window, k_orders=2, n_experts=2,
                        expert_coeff=coeff,
                        amp_offsets=np.zeros(2),
                        attn_scale=np.zeros((2, 2)),
                        attn_bias=np.array([[0.0, 0.0], [25.0, 25.0]]))
    x = generate_waveform(3, 512, 0.25)
    out = model.predict(x)
    assert out.rms() < 1e-6


# === forward pass ===

def test_predict_matches_reference_loop():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for pre, post, k, m, seed in ((3, 0, 3, 3, 0), (2, 1, 2, 2, 1), (0, 0, 1, 4, 2)):
        model = _rich_model(pre=pre, post=post, k=k, m=m, seed=seed)
        expected = ref.agmpnn_forward(x, model.expert_coeff, model.amp_offsets,
                                      model.attn_scale, model.attn_bias, pre, post)
        got = model.predict(x).samples
        assert np.max(np.abs(got - expected)) < 1e-12


def test_permuting_experts_leaves_output_unchanged():
    model = _rich_model(pre=2, k=2, m=4, seed=3)
    perm = np.array([2, 0, 3, 1])
    permuted = AgmpnnModel(window=model.window, k_orders=model.k_orders,
                           n_experts=model.n_experts,
                           expert_coeff=model.expert_coeff[perm],
                           amp_offsets=model.amp_offsets[perm],
                           attn_scale=model.attn_scale[perm],
                           attn_bias=model.attn_bias[perm])
    x = generate_waveform(4, 256, 0.25)
    assert np.max(np.abs(model.predict(x).samples - permuted.predict(x).samples)) < 1e-12


# === gradients ===

def test_loss_zero_at_own_prediction():
    model = _rich_model(seed=4)
    x = generate_waveform(5, 400, 0.25)
    target = model.predict(x)
    loss, grad = model.loss_and_gradient(x, target)
    assert loss == 0.0
    assert np.max(np.abs(grad)) == 0.0


@pytest.mark.parametrize("family", ["agmpnn", "rvftdnn"])
def test_loss_is_mean_squared_error(family):
    # Both trained families score the window's interior: with a lookahead tap
    # the last post_taps samples drop out as well as the first pre_taps.
    if family == "agmpnn":
        model = _rich_model(post=1, seed=5)
    else:
        model = RvftdnnModel.init(TapWindow(pre_taps=3, post_taps=1), 6, 5, seed=5)
    x = generate_waveform(6, 300, 0.25)
    target = np.zeros(300, dtype=complex)
    loss, _ = model.loss_and_gradient(x, target)
    pred = model.predict(x).samples
    idx = np.arange(model.window.pre_taps, 300 - model.window.post_taps)
    assert abs(loss - np.mean(np.abs(pred[idx]) ** 2)) < 1e-12


def test_gradient_matches_finite_differences():
    from dpdlab import finite_diff_check

    x = generate_waveform(7, 512, 0.5)
    y = generate_waveform(8, 512, 0.5)
    for seed in range(3):
        model = _rich_model(pre=2, k=2, m=3, seed=seed)
        assert finite_diff_check(model, x, y) < 1e-5


def test_offset_gradient_vanishes_when_basis_is_linear_and_attention_flat():
    # With K = 1 the expert basis ignores offsets entirely, so a model with a
    # zeroed attention slope has exactly zero offset gradient.
    base = _rich_model(pre=2, k=1, m=3, seed=6)
    vec = base.param_vector()
    t = base.window.n_taps
    n_coeff = 2 * 3 * t * 1
    vec[n_coeff + 3:n_coeff + 3 + 3 * t] = 0.0  # attn_scale := 0
    model = base.with_param_vector(vec)
    x = generate_waveform(9, 256, 0.5)
    y = generate_waveform(10, 256, 0.5)
    grads = model.PARAMS.views(model, model.loss_and_gradient(x, y)[1])
    assert np.max(np.abs(grads["amp_offsets"])) == 0.0


def test_backward_rejects_bad_ranges():
    model = _rich_model(seed=7)
    x = generate_waveform(11, 128, 0.5)
    with pytest.raises(ValueError):
        model.loss_and_gradient(x, x.samples[:64])


# === bitwise agreement with the per-expert kernels ===

def _assert_matches_oracle(model, x, y):
    """predict, the backward loss and every gradient array equal, bit for bit,
    the per-expert kernels kept in reference_impls."""
    x, y = as_samples(x), as_samples(y)
    delayed = delayed_matrix(x, model.window)
    assert np.array_equal(model.predict(x).samples, ref.agmpnn_forward_arrays(model, delayed)[0])
    rows = model.window.interior(x.size)
    loss, flat = model.loss_and_gradient(x, y)
    grads = model.PARAMS.views(model, flat)
    ref_loss, ref_grads = ref.agmpnn_backward(model, delayed[rows], y[rows])
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name, grad in ref_grads.items():
        assert np.array_equal(grads[name], grad), name


def _perturbed(model, seed):
    rng = np.random.default_rng(seed)
    vec = model.param_vector()
    return model.with_param_vector(vec + 0.05 * rng.standard_normal(vec.size))


# Tap counts 1 to 13: from 8 taps on, a sum along the taps is pairwise in numpy,
# no longer sequential, so both sides of that line are covered.
@pytest.mark.parametrize("pre, post", [(0, 0), (3, 0), (6, 0), (9, 0), (12, 0), (4, 2)])
def test_kernels_match_per_expert_oracle_bitwise(pre, post):
    x = generate_waveform(21, 300, 0.5)
    y = generate_waveform(22, 300, 0.5)
    for k in (1, 2, 3, 5):
        for m in (1, 2, 3, 5):
            model = AgmpnnModel.init(TapWindow(pre_taps=pre, post_taps=post), k, m,
                                     seed=10 * k + m, calibration=x)
            _assert_matches_oracle(_perturbed(model, 100 * pre + 10 * k + m), x, y)


# A parent's coefficient tiles cover 1025 rows after a 300-sample predict and
# 4093 after a 4096-sample loss: fewer and more rows than the child's 2049
# samples.
@pytest.mark.parametrize("parent_samples", [300, 4096])
def test_a_rebuilt_model_uses_its_own_coefficient_tiles(parent_samples):
    parent = _rich_model(seed=4)
    probe = generate_waveform(1, parent_samples, 0.5)
    parent.predict(probe)
    parent.loss_and_gradient(probe, probe)
    child = _perturbed(parent, 5)
    x = generate_waveform(3, 2 * PREDICT_BLOCK_ROWS + 1, 0.5)
    y = x.samples * (1.0 - 0.2 * np.abs(x.samples) ** 2)
    _assert_matches_oracle(child, x, y)
    best, _ = train(child, x, y, TrainConfig(segment_len=512, max_epochs=3))
    assert not np.array_equal(best.param_vector(), child.param_vector())
    _assert_matches_oracle(best, x, y)


def test_kernels_match_oracle_with_eight_experts():
    # From 8 experts on, the softmax's expert sum is pairwise in numpy.
    x = generate_waveform(23, 300, 0.5)
    y = generate_waveform(24, 300, 0.5)
    model = AgmpnnModel.init(TapWindow(pre_taps=6), 3, 8, seed=5, calibration=x)
    _assert_matches_oracle(_perturbed(model, 6), x, y)


def test_blocked_predict_matches_oracle_bitwise():
    # predict runs PREDICT_BLOCK_ROWS rows at a time.  A last block of one row
    # would be a dot product, not a gemv: with unit-size attention scales its
    # score differs in the last bit for several of these inputs.
    for seed in range(6):
        for pre in (6, 12):
            for n in (PREDICT_BLOCK_ROWS + 1, 2 * PREDICT_BLOCK_ROWS + 1, 3000):
                x = generate_waveform(seed, n, 0.5)
                base = AgmpnnModel.init(TapWindow(pre_taps=pre), 3, 3, seed=seed, calibration=x)
                scale = np.random.default_rng(seed).standard_normal(base.attn_scale.shape)
                model = AgmpnnModel(window=base.window, k_orders=3, n_experts=3,
                                    expert_coeff=base.expert_coeff, amp_offsets=base.amp_offsets,
                                    attn_scale=scale, attn_bias=base.attn_bias)
                expected = ref.agmpnn_forward_arrays(model, delayed_matrix(x, model.window))[0]
                assert np.array_equal(model.predict(x).samples, expected), (seed, pre, n)


def test_warm_started_kernels_match_oracle():
    chi = generate_waveform(25, 2048, 0.25)
    spec = MpmSpec(window=TapWindow(pre_taps=6), k_orders=3)
    lam = ls_fit(build_basis(chi, spec), chi.samples * (1.0 - 0.2 * np.abs(chi.samples) ** 2),
                 ridge=0.0)
    for perturb in (0.0, 1e-3):
        model = AgmpnnModel.init(spec.window, 3, 3, warm_start=lam, seed=1,
                                 calibration=chi, perturb=perturb)
        _assert_matches_oracle(model, chi.samples[:1024], generate_waveform(26, 1024, 0.25))


def test_kernels_match_oracle_where_an_offset_zeroes_whole_rows():
    # Expert 2's offset switches every tap of the quieter rows off, where the
    # offset gradient's expert path runs without the rectifier mask.
    x = generate_waveform(27, 400, 0.5)
    y = generate_waveform(28, 400, 0.5)
    window = TapWindow(pre_taps=3)
    base = _perturbed(AgmpnnModel.init(window, 3, 3, seed=2, calibration=x), 29)
    offsets = base.amp_offsets.copy()
    offsets[1] = -float(np.median(np.abs(x.samples)))
    model = AgmpnnModel(window=window, k_orders=3, n_experts=3, expert_coeff=base.expert_coeff,
                        amp_offsets=offsets, attn_scale=base.attn_scale, attn_bias=base.attn_bias)
    rect = np.maximum(np.abs(delayed_matrix(x, window)) + offsets[1], 0.0)
    off_rows = np.all(rect == 0.0, axis=1)
    assert 0 < off_rows.sum() < off_rows.size
    _assert_matches_oracle(model, x, y)


# === parameter vector protocol ===

def test_param_vector_round_trip():
    model = _rich_model(seed=8)
    rebuilt = model.with_param_vector(model.param_vector())
    assert np.array_equal(rebuilt.expert_coeff, model.expert_coeff)
    assert np.array_equal(rebuilt.amp_offsets, model.amp_offsets)
    assert np.array_equal(rebuilt.attn_scale, model.attn_scale)
    assert np.array_equal(rebuilt.attn_bias, model.attn_bias)
    with pytest.raises(ValueError):
        model.with_param_vector(np.zeros(3))


def test_gradient_vector_layout_matches_param_vector():
    model = _rich_model(pre=1, k=2, m=2, seed=9)
    x = generate_waveform(12, 200, 0.5)
    y = generate_waveform(13, 200, 0.5)
    vec = model.loss_and_gradient(x, y)[1]
    assert vec.shape == model.param_vector().shape
    # Nudging parameters along -gradient must reduce the loss.
    loss0, _ = model.loss_and_gradient(x, y)
    stepped = model.with_param_vector(model.param_vector() - 1e-4 * vec)
    loss1, _ = stepped.loss_and_gradient(x, y)
    assert loss1 < loss0


# === persistence ===

def test_save_load_round_trip(tmp_path):
    model = _rich_model(pre=2, post=1, k=3, m=3, seed=10)
    path = tmp_path / "model.agmpnn"
    model.save(path)
    back = AgmpnnModel.load(path)
    assert back.window == model.window
    assert np.array_equal(back.expert_coeff, model.expert_coeff)
    assert np.array_equal(back.amp_offsets, model.amp_offsets)
    assert np.array_equal(back.attn_scale, model.attn_scale)
    assert np.array_equal(back.attn_bias, model.attn_bias)
    x = generate_waveform(14, 128, 0.5)
    assert np.array_equal(back.predict(x).samples, model.predict(x).samples)


def test_load_rejects_wrong_kind(tmp_path):
    model = _rich_model(seed=11)
    path = tmp_path / "model.agmpnn"
    model.save(path)
    path.write_text(path.read_text().replace("kind = agmpnn", "kind = mpm"))
    with pytest.raises(FormatError):
        AgmpnnModel.load(path)


def test_constructor_validation():
    window = TapWindow(pre_taps=1)
    with pytest.raises(ValueError):
        AgmpnnModel(window=window, k_orders=0, n_experts=1,
                    expert_coeff=np.zeros((1, 2, 0)), amp_offsets=np.zeros(1),
                    attn_scale=np.zeros((1, 2)), attn_bias=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        AgmpnnModel(window=window, k_orders=1, n_experts=2,
                    expert_coeff=np.zeros((1, 2, 1)), amp_offsets=np.zeros(2),
                    attn_scale=np.zeros((2, 2)), attn_bias=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        AgmpnnModel(window=window, k_orders=1, n_experts=1,
                    expert_coeff=np.full((1, 2, 1), np.nan), amp_offsets=np.zeros(1),
                    attn_scale=np.zeros((1, 2)), attn_bias=np.zeros((1, 2)))
