"""Real-valued time-delay dense network baseline."""

import numpy as np
import pytest

from dpdlab import (
    FormatError,
    RvftdnnModel,
    TapWindow,
    TrainConfig,
    architecture_search,
    generate_waveform,
    rvftdnn_param_count,
)
from dpdlab.signal import PREDICT_BLOCK_ROWS, FramedSequence, delayed_matrix
from dpdlab.training import train

import reference_impls as ref

# Published best (taps, n1, n2) per drive level; every one must respect the
# 100-600 trainable-parameter budget used throughout the complexity sweeps.
BEST_ARCH_HIGH = ((4, 17, 15), (5, 13, 13), (6, 18, 17), (7, 16, 16),
                  (8, 19, 12), (9, 13, 17), (10, 16, 11))
BEST_ARCH_LOW = ((4, 17, 17), (5, 18, 18), (6, 15, 10), (7, 16, 16),
                 (8, 15, 10), (9, 16, 12), (10, 15, 14))


# === parameter counts ===

def test_param_count_examples():
    assert rvftdnn_param_count(4, 17, 15) == 455
    assert rvftdnn_param_count(7, 16, 16) == 546
    assert rvftdnn_param_count(1, 1, 1) == 9


def test_param_count_matches_shapes():
    for taps, n1, n2 in ((3, 5, 4), (1, 2, 2), (7, 16, 16)):
        model = RvftdnnModel.init(TapWindow(pre_taps=taps - 1), n1, n2)
        total = sum(a.size for a in (model.w1, model.b1, model.w2,
                                     model.b2, model.w3, model.b3))
        assert total == rvftdnn_param_count(taps, n1, n2)
        assert model.n_params() == total
        assert model.param_vector().size == total


def test_published_architectures_fit_budget():
    for table in (BEST_ARCH_HIGH, BEST_ARCH_LOW):
        for taps, n1, n2 in table:
            assert 100 <= rvftdnn_param_count(taps, n1, n2) <= 600


# === initialization ===

def test_init_deterministic_and_zero_biased():
    window = TapWindow(pre_taps=3)
    a = RvftdnnModel.init(window, 8, 6, seed=2)
    b = RvftdnnModel.init(window, 8, 6, seed=2)
    c = RvftdnnModel.init(window, 8, 6, seed=3)
    assert np.array_equal(a.param_vector(), b.param_vector())
    assert not np.array_equal(a.param_vector(), c.param_vector())
    assert np.all(a.b1 == 0.0) and np.all(a.b2 == 0.0) and np.all(a.b3 == 0.0)
    assert (a.n1, a.n2) == (8, 6)


def test_init_rejects_degenerate_widths():
    with pytest.raises(ValueError):
        RvftdnnModel.init(TapWindow(pre_taps=1), 0, 4)
    with pytest.raises(ValueError):
        RvftdnnModel.init(TapWindow(pre_taps=1), 4, 0)


# === forward pass ===

def test_zero_input_zero_bias_gives_zero_output():
    model = RvftdnnModel.init(TapWindow(pre_taps=2), 5, 4, seed=0)
    out = model.predict(np.zeros(32, dtype=np.complex128))
    assert np.max(np.abs(out.samples)) == 0.0


def test_bias_only_network_is_constant():
    window = TapWindow(pre_taps=0)
    model = RvftdnnModel(window=window,
                         w1=np.zeros((2, 3)), b1=np.zeros(3),
                         w2=np.zeros((3, 2)), b2=np.zeros(2),
                         w3=np.zeros((2, 2)), b3=np.array([0.25, -1.5]))
    out = model.predict(generate_waveform(0, 64, 0.5))
    assert np.allclose(out.samples, 0.25 - 1.5j)


def test_predict_matches_reference_loop():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    for pre, post, n1, n2, seed in ((3, 0, 5, 4, 0), (2, 1, 4, 3, 1), (0, 0, 2, 2, 2)):
        model = RvftdnnModel.init(TapWindow(pre_taps=pre, post_taps=post), n1, n2, seed=seed)
        vec = 0.5 * np.random.default_rng(seed + 50).standard_normal(model.n_params())
        model = model.with_param_vector(vec)
        expected = ref.rvftdnn_forward(x, model.w1, model.b1, model.w2,
                                       model.b2, model.w3, model.b3, pre, post)
        assert np.max(np.abs(model.predict(x).samples - expected)) < 1e-12


def test_hidden_saturation_bounds_output():
    model = RvftdnnModel.init(TapWindow(pre_taps=1), 6, 5, seed=4)
    huge = 1e6 * generate_waveform(2, 64, 0.5).samples
    out = model.predict(huge).samples
    bound = np.abs(model.w3).sum() + np.abs(model.b3).sum()
    assert np.max(np.abs(out)) <= np.sqrt(2.0) * bound + 1e-9


# === gradients ===

def test_loss_zero_at_own_prediction():
    model = RvftdnnModel.init(TapWindow(pre_taps=2), 6, 5, seed=5)
    x = generate_waveform(3, 256, 0.25)
    loss, grad = model.loss_and_gradient(x, model.predict(x))
    assert loss == 0.0
    assert np.max(np.abs(grad)) == 0.0


def test_gradient_matches_finite_differences():
    from dpdlab import finite_diff_check

    x = generate_waveform(4, 400, 0.5)
    y = generate_waveform(5, 400, 0.5)
    for seed in range(3):
        model = RvftdnnModel.init(TapWindow(pre_taps=2), 5, 4, seed=seed)
        vec = 0.4 * np.random.default_rng(seed + 90).standard_normal(model.n_params())
        assert finite_diff_check(model.with_param_vector(vec), x, y) < 1e-5


def test_gradient_step_reduces_loss():
    model = RvftdnnModel.init(TapWindow(pre_taps=3), 6, 5, seed=6)
    x = generate_waveform(6, 300, 0.25)
    y = x.samples * (1.0 - 0.1 * np.abs(x.samples) ** 2)
    loss0, grad = model.loss_and_gradient(x, y)
    stepped = model.with_param_vector(model.param_vector() - 1e-2 * grad)
    loss1, _ = stepped.loss_and_gradient(x, y)
    assert loss1 < loss0


def test_param_vector_round_trip():
    model = RvftdnnModel.init(TapWindow(pre_taps=2), 4, 3, seed=7)
    rebuilt = model.with_param_vector(model.param_vector())
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert np.array_equal(getattr(rebuilt, name), getattr(model, name))
    with pytest.raises(ValueError):
        model.with_param_vector(np.zeros(4))


# === the in-place kernels against the kernels they replaced ===

WIDTHS = ((1, 1), (1, 5), (5, 1), (2, 2), (3, 20), (16, 16), (24, 24))
WINDOWS = (TapWindow(pre_taps=0), TapWindow(pre_taps=3), TapWindow(pre_taps=6),
           TapWindow(pre_taps=12), TapWindow(pre_taps=5, post_taps=1))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _blocked_reference(model, x):
    """The reference forward pass run on predict's row blocks: PREDICT_BLOCK_ROWS
    rows each, a last block of one row joining the block before it."""
    feats = delayed_matrix(x, model.window).view(np.float64)
    n = feats.shape[0]
    starts = list(range(0, n, PREDICT_BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return np.concatenate([ref.rvftdnn_rows(model, feats[a:b])
                           for a, b in zip(starts, starts[1:] + [n])])


@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"{w.pre_taps}-{w.post_taps}")
@pytest.mark.parametrize("n1, n2", WIDTHS)
def test_kernels_give_the_reference_bits(n1, n2, window):
    base = RvftdnnModel.init(window, n1, n2, seed=n1 + n2)
    rng = np.random.default_rng(10 * n1 + n2)
    model = base.with_param_vector(base.param_vector()
                                   + 0.3 * rng.standard_normal(base.n_params()))
    for n in (512, 1024, 1025, 2049, 16390):
        x = generate_waveform(n, n, 0.5).samples
        y = x * (1.0 - 0.2 * np.abs(x) ** 2) + 0.01 * rng.standard_normal(n)
        for seq in (x, FramedSequence(x, window=window)):
            assert _same_bits(model.predict(seq).samples, _blocked_reference(model, seq))
            loss, flat = model.loss_and_gradient(seq, y)
            grads = model.PARAMS.views(model, flat)
            ref_loss, ref_grads = ref.rvftdnn_backward(model, seq, y)
            assert _same_bits(loss, ref_loss)
            assert grads.keys() == ref_grads.keys()
            for name, grad in grads.items():
                assert _same_bits(grad, ref_grads[name]), (n, type(seq).__name__, name)


def _assert_matches_reference(model, x, y):
    """predict, the loss and every gradient array equal, bit for bit, the
    reference kernels on the model's own parameters."""
    assert _same_bits(model.predict(x).samples, _blocked_reference(model, x))
    loss, flat = model.loss_and_gradient(x, y)
    ref_loss, ref_grads = ref.rvftdnn_backward(model, x, y)
    assert _same_bits(loss, ref_loss)
    for name, grad in model.PARAMS.views(model, flat).items():
        assert _same_bits(grad, ref_grads[name]), name


# A parent's bias tiles cover 1025 rows after a 300-sample predict and 4093
# after a 4096-sample loss: fewer and more rows than the child's 2049 samples.
@pytest.mark.parametrize("parent_samples", [300, 4096])
def test_a_rebuilt_model_uses_its_own_bias_tiles(parent_samples):
    window = TapWindow(pre_taps=3)
    parent = RvftdnnModel.init(window, 3, 4, seed=1)
    probe = generate_waveform(1, parent_samples, 0.5)
    parent.predict(probe)
    parent.loss_and_gradient(probe, probe)
    rng = np.random.default_rng(2)
    child = parent.with_param_vector(parent.param_vector() + rng.standard_normal(parent.n_params()))
    x = generate_waveform(3, 2 * PREDICT_BLOCK_ROWS + 1, 0.5).samples
    y = x * (1.0 - 0.2 * np.abs(x) ** 2)
    _assert_matches_reference(child, x, y)
    best, _ = train(child, x, y, TrainConfig(segment_len=512, max_epochs=3))
    assert not _same_bits(best.param_vector(), child.param_vector())
    _assert_matches_reference(best, x, y)


# === architecture search ===

def test_search_singleton_grid_returns_that_pair():
    x = generate_waveform(7, 1024, 0.25)
    y = x.samples * (1.0 - 0.1 * np.abs(x.samples) ** 2)
    cfg = TrainConfig(max_epochs=3, segment_len=256)
    model, val = architecture_search(TapWindow(pre_taps=3), x, y, cfg, ((16, 16),))
    assert (model.n1, model.n2) == (16, 16)
    assert model.n_params() == rvftdnn_param_count(4, 16, 16)
    assert np.isfinite(val)
    assert isinstance(model, RvftdnnModel)


def test_search_respects_budget():
    x = generate_waveform(8, 1024, 0.25)
    y = x.samples
    cfg = TrainConfig(max_epochs=2, segment_len=256)
    with pytest.raises(ValueError):
        architecture_search(TapWindow(pre_taps=3), x, y, cfg, ((25, 25),))
    model, _ = architecture_search(TapWindow(pre_taps=3), x, y, cfg, ((2, 2), (12, 12)))
    assert (model.n1, model.n2) == (12, 12)  # (2, 2) falls below the 100-param floor


def test_search_is_deterministic():
    x = generate_waveform(9, 1024, 0.25)
    y = x.samples * (1.0 - (0.05 + 0.02j) * np.abs(x.samples) ** 2)
    cfg = TrainConfig(max_epochs=3, segment_len=256)
    grid = ((10, 10), (12, 8))
    a, a_val = architecture_search(TapWindow(pre_taps=3), x, y, cfg, grid)
    b, b_val = architecture_search(TapWindow(pre_taps=3), x, y, cfg, grid)
    assert (a.n1, a.n2) == (b.n1, b.n2)
    assert a_val == b_val
    assert np.array_equal(a.param_vector(), b.param_vector())


def test_search_keeps_the_best_validation_then_fewer_parameters_then_smaller_widths():
    # Oracle: train each candidate by hand and keep the minimum of
    # (validation, count, n1, n2).
    x = generate_waveform(9, 1024, 0.25)
    y = x.samples * (1.0 - (0.05 + 0.02j) * np.abs(x.samples) ** 2)
    cfg = TrainConfig(max_epochs=3, segment_len=256)
    window = TapWindow(pre_taps=3)
    grid = ((12, 8), (10, 10), (8, 12), (9, 9))
    model, val = architecture_search(window, x, y, cfg, grid)
    keyed = []
    for n1, n2 in sorted(grid):
        trained, history = train(RvftdnnModel.init(window, n1, n2), x, y, cfg)
        keyed.append(((history.best_val_nmse_db(), trained.n_params(), n1, n2), trained))
    key, expected = min(keyed, key=lambda item: item[0])
    assert val == key[0]
    assert (model.n1, model.n2) == key[2:]
    assert np.array_equal(model.param_vector(), expected.param_vector())


# === persistence ===

def test_save_load_round_trip(tmp_path):
    model = RvftdnnModel.init(TapWindow(pre_taps=2, post_taps=1), 5, 4, seed=8)
    vec = 0.3 * np.random.default_rng(123).standard_normal(model.n_params())
    model = model.with_param_vector(vec)
    path = tmp_path / "model.rvftdnn"
    model.save(path)
    back = RvftdnnModel.load(path)
    assert back.window == model.window
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert np.array_equal(getattr(back, name), getattr(model, name))
    x = generate_waveform(10, 128, 0.5)
    assert np.array_equal(back.predict(x).samples, model.predict(x).samples)


def test_load_rejects_wrong_kind(tmp_path):
    model = RvftdnnModel.init(TapWindow(pre_taps=1), 3, 3, seed=9)
    path = tmp_path / "model.rvftdnn"
    model.save(path)
    path.write_text(path.read_text().replace("kind = rvftdnn", "kind = mpm"))
    with pytest.raises(FormatError):
        RvftdnnModel.load(path)
