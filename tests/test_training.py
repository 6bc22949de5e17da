"""Optimizer, segment handling, early stopping, and gradient verification."""

from dataclasses import dataclass, replace

import hashlib

import numpy as np
import pytest

from dpdlab import (
    AdamState,
    AgmpnnModel,
    RvftdnnModel,
    TapWindow,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    finite_diff_check,
    generate_waveform,
    nmse_db,
    pa_forward,
    preset,
    train,
)
from dpdlab.signal import NMSE_FLOOR_DB
from dpdlab.modelfile import Param, ParamModel, ParamTable
from dpdlab.mpm import MpmCoefficients
from dpdlab.training import (
    VAL_EVERY,
    best_fit,
    segment_pairs,
    segment_ranges,
    split_segments,
    validation_nmse_db,
)

import reference_impls as ref


# === Adam ===

def test_adam_zero_gradient_is_a_fixed_point():
    cfg = TrainConfig()
    state = AdamState.zeros(4)
    params = np.array([1.0, -2.0, 0.5, 0.0])
    new_state, new_params = adam_step(state, params, np.zeros(4), cfg)
    assert np.array_equal(new_params, params)
    assert new_state.step == 1


def test_adam_first_step_moves_by_learning_rate():
    # Bias correction makes the very first update lr * g / (|g| + eps).
    cfg = TrainConfig(learning_rate=0.05)
    state = AdamState.zeros(3)
    params = np.zeros(3)
    g = np.array([1.0, -3.0, 1e-4])
    _, new_params = adam_step(state, params, g, cfg)
    assert np.allclose(new_params, -cfg.learning_rate * np.sign(g), atol=1e-5)


def test_adam_trace_matches_reference():
    cfg = TrainConfig(learning_rate=0.01)
    rng = np.random.default_rng(0)
    params = rng.standard_normal(6)
    grads = [rng.standard_normal(6) for _ in range(7)]
    state = AdamState.zeros(6)
    current = params
    for g in grads:
        state, current = adam_step(state, current, g, cfg)
    expected = ref.adam_trace(params, grads, cfg.learning_rate,
                              cfg.beta1, cfg.beta2, cfg.epsilon)
    assert np.max(np.abs(current - expected)) < 1e-12
    assert state.step == 7


def test_adam_rejects_shape_mismatch():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        adam_step(AdamState.zeros(3), np.zeros(3), np.zeros(4), cfg)
    with pytest.raises(ValueError):
        adam_step(AdamState.zeros(2), np.zeros(3), np.zeros(3), cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        TrainConfig(seed=-1)


# === segmentation ===

def test_segment_ranges():
    assert segment_ranges(10, 3) == [(0, 3), (3, 6), (6, 9)]
    assert segment_ranges(1024, 1024) == [(0, 1024)]
    assert segment_ranges(5, 10) == []
    with pytest.raises(ValueError):
        segment_ranges(10, 0)


def test_split_segments_every_fifth():
    segs = list(range(10))
    tr, va = split_segments(segs)
    assert va == [4, 9]
    assert tr == [0, 1, 2, 3, 5, 6, 7, 8]
    assert VAL_EVERY == 5


def test_split_segments_fallback_for_short_lists():
    tr, va = split_segments([0, 1])
    assert (tr, va) == ([0], [1])
    with pytest.raises(ValueError):
        split_segments([0])


@pytest.mark.parametrize("n, made", [(1000, "0 segments"), (2047, "1 segment")])
def test_segment_pairs_names_the_counts_when_too_short(n, made):
    x = np.ones(n, dtype=np.complex128)
    with pytest.raises(ValueError) as err:
        segment_pairs(x, x, TapWindow(pre_taps=3), 1024)
    assert str(err.value) == (f"{n} samples make {made} of 1024; "
                              "need at least two (one training, one validation)")


# === validation metric ===

def _identity_model(taps=1):
    from dpdlab import MpmCoefficients

    coeff = np.zeros((taps, 1), dtype=complex)
    coeff[0, 0] = 1.0
    return MpmCoefficients(window=TapWindow(pre_taps=taps - 1), k_orders=1,
                           coeff=coeff)


def test_validation_nmse_single_segment_equals_plain_nmse():
    x = generate_waveform(0, 512, 0.25)
    y = 1.1 * x.samples
    model = _identity_model()
    got = validation_nmse_db(model, [model.window.scored_rows(x, y)])
    assert abs(got - nmse_db(x.samples, y)) < 1e-12


def test_validation_nmse_pools_energy_across_segments():
    a = np.full(16, 1.0 + 0.0j)
    b = np.full(16, 10.0 + 0.0j)
    model = _identity_model()
    scored = [model.window.scored_rows(a, a + 0.1), model.window.scored_rows(b, b + 0.1)]
    got = validation_nmse_db(model, scored)
    num = 16 * 0.1 ** 2 * 2
    den = 16 * (1.1 ** 2 + 10.1 ** 2)
    assert abs(got - 10.0 * np.log10(num / den)) < 1e-12


def test_validation_nmse_stays_finite_for_outputs_far_above_their_targets():
    # Squaring each error itself overflowed; nmse_db rescales instead.
    x = generate_waveform(1, 64, 0.5)
    model = _identity_model()
    got = validation_nmse_db(model, [model.window.scored_rows(1e200 * x.samples, x)])
    assert abs(got - 4000.0) < 1e-9


def test_validation_nmse_skips_window_edges():
    x = generate_waveform(1, 64, 0.5)
    bad_edge = x.samples.copy()
    bad_edge[32] = 1e6  # the validation segment's first sample, outside its interior
    model = _identity_model(taps=2)
    _, val_scored = segment_pairs(bad_edge, bad_edge, model.window, 32)
    got = validation_nmse_db(model, val_scored)
    assert got == NMSE_FLOOR_DB


# === model selection ===

def _mpm(k, n_taps=2):
    window = TapWindow(pre_taps=n_taps - 1)
    return MpmCoefficients(window=window, k_orders=k,
                           coeff=np.zeros((n_taps, k), dtype=complex))


def _rvftdnn(n1, n2, n_taps=1):
    return RvftdnnModel.init(TapWindow(pre_taps=n_taps - 1), n1, n2)


def test_best_fit_takes_the_best_validation_whatever_the_size():
    fits = [(_mpm(1), -20.0), (_mpm(4), -21.0), (_mpm(2), -20.5)]
    assert best_fit(fits) == fits[1]


def test_best_fit_breaks_a_validation_tie_toward_fewer_parameters():
    fits = [(_mpm(3), -20.0), (_mpm(2), -20.0), (_mpm(4), -19.0)]
    assert best_fit(fits) == fits[1]
    fits = [(_rvftdnn(4, 4), -15.0), (_rvftdnn(6, 2), -15.0), (_rvftdnn(2, 2), -15.0)]
    assert best_fit(fits) == fits[2]


def test_best_fit_breaks_a_parameter_tie_toward_smaller_sizes():
    # With one tap, (1, 3) and (3, 1) both have 17 parameters.
    wide, narrow = _rvftdnn(3, 1), _rvftdnn(1, 3)
    assert wide.n_params() == narrow.n_params() == 17
    for fits in ([(wide, -15.0), (narrow, -15.0)], [(narrow, -15.0), (wide, -15.0)]):
        assert best_fit(fits)[0] is narrow


def test_best_fit_matches_each_search_key():
    # Oracles: min (validation, count, order) for the order search and min
    # (validation, count, n1, n2) for the width search.  Planted validation
    # ties make the count and size tie-breaks decide.
    rng = np.random.default_rng(4)
    mpm = [_mpm(k, t) for k in (1, 2, 3, 4) for t in (1, 2, 3)]
    nets = [_rvftdnn(a, b, t) for a in (1, 2, 3) for b in (1, 2, 3) for t in (1, 2)]
    for models, old_key in (
            (mpm, lambda fit: (fit[1], fit[0].n_params(), fit[0].k_orders)),
            (nets, lambda fit: (fit[1], fit[0].n_params(), fit[0].n1, fit[0].n2))):
        for _ in range(50):
            picked = rng.permutation(len(models))[:6]
            fits = [(models[i], float(rng.choice([-20.0, -21.0]))) for i in picked]
            assert best_fit(fits) is min(fits, key=old_key)


# === rebuilding a model from a flat parameter vector ===

def _three_families():
    window = TapWindow(pre_taps=2, post_taps=1)
    rng = np.random.default_rng(6)
    coeff = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    return (MpmCoefficients(window=window, k_orders=3, coeff=coeff),
            AgmpnnModel.init(window, 3, 2, seed=6),
            RvftdnnModel.init(window, 4, 3, seed=6))


@pytest.mark.parametrize("model", _three_families(), ids=lambda m: m.PARAMS.kind)
def test_rebuild_checks_the_vector_once_with_the_construction_messages(model):
    vec = model.param_vector()
    with pytest.raises(ValueError, match=rf"^parameter vector must have {vec.size} entries, "
                                         rf"got \({vec.size - 1},\)$"):
        model.with_param_vector(vec[:-1])
    for bad in (np.nan, np.inf, -np.inf):
        spoilt = vec.copy()
        spoilt[-1] = bad
        with pytest.raises(ValueError, match="^model parameters must be finite$"):
            model.with_param_vector(spoilt)
        with pytest.raises(ValueError, match="^model parameters must be finite$"):
            replace(model, **model.param_views(spoilt))


@pytest.mark.parametrize("model", _three_families(), ids=lambda m: m.PARAMS.kind)
def test_rebuilt_arrays_are_read_only_copies_of_the_vector(model):
    vec = 0.5 * model.param_vector()
    rebuilt = model.with_param_vector(vec)
    vec[:] = 0.0  # the caller's vector is not held
    for p in model.PARAMS.params:
        arr = getattr(rebuilt, p.attr)
        assert arr.dtype == (np.complex128 if p.is_complex else np.float64)
        assert arr.shape == getattr(model, p.attr).shape
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    assert np.array_equal(rebuilt.param_vector(), 0.5 * model.param_vector())
    assert type(rebuilt) is type(model) and rebuilt.window == model.window


def test_rebuilt_agmpnn_predicts_what_a_freshly_built_one_does():
    # The old model's coefficient tiles must not serve the new coefficients.
    _, model, _ = _three_families()
    x = generate_waveform(11, 700, 0.5)
    model.predict(x)
    vec = model.param_vector() + 0.1 * np.random.default_rng(3).standard_normal(model.n_params())
    rebuilt = model.with_param_vector(vec)
    fresh = AgmpnnModel(window=model.window, k_orders=model.k_orders,
                        n_experts=model.n_experts, **model.param_views(vec))
    assert np.array_equal(rebuilt.predict(x).samples, fresh.predict(x).samples)
    assert not np.array_equal(rebuilt.predict(x).samples, model.predict(x).samples)


# === rigged models for loop-control tests ===

@dataclass(frozen=True)
class _ScalarModel(ParamModel):
    """y = a * x with a single real parameter; loss landscape is exact."""

    a: float
    grad_override: float = None
    window: TapWindow = TapWindow(pre_taps=0)

    PARAMS = ParamTable("scalar", sizes=(), params=(Param("a", "a", lambda d: ()),))

    def output_rows(self, rows):
        return self.a * rows[:, 0]

    def loss_rows(self, rows, target_rows, grads):
        xs = rows[:, 0]
        resid = self.a * xs - target_rows
        loss = float(np.mean(np.abs(resid) ** 2))
        if self.grad_override is not None:
            grads["a"][...] = self.grad_override
            return self.grad_override * loss if np.isinf(self.grad_override) else loss
        grads["a"][...] = 2.0 * float(np.mean((resid * np.conj(xs)).real))
        return loss


def test_train_already_optimal_model_is_returned_unchanged():
    x = generate_waveform(2, 2048, 0.25)
    cfg = TrainConfig(segment_len=256, max_epochs=6, patience=2)
    best, history = train(_ScalarModel(a=0.75), x, 0.75 * x.samples, cfg)
    assert best.a == 0.75
    assert history.best_epoch == 0
    assert history.val_nmse_db[0] == NMSE_FLOOR_DB
    assert history.stopped_epoch == cfg.patience  # no improvement possible


def test_train_patience_stops_exactly_after_no_improvement():
    # A constant positive gradient drags `a` away from the optimum forever, so
    # epoch 0 stays best and the loop must halt at best_epoch + patience.
    x = generate_waveform(3, 2048, 0.25)
    for patience in (1, 3, 6):
        cfg = TrainConfig(segment_len=256, max_epochs=50, patience=patience)
        model = _ScalarModel(a=1.0, grad_override=1.0)
        _, history = train(model, x, x.samples, cfg)
        assert history.best_epoch == 0
        assert history.stopped_epoch == patience
        assert history.epochs == list(range(patience + 1))


def test_train_raises_on_non_finite_loss():
    x = generate_waveform(4, 1024, 0.25)
    model = _ScalarModel(a=1.0, grad_override=np.inf)
    with pytest.raises(TrainingDivergedError):
        train(model, x, x.samples, TrainConfig(segment_len=256, max_epochs=3))


def test_train_converges_on_exactly_solvable_problem():
    # Single expert, single tap, linear order: the mixture collapses to
    # y = c * x and the optimizer must find c almost exactly.
    x = generate_waveform(5, 4096, 0.25)
    target = (0.8 - 0.25j) * x.samples
    model = AgmpnnModel.init(TapWindow(pre_taps=0), 1, 1, seed=0)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=1, segment_len=256,
                      max_epochs=300, patience=30)
    best, history = train(model, x, target, cfg)
    assert history.best_val_nmse_db() < -60.0
    assert nmse_db(best.predict(x), target) < -60.0


def test_train_restores_the_best_epoch_parameters():
    x = generate_waveform(6, 4096, 0.25)
    target = x.samples * (1.0 - 0.15 * np.abs(x.samples) ** 2)
    model = RvftdnnModel.init(TapWindow(pre_taps=1), 6, 5, seed=1)
    cfg = TrainConfig(learning_rate=5e-3, segment_len=256, batch_size=4,
                      max_epochs=12, patience=4)
    best, history = train(model, x, target, cfg)
    assert history.best_val_nmse_db() == min(history.val_nmse_db)
    # Recreate the validation rows and confirm the returned model scores
    # exactly the recorded best value.
    _, val_scored = segment_pairs(x, target, model.window, cfg.segment_len)
    rescored = validation_nmse_db(best, val_scored)
    assert abs(rescored - history.best_val_nmse_db()) < 1e-12


def test_train_is_reproducible():
    x = generate_waveform(7, 2048, 0.25)
    target = x.samples * (1.0 - 0.1 * np.abs(x.samples) ** 2)
    cfg = TrainConfig(segment_len=256, max_epochs=5)
    runs = []
    for _ in range(2):
        model = AgmpnnModel.init(TapWindow(pre_taps=1), 2, 2, seed=3)
        best, history = train(model, x, target, cfg)
        runs.append((best.param_vector(), history.train_loss, history.val_nmse_db))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]


def test_train_history_structure():
    x = generate_waveform(8, 2048, 0.25)
    target = x.samples * (1.0 - 0.1 * np.abs(x.samples) ** 2)
    model = AgmpnnModel.init(TapWindow(pre_taps=1), 2, 2, seed=4)
    cfg = TrainConfig(segment_len=256, max_epochs=8, patience=3)
    _, history = train(model, x, target, cfg)
    stopped = history.stopped_epoch
    assert 1 <= stopped <= cfg.max_epochs
    assert history.epochs == list(range(stopped + 1))
    assert len(history.train_loss) == stopped + 1
    assert len(history.val_nmse_db) == stopped + 1
    assert 0 <= history.best_epoch <= stopped
    if stopped < cfg.max_epochs:
        assert stopped == history.best_epoch + cfg.patience


@pytest.mark.parametrize("family", ["agmpnn", "rvftdnn"])
def test_epoch_zero_train_loss_is_the_mean_loss_of_the_training_segments(family):
    x = generate_waveform(8, 2048, 0.25)
    target = x.samples * (1.0 - 0.1 * np.abs(x.samples) ** 2)
    window = TapWindow(pre_taps=1)
    if family == "agmpnn":
        model = AgmpnnModel.init(window, 2, 2, seed=4)
    else:
        model = RvftdnnModel.init(window, 3, 2, seed=4)
    cfg = TrainConfig(segment_len=256, max_epochs=1)
    _, history = train(model, x, target, cfg)
    train_ranges, _ = split_segments(segment_ranges(len(x), cfg.segment_len))
    losses = [model.loss_and_gradient(x.samples[a:b], target[a:b])[0] for a, b in train_ranges]
    assert history.train_loss[0] == float(np.mean(losses))


@pytest.mark.parametrize("family", ["agmpnn", "rvftdnn"])
def test_train_prepares_each_segment_once_and_tiles_each_model_once(monkeypatch, family):
    # The hot path: a gradient step and a validation score reuse their
    # segment's scored rows, and one row-tile build serves a model's gradients
    # and its validation score.
    x = generate_waveform(8, 4096, 0.25)
    target = x.samples * (1.0 - 0.1 * np.abs(x.samples) ** 2)
    window = TapWindow(pre_taps=2)
    if family == "agmpnn":
        model = AgmpnnModel.init(window, 2, 2, seed=4)
    else:
        model = RvftdnnModel.init(window, 3, 2, seed=4)
    cfg = TrainConfig(segment_len=1024, batch_size=2, max_epochs=3)
    scored, tiled = [], []
    scored_rows = TapWindow.scored_rows
    tile_rows = type(model)._tile_rows

    def counting_scored_rows(self, x, target):
        scored.append(x)
        return scored_rows(self, x, target)

    def counting_tile_rows(self, rows):
        tiled.append(self)
        return tile_rows(self, rows)

    monkeypatch.setattr(TapWindow, "scored_rows", counting_scored_rows)
    monkeypatch.setattr(type(model), "_tile_rows", counting_tile_rows)
    _, history = train(model, x, target, cfg)
    monkeypatch.undo()
    assert history.stopped_epoch == cfg.max_epochs
    # every training and validation segment once
    assert len(scored) == len({id(seq) for seq in scored}) == len(x) // cfg.segment_len
    # 2 Adam steps per epoch, so the starting model and 6 stepped ones
    assert len(tiled) == len({id(m) for m in tiled}) == 1 + 2 * cfg.max_epochs


def test_history_csv_format():
    x = generate_waveform(9, 1024, 0.25)
    model = _ScalarModel(a=0.5)
    _, history = train(model, x, x.samples, TrainConfig(segment_len=256, max_epochs=2, patience=5))
    text = history.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_nmse_db"
    assert len(lines) == len(history.epochs) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1])
    float(first[2])
    assert text.endswith("\n")


def test_train_rejects_mismatched_lengths():
    x = generate_waveform(10, 1024, 0.25)
    with pytest.raises(ValueError):
        train(_ScalarModel(a=1.0), x, x.samples[:512], TrainConfig(segment_len=256))


def test_train_rejects_window_longer_than_segment():
    x = generate_waveform(11, 1024, 0.25)
    model = AgmpnnModel.init(TapWindow(pre_taps=40), 1, 1)
    with pytest.raises(ValueError):
        train(model, x, x.samples, TrainConfig(segment_len=32))


# === finite differences ===

def test_finite_diff_check_passes_for_exact_gradients():
    x = generate_waveform(12, 300, 0.5)
    y = generate_waveform(13, 300, 0.5)
    model = _ScalarModel(a=0.7)
    assert finite_diff_check(model, x, y) < 1e-7


def test_finite_diff_check_catches_a_wrong_gradient():
    x = generate_waveform(14, 300, 0.5)
    y = 0.5 * x.samples
    model = _ScalarModel(a=1.0, grad_override=123.0)
    assert finite_diff_check(model, x, y) > 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_finite_diff_check_fails_on_a_non_finite_gradient(monkeypatch, bad):
    # max(worst, nan) keeps worst, so one NaN analytic entry used to pass.
    x = generate_waveform(7, 256, 0.5)
    y = generate_waveform(8, 256, 0.5)
    model = AgmpnnModel.init(TapWindow(pre_taps=2), 2, 2, seed=0)
    exact = AgmpnnModel.loss_and_gradient

    def one_bad_entry(self, x, target):
        loss, grad = exact(self, x, target)
        grad = grad.copy()
        grad[3] = bad
        return loss, grad

    monkeypatch.setattr(AgmpnnModel, "loss_and_gradient", one_bad_entry)
    assert not np.isfinite(finite_diff_check(model, x, y))


def test_finite_diff_check_rejects_large_models():
    model = RvftdnnModel.init(TapWindow(pre_taps=9), 22, 22)  # 1014 parameters
    x = generate_waveform(15, 128, 0.5)
    with pytest.raises(ValueError):
        finite_diff_check(model, x, x)


# === short seeded fits on a PA's output ===

def _pa_pair(n_samples):
    """(PA output, PA input): the postinverse training direction."""
    x = generate_waveform(3, n_samples, 0.25)
    return pa_forward(preset("high"), x), x


def _family_model(family, window, calibration):
    if family == "rvftdnn":
        return RvftdnnModel.init(window, 6, 5, seed=2)
    if family == "rvftdnn_1x1":
        return RvftdnnModel.init(window, 1, 1, seed=2)
    return AgmpnnModel.init(window, 3, 3, seed=2, calibration=calibration)


@pytest.mark.parametrize("family", ["rvftdnn", "agmpnn"])
def test_a_strided_target_gives_the_same_loss_and_gradient_bytes(family):
    y, x = _pa_pair(700)
    window = TapWindow(pre_taps=4, post_taps=1)
    model = _family_model(family, window, x)
    strided_target = np.stack([x.samples, x.samples], axis=1)[:, 0]
    got = model.loss_and_gradient(y, x)
    want = model.loss_and_gradient(y.samples, strided_target)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


# History CSV and SHA-256 of the trained parameter bytes of a short seeded fit,
# recorded while every gradient call still rebuilt its segment's tap matrix.
GOLDEN_TRAIN = {
    "rvftdnn": ("""epoch,train_loss,val_nmse_db
0,1.343070745639e+00,1.217257
1,1.286494766091e+00,0.497290
2,1.069886230150e+00,-0.233922
3,8.916606458718e-01,-0.950762
4,7.338060343755e-01,-1.643330
5,6.163592585921e-01,-2.303372
""", "7a6c3152abd013a8531f23e6ac4352c38753ede862aa4dd6be6ac9e26ad3de6d"),
    "agmpnn": ("""epoch,train_loss,val_nmse_db
0,1.869572184966e-01,-7.019040
1,1.651974198430e-01,-8.406017
2,1.147331742792e-01,-10.003964
3,7.609824157780e-02,-11.512157
4,5.786603456789e-02,-12.294428
5,4.973753622288e-02,-12.307523
""", "af6a67cc3b543db6c94de5e4dbb49a8f3c2c8c29e2947fececd817d6c734afb4"),
    # Width 1, where a layer's bias gradient is a pairwise column sum;
    # recorded before the in-place kernels.
    "rvftdnn_1x1": ("""epoch,train_loss,val_nmse_db
0,9.125829664373e-01,-0.397449
1,9.181552581189e-01,-0.472930
2,9.014770015190e-01,-0.554474
3,8.845720451193e-01,-0.638663
4,8.472247035822e-01,-0.724805
5,8.321825634340e-01,-0.812883
""", "5df725304a1db6bbdca9a47fb6ca947b9a4e477a2df8522de6470061231e0046"),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_TRAIN))
def test_short_train_matches_golden_bytes(family):
    y, x = _pa_pair(4096)
    model = _family_model(family, TapWindow(pre_taps=4, post_taps=1), x)
    cfg = TrainConfig(learning_rate=5e-3, batch_size=3, segment_len=512, max_epochs=5,
                      patience=5, seed=4)
    trained, history = train(model, y, x, cfg)
    csv, digest = GOLDEN_TRAIN[family]
    assert history.to_csv() == csv
    assert hashlib.sha256(trained.param_vector().tobytes()).hexdigest() == digest


def _interior_nmse_db(model, psi, phi, segment_len):
    """The validation score as predict gives it: nmse_db of each validation
    segment's predict over its interior, concatenated."""
    _, val_ranges = split_segments(segment_ranges(psi.size, segment_len))
    rows = model.window.interior(segment_len)
    return nmse_db(np.concatenate([model.predict(psi[a:b]).samples[rows] for a, b in val_ranges]),
                   np.concatenate([phi[a:b][rows] for a, b in val_ranges]))


@pytest.mark.parametrize("family", ["mpm", *sorted(GOLDEN_TRAIN)])
def test_validation_on_scored_rows_is_predict_over_the_interiors_bit_for_bit(family):
    # The GOLDEN_TRAIN setup: each family's starting and trained models, and
    # the order search's fit, score the same bits from their scored rows.
    y, x = _pa_pair(4096)
    window = TapWindow(pre_taps=4, post_taps=1)
    cfg = TrainConfig(learning_rate=5e-3, batch_size=3, segment_len=512, max_epochs=5,
                      patience=5, seed=4)
    _, val_scored = segment_pairs(y, x, window, cfg.segment_len)
    if family == "mpm":
        (model, val), = MpmCoefficients.fit_orders(y, x, window, (3,), cfg.segment_len)
        models = [model]
        assert val == _interior_nmse_db(model, y.samples, x.samples, cfg.segment_len)
    else:
        start = _family_model(family, window, x)
        trained, history = train(start, y, x, cfg)
        models = [start, trained]
        assert history.best_val_nmse_db() == validation_nmse_db(trained, val_scored)
    for model in models:
        assert (validation_nmse_db(model, val_scored)
                == _interior_nmse_db(model, y.samples, x.samples, cfg.segment_len))


def test_validation_runs_output_rows_and_never_predict(monkeypatch):
    y, x = _pa_pair(2048)
    window = TapWindow(pre_taps=2)
    cfg = TrainConfig(segment_len=512, max_epochs=2, patience=5)
    _, val_scored = segment_pairs(y, x, window, cfg.segment_len)
    calls = []

    def refuse(self, x):
        raise AssertionError("validation called predict")

    for cls in (MpmCoefficients, AgmpnnModel, RvftdnnModel):
        output_rows = cls.output_rows
        monkeypatch.setattr(cls, "predict", refuse)
        monkeypatch.setattr(cls, "output_rows", lambda self, rows, output_rows=output_rows: (
            calls.append(rows.shape) or output_rows(self, rows)))
    for model in (AgmpnnModel.init(window, 2, 2, seed=1), RvftdnnModel.init(window, 3, 2, seed=1)):
        calls.clear()
        _, history = train(model, y, x, cfg)
        # one call per validation segment and epoch, on its interior rows
        assert calls == [(510, 3)] * len(val_scored) * len(history.epochs)
    calls.clear()
    assert len(MpmCoefficients.fit_orders(y, x, window, (1, 2), cfg.segment_len)) == 2
    assert calls == [(510, 3)] * 2 * len(val_scored)
