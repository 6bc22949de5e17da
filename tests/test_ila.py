"""Indirect-learning fit/deploy/evaluate harness and sweep reports."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpdlab
from dpdlab import (
    AgmpnnModel,
    ConditioningError,
    FormatError,
    MpmCoefficients,
    MpmSpec,
    RvftdnnModel,
    TapWindow,
    TrainConfig,
    generate_waveform,
    pa_forward,
    preset,
    train,
)
from dpdlab.cli import dispatch
from dpdlab.ila import (
    DEFAULT_MPM_K_GRID,
    DEFAULT_NN_GRID,
    DEFAULT_PARAM_TARGETS,
    DEFAULT_TAPS_LIST,
    EVAL_SEED_OFFSET,
    FAMILIES,
    MAX_ALIGN_LAG,
    MODEL_CLASSES,
    REPORT_COLUMNS,
    REPORT_HEADER,
    TARGET_TOLERANCE,
    DpdModelSpec,
    IlaReport,
    _advance,
    _closest_specs,
    drive_ila,
    fit_model_on_data,
    fit_predistorter,
    linearization_nmse_db,
    load_model,
    observe_pa,
    reports_to_csv,
    run_ila,
    sweep_complexity,
    sweep_taps,
)
from dpdlab.mpm import BasisMatrix, basis_rows, ls_fit
from dpdlab.pa_sim import PaConfig
from dpdlab.rvftdnn import rvftdnn_param_count
from dpdlab.signal import ComplexSequence
from dpdlab.training import segment_pairs, validation_nmse_db

import reference_impls as ref

FAST_CFG = TrainConfig(segment_len=512, max_epochs=3, patience=2)


def _linear_pa():
    return PaConfig(coeffs=np.array([[1.0 + 0.0j]]))


# === constants and spec validation ===

def test_module_constants():
    assert MAX_ALIGN_LAG == 8
    assert EVAL_SEED_OFFSET == 1000
    assert FAMILIES == ("mpm", "agmpnn", "rvftdnn")
    assert DEFAULT_TAPS_LIST == (4, 5, 6, 7, 8, 9, 10)
    assert DEFAULT_PARAM_TARGETS == (100, 200, 300, 400, 500, 600)
    assert DEFAULT_MPM_K_GRID == (1, 2, 3, 4, 5, 6, 7, 8)
    assert DEFAULT_NN_GRID == (8, 10, 12, 14, 16, 18, 20)
    assert REPORT_HEADER.split(",") == [
        "family", "preset", "taps", "k_orders", "m_experts", "params_formula",
        "params_actual", "seed", "postinv_nmse_db", "lin_nmse_db", "no_dpd_nmse_db"]
    assert set(REPORT_COLUMNS) <= set(IlaReport.__dataclass_fields__)


def test_model_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        DpdModelSpec(kind="volterra", window=TapWindow(pre_taps=3))


def test_model_spec_rejects_a_reversed_budget():
    with pytest.raises(ValueError, match=r"^budget_lo \(600\) exceeds budget_hi \(100\)$"):
        DpdModelSpec(kind="rvftdnn", window=TapWindow(pre_taps=3), budget=(600, 100))


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
def test_model_spec_rejects_a_bad_ridge(ridge):
    # Checked where every family's spec is made, not only where ls_fit reads it.
    rule = "at least 0" if np.isfinite(ridge) else "finite"
    for kind in FAMILIES:
        with pytest.raises(ValueError, match=f"^ridge must be {rule}, got {ridge}$"):
            DpdModelSpec(kind=kind, window=TapWindow(pre_taps=3), ridge=ridge)
    assert DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=3), ridge=0.0).ridge == 0.0


def test_report_feasibility():
    blank = IlaReport(family="mpm", preset="low", taps=4, seed=1)
    assert not blank.feasible
    full = IlaReport(family="mpm", preset="low", taps=4, seed=1, postinv_nmse_db=-20.0)
    assert full.feasible


# === sample shifting ===

def test_advance_examples():
    x = np.arange(5, dtype=np.complex128)
    assert np.array_equal(_advance(x, 0), x)
    assert np.array_equal(_advance(x, 2), np.array([2, 3, 4, 0, 0], dtype=complex))
    assert np.array_equal(_advance(x, -2), np.array([0, 0, 0, 1, 2], dtype=complex))


# === closed-loop behavior ===

def test_linear_pa_needs_no_predistortion():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=0), k_orders=1)
    report = run_ila(_linear_pa(), "high", spec, seed=1, n_samples=4096)
    assert report.postinv_nmse_db < -150.0
    assert report.lin_nmse_db < -250.0
    assert report.no_dpd_nmse_db < -250.0
    assert report.improved


def test_low_preset_polynomial_dpd_improves_substantially():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=6), k_orders=5)
    report = run_ila(preset("low"), "low", spec, seed=1, n_samples=8192)
    assert report.improved
    assert report.lin_nmse_db < report.no_dpd_nmse_db - 15.0
    assert report.postinv_nmse_db < -30.0


def test_eval_seed_defaults_to_offset():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=1), k_orders=2)
    report = run_ila(preset("low"), "low", spec, seed=7, n_samples=4096)
    assert report.eval_seed == 7 + EVAL_SEED_OFFSET
    drive = drive_ila(preset("low"), 7, 4096)
    assert np.array_equal(drive.chi_eval.samples,
                          generate_waveform(7 + EVAL_SEED_OFFSET, 4096, 0.25).samples)


def test_run_ila_is_deterministic():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=3), k_orders=3)
    a = run_ila(preset("high"), "high", spec, seed=2, n_samples=4096)
    b = run_ila(preset("high"), "high", spec, seed=2, n_samples=4096)
    assert a.postinv_nmse_db == b.postinv_nmse_db
    assert a.lin_nmse_db == b.lin_nmse_db
    assert a.no_dpd_nmse_db == b.no_dpd_nmse_db
    assert a.gain == b.gain


def test_fit_seed_changes_feedback_noise():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=3), k_orders=3)
    chi = generate_waveform(1, 4096, 0.25)
    a, b = (observe_pa(preset("low"), chi, noise_seed) for noise_seed in (1, 2))
    fit_a = fit_model_on_data(a.psi_norm, a.phi, spec, TrainConfig())
    fit_b = fit_model_on_data(b.psi_norm, b.phi, spec, TrainConfig())
    assert fit_a.postinv_nmse_db != fit_b.postinv_nmse_db


def test_improved_flag_matches_metrics():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=2), k_orders=2)
    report = run_ila(preset("high"), "high", spec, seed=3, n_samples=4096)
    assert report.improved == (report.lin_nmse_db <= report.no_dpd_nmse_db)


def test_iterated_fit_runs_and_stays_feasible():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=4), k_orders=4)
    drive = drive_ila(preset("low"), 4, 4096)
    once = fit_predistorter(preset("low"), drive, spec, TrainConfig(), n_iterations=1)
    twice = fit_predistorter(preset("low"), drive, spec, TrainConfig(), n_iterations=2)
    assert np.isfinite(once.postinv_nmse_db)
    assert np.isfinite(twice.postinv_nmse_db)
    assert not np.array_equal(once.model.coeff, twice.model.coeff)
    with pytest.raises(ValueError, match="n_iterations must be at least 1"):
        fit_predistorter(preset("low"), drive, spec, TrainConfig(), n_iterations=0)


def test_iterated_fit_reuses_only_the_drive_stages_first_pass():
    # Pass 0 fits the drive's first pass as it stands; pass 1 drives the PA
    # with that fit's predistortion and observes it anew, with noise seed + 1.
    pa, spec = preset("low"), DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=4), k_orders=4)
    drive = drive_ila(pa, 4, 4096)
    first = fit_model_on_data(drive.first_pass.psi_norm, drive.first_pass.phi, spec,
                              TrainConfig(), seed=4)
    once = fit_predistorter(pa, drive, spec, TrainConfig(), n_iterations=1)
    assert np.array_equal(once.model.coeff, first.model.coeff)
    assert (once.gain, once.delay) == (drive.first_pass.gain, drive.first_pass.delay)
    second = observe_pa(pa, first.model.predict(drive.chi_fit), 5)
    twice = fit_predistorter(pa, drive, spec, TrainConfig(), n_iterations=2)
    assert np.array_equal(twice.model.coeff, fit_model_on_data(
        second.psi_norm, second.phi, spec, TrainConfig(), seed=4).model.coeff)
    assert (twice.gain, twice.delay) == (second.gain, second.delay)
    assert twice.gain != drive.first_pass.gain  # the second pass was observed anew


# === known answers on linear PAs, whose inverses the MPM holds ===

# A minimum-phase FIR: its inverse is a stable, decaying IIR, which 7 taps
# truncate.
LINEAR_FIR = np.array([[1.0], [0.4 * np.exp(0.3j)], [0.1]])


def _linear_cell(coeffs, k_orders, feedback_snr_db=None):
    """The 7-tap MPM cell of seed 1 on 8192 samples, on a PA with these
    coefficients."""
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=6), k_orders=k_orders)
    return run_ila(PaConfig(coeffs=coeffs, feedback_snr_db=feedback_snr_db), "linear", spec,
                   seed=1, n_samples=8192)


# Depths measured at 7 taps: identity K = 1 -137.9 dB, K = 3 -103.4 dB; the
# FIR -93.0 and -89.9 dB; with 40 dB feedback noise -50.3 dB at both orders.
@pytest.mark.parametrize("coeffs, k_orders, snr_db, depth_db", [
    ([[1.0]], 1, None, -130.0),
    ([[1.0]], 3, None, -85.0),
    (LINEAR_FIR, 1, None, -85.0),
    (LINEAR_FIR, 3, None, -85.0),
    (LINEAR_FIR, 1, 40.0, -45.0),
    (LINEAR_FIR, 3, 40.0, -45.0),
], ids=["identity-k1", "identity-k3", "fir-k1", "fir-k3", "fir-noise-k1", "fir-noise-k3"])
def test_mpm_linearizes_a_linear_pa_to_a_stated_depth(coeffs, k_orders, snr_db, depth_db):
    assert _linear_cell(coeffs, k_orders, snr_db).lin_nmse_db <= depth_db


@pytest.mark.parametrize("coeffs", [[[1.0]], LINEAR_FIR], ids=["identity", "fir"])
def test_a_pa_gain_leaves_the_linear_report_unchanged(coeffs):
    # align divides the gain out.  A gain of 2 scales every sample exactly, so
    # every float keeps its bits; another gain rounds, and moves only the
    # last bits, below the report's six decimals.
    coeffs = np.asarray(coeffs)
    base = _linear_cell(coeffs, 3)
    turned = _linear_cell(0.5 * np.exp(0.7j) * coeffs, 3)
    assert reports_to_csv([turned]) == reports_to_csv([base])
    doubled = _linear_cell(2.0 * coeffs, 3)
    for name in ("postinv_nmse_db", "lin_nmse_db", "no_dpd_nmse_db"):
        assert getattr(doubled, name).hex() == getattr(base, name).hex(), name


# The same cells for agmpnn at K = M = 3, trained 20 epochs.  Measured: from
# the MPM warm start the identity deploys at -103.38 dB, the FIR at -89.88 dB
# and the FIR with 40 dB feedback noise at -50.28 dB; from a cold start the
# FIR deploys at -19.73 dB against -15.36 dB with no DPD.  Each cell takes
# about 0.15 s or less.

def _agmpnn_linear_cell(coeffs, feedback_snr_db=None, warm_start=True):
    spec = DpdModelSpec(kind="agmpnn", window=TapWindow(pre_taps=6), k_orders=3, n_experts=3,
                        warm_start=warm_start)
    return run_ila(PaConfig(coeffs=coeffs, feedback_snr_db=feedback_snr_db), "linear", spec,
                   seed=1, n_samples=8192, cfg=TrainConfig(max_epochs=20))


@pytest.mark.parametrize("coeffs, snr_db, depth_db", [
    ([[1.0]], None, -95.0),
    (LINEAR_FIR, None, -85.0),
    (LINEAR_FIR, 40.0, -45.0),
], ids=["identity", "fir", "fir-noise"])
def test_warm_agmpnn_linearizes_a_linear_pa_to_a_stated_depth(coeffs, snr_db, depth_db):
    assert _agmpnn_linear_cell(coeffs, snr_db).lin_nmse_db <= depth_db


@pytest.mark.parametrize("coeffs", [[[1.0]], LINEAR_FIR], ids=["identity", "fir"])
def test_a_pa_gain_leaves_the_agmpnn_report_unchanged(coeffs):
    # The gain 0.5 e^{0.7j} rounds, and training carries that rounding on:
    # every NMSE moves by about 1e-10 dB (measured), below the report's six
    # decimals, so the report rows are equal and the values within 1e-9 dB.
    coeffs = np.asarray(coeffs)
    base = _agmpnn_linear_cell(coeffs)
    turned = _agmpnn_linear_cell(0.5 * np.exp(0.7j) * coeffs)
    assert reports_to_csv([turned]) == reports_to_csv([base])
    for name in ("postinv_nmse_db", "lin_nmse_db", "no_dpd_nmse_db"):
        assert abs(getattr(turned, name) - getattr(base, name)) <= 1e-9, name


def test_cold_agmpnn_beats_no_dpd_on_a_linear_fir():
    report = _agmpnn_linear_cell(LINEAR_FIR, warm_start=False)
    assert report.lin_nmse_db < report.no_dpd_nmse_db
    assert report.improved


# === the predict contract every family shares ===

def _small_model(family):
    window = TapWindow(pre_taps=3, post_taps=1)
    if family == "mpm":
        return MpmCoefficients(spec=MpmSpec(window=window, k_orders=2),
                               coeff=np.full((5, 2), 0.1 + 0.05j))
    if family == "agmpnn":
        return AgmpnnModel.init(window, 2, 3, seed=1)
    return RvftdnnModel.init(window, 4, 3, seed=1)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_predicts_by_one_contract(family):
    # 2049 rows: two blocks, the last of 1025 rows (a one-row block joins).
    model = _small_model(family)
    x = generate_waveform(3, 2049, 0.25, sample_rate_hint=2.5)
    out = model.predict(x)
    assert isinstance(out, ComplexSequence)
    assert out.sample_rate_hint == 2.5 and len(out) == len(x)
    assert model.predict(x.samples).samples.tobytes() == out.samples.tobytes()
    for bad in (np.nan, np.inf):
        samples = x.samples.copy()
        samples[7] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            model.predict(samples)


def test_no_dpd_metric_ignores_model():
    chi = generate_waveform(5, 4096, 0.25)
    nmse, gain = linearization_nmse_db(preset("high"), None, chi)
    assert -16.0 < nmse < -13.0
    assert abs(gain) < 1.0  # compression shrinks the loop gain


# === tap-count sweep ===

def test_sweep_taps_reduced_grid():
    rows = sweep_taps(preset("high"), "high", taps_list=(4, 7), seeds=(1,),
                      n_samples=4096, cfg=FAST_CFG, nn_grid=(6,))
    assert len(rows) == 6  # 3 families x 2 tap counts x 1 seed
    assert [(r.family, r.taps, r.seed) for r in rows] == [
        ("mpm", 4, 1), ("mpm", 7, 1),
        ("agmpnn", 4, 1), ("agmpnn", 7, 1),
        ("rvftdnn", 4, 1), ("rvftdnn", 7, 1)]
    by_key = {(r.family, r.taps): r for r in rows}

    agm7 = by_key[("agmpnn", 7)]
    assert (agm7.k_orders, agm7.m_experts) == (3, 3)
    assert agm7.params_formula == 309
    assert agm7.params_actual == 171
    assert agm7.warm_start_nmse_db is not None

    mpm7 = by_key[("mpm", 7)]
    assert mpm7.k_orders in DEFAULT_MPM_K_GRID
    assert mpm7.params_actual == 2 * 7 * mpm7.k_orders <= 600

    nn4 = by_key[("rvftdnn", 4)]
    assert (nn4.n1, nn4.n2) == (6, 6)
    assert nn4.params_actual == rvftdnn_param_count(4, 6, 6)
    for r in rows:
        assert r.feasible
        assert r.preset == "high"
        assert np.isfinite(r.lin_nmse_db) and np.isfinite(r.no_dpd_nmse_db)
        assert r.improved == (r.lin_nmse_db <= r.no_dpd_nmse_db)


def test_sweep_taps_marks_infeasible_network_budget():
    rows = sweep_taps(preset("high"), "high", taps_list=(4,), seeds=(1,),
                      families=("rvftdnn",), n_samples=4096, cfg=FAST_CFG,
                      nn_grid=(4,))  # (4, 4) holds only 66 parameters
    assert len(rows) == 1
    assert not rows[0].feasible
    assert rows[0].lin_nmse_db is None
    assert rows[0].taps == 4 and rows[0].seed == 1


def test_sweep_taps_marks_infeasible_polynomial_budget():
    # 2 * taps * K > budget_hi for every order at 7 taps; 4 taps, K = 1 fits.
    rows = sweep_taps(preset("high"), "high", taps_list=(7, 4), seeds=(1,),
                      families=("mpm",), budget=(1, 10), n_samples=4096, cfg=FAST_CFG)
    assert [(r.taps, r.feasible) for r in rows] == [(7, False), (4, True)]
    assert rows[0].lin_nmse_db is None and rows[0].params_actual is None
    assert rows[1].k_orders == 1


def test_sweep_taps_rejects_a_reversed_budget():
    # Before the check the rvftdnn row came back blank, with no error.
    for family in FAMILIES:
        with pytest.raises(ValueError, match=r"^budget_lo \(600\) exceeds budget_hi \(100\)$"):
            sweep_taps(preset("high"), "high", taps_list=(7,), seeds=(1,), families=(family,),
                       budget=(600, 100), n_samples=4096, cfg=FAST_CFG)


def test_sweeps_reject_an_unknown_family():
    # The complexity sweep used to run the rvftdnn candidates for any other name.
    match = r"^unknown model kind 'foo'; expected one of \('mpm', 'agmpnn', 'rvftdnn'\)$"
    with pytest.raises(ValueError, match=match):
        sweep_complexity({"high": preset("high")}, taps=7, param_targets=(100,), seeds=(1,),
                         families=("foo",), n_samples=4096, cfg=FAST_CFG)
    with pytest.raises(ValueError, match=match):
        sweep_taps(preset("high"), "high", taps_list=(4,), seeds=(1,), families=("foo",),
                   budget=(1, 2), n_samples=4096, cfg=FAST_CFG)


def test_api_rejects_bad_counts_and_seeds_by_name():
    # The config reader's rules: tap counts and parameter targets are integers
    # of at least 1, seeds of at least 0.  A target of 0 used to give a blank
    # row, a negative seed NumPy's bare "expected non-negative integer" and a
    # tap count of 0 a message about the window's tap counts.
    pa = preset("high")
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=3))
    cases = [
        (lambda: sweep_complexity({"high": pa}, taps=7, param_targets=(0, -5), seeds=(1,),
                                  families=("mpm",)), "param_targets", "0"),
        (lambda: sweep_complexity({"high": pa}, taps=0, seeds=(1,), families=("mpm",)),
         "taps", "0"),
        (lambda: sweep_complexity({"high": pa}, seeds=(-2,), families=("mpm",)), "seeds", "-2"),
        (lambda: sweep_taps(pa, "high", taps_list=(7, 0), seeds=(1,), families=("mpm",)),
         "taps_list", "0"),
        (lambda: sweep_taps(pa, "high", taps_list=(7,), seeds=(1, -1), families=("mpm",)),
         "seeds", "-1"),
        (lambda: run_ila(pa, "high", spec, seed=-3), "seed", "-3"),
    ]
    for call, name, value in cases:
        with pytest.raises(ValueError, match=rf"^{name} must be at least [01], got {value}$"):
            call()


# === sweeps share each seed's drive stage ===

TINY = dict(n_samples=2048, cfg=TrainConfig(segment_len=512, max_epochs=2, patience=2))


def _independent_best_mpm(pa, window, seed, k_grid, budget_hi):
    """The order search as one run_ila per order, keeping the best
    (postinverse NMSE, parameters, order)."""
    best = None
    for k in k_grid:
        if 2 * window.n_taps * k > budget_hi:
            continue
        report = run_ila(pa, "high", DpdModelSpec(kind="mpm", window=window, k_orders=k),
                         seed, **TINY)
        key = (report.postinv_nmse_db, 2 * window.n_taps * k, k)
        if best is None or key < best[0]:
            best = (key, report)
    return best[1]


def test_mpm_search_spec_deploys_the_best_single_order_cell():
    # An mpm spec with a search grid fits every order and deploys the one a
    # run_ila per order would pick by (postinverse NMSE, parameters, order).
    pa, window = preset("high"), TapWindow(pre_taps=3)
    for seed, orders in ((1, (1, 2, 3)), (2, (4, 2, 1, 3))):
        spec = DpdModelSpec(kind="mpm", window=window, search_grid=orders)
        searched = run_ila(pa, "high", spec, seed, **TINY)
        best = _independent_best_mpm(pa, window, seed, orders, 600)
        assert ((searched.postinv_nmse_db, searched.params_actual, searched.k_orders)
                == (best.postinv_nmse_db, best.params_actual, best.k_orders))
        assert reports_to_csv([searched]) == reports_to_csv([best])


def test_mpm_search_spec_rejects_an_empty_grid():
    x = generate_waveform(3, 2048, 0.25).samples
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=1), search_grid=())
    with pytest.raises(ValueError, match="^the mpm search grid holds no order count$"):
        fit_model_on_data(x, x, spec, TrainConfig(segment_len=512))


def test_order_search_fits_equal_single_order_fits():
    # One basis at the largest order serves every order: each order's
    # coefficients and validation NMSE equal a fit at that order alone.
    chi = generate_waveform(3, 2048, 0.25)
    psi = pa_forward(preset("high"), chi, noise_seed=3)
    window = TapWindow(pre_taps=3, post_taps=1)
    orders = (1, 2, 3, 4)
    fits = MpmCoefficients.fit_orders(psi.samples, chi.samples, window, orders, 512, None)
    for k, (coeffs, val) in zip(orders, fits):
        spec = DpdModelSpec(kind="mpm", window=window, k_orders=k)
        single = fit_model_on_data(psi, chi, spec, TrainConfig(segment_len=512))
        assert np.array_equal(coeffs.coeff, single.model.coeff)
        assert val == single.postinv_nmse_db


def test_mpm_search_keeps_the_best_validation_then_fewer_parameters_then_lower_order():
    # Oracle: the fit of minimum (validation, count, order).
    chi = generate_waveform(3, 2048, 0.25)
    psi = pa_forward(preset("high"), chi, noise_seed=3)
    window = TapWindow(pre_taps=3, post_taps=1)
    orders = (4, 2, 3, 1)
    fits = MpmCoefficients.fit_orders(psi.samples, chi.samples, window, orders, 512, None)
    expected, val = min(fits, key=lambda fit: (fit[1], fit[0].n_params(), fit[0].k_orders))
    spec = DpdModelSpec(kind="mpm", window=window, search_grid=orders)
    outcome = fit_model_on_data(psi, chi, spec, TrainConfig(segment_len=512))
    assert outcome.postinv_nmse_db == val
    assert np.array_equal(outcome.model.coeff, expected.coeff)


def test_a_spec_checks_its_own_familys_sizes_when_built():
    window = TapWindow(pre_taps=2)
    with pytest.raises(ValueError, match="^n1 must be at least 1, got 0$"):
        DpdModelSpec(kind="rvftdnn", window=window, n1=0)
    with pytest.raises(ValueError, match="^k_orders must be at least 1, got 0$"):
        DpdModelSpec(kind="mpm", window=window, k_orders=0)
    # Another family's size is not checked: an mpm spec has no experts.
    assert DpdModelSpec(kind="mpm", window=window, n_experts=0).n_params() == 18


def test_agmpnn_spec_rejects_a_search_grid():
    with pytest.raises(ValueError, match="agmpnn spec takes no search_grid"):
        DpdModelSpec(kind="agmpnn", window=TapWindow(pre_taps=2), search_grid=((3, 3),))


def test_order_search_fits_match_tall_least_squares_fits():
    # Oracle: every order of a 10-tap search, fitted from the one factor,
    # matches ls_fit on that order's own tall basis gathered from the same
    # training rows, on the drive a sweep fits.
    window = TapWindow(pre_taps=9)
    orders = tuple(range(1, 9))
    segment_len = 1024
    for seed in (1, 2, 3):
        first = drive_ila(preset("high"), seed, 4096).first_pass
        fits = MpmCoefficients.fit_orders(first.psi_norm, first.phi, window, orders, segment_len, None)
        train_scored, val_scored = segment_pairs(first.psi_norm, first.phi, window, segment_len)
        target = np.concatenate([target_rows for _, target_rows in train_scored])
        for k, (coeffs, val) in zip(orders, fits):
            spec = MpmSpec(window=window, k_orders=k)
            tall = np.vstack([basis_rows(rows, spec) for rows, _ in train_scored])
            expected = ls_fit(BasisMatrix(data=tall, spec=spec), target)
            np.testing.assert_allclose(coeffs.coeff, expected.coeff, rtol=1e-9, atol=0.0)
            assert abs(val - validation_nmse_db(expected, val_scored)) <= 1e-9


def test_order_search_rejects_fewer_training_rows_than_top_order_columns():
    # 100 samples in 20-sample segments: four training segments of 11 interior
    # rows each, too few for 10 taps at order 5.
    x = generate_waveform(3, 100, 0.25).samples
    with pytest.raises(ValueError, match=r"^need at least 50 rows to fit 50 columns, have 44$"):
        MpmCoefficients.fit_orders(x, x, TapWindow(pre_taps=9), (1, 5), 20, None)


def test_order_search_without_ridge_names_the_dependent_columns():
    # A constant-amplitude input makes every order proportional to the linear
    # column, so an exact fit refuses and says which columns.
    x = np.exp(1j * np.linspace(0.0, 64.0, 2048))
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=0), k_orders=3, ridge=0.0)
    with pytest.raises(ConditioningError) as err:
        fit_model_on_data(x, x, spec, TrainConfig(segment_len=512))
    message = str(err.value)
    assert "(l=0, k=1)" in message and "(l=0, k=2)" in message


def test_order_search_without_ridge_refuses_what_the_tall_fit_refuses():
    # A near-constant amplitude, |x| = 1 + 1e-7·N(0, 1), plants a near
    # dependence (condition number ~8e13): below the rank cutoff of the 1536
    # training rows, above that of the 3x3 factor alone.  Both fits refuse it.
    rng = np.random.default_rng(5)
    x = (1 + 1e-7 * rng.standard_normal(2048)) * np.exp(2j * np.pi * rng.uniform(size=2048))
    window, segment_len = TapWindow(pre_taps=0), 512
    spec = MpmSpec(window=window, k_orders=3)
    train_scored, _ = segment_pairs(x, x, window, segment_len)
    tall = np.vstack([basis_rows(rows, spec) for rows, _ in train_scored])
    target = np.concatenate([target_rows for _, target_rows in train_scored])
    with pytest.raises(ConditioningError) as tall_err:
        ls_fit(BasisMatrix(data=tall, spec=spec), target, ridge=0.0)
    with pytest.raises(ConditioningError) as search_err:
        MpmCoefficients.fit_orders(x, x, window, (3,), segment_len, 0.0)
    assert str(search_err.value) == str(tall_err.value)
    assert str(search_err.value).endswith("dependent columns: (l=0, k=1)")


def test_train_and_order_search_reject_a_too_short_segment_alike():
    x = generate_waveform(3, 2048, 0.25).samples
    window = TapWindow(pre_taps=5, post_taps=2)
    with pytest.raises(ValueError) as trained:
        train(AgmpnnModel.init(window, 1, 1), x, x, TrainConfig(segment_len=7))
    with pytest.raises(ValueError) as searched:
        MpmCoefficients.fit_orders(x, x, window, (1, 2), 7, None)
    assert str(trained.value) == str(searched.value)
    assert str(searched.value).startswith("7 samples are too few for a 8-tap window")


def test_a_too_short_segment_names_segment_len_in_train_and_order_search():
    x = generate_waveform(3, 2048, 0.25).samples
    window = TapWindow(pre_taps=9)
    message = r"^8 samples are too few for a 10-tap window: segment_len must be at least 10$"
    with pytest.raises(ValueError, match=message):
        train(RvftdnnModel.init(window, 2, 2), x, x, TrainConfig(segment_len=8))
    with pytest.raises(ValueError, match=message):
        MpmCoefficients.fit_orders(x, x, window, (1, 2), 8, None)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["input", "target"])
def test_train_and_order_search_name_a_non_finite_sequence(name, bad):
    x = generate_waveform(3, 2048, 0.25).samples
    spoilt = x.copy()
    spoilt[700] = bad
    psi, phi = (spoilt, x) if name == "input" else (x, spoilt)
    window = TapWindow(pre_taps=2)
    message = f"^{name} sequence holds a non-finite sample$"
    with pytest.raises(ValueError, match=message):
        train(AgmpnnModel.init(window, 1, 1), psi, phi, TrainConfig(segment_len=512))
    with pytest.raises(ValueError, match=message):
        MpmCoefficients.fit_orders(psi, phi, window, (1, 2), 512, None)


@pytest.mark.parametrize("family, warm_start", [*((family, True) for family in FAMILIES),
                                                ("agmpnn", False)],
                         ids=[*FAMILIES, "agmpnn-cold"])
@pytest.mark.parametrize("name", ["input", "target"])
def test_every_family_fit_names_a_non_finite_sequence(family, warm_start, name):
    # A cold-start agmpnn used to fail with `model parameters must be finite`:
    # its offsets come from a percentile of the input's amplitudes.
    x = generate_waveform(3, 2048, 0.25).samples
    spoilt = x.copy()
    spoilt[1500] = np.nan
    psi, phi = (spoilt, x) if name == "input" else (x, spoilt)
    spec = DpdModelSpec(kind=family, window=TapWindow(pre_taps=2), warm_start=warm_start)
    with pytest.raises(ValueError, match=f"^{name} sequence holds a non-finite sample$"):
        fit_model_on_data(psi, phi, spec, FAST_CFG)


def test_sweep_taps_matches_independent_cells():
    pa = preset("high")
    taps_list, seeds, budget, nn_grid, k_grid = (3, 9), (1, 2), (60, 100), (4, 6), (1, 2, 3)
    rows = sweep_taps(pa, "high", taps_list=taps_list, seeds=seeds, budget=budget,
                      nn_grid=nn_grid, mpm_k_grid=k_grid, **TINY)
    expected = []
    for family in FAMILIES:
        for taps in taps_list:
            window = TapWindow(pre_taps=taps - 1)
            widths = tuple((a, b) for a in nn_grid for b in nn_grid
                           if budget[0] <= rvftdnn_param_count(taps, a, b) <= budget[1])
            for seed in seeds:
                if family == "mpm":
                    expected.append(_independent_best_mpm(pa, window, seed, k_grid, budget[1]))
                elif family == "agmpnn":
                    spec = DpdModelSpec(kind="agmpnn", window=window)
                    expected.append(run_ila(pa, "high", spec, seed, **TINY))
                elif widths:
                    spec = DpdModelSpec(kind="rvftdnn", window=window, search_grid=widths,
                                        budget=budget)
                    expected.append(run_ila(pa, "high", spec, seed, **TINY))
                else:
                    expected.append(IlaReport(family=family, preset="high", taps=taps, seed=seed))
    assert sum(not r.feasible for r in expected) == 2  # rvftdnn at 9 taps
    assert reports_to_csv(rows) == reports_to_csv(expected)


def test_sweep_complexity_matches_independent_cells():
    pa_by = {"low": preset("low"), "high": preset("high")}
    taps, targets, seeds = 4, (40, 120, 400), (1, 2)
    rows = sweep_complexity(pa_by, taps=taps, param_targets=targets, seeds=seeds,
                            mpm_k_grid=(1, 2, 3, 4, 5), **TINY)
    window = TapWindow(pre_taps=taps - 1)
    expected = []
    for family in FAMILIES:
        for spec in _closest_specs(family, window, targets, (1, 2, 3, 4, 5)):
            for label in ("high", "low"):
                for seed in seeds:
                    expected.append(
                        run_ila(pa_by[label], label, spec, seed, **TINY) if spec is not None
                        else IlaReport(family=family, preset=label, taps=taps, seed=seed))
    assert 0 < sum(not r.feasible for r in expected) < len(expected)
    assert reports_to_csv(rows) == reports_to_csv(expected)


# === golden sweep bytes ===

_SWEEP_RECIPE = "[train]\nmax_epochs = 3\nsegment_len = 512\npatience = 2\n"
GOLDEN_SWEEPS = {
    "criterion-10": (
        "sweep-taps",
        "[signal]\nn_samples = 4096\n" + _SWEEP_RECIPE
        + "[sweep]\ntaps_list = 4, 7\nseeds = 1\nnn_grid = 8, 10\n",
        "7ddbf79a6c2eb2c352b0122fbf1a0f81732bcc03c30a7275f03e5edcbf7d9991"),
    "default-mpm": (
        "sweep-taps", "[sweep]\nfamilies = mpm\n",
        "f70a2671a8ba8e20226a3f82ab675220ec60d6059f84e3dc9acd1d2df77de135"),
    "complexity": (
        "sweep-complexity",
        "[signal]\nn_samples = 4096\nseed = 1\n" + _SWEEP_RECIPE
        + "[sweep]\ntaps = 5\nparam_targets = 30, 100, 200, 600\nseeds = 1\n"
        "mpm_k_grid = 3, 1, 2\n",
        "8ff1e623f4bb73fd4db53f7c0f99bfb3a62f5bd23cd05c51c5aab784b976b879"),
}


@pytest.mark.parametrize("name", GOLDEN_SWEEPS)
def test_sweep_csv_matches_golden_bytes(tmp_path, name):
    command, config, digest = GOLDEN_SWEEPS[name]
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    cfg.write_text(config)
    assert dispatch([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_golden_sweep_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, threads):
    # Each fresh interpreter asks OpenBLAS for another thread count (three on a
    # two-CPU machine only oversubscribes); importing dpdlab holds it to one.
    src = str(Path(dpdlab.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, (command, config, digest) in GOLDEN_SWEEPS.items():
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        cfg.write_text(config)
        subprocess.run([sys.executable, "-m", "dpdlab", command, "--config", str(cfg),
                        "--out", str(out)], capture_output=True, check=True, env=env)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


# === complexity sweep ===

def test_closest_spec_ties_go_to_fewer_params_then_lower_hyperparameters():
    taps = 5
    window = TapWindow(pre_taps=taps - 1)
    grids = {
        "mpm": ([(k,) for k in range(1, 6)], lambda k: ref.mpm_param_count(taps, k)),
        "agmpnn": ([(k, m) for k in range(1, 7) for m in range(1, 9)],
                   lambda k, m: ref.agmpnn_param_count(taps, k, m)),
        "rvftdnn": ([(a, b) for a in range(2, 25) for b in range(2, 25)],
                    lambda a, b: ref.rvftdnn_param_count(taps, a, b)),
    }
    hyper = {"mpm": lambda s: (s.k_orders,), "agmpnn": lambda s: (s.k_orders, s.n_experts),
             "rvftdnn": lambda s: (s.n1, s.n2)}
    targets = range(10, 800, 3)
    for family, (grid, count) in grids.items():
        # An unsorted grid with a repeat selects the same order count.
        specs = _closest_specs(family, window, targets, (5, 3, 1, 4, 2, 3))
        for target, spec in zip(targets, specs, strict=True):
            dist, _, *best = min((abs(count(*h) - target), count(*h), *h) for h in grid)
            if dist > TARGET_TOLERANCE * target:
                assert spec is None
            else:
                assert hyper[family](spec) == tuple(best)


_ORACLES = {
    "mpm": lambda t, s: ref.mpm_param_count(t, s.k_orders),
    "agmpnn": lambda t, s: ref.agmpnn_param_count(t, s.k_orders, s.n_experts),
    "rvftdnn": lambda t, s: ref.rvftdnn_param_count(t, s.n1, s.n2),
}
_BUILDERS = {
    "mpm": lambda s: MpmCoefficients(MpmSpec(window=s.window, k_orders=s.k_orders),
                                     np.zeros((s.window.n_taps, s.k_orders), complex)),
    "agmpnn": lambda s: AgmpnnModel.init(s.window, s.k_orders, s.n_experts),
    "rvftdnn": lambda s: RvftdnnModel.init(s.window, s.n1, s.n2),
}


@pytest.mark.parametrize("window", [TapWindow(pre_taps=t - 1) for t in (1, 4, 7, 10)]
                         + [TapWindow(pre_taps=4, post_taps=2)], ids=repr)
def test_every_candidate_count_equals_the_oracle_and_the_flat_vector(window):
    for family in FAMILIES:
        base = DpdModelSpec(kind=family, window=window)
        for spec in MODEL_CLASSES[family].complexity_specs(base, mpm_k_grid=DEFAULT_MPM_K_GRID):
            count = spec.n_params()
            assert count == _ORACLES[family](window.n_taps, spec), spec
            model = _BUILDERS[family](spec)
            assert count == model.n_params() == model.param_vector().size, spec


def test_a_complexity_sweep_builds_each_familys_candidates_once(monkeypatch):
    # Every parameter target reads one list of candidates and their counts.
    built, counted = [], []
    expected = 0
    for cls in MODEL_CLASSES.values():
        specs = cls.complexity_specs
        expected += len(specs(DpdModelSpec(kind=cls.PARAMS.kind, window=TapWindow(pre_taps=6)),
                              mpm_k_grid=DEFAULT_MPM_K_GRID))
        monkeypatch.setattr(cls, "complexity_specs", lambda base, specs=specs, **grids: (
            built.append(base.kind) or specs(base, **grids)))
    n_params = DpdModelSpec.n_params
    monkeypatch.setattr(DpdModelSpec, "n_params", lambda self: counted.append(self) or n_params(self))
    assert sweep_complexity({"high": preset("high")}, seeds=()) == []
    assert built == list(FAMILIES)
    assert len(counted) == len({id(spec) for spec in counted}) == expected


def test_an_empty_order_grid_gives_blank_rows_in_both_sweeps():
    pa = preset("high")
    complexity = sweep_complexity({"high": pa}, taps=4, param_targets=(20, 40), seeds=(1,),
                                  families=("mpm",), mpm_k_grid=())
    taps = sweep_taps(pa, "high", taps_list=(4,), seeds=(1,), families=("mpm",), mpm_k_grid=())
    assert [r.feasible for r in complexity + taps] == [False] * 3
    assert [(r.family, r.taps, r.seed) for r in complexity + taps] == [("mpm", 4, 1)] * 3


def test_sweep_complexity_reduced_targets():
    pa_by = {"low": preset("low"), "high": preset("high")}
    rows = sweep_complexity(pa_by, taps=7, param_targets=(100, 600), seeds=(1,),
                            n_samples=4096, cfg=FAST_CFG)
    assert len(rows) == 12  # 3 families x 2 targets x 2 presets x 1 seed
    assert [(r.family, r.preset) for r in rows[:4]] == [
        ("mpm", "high"), ("mpm", "low"), ("mpm", "high"), ("mpm", "low")]

    targets = (100, 600, 100, 600, 100, 600)
    for i, family in enumerate(("mpm", "mpm", "agmpnn", "agmpnn", "rvftdnn", "rvftdnn")):
        for j in range(2):
            row = rows[2 * i + j]
            assert row.family == family
            assert row.preset == ("high", "low")[j]
            target = targets[i]
            if row.feasible:
                assert abs(row.params_actual - target) <= 0.25 * target
            else:
                assert row.lin_nmse_db is None and row.params_actual is None

    # The polynomial family cannot reach 600 parameters at 7 taps (112 max).
    assert all(not r.feasible for r in rows if r.family == "mpm" and rows.index(r) in (2, 3))
    assert all(r.feasible for r in rows if r.family != "mpm")


# === report serialization ===

def test_reports_to_csv_exact_format():
    rows = [
        IlaReport(family="mpm", preset="low", taps=4, seed=1, k_orders=3,
                  params_formula=24, params_actual=24,
                  postinv_nmse_db=-20.25, lin_nmse_db=-30.5, no_dpd_nmse_db=-19.0),
        IlaReport(family="rvftdnn", preset="high", taps=5, seed=2),
    ]
    text = reports_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == REPORT_HEADER
    assert lines[1] == "mpm,low,4,3,,24,24,1,-20.250000,-30.500000,-19.000000"
    assert lines[2] == "rvftdnn,high,5,,,,,2,,,"
    assert lines[3] == ""
    assert text == reports_to_csv(rows)  # byte-stable


def test_reports_to_csv_empty():
    assert reports_to_csv([]) == REPORT_HEADER + "\n"


# === model file dispatch ===

def test_load_model_dispatches_on_kind(tmp_path):
    mpm_model = MpmCoefficients(
        spec=MpmSpec(window=TapWindow(pre_taps=1), k_orders=2),
        coeff=np.array([[1.0, 0.1j], [0.05, 0.0]]))
    agm_model = AgmpnnModel.init(TapWindow(pre_taps=1), 2, 2, seed=0)
    nn_model = RvftdnnModel.init(TapWindow(pre_taps=1), 4, 3, seed=0)
    for name, model, cls in (("a.model", mpm_model, MpmCoefficients),
                             ("b.model", agm_model, AgmpnnModel),
                             ("c.model", nn_model, RvftdnnModel)):
        path = tmp_path / name
        model.save(path)
        loaded = load_model(path)
        assert isinstance(loaded, cls)
        x = generate_waveform(0, 64, 0.5)
        assert np.array_equal(loaded.predict(x).samples, model.predict(x).samples)


def _tiny_model(family):
    """A small hand-built model of each family, with a lookahead tap."""
    window = TapWindow(pre_taps=1, post_taps=1)
    if family == "mpm":
        return MpmCoefficients(spec=MpmSpec(window=window, k_orders=1, amp_offset=-0.1),
                               coeff=np.array([[0.1 - 0.2j], [1.0 + 0.0j], [-0.3 + 1e-20j]]))
    if family == "agmpnn":
        return AgmpnnModel(
            window=window, k_orders=1, n_experts=2,
            expert_coeff=np.array([[[1.0 + 0.1j], [0.2j], [-0.3]],
                                   [[0.5], [0.25 - 0.125j], [1e-3j]]]),
            amp_offsets=np.array([0.0, -0.7]),
            attn_scale=np.array([[0.1, 0.2, 0.3], [-0.1, -0.2, -0.3]]),
            attn_bias=np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 1.0 / 3.0]]))
    return RvftdnnModel(window=window, w1=np.arange(6.0).reshape(6, 1) / 7.0, b1=np.array([0.1]),
                        w2=np.array([[-2.5]]), b2=np.array([0.0]),
                        w3=np.array([[1.0, -1.0]]), b3=np.array([0.1, 0.2]))


# The file text of each _tiny_model: section order, tap-delay indices and the
# float format are part of the format, so any drift must show here.
GOLDEN_MODEL_TEXT = {
    "mpm": """format = DPDMODEL1
version = 1
kind = mpm
pre_taps = 1
post_taps = 1
k_orders = 1
amp_offset = -1.00000000000000006e-01

[coeff]
-1 0 1.00000000000000006e-01 -2.00000000000000011e-01
0 0 1.00000000000000000e+00 0.00000000000000000e+00
1 0 -2.99999999999999989e-01 9.99999999999999945e-21
""",
    "agmpnn": """format = DPDMODEL1
version = 1
kind = agmpnn
pre_taps = 1
post_taps = 1
k_orders = 1
n_experts = 2

[coeff]
0 -1 0 1.00000000000000000e+00 1.00000000000000006e-01
0 0 0 0.00000000000000000e+00 2.00000000000000011e-01
0 1 0 -2.99999999999999989e-01 0.00000000000000000e+00
1 -1 0 5.00000000000000000e-01 0.00000000000000000e+00
1 0 0 2.50000000000000000e-01 -1.25000000000000000e-01
1 1 0 0.00000000000000000e+00 1.00000000000000002e-03

[offsets]
0 0.00000000000000000e+00
1 -6.99999999999999956e-01

[attn_scale]
0 -1 1.00000000000000006e-01
0 0 2.00000000000000011e-01
0 1 2.99999999999999989e-01
1 -1 -1.00000000000000006e-01
1 0 -2.00000000000000011e-01
1 1 -2.99999999999999989e-01

[attn_bias]
0 -1 5.00000000000000000e+00
0 0 0.00000000000000000e+00
0 1 0.00000000000000000e+00
1 -1 0.00000000000000000e+00
1 0 0.00000000000000000e+00
1 1 3.33333333333333315e-01
""",
    "rvftdnn": """format = DPDMODEL1
version = 1
kind = rvftdnn
pre_taps = 1
post_taps = 1
n1 = 1
n2 = 1

[w1]
0 0 0.00000000000000000e+00
1 0 1.42857142857142849e-01
2 0 2.85714285714285698e-01
3 0 4.28571428571428548e-01
4 0 5.71428571428571397e-01
5 0 7.14285714285714302e-01

[b1]
0 1.00000000000000006e-01

[w2]
0 0 -2.50000000000000000e+00

[b2]
0 0.00000000000000000e+00

[w3]
0 0 1.00000000000000000e+00
0 1 -1.00000000000000000e+00

[b3]
0 1.00000000000000006e-01
1 2.00000000000000011e-01
""",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_saved_model_text_matches_golden(tmp_path, monkeypatch, family):
    path = tmp_path / "m.model"
    _tiny_model(family).save(path)
    assert path.read_text() == GOLDEN_MODEL_TEXT[family]
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    loaded = load_model(path)
    monkeypatch.undo()
    assert reads == [path]
    again = tmp_path / "again.model"
    loaded.save(again)
    assert again.read_text() == GOLDEN_MODEL_TEXT[family]


# A header size field of each family, corrupted by the cases below.
_SIZE_FIELD = {"mpm": "k_orders", "agmpnn": "n_experts", "rvftdnn": "n1"}

# defect -> (header field, replacement value, text the error must name)
_HEADER_DEFECTS = {
    "kind": ("kind", "volterra", "volterra"),
    "huge_size": (None, "99999999999", "rows"),
    "negative_size": (None, "-1", None),
    "negative_taps": ("pre_taps", "-3", "pre_taps"),
    "version": ("version", "7", "'7'"),
}


@pytest.mark.parametrize("defect", sorted(_HEADER_DEFECTS))
@pytest.mark.parametrize("family", FAMILIES)
def test_load_model_rejects_malformed_header(tmp_path, family, defect):
    field, value, named = _HEADER_DEFECTS[defect]
    field = field or _SIZE_FIELD[family]
    named = named or field
    path = tmp_path / "bad.model"
    _tiny_model(family).save(path)
    lines = [f"{field} = {value}" if line.split(" = ")[0] == field else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as caught:
        load_model(path)
    assert str(path) in str(caught.value)
    assert named in str(caught.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_model_rejects_non_finite_amp_offset(tmp_path, value):
    path = tmp_path / "bad.model"
    _tiny_model("mpm").save(path)
    lines = [f"amp_offset = {value}" if line.startswith("amp_offset =") else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as caught:
        load_model(path)
    assert str(path) in str(caught.value)
    assert "'amp_offset'" in str(caught.value)


def test_load_model_names_a_missing_amp_offset(tmp_path):
    path = tmp_path / "bad.model"
    _tiny_model("mpm").save(path)
    path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                            if not line.startswith("amp_offset =")))
    with pytest.raises(FormatError) as caught:
        load_model(path)
    assert str(caught.value) == f"{path}: missing header field 'amp_offset'"


@pytest.mark.parametrize("family", FAMILIES)
def test_load_model_rejects_non_finite_values(tmp_path, family):
    path = tmp_path / "bad.model"
    _tiny_model(family).save(path)
    lines = path.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1] + ["nan"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="non-finite"):
        load_model(path)
