"""Simulated power amplifier: presets, distortion levels, memory, noise."""

import warnings

import numpy as np
import pytest

from dpdlab import ComplexSequence, PaConfig, generate_waveform, nmse_db, pa_forward, preset
from dpdlab.pa_sim import (
    PRESET_A_SAT,
    PRESET_DRIVE_DB,
    PRESET_FEEDBACK_SNR_DB,
    PRESET_K_PA,
    PRESET_L_PA,
    PRESET_PHASE_STEP,
    PRESET_RHO,
    PRESET_SIGMA,
    coeffs_from_rule,
)
from dpdlab import ila, mpm
from dpdlab.signal import TapWindow

import reference_impls as ref


def _identity_pa():
    return PaConfig(coeffs=np.array([[1.0 + 0.0j]]))


# === basic behavior ===

def test_zero_input_gives_zero_output():
    x = np.zeros(64, dtype=np.complex128)
    y = pa_forward(preset("high"), x)
    assert np.array_equal(y.samples, x)


def test_identity_config_is_transparent():
    x = generate_waveform(0, 256, 0.25)
    y = pa_forward(_identity_pa(), x)
    assert np.allclose(y.samples, x.samples, atol=1e-15)


def test_drive_scale_is_linear_prescale():
    x = generate_waveform(1, 256, 0.25)
    cfg = PaConfig(coeffs=np.array([[1.0 + 0.0j]]), drive_db=-6.0)
    y = pa_forward(cfg, x)
    assert np.allclose(y.samples, x.samples * 10.0 ** (-6.0 / 20.0))


def test_memoryless_cubic_matches_hand_formula():
    x = generate_waveform(2, 200, 0.5).samples
    c = np.array([[1.0, -0.1 + 0.05j]])
    y = pa_forward(PaConfig(coeffs=c), x)
    expected = x + (-0.1 + 0.05j) * x * np.abs(x) ** 2
    assert np.allclose(y.samples, expected, atol=1e-14)


def test_memory_tap_matches_hand_formula():
    x = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    c = np.array([[1.0], [0.5j]])
    y = pa_forward(PaConfig(coeffs=c), x)
    expected = np.array([1.0, 2.0 + 0.5j, 3.0 + 1.0j])
    assert np.allclose(y.samples, expected, atol=1e-15)


def test_smooth_limiter_saturates():
    cfg = PaConfig(coeffs=np.array([[1.0 + 0.0j]]), smooth_limit=1.0)
    big = pa_forward(cfg, np.array([100.0 + 0.0j])).samples[0]
    assert abs(big) < 1.01
    small = pa_forward(cfg, np.array([0.01 + 0.0j])).samples[0]
    assert abs(small - 0.01) < 1e-8


def test_linear_part_homogeneous_below_saturation():
    x = generate_waveform(3, 256, 0.25).samples * 1e-4
    y1 = pa_forward(preset("high"), x).samples
    y2 = pa_forward(preset("high"), 2.0 * x).samples
    assert nmse_db(y2, 2.0 * y1) < -100.0


# === preset construction ===

def test_preset_constants():
    assert PRESET_RHO == 0.2
    assert PRESET_SIGMA == -0.12
    assert (PRESET_L_PA, PRESET_K_PA) == (3, 4)
    assert PRESET_PHASE_STEP == 0.4
    assert PRESET_A_SAT == 1.0
    assert PRESET_FEEDBACK_SNR_DB == 40.0
    assert PRESET_DRIVE_DB == {"low": -9.0, "high": -3.0}


def test_coeffs_from_rule_spot_values():
    c = coeffs_from_rule(0.2, -0.12, 3, 4)
    assert c.shape == (4, 4)
    assert c[0, 0] == 1.0
    assert abs(c[1, 0] - 0.2 * np.exp(0.4j)) < 1e-15
    assert abs(c[0, 1] - (-0.12) * np.exp(0.8j)) < 1e-15
    assert abs(c[2, 3] - 0.2 ** 2 * (-0.12) ** 3 * np.exp(1j * 0.4 * 8)) < 1e-15


def test_preset_configs():
    low = preset("low")
    high = preset("high")
    assert low.drive_db == -9.0
    assert high.drive_db == -3.0
    assert low.smooth_limit == 1.0
    assert low.feedback_snr_db == 40.0
    assert np.array_equal(low.coeffs, high.coeffs)
    assert low.memory_depth == 3
    assert low.n_orders == 4
    with pytest.raises(ValueError):
        preset("medium")


# === distortion level ===

def test_preset_distortion_levels():
    chi = generate_waveform(1, 16384, 0.25)
    low, _ = ila.linearization_nmse_db(preset("low"), None, chi)
    high, _ = ila.linearization_nmse_db(preset("high"), None, chi)
    assert abs(low - (-19.6638)) < 0.5
    assert abs(high - (-14.8690)) < 0.5
    assert low + 4.0 < high  # high drive is distinctly dirtier


def test_memory_effects_are_material():
    # A memoryless polynomial fit of the forward response must trail a
    # memory-aware fit by a wide margin on both presets.
    chi = generate_waveform(1, 16384, 0.25)
    for level in ("low", "high"):
        psi = pa_forward(preset(level), chi)
        residual = {}
        for taps in (1, 4):
            spec = mpm.MpmSpec(window=TapWindow(pre_taps=taps - 1), k_orders=8)
            basis = mpm.build_basis(chi.samples, spec)
            fit = mpm.ls_fit(basis, psi.samples, ridge=0.0)
            residual[taps] = nmse_db(fit.predict(chi), psi)
        assert residual[1] - residual[4] >= 10.0


# === feedback noise ===

def test_noise_requires_both_config_and_seed():
    x = generate_waveform(4, 1024, 0.25)
    noisy_cfg = preset("high")
    clean_cfg = PaConfig(coeffs=noisy_cfg.coeffs, drive_db=noisy_cfg.drive_db,
                         smooth_limit=noisy_cfg.smooth_limit, feedback_snr_db=None)
    base = pa_forward(noisy_cfg, x)
    assert np.array_equal(pa_forward(noisy_cfg, x).samples, base.samples)
    assert np.array_equal(pa_forward(clean_cfg, x, noise_seed=5).samples,
                          pa_forward(clean_cfg, x).samples)
    noisy = pa_forward(noisy_cfg, x, noise_seed=5)
    assert not np.array_equal(noisy.samples, base.samples)


def test_noise_is_seed_deterministic():
    x = generate_waveform(5, 2048, 0.25)
    cfg = preset("low")
    a = pa_forward(cfg, x, noise_seed=9)
    b = pa_forward(cfg, x, noise_seed=9)
    c = pa_forward(cfg, x, noise_seed=10)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_noise_level_matches_snr():
    x = generate_waveform(6, 65536, 0.25)
    cfg = preset("high")
    clean = pa_forward(cfg, x)
    noisy = pa_forward(cfg, x, noise_seed=3)
    snr_db = -nmse_db(noisy, clean)
    assert abs(snr_db - 40.0) < 0.5


# === config validation ===

def test_pa_config_validation():
    with pytest.raises(ValueError):
        PaConfig(coeffs=np.array([1.0 + 0j]))  # 1-D
    with pytest.raises(ValueError):
        PaConfig(coeffs=np.array([[0.0 + 0j]]))  # zero linear term
    with pytest.raises(ValueError):
        PaConfig(coeffs=np.array([[np.inf + 0j]]))
    with pytest.raises(ValueError):
        PaConfig(coeffs=np.array([[1.0 + 0j]]), smooth_limit=0.0)
    with pytest.raises(ValueError):
        PaConfig(coeffs=np.array([[1.0 + 0j]]), feedback_snr_db=-3.0)
    with pytest.raises(ValueError):
        coeffs_from_rule(0.2, -0.12, -1, 4)
    with pytest.raises(ValueError):
        coeffs_from_rule(0.2, -0.12, 3, 0)


@pytest.mark.parametrize("drive_db", [7000.0, np.inf, np.nan])
def test_pa_config_rejects_a_drive_whose_gain_is_not_finite(drive_db):
    # 10 ** (7000 / 20) overflows a float: Python raises OverflowError.
    rule = "at most 300" if np.isfinite(drive_db) else "finite"
    with pytest.raises(ValueError, match=rf"^drive_db must be {rule}, got {drive_db}$"):
        PaConfig(coeffs=np.array([[1.0 + 0j]]), drive_db=drive_db)
    PaConfig(coeffs=np.array([[1.0 + 0j]]), drive_db=300.0)  # the top of the range


@pytest.mark.parametrize("drive_db, rule", [
    # Gain 1e300: the limiter's (|u|/A)**6 overflowed and zeroed every sample.
    (6000.0, "at most 300"),
    (1028.0, "at most 300"),
    # From about 1000 dB the sixth power overflowed for the loudest samples;
    # without the limiter the polynomial overflowed from about 500 dB.
    (1000.0, "at most 300"),
    (500.0, "at most 300"),
    # 10 ** (-7000 / 20) underflows to 0.0; below about -3200 dB every driven
    # sample was subnormal.
    (-7000.0, "at least -300"),
    (-3300.0, "at least -300"),
    (-np.inf, "finite"),
])
def test_pa_config_refuses_a_drive_outside_its_range(drive_db, rule):
    with pytest.raises(ValueError, match=rf"^drive_db must be {rule}, got {drive_db}$"):
        PaConfig(coeffs=np.array([[1.0 + 0j]]), drive_db=drive_db)
    # The bottom of the range drives the amplifier with normal samples.
    y = pa_forward(PaConfig(coeffs=np.array([[1.0 + 0j]]), drive_db=-300.0, smooth_limit=1.0),
                   np.ones(8, dtype=np.complex128))
    assert np.all(y.samples == 1e-15)


@pytest.mark.parametrize("k_pa", [6, 8])
def test_pa_output_that_overflows_in_range_names_the_drive_the_limiter_and_the_order(k_pa):
    # At 300 dB without the limiter, a high order still overflows the
    # polynomial: that used to warn twice and end in `sequence samples must be
    # finite`, naming none of the three.
    cfg = PaConfig(coeffs=coeffs_from_rule(PRESET_RHO, PRESET_SIGMA, PRESET_L_PA, k_pa),
                   drive_db=300.0, feedback_snr_db=PRESET_FEEDBACK_SNR_DB)
    with pytest.raises(ValueError, match=rf"^the PA output overflows at drive_db = 300.0 with "
                                         rf"a_sat = none and k_pa = {k_pa}$"):
        pa_forward(cfg, generate_waveform(1, 4096, 0.25), noise_seed=1)


@pytest.mark.parametrize("rho, sigma, message", [
    (1e200, -0.12, "rho = 1e+200 makes a PA coefficient non-finite"),
    (0.2, -1e200, "sigma = -1e+200 makes a PA coefficient non-finite"),
    (np.nan, -0.12, "rho must be finite, got nan"),
    # each power is finite, their product is not
    (1e100, 1e3, "rho = 1e+100 and sigma = 1000.0 make a PA coefficient non-finite"),
], ids=["rho", "sigma", "rho-nan", "product"])
def test_coeffs_from_rule_rejects_non_finite_coefficients_naming_the_rule(rho, sigma, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            coeffs_from_rule(rho, sigma, 3, 4)
    assert str(err.value) == message


def test_output_preserves_rate_hint():
    x = ComplexSequence(np.ones(64, dtype=np.complex128), sample_rate_hint=30.72e6)
    y = pa_forward(_identity_pa(), x)
    assert y.sample_rate_hint == 30.72e6


@pytest.mark.parametrize("k_pa", [1, 4, 8])
@pytest.mark.parametrize("a_sat", [None, PRESET_A_SAT])
def test_pa_forward_is_the_polynomial_it_replaced_bit_for_bit(k_pa, a_sat):
    # k_pa = 1 runs the empty power chain: order 0 alone.
    cfg = PaConfig(coeffs=coeffs_from_rule(PRESET_RHO, PRESET_SIGMA, PRESET_L_PA, k_pa),
                   drive_db=PRESET_DRIVE_DB["high"], smooth_limit=a_sat)
    x = generate_waveform(3, 4096, 0.25)
    assert pa_forward(cfg, x).samples.tobytes() == ref.pa_forward_polynomial(cfg, x).tobytes()
