"""Ground-truth simulated power amplifier.

Memory polynomial with a drive-level scale, an optional smooth amplitude
limiter ahead of the polynomial, and optional additive feedback-receiver noise
on the observed output.  The limiter deliberately places the exact inverse
outside the memory-polynomial model class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rules import check, check_all
from .signal import ComplexSequence, TapWindow, as_samples, delayed_matrix

# Frozen preset constants: coefficient decay across delay (rho) and order
# (sigma), phase twist per (l + 2k), soft-saturation ceiling, feedback SNR.
PRESET_RHO = 0.2
PRESET_SIGMA = -0.12
PRESET_L_PA = 3
PRESET_K_PA = 4
PRESET_PHASE_STEP = 0.4
PRESET_A_SAT = 1.0
PRESET_FEEDBACK_SNR_DB = 40.0
PRESET_DRIVE_DB = {"low": -9.0, "high": -3.0}


@dataclass(frozen=True)
class PaConfig:
    """Amplifier ground truth; coeffs is complex, indexed (delay l, order k)."""

    coeffs: np.ndarray
    drive_db: float = 0.0
    smooth_limit: Optional[float] = None
    feedback_snr_db: Optional[float] = None

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 2 or coeffs.size < 1:
            raise ValueError("coeffs must be a 2-D (delay, order) array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        if coeffs[0, 0] == 0:
            raise ValueError("coeffs[0, 0] must be nonzero (dominant linear term)")
        check("drive_db", self.drive_db)
        if self.smooth_limit is not None:
            check("smooth_limit", self.smooth_limit, rule="a_sat")
        if self.feedback_snr_db is not None:
            check("feedback_snr_db", self.feedback_snr_db)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def drive_gain(self) -> float:
        """The linear drive scale, 10 ** (drive_db / 20)."""
        return 10.0 ** (float(self.drive_db) / 20.0)

    @property
    def memory_depth(self) -> int:
        return int(self.coeffs.shape[0]) - 1

    @property
    def n_orders(self) -> int:
        return int(self.coeffs.shape[1])


def coeffs_from_rule(rho: float, sigma: float, l_pa: int, k_pa: int,
                     phase_step: float = PRESET_PHASE_STEP) -> np.ndarray:
    """coeffs[l, k] = rho^l * sigma^k * exp(i*phase_step*(l + 2k)), with [0, 0] = 1."""
    check_all(rho=rho, sigma=sigma, l_pa=l_pa, k_pa=k_pa)
    l_idx = np.arange(l_pa + 1)[:, None].astype(float)
    k_idx = np.arange(k_pa)[None, :].astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        rho_l, sigma_k = rho ** l_idx, sigma ** k_idx
        coeffs = rho_l * sigma_k * np.exp(1j * phase_step * (l_idx + 2.0 * k_idx))
    if not np.all(np.isfinite(coeffs)):
        rules = [f"{name} = {value!r}" for name, value, powers
                 in (("rho", rho, rho_l), ("sigma", sigma, sigma_k)) if not np.all(np.isfinite(powers))]
        rules = rules or [f"rho = {rho!r}", f"sigma = {sigma!r}"]
        verb = "makes" if len(rules) == 1 else "make"
        raise ValueError(f"{' and '.join(rules)} {verb} a PA coefficient non-finite")
    coeffs[0, 0] = 1.0
    return coeffs


def preset(level: str) -> PaConfig:
    """A frozen distortion configuration, at the drive PRESET_DRIVE_DB names it by."""
    if level not in PRESET_DRIVE_DB:
        raise ValueError(f"unknown preset {level!r}; expected one of {tuple(PRESET_DRIVE_DB)}")
    return PaConfig(
        coeffs=coeffs_from_rule(PRESET_RHO, PRESET_SIGMA, PRESET_L_PA, PRESET_K_PA),
        drive_db=PRESET_DRIVE_DB[level],
        smooth_limit=PRESET_A_SAT,
        feedback_snr_db=PRESET_FEEDBACK_SNR_DB,
    )


def pa_forward(cfg: PaConfig, x, noise_seed: Optional[int] = None) -> ComplexSequence:
    """Run the amplifier: drive scale, soft limiter, memory polynomial, noise.

    The smooth limiter is u -> u / (1 + (|u|/A)^6)^(1/6).  Feedback noise is
    complex AWGN at cfg.feedback_snr_db relative to the output power, applied
    only when both the config enables it and a noise_seed is given; it models
    the observation receiver, not the amplifier itself.
    """
    seq = x if isinstance(x, ComplexSequence) else ComplexSequence(as_samples(x))
    # Within drive_db's range, a high order without the limiter can still
    # overflow the polynomial, or what the noise and the alignment square:
    # the output's energy, times the energy of a unit-RMS reference of the
    # same length.  That fails naming the three causes.
    with np.errstate(over="ignore", invalid="ignore"):
        u = seq.samples * cfg.drive_gain
        if cfg.smooth_limit is not None:
            u = u / (1.0 + (np.abs(u) / cfg.smooth_limit) ** 6) ** (1.0 / 6.0)
        delayed = delayed_matrix(u, TapWindow(pre_taps=cfg.memory_depth))
        amp_sq = np.abs(delayed) ** 2
        y = np.zeros(len(seq), dtype=np.complex128)
        power = np.ones_like(amp_sq)
        for k in range(cfg.n_orders):
            if k:
                power = power * amp_sq
            y += (delayed * power) @ cfg.coeffs[:, k]
        squared = np.vdot(y, y).real * y.size
    if not np.isfinite(squared):
        a_sat = "none" if cfg.smooth_limit is None else cfg.smooth_limit
        raise ValueError(f"the PA output overflows at drive_db = {cfg.drive_db} with "
                         f"a_sat = {a_sat} and k_pa = {cfg.n_orders}")
    if cfg.feedback_snr_db is not None and noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        out_power = float(np.mean(np.abs(y) ** 2))
        scale = np.sqrt(out_power * 10.0 ** (-cfg.feedback_snr_db / 10.0) / 2.0)
        y = y + scale * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
    return ComplexSequence(y, sample_rate_hint=seq.sample_rate_hint)
