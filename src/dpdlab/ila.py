"""Indirect-learning workflow and sweep reports.

A postinverse model is fitted on (normalized PA output -> PA input) pairs, then
deployed unchanged as the predistorter ahead of the amplifier.  Reports carry
the held-out postinverse NMSE from fitting, the end-to-end linearization NMSE
against a gain-scaled fresh waveform, and the no-predistortion baseline.

A family's fit, sweep candidates and nominal count are methods of its class
(MODEL_CLASSES).  Sweeps emit CSV rows in a canonical order with fixed float
formatting, so a repeated run is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import modelfile
from .agmpnn import AgmpnnModel
from .exceptions import FormatError
from .mpm import MpmCoefficients
from .pa_sim import PaConfig, pa_forward
from .rules import check, check_all
from .rvftdnn import DEFAULT_BUDGET, RvftdnnModel
from .signal import ComplexSequence, TapWindow, align, as_samples, generate_waveform, nmse_db
from .training import FitOutcome, TrainConfig

MAX_ALIGN_LAG = 8
EVAL_SEED_OFFSET = 1000

# Each model family's class, by the kind tag of its model files, read when a
# command runs; FAMILIES is the default [sweep] families.
MODEL_CLASSES = {cls.PARAMS.kind: cls for cls in (MpmCoefficients, AgmpnnModel, RvftdnnModel)}
FAMILIES = tuple(MODEL_CLASSES)

DEFAULT_N_SAMPLES = 16384
DEFAULT_BANDWIDTH_FRACTION = 0.25
DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_TAPS_LIST = (4, 5, 6, 7, 8, 9, 10)
DEFAULT_COMPLEXITY_TAPS = 7
DEFAULT_PARAM_TARGETS = (100, 200, 300, 400, 500, 600)
DEFAULT_MPM_K_GRID = (1, 2, 3, 4, 5, 6, 7, 8)
DEFAULT_NN_GRID = (8, 10, 12, 14, 16, 18, 20)

# A complexity-sweep cell is feasible when some configuration lands within
# this relative distance of the parameter target.
TARGET_TOLERANCE = 0.25

# The report CSV's columns: IlaReport field names, in column order.
REPORT_COLUMNS = ("family", "preset", "taps", "k_orders", "m_experts", "params_formula",
                  "params_actual", "seed", "postinv_nmse_db", "lin_nmse_db", "no_dpd_nmse_db")
REPORT_HEADER = ",".join(REPORT_COLUMNS)


def check_families(families) -> None:
    for kind in families:
        if kind not in MODEL_CLASSES:
            raise ValueError(f"unknown model kind {kind!r}; expected one of {tuple(MODEL_CLASSES)}")


def check_budget(budget) -> None:
    """A (budget_lo, budget_hi) parameter budget: integers, lo at most hi."""
    check_all(budget_lo=budget[0], budget_hi=budget[1])
    if budget[0] > budget[1]:
        raise ValueError(f"budget_lo ({budget[0]}) exceeds budget_hi ({budget[1]})")


@dataclass(frozen=True)
class DpdModelSpec:
    """Which model family to fit, and its hyperparameters, the family's sizes checked."""

    kind: str
    window: TapWindow
    k_orders: int = 3
    n_experts: int = 3
    n1: int = 16
    n2: int = 16
    ridge: Optional[float] = None
    warm_start: bool = True
    # Candidates to search, one kept by training.best_fit: mpm order counts,
    # rvftdnn (n1, n2) widths; agmpnn takes none.  None fits the spec's own size.
    search_grid: Optional[tuple] = None
    budget: tuple = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        check_families((self.kind,))
        MODEL_CLASSES[self.kind].PARAMS.dims(self)
        if self.kind == "agmpnn" and self.search_grid is not None:
            raise ValueError("an agmpnn spec takes no search_grid: it fits its own "
                             "(k_orders, n_experts)")
        check_budget(self.budget)
        if self.ridge is not None:
            check("ridge", self.ridge)

    def n_params(self) -> int:
        """Trainable parameter count, from the family's parameter table."""
        table = MODEL_CLASSES[self.kind].PARAMS
        return table.count(table.dims(self))


@dataclass
class IlaReport:
    """One fit/deploy/evaluate cell; optional fields stay None when unused."""

    family: str
    preset: str
    taps: int
    seed: int
    k_orders: Optional[int] = None
    m_experts: Optional[int] = None
    params_formula: Optional[int] = None
    params_actual: Optional[int] = None
    postinv_nmse_db: Optional[float] = None
    lin_nmse_db: Optional[float] = None
    no_dpd_nmse_db: Optional[float] = None
    eval_seed: Optional[int] = None
    gain: Optional[complex] = None
    warm_start_nmse_db: Optional[float] = None
    n1: Optional[int] = None
    n2: Optional[int] = None
    improved: Optional[bool] = None

    @property
    def feasible(self) -> bool:
        return self.postinv_nmse_db is not None


def _advance(samples: np.ndarray, delay: int) -> np.ndarray:
    """out[n] = samples[n + delay], zero-filled where out of range."""
    if delay == 0:
        return samples
    out = np.zeros_like(samples)
    if delay > 0:
        out[:-delay] = samples[delay:]
    else:
        out[-delay:] = samples[:delay]
    return out


def fit_model_on_data(psi, phi, spec: DpdModelSpec, cfg: TrainConfig, seed: int = 0) -> FitOutcome:
    """The spec's family's fit, its search inside, on a normalized (psi, phi) pair."""
    return MODEL_CLASSES[spec.kind].fit(psi, phi, spec, cfg, seed)


@dataclass(frozen=True)
class PaObservation:
    """One fitting pass: the PA drive and the PA output aligned onto it.

    `psi_norm` is the observed output (with seeded feedback noise) advanced by
    `delay` and divided by the scalar least-squares `gain`, so the model maps
    PA-output scale back to PA-input scale.
    """

    phi: np.ndarray
    psi_norm: np.ndarray
    delay: int
    gain: complex


def _pa_aligned(pa: PaConfig, drive, reference, noise_seed: int | None):
    """Run the PA on `drive`, align its output onto `reference` and advance it
    by the found delay; returns the advanced output and the alignment."""
    psi = pa_forward(pa, drive, noise_seed=noise_seed)
    aligned = align(reference, psi, MAX_ALIGN_LAG)
    return _advance(psi.samples, aligned.delay), aligned


def observe_pa(pa: PaConfig, phi, noise_seed: int) -> PaObservation:
    """Drive the PA with `phi` and align its noisy output onto the drive."""
    psi, aligned = _pa_aligned(pa, phi, phi, noise_seed)
    psi_norm = psi / aligned.gain
    psi_norm.flags.writeable = False  # shared by every cell of a sweep seed
    return PaObservation(phi=as_samples(phi), psi_norm=psi_norm,
                         delay=aligned.delay, gain=aligned.gain)


def linearization_nmse_db(pa: PaConfig, dpd_model, chi: ComplexSequence) -> tuple[float, complex]:
    """Deploy the postinverse as predistorter; NMSE of PA output vs gain * chi."""
    drive = dpd_model.predict(chi) if dpd_model is not None else chi
    psi, aligned = _pa_aligned(pa, drive, chi, None)
    return nmse_db(psi, aligned.gain * chi.samples), aligned.gain


@dataclass(frozen=True)
class IlaDrive:
    """The drive stage's result: everything the cells of one (PA, seed) share."""

    seed: int
    chi_fit: ComplexSequence
    chi_eval: ComplexSequence
    first_pass: PaObservation
    no_dpd_nmse_db: float


def drive_ila(pa: PaConfig, seed: int, n_samples: int = DEFAULT_N_SAMPLES,
              bandwidth_fraction: float = DEFAULT_BANDWIDTH_FRACTION) -> IlaDrive:
    """Drive stage of a cell, a pure function of its arguments: the fitting and
    evaluation (seed + EVAL_SEED_OFFSET) waveforms, the first fitting pass and
    the no-DPD baseline.  Feedback noise applies only to the fitting pass."""
    check("seed", seed)
    chi_fit = generate_waveform(seed, n_samples, bandwidth_fraction)
    chi_eval = generate_waveform(seed + EVAL_SEED_OFFSET, n_samples, bandwidth_fraction)
    no_dpd, _ = linearization_nmse_db(pa, None, chi_eval)
    return IlaDrive(seed=seed, chi_fit=chi_fit, chi_eval=chi_eval,
                    first_pass=observe_pa(pa, chi_fit, seed), no_dpd_nmse_db=no_dpd)


def fit_predistorter(pa: PaConfig, drive: IlaDrive, spec: DpdModelSpec, cfg: TrainConfig,
                     n_iterations: int = 1) -> FitOutcome:
    """Indirect-learning fit of the postinverse, starting from the drive's first
    pass.  Each later pass `it` observes the PA driven by the last fit's
    predistortion of chi_fit, with noise seed drive.seed + it; the outcome
    carries the last pass's gain and delay."""
    check("n_iterations", n_iterations)
    observed = drive.first_pass
    for it in range(n_iterations):
        if it:
            observed = observe_pa(pa, outcome.model.predict(drive.chi_fit), drive.seed + it)
        outcome = fit_model_on_data(observed.psi_norm, observed.phi, spec, cfg, seed=drive.seed)
    outcome.gain, outcome.delay = observed.gain, observed.delay
    return outcome


def run_ila_cell(pa: PaConfig, preset_label: str, spec: DpdModelSpec, drive: IlaDrive,
                 cfg: TrainConfig | None = None, n_iterations: int = 1) -> IlaReport:
    """Cell stage: fit one spec on the drive (fit_predistorter), deploy it on the
    drive's evaluation waveform and report, reading the family, sizes and
    parameter count off the fitted model."""
    outcome = fit_predistorter(pa, drive, spec, cfg or TrainConfig(), n_iterations)
    model = outcome.model
    lin, _ = linearization_nmse_db(pa, model, drive.chi_eval)
    dims = model.PARAMS.dims(model)
    return IlaReport(
        family=model.PARAMS.kind, preset=preset_label, taps=dims["n_taps"], seed=drive.seed,
        k_orders=dims.get("k_orders"), m_experts=dims.get("n_experts"),
        params_formula=model.params_formula(), params_actual=model.n_params(),
        postinv_nmse_db=outcome.postinv_nmse_db, lin_nmse_db=lin,
        no_dpd_nmse_db=drive.no_dpd_nmse_db, eval_seed=drive.seed + EVAL_SEED_OFFSET,
        gain=outcome.gain, warm_start_nmse_db=outcome.warm_start_nmse_db,
        n1=dims.get("n1"), n2=dims.get("n2"),
        improved=bool(lin <= drive.no_dpd_nmse_db),
    )


def run_ila(pa: PaConfig, preset_label: str, spec: DpdModelSpec, seed: int,
            n_samples: int = DEFAULT_N_SAMPLES,
            bandwidth_fraction: float = DEFAULT_BANDWIDTH_FRACTION,
            cfg: TrainConfig | None = None, n_iterations: int = 1) -> IlaReport:
    """Full cell: the drive stage (drive_ila), then the cell stage (run_ila_cell)."""
    drive = drive_ila(pa, seed, n_samples, bandwidth_fraction)
    return run_ila_cell(pa, preset_label, spec, drive, cfg, n_iterations)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def _sweep(cells, seeds, n_samples: int, bandwidth_fraction: float,
           cfg: TrainConfig | None) -> list[IlaReport]:
    """One report row per (family, taps, preset, pa, spec) cell and seed, in
    that order; a cell without a spec gets blank (infeasible) rows.  Cells of
    one (preset, seed) share its drive stage, computed once per call."""
    for seed in seeds:
        check("seeds", seed)
    drives = {}
    rows = []
    for family, taps, preset_label, pa, spec in cells:
        for seed in seeds:
            if spec is None:
                rows.append(IlaReport(family=family, preset=preset_label, taps=taps, seed=seed))
                continue
            if (preset_label, seed) not in drives:
                drives[preset_label, seed] = drive_ila(pa, seed, n_samples, bandwidth_fraction)
            rows.append(run_ila_cell(pa, preset_label, spec, drives[preset_label, seed], cfg))
    return rows


def sweep_taps(pa: PaConfig, preset_label: str, taps_list=DEFAULT_TAPS_LIST,
               seeds=DEFAULT_SEEDS, families=FAMILIES, budget=DEFAULT_BUDGET,
               n_samples: int = DEFAULT_N_SAMPLES,
               bandwidth_fraction: float = DEFAULT_BANDWIDTH_FRACTION,
               cfg: TrainConfig | None = None, nn_grid=DEFAULT_NN_GRID,
               mpm_k_grid=DEFAULT_MPM_K_GRID) -> list[IlaReport]:
    """Tap-count sweep, each cell's spec its family's tap_sweep_spec: AGMPNN at
    (K=3, M=3), RVFTDNN and MPM searched within the budget.  A family with no
    configuration inside the budget gets a blank (infeasible) row."""
    check_families(families)
    check_budget(budget)
    for taps in taps_list:
        check("taps_list", taps)
    cells = [(family, taps, preset_label, pa, MODEL_CLASSES[family].tap_sweep_spec(
                 DpdModelSpec(kind=family, window=TapWindow(pre_taps=taps - 1)), budget,
                 nn_grid=nn_grid, mpm_k_grid=mpm_k_grid))
             for family in families for taps in taps_list]
    return _sweep(cells, seeds, n_samples, bandwidth_fraction, cfg)


def _closest_specs(family: str, window: TapWindow, targets, mpm_k_grid) -> list:
    """For each parameter target, the family's complexity_specs entry closest
    to it, None if none is within TARGET_TOLERANCE; ties go to fewer
    parameters, then first.  The entries and their counts are built once."""
    base = DpdModelSpec(kind=family, window=window)
    sized = [(s.n_params(), s)
             for s in MODEL_CLASSES[family].complexity_specs(base, mpm_k_grid=mpm_k_grid)]
    return [min(((n, s) for n, s in sized if abs(n - target) <= TARGET_TOLERANCE * target),
                key=lambda entry: (abs(entry[0] - target), entry[0]), default=(None, None))[1]
            for target in targets]


def sweep_complexity(pa_by_preset: dict, taps: int = DEFAULT_COMPLEXITY_TAPS,
                     param_targets=DEFAULT_PARAM_TARGETS, seeds=DEFAULT_SEEDS,
                     families=FAMILIES, n_samples: int = DEFAULT_N_SAMPLES,
                     bandwidth_fraction: float = DEFAULT_BANDWIDTH_FRACTION,
                     cfg: TrainConfig | None = None,
                     mpm_k_grid=DEFAULT_MPM_K_GRID) -> list[IlaReport]:
    """Complexity sweep at fixed taps: per family, pick the configuration whose
    trainable parameter count comes closest to each target; a cell further than
    25% from its target is marked infeasible (blank metrics)."""
    check("taps", taps)
    for target in param_targets:
        check("param_targets", target)
    window = TapWindow(pre_taps=taps - 1)
    cells = []
    for family in families:
        for spec in _closest_specs(family, window, param_targets, mpm_k_grid):
            cells += [(family, taps, label, pa_by_preset[label], spec)
                      for label in sorted(pa_by_preset)]
    return _sweep(cells, seeds, n_samples, bandwidth_fraction, cfg)


# ----------------------------------------------------------------------
# report serialization
# ----------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def reports_to_csv(rows) -> str:
    """Fixed-format CSV; identical inputs serialize byte-identically."""
    lines = [REPORT_HEADER]
    lines += [",".join(_cell(getattr(r, column)) for column in REPORT_COLUMNS) for r in rows]
    return "\n".join(lines) + "\n"


def load_model(path):
    """Load any model file, dispatching on its kind tag."""
    parsed = modelfile.read_model(path)
    kind = parsed[0]
    if kind not in MODEL_CLASSES:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    return MODEL_CLASSES[kind].from_parsed(path, parsed)
