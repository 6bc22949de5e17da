"""Indirect-learning workflow and sweep reports.

A postinverse model is fitted on (normalized PA output -> PA input) pairs, then
deployed unchanged as the predistorter ahead of the amplifier.  Reports carry
the held-out postinverse NMSE from fitting, the end-to-end linearization NMSE
against a gain-scaled fresh waveform, and the no-predistortion baseline.

Sweeps emit CSV rows in a canonical order with fixed float formatting, so a
repeated run is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import modelfile
from .agmpnn import AgmpnnModel, count_params_formula
from .exceptions import FormatError
from .mpm import MpmCoefficients, fit_orders
from .pa_sim import PaConfig, pa_forward
from .rvftdnn import DEFAULT_BUDGET, RvftdnnModel, architecture_search, rvftdnn_param_count
from .signal import ComplexSequence, TapWindow, align, as_samples, generate_waveform, nmse_db
from .training import TrainConfig, best_fit, segment_pairs, train, validation_nmse_db

MAX_ALIGN_LAG = 8
EVAL_SEED_OFFSET = 1000

# Each model family's class, by the kind tag of its model files.
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


def _check_families(families) -> None:
    for kind in families:
        if kind not in FAMILIES:
            raise ValueError(f"unknown model kind {kind!r}; expected one of {FAMILIES}")


def _check_at_least(name: str, values, lowest: int) -> None:
    """The config reader's rule for counts (lowest 1) and seeds (lowest 0),
    applied to the API argument `name`: each of `values` is an integer of at
    least `lowest`."""
    for value in values:
        if not isinstance(value, (int, np.integer)) or value < lowest:
            raise ValueError(f"{name}: expected an integer of at least {lowest}, got {value!r}")


def _check_budget(budget) -> None:
    if budget[0] > budget[1]:
        raise ValueError(f"budget lower bound {budget[0]} exceeds upper bound {budget[1]}")


@dataclass(frozen=True)
class DpdModelSpec:
    """Which model family to fit, and its hyperparameters."""

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
        _check_families((self.kind,))
        if self.kind == "agmpnn" and self.search_grid is not None:
            raise ValueError("an agmpnn spec takes no search_grid: it fits its own "
                             "(k_orders, n_experts)")
        _check_budget(self.budget)
        if self.ridge is not None and not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and non-negative, got {self.ridge}")

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


@dataclass
class FitOutcome:
    """Result of fitting one postinverse on normalized data."""

    model: object
    postinv_nmse_db: float
    warm_start_nmse_db: Optional[float] = None
    gain: complex = 1.0 + 0j
    delay: int = 0


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


def _fit_mpm_orders(psi, phi, window: TapWindow, orders,
                    segment_len: int, ridge) -> list[tuple[MpmCoefficients, float]]:
    """mpm.fit_orders on the training segments of training.segment_pairs, as
    in the training loop, each fit paired with its validation NMSE."""
    train_pairs, val_pairs = segment_pairs(psi, phi, window, segment_len)
    return [(coeffs, validation_nmse_db(coeffs, val_pairs, window))
            for coeffs in fit_orders(train_pairs, window, orders, ridge)]


def fit_model_on_data(psi, phi, spec: DpdModelSpec, cfg: TrainConfig, seed: int = 0) -> FitOutcome:
    """Fit one postinverse family on an already-normalized (psi, phi) pair."""
    if spec.kind == "mpm":
        orders = (spec.k_orders,) if spec.search_grid is None else spec.search_grid
        if not orders:
            raise ValueError("the mpm search grid holds no order count")
        return FitOutcome(*best_fit(_fit_mpm_orders(psi, phi, spec.window, orders,
                                                    cfg.segment_len, spec.ridge)))

    if spec.kind == "agmpnn":
        warm, warm_val = None, None
        if spec.warm_start:
            [(warm, warm_val)] = _fit_mpm_orders(psi, phi, spec.window, (spec.k_orders,),
                                                 cfg.segment_len, spec.ridge)
        model = AgmpnnModel.init(spec.window, spec.k_orders, spec.n_experts, warm_start=warm,
                                 seed=seed, calibration=psi, perturb=0.0)
        trained, history = train(model, psi, phi, cfg)
        return FitOutcome(model=trained, postinv_nmse_db=history.best_val_nmse_db(),
                          warm_start_nmse_db=warm_val)

    # rvftdnn
    if spec.search_grid is not None:
        return FitOutcome(*architecture_search(spec.window, psi, phi, cfg, spec.search_grid,
                                               budget_lo=spec.budget[0],
                                               budget_hi=spec.budget[1], seed=seed))
    model = RvftdnnModel.init(spec.window, spec.n1, spec.n2, seed=seed)
    trained, history = train(model, psi, phi, cfg)
    return FitOutcome(model=trained, postinv_nmse_db=history.best_val_nmse_db())


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
    _check_at_least("seed", (seed,), 0)
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
    modelfile.check_sizes({"n_iterations": n_iterations})
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
    kind = model.PARAMS.kind
    dims = model.PARAMS.dims(model)
    actual = model.PARAMS.count(dims)
    formula = (count_params_formula(dims["n_taps"], dims["k_orders"], dims["n_experts"])
               if kind == "agmpnn" else actual)
    return IlaReport(
        family=kind, preset=preset_label, taps=dims["n_taps"], seed=drive.seed,
        k_orders=dims.get("k_orders"), m_experts=dims.get("n_experts"),
        params_formula=formula, params_actual=actual,
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
    _check_families(family for family, *_ in cells)
    _check_at_least("seeds", seeds, 0)
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


def _tap_sweep_spec(family: str, window: TapWindow, budget, nn_grid,
                    mpm_k_grid) -> DpdModelSpec | None:
    """A tap-sweep cell's spec: MPM searched over its orders under the budget's
    upper bound, RVFTDNN over its widths within the budget, AGMPNN at
    (K=3, M=3); None when the search has no candidate."""
    if family == "agmpnn":
        return DpdModelSpec(kind="agmpnn", window=window, k_orders=3, n_experts=3)
    if family == "mpm":
        grid = tuple(k for k in mpm_k_grid
                     if DpdModelSpec(kind="mpm", window=window, k_orders=k).n_params() <= budget[1])
    else:
        grid = tuple((a, b) for a in nn_grid for b in nn_grid
                     if budget[0] <= rvftdnn_param_count(window.n_taps, a, b) <= budget[1])
    if not grid:
        return None
    return DpdModelSpec(kind=family, window=window, search_grid=grid, budget=budget)


def sweep_taps(pa: PaConfig, preset_label: str, taps_list=DEFAULT_TAPS_LIST,
               seeds=DEFAULT_SEEDS, families=FAMILIES, budget=DEFAULT_BUDGET,
               n_samples: int = DEFAULT_N_SAMPLES,
               bandwidth_fraction: float = DEFAULT_BANDWIDTH_FRACTION,
               cfg: TrainConfig | None = None, nn_grid=DEFAULT_NN_GRID,
               mpm_k_grid=DEFAULT_MPM_K_GRID) -> list[IlaReport]:
    """Tap-count sweep: AGMPNN fixed at (K=3, M=3), RVFTDNN architecture-searched
    within the budget, MPM at its best order within budget.  A family with no
    configuration inside the budget gets a blank (infeasible) row."""
    _check_budget(budget)
    _check_at_least("taps_list", taps_list, 1)
    cells = [(family, taps, preset_label, pa,
              _tap_sweep_spec(family, TapWindow(pre_taps=taps - 1), budget, nn_grid, mpm_k_grid))
             for family in families for taps in taps_list]
    return _sweep(cells, seeds, n_samples, bandwidth_fraction, cfg)


def _candidate_specs(family: str, window: TapWindow, mpm_k_grid) -> list[DpdModelSpec]:
    """The complexity sweep's configurations of one family, in lexicographic
    hyperparameter order."""
    if family == "mpm":
        return [DpdModelSpec(kind="mpm", window=window, k_orders=k) for k in sorted(mpm_k_grid)]
    if family == "agmpnn":
        return [DpdModelSpec(kind="agmpnn", window=window, k_orders=k, n_experts=m)
                for k in range(1, 7) for m in range(1, 9)]
    return [DpdModelSpec(kind="rvftdnn", window=window, n1=n1, n2=n2)
            for n1 in range(2, 25) for n2 in range(2, 25)]


def _closest_spec(family: str, window: TapWindow, target: int, mpm_k_grid) -> DpdModelSpec | None:
    """The family's configuration closest to the parameter target, or None when
    it lands further than TARGET_TOLERANCE from it.  Ties go to the smaller
    count, then to the first configuration in hyperparameter order."""
    spec = min(_candidate_specs(family, window, mpm_k_grid),
               key=lambda s: (abs(s.n_params() - target), s.n_params()))
    return spec if abs(spec.n_params() - target) <= TARGET_TOLERANCE * target else None


def sweep_complexity(pa_by_preset: dict, taps: int = DEFAULT_COMPLEXITY_TAPS,
                     param_targets=DEFAULT_PARAM_TARGETS, seeds=DEFAULT_SEEDS,
                     families=FAMILIES, n_samples: int = DEFAULT_N_SAMPLES,
                     bandwidth_fraction: float = DEFAULT_BANDWIDTH_FRACTION,
                     cfg: TrainConfig | None = None,
                     mpm_k_grid=DEFAULT_MPM_K_GRID) -> list[IlaReport]:
    """Complexity sweep at fixed taps: per family, pick the configuration whose
    trainable parameter count comes closest to each target; a cell further than
    25% from its target is marked infeasible (blank metrics)."""
    _check_at_least("taps", (taps,), 1)
    _check_at_least("param_targets", param_targets, 1)
    window = TapWindow(pre_taps=taps - 1)
    cells = []
    for family in families:
        for target in param_targets:
            spec = _closest_spec(family, window, target, mpm_k_grid)
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
