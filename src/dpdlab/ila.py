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
from .mpm import BasisMatrix, MpmCoefficients, MpmSpec, build_basis, ls_fit
from .pa_sim import PaConfig, pa_forward
from .rvftdnn import RvftdnnModel, architecture_search, rvftdnn_param_count
from .signal import ComplexSequence, TapWindow, align, as_samples, generate_waveform, nmse_db
from .training import TrainConfig, segment_pairs, train, validation_nmse_db

MAX_ALIGN_LAG = 8
EVAL_SEED_OFFSET = 1000

# Each model family's class, by the kind tag of its model files.
MODEL_CLASSES = {cls.PARAMS.kind: cls for cls in (MpmCoefficients, AgmpnnModel, RvftdnnModel)}
FAMILIES = tuple(MODEL_CLASSES)

DEFAULT_TAPS_LIST = (4, 5, 6, 7, 8, 9, 10)
DEFAULT_PARAM_TARGETS = (100, 200, 300, 400, 500, 600)
DEFAULT_MPM_K_GRID = (1, 2, 3, 4, 5, 6, 7, 8)
DEFAULT_NN_GRID = (8, 10, 12, 14, 16, 18, 20)

# A complexity-sweep cell is feasible when some configuration lands within
# this relative distance of the parameter target.
TARGET_TOLERANCE = 0.25

REPORT_HEADER = ("family,preset,taps,k_orders,m_experts,params_formula,"
                 "params_actual,seed,postinv_nmse_db,lin_nmse_db,no_dpd_nmse_db")


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
    search_grid: Optional[tuple] = None    # rvftdnn: (n1, n2) candidates
    budget: tuple = (100, 600)

    def __post_init__(self) -> None:
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {FAMILIES}")

    def n_params(self) -> int:
        """Real trainable degrees of freedom of this configuration, from its
        family's parameter table."""
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
    """Least-squares fit at each order count in `orders`: training on the
    training segments, validation NMSE over the rest.

    Segments come from training.segment_pairs, and each contributes only its
    interior (TapWindow.interior), as in the training loop, so MPM and
    trained-model numbers are directly comparable.

    The training basis is built once, at the largest order.  Its columns are
    (l, k) with k varying fastest, and build_basis reaches each power by the
    same repeated multiply, so the first K columns of every tap block equal the
    order-K basis bit for bit and each order's fit sees exactly the input a
    basis built at that order would give it.
    """
    train_pairs, val_pairs = segment_pairs(psi, phi, window, segment_len)
    rows = window.interior(segment_len)
    k_max = max(orders)
    top = MpmSpec(window=window, k_orders=k_max)
    # The per-segment blocks are freed once stacked: one copy of the largest
    # basis stays alive, not two.
    data = np.vstack([build_basis(seg_psi, top).data[rows] for seg_psi, _ in train_pairs])
    target = np.concatenate([seg_phi.samples[rows] for _, seg_phi in train_pairs])
    fits = []
    for k in orders:
        # The top order fits on the stacked matrix itself; a lower one on a
        # gathered copy of its columns.
        cols = data if k == k_max else (
            data.reshape(data.shape[0], window.n_taps, k_max)[:, :, :k]
            .reshape(data.shape[0], window.n_taps * k))
        coeffs = ls_fit(BasisMatrix(data=cols, spec=MpmSpec(window=window, k_orders=k)),
                        target, ridge=ridge)
        fits.append((coeffs, validation_nmse_db(coeffs, val_pairs, window)))
    return fits


def fit_model_on_data(psi, phi, spec: DpdModelSpec, cfg: TrainConfig, seed: int = 0) -> FitOutcome:
    """Fit one postinverse family on an already-normalized (psi, phi) pair."""
    if spec.kind == "mpm":
        [(coeffs, val)] = _fit_mpm_orders(psi, phi, spec.window, (spec.k_orders,),
                                          cfg.segment_len, spec.ridge)
        return FitOutcome(model=coeffs, postinv_nmse_db=val)

    if spec.kind == "agmpnn":
        warm = None
        warm_val = None
        if spec.warm_start:
            [(warm, warm_val)] = _fit_mpm_orders(psi, phi, spec.window, (spec.k_orders,),
                                                 cfg.segment_len, spec.ridge)
        model = AgmpnnModel.init(spec.window, spec.k_orders, spec.n_experts,
                                 warm_start=warm, seed=seed,
                                 calibration=psi,
                                 perturb=0.0 if warm is not None else 1e-3)
        trained, history = train(model, psi, phi, cfg)
        return FitOutcome(model=trained, postinv_nmse_db=history.best_val_nmse_db(),
                          warm_start_nmse_db=warm_val)

    # rvftdnn
    if spec.search_grid is not None:
        result = architecture_search(spec.window, psi, phi, cfg, grid=spec.search_grid,
                                     budget_lo=spec.budget[0], budget_hi=spec.budget[1],
                                     seed=seed)
        return FitOutcome(model=result.model, postinv_nmse_db=result.val_nmse_db)
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


def observe_pa(pa: PaConfig, phi, noise_seed: int) -> PaObservation:
    """Drive the PA with `phi` and align its noisy output onto the drive."""
    psi = pa_forward(pa, phi, noise_seed=noise_seed)
    aligned = align(phi, psi, MAX_ALIGN_LAG)
    psi_norm = _advance(psi.samples, aligned.delay) / aligned.gain
    psi_norm.flags.writeable = False  # shared by every cell of a sweep seed
    return PaObservation(phi=as_samples(phi), psi_norm=psi_norm,
                         delay=aligned.delay, gain=aligned.gain)


def fit_predistorter(pa: PaConfig, chi: ComplexSequence, spec: DpdModelSpec,
                     cfg: TrainConfig, seed: int = 0, n_iterations: int = 1,
                     first_pass: PaObservation | None = None) -> FitOutcome:
    """Indirect-learning fit: drive the PA, learn the postinverse of its output.

    Each pass fits on observe_pa's aligned, normalized output.  With
    n_iterations > 1 the freshly fitted model predistorts the next pass's
    drive; the first pass always drives the PA with chi directly.  A caller
    that already holds that first pass, observe_pa(pa, chi, seed), passes it
    as `first_pass` and it is not observed again.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be at least 1")
    observed = first_pass if first_pass is not None else observe_pa(pa, chi, seed)
    outcome = None
    for it in range(n_iterations):
        if it:
            observed = observe_pa(pa, outcome.model.predict(chi), seed + it)
        outcome = fit_model_on_data(observed.psi_norm, observed.phi, spec, cfg, seed=seed)
        outcome.gain = observed.gain
        outcome.delay = observed.delay
    return outcome


def linearization_nmse_db(pa: PaConfig, dpd_model, chi: ComplexSequence) -> tuple[float, complex]:
    """Deploy the postinverse as predistorter; NMSE of PA output vs gain * chi."""
    drive = dpd_model.predict(chi) if dpd_model is not None else chi
    psi = pa_forward(pa, drive, noise_seed=None)
    aligned = align(chi, psi, MAX_ALIGN_LAG)
    psi_c = _advance(psi.samples, aligned.delay)
    return nmse_db(psi_c, aligned.gain * chi.samples), aligned.gain


@dataclass(frozen=True)
class IlaDrive:
    """The drive stage's result: everything the cells of one (PA, seed) share."""

    seed: int
    eval_seed: int
    chi_fit: ComplexSequence
    chi_eval: ComplexSequence
    first_pass: PaObservation
    no_dpd_nmse_db: float


def drive_ila(pa: PaConfig, seed: int, n_samples: int = 16384,
              bandwidth_fraction: float = 0.25, eval_seed: int | None = None) -> IlaDrive:
    """Drive stage of a cell, a pure function of its arguments: the fitting and
    evaluation waveforms, the first fitting pass and the no-DPD baseline.

    The two waveforms use distinct seeds (eval defaults to seed + 1000);
    feedback noise applies only to the fitting pass.
    """
    if eval_seed is None:
        eval_seed = seed + EVAL_SEED_OFFSET
    chi_fit = generate_waveform(seed, n_samples, bandwidth_fraction)
    chi_eval = generate_waveform(eval_seed, n_samples, bandwidth_fraction)
    no_dpd, _ = linearization_nmse_db(pa, None, chi_eval)
    return IlaDrive(seed=seed, eval_seed=eval_seed, chi_fit=chi_fit, chi_eval=chi_eval,
                    first_pass=observe_pa(pa, chi_fit, seed), no_dpd_nmse_db=no_dpd)


def _deployed_report(pa: PaConfig, preset_label: str, drive: IlaDrive,
                     outcome: FitOutcome) -> IlaReport:
    """Deploy a fitted postinverse on the drive's evaluation waveform; assemble
    the report, reading the family, sizes and parameter count off the model."""
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
        no_dpd_nmse_db=drive.no_dpd_nmse_db, eval_seed=drive.eval_seed, gain=outcome.gain,
        warm_start_nmse_db=outcome.warm_start_nmse_db,
        n1=dims.get("n1"), n2=dims.get("n2"),
        improved=bool(lin <= drive.no_dpd_nmse_db),
    )


def run_ila_cell(pa: PaConfig, preset_label: str, spec: DpdModelSpec, drive: IlaDrive,
                 cfg: TrainConfig | None = None, n_iterations: int = 1) -> IlaReport:
    """Cell stage: fit one spec on the drive's first pass, deploy it, report.

    With n_iterations > 1 only the first pass comes from the drive.
    """
    cfg = cfg or TrainConfig()
    outcome = fit_predistorter(pa, drive.chi_fit, spec, cfg, seed=drive.seed,
                               n_iterations=n_iterations, first_pass=drive.first_pass)
    return _deployed_report(pa, preset_label, drive, outcome)


def run_ila(pa: PaConfig, preset_label: str, spec: DpdModelSpec, seed: int,
            n_samples: int = 16384, bandwidth_fraction: float = 0.25,
            cfg: TrainConfig | None = None, eval_seed: int | None = None,
            n_iterations: int = 1) -> IlaReport:
    """Full cell: the drive stage (drive_ila), then the cell stage (run_ila_cell).

    The fitting and evaluation waveforms use distinct seeds (eval defaults to
    seed + 1000); feedback noise applies only during fitting.
    """
    drive = drive_ila(pa, seed, n_samples, bandwidth_fraction, eval_seed)
    return run_ila_cell(pa, preset_label, spec, drive, cfg, n_iterations)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
#
# Every cell of one (preset, seed) shares its drive stage, so a sweep computes
# each drive once and keeps it for the rest of the call.


def _shared_drive(drives: dict, pa: PaConfig, preset_label: str, seed: int,
                  n_samples: int, bandwidth_fraction: float) -> IlaDrive:
    key = (preset_label, seed)
    if key not in drives:
        drives[key] = drive_ila(pa, seed, n_samples, bandwidth_fraction)
    return drives[key]


def _best_mpm_report(pa, preset_label, window, drive: IlaDrive, cfg, orders) -> IlaReport:
    """Fit the MPM at every order count in `orders`; deploy the best validation.

    Ties go to fewer parameters, then the lower order.
    """
    first = drive.first_pass
    fits = _fit_mpm_orders(first.psi_norm, first.phi, window, orders, cfg.segment_len, None)
    coeffs, val = min(fits, key=lambda fit: (fit[1], fit[0].n_params(), fit[0].k_orders))
    outcome = FitOutcome(model=coeffs, postinv_nmse_db=val, gain=first.gain, delay=first.delay)
    return _deployed_report(pa, preset_label, drive, outcome)


def sweep_taps(pa: PaConfig, preset_label: str, taps_list=DEFAULT_TAPS_LIST,
               seeds=(1, 2, 3), families=FAMILIES, budget=(100, 600),
               n_samples: int = 16384, bandwidth_fraction: float = 0.25,
               cfg: TrainConfig | None = None, nn_grid=DEFAULT_NN_GRID,
               mpm_k_grid=DEFAULT_MPM_K_GRID) -> list[IlaReport]:
    """Tap-count sweep: AGMPNN fixed at (K=3, M=3), RVFTDNN architecture-searched
    within the budget, MPM at its best order within budget.  A family with no
    configuration inside the budget gets a blank (infeasible) row."""
    cfg = cfg or TrainConfig()
    drives = {}
    rows = []
    for family in families:
        for taps in taps_list:
            window = TapWindow(pre_taps=taps - 1)
            orders = [k for k in mpm_k_grid
                      if DpdModelSpec(kind="mpm", window=window, k_orders=k).n_params() <= budget[1]]
            widths = tuple((a, b) for a in nn_grid for b in nn_grid
                           if budget[0] <= rvftdnn_param_count(taps, a, b) <= budget[1])
            for seed in seeds:
                if (family == "mpm" and not orders) or (family == "rvftdnn" and not widths):
                    rows.append(IlaReport(family=family, preset=preset_label,
                                          taps=taps, seed=seed))
                    continue
                drive = _shared_drive(drives, pa, preset_label, seed, n_samples,
                                      bandwidth_fraction)
                if family == "mpm":
                    rows.append(_best_mpm_report(pa, preset_label, window, drive, cfg, orders))
                    continue
                if family == "agmpnn":
                    spec = DpdModelSpec(kind="agmpnn", window=window, k_orders=3, n_experts=3)
                else:
                    spec = DpdModelSpec(kind="rvftdnn", window=window,
                                        search_grid=widths, budget=budget)
                rows.append(run_ila_cell(pa, preset_label, spec, drive, cfg))
    return rows


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


def sweep_complexity(pa_by_preset: dict, taps: int = 7,
                     param_targets=DEFAULT_PARAM_TARGETS, seeds=(1, 2, 3),
                     families=FAMILIES, n_samples: int = 16384,
                     bandwidth_fraction: float = 0.25,
                     cfg: TrainConfig | None = None,
                     mpm_k_grid=DEFAULT_MPM_K_GRID) -> list[IlaReport]:
    """Complexity sweep at fixed taps: per family, pick the configuration whose
    trainable parameter count comes closest to each target; a cell further than
    25% from its target is marked infeasible (blank metrics)."""
    cfg = cfg or TrainConfig()
    window = TapWindow(pre_taps=taps - 1)
    drives = {}
    rows = []
    for family in families:
        for target in param_targets:
            spec = _closest_spec(family, window, target, mpm_k_grid)
            for preset_label in sorted(pa_by_preset):
                pa = pa_by_preset[preset_label]
                for seed in seeds:
                    if spec is None:
                        rows.append(IlaReport(family=family, preset=preset_label,
                                              taps=taps, seed=seed))
                        continue
                    drive = _shared_drive(drives, pa, preset_label, seed, n_samples,
                                          bandwidth_fraction)
                    rows.append(run_ila_cell(pa, preset_label, spec, drive, cfg))
    return rows


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
    for r in rows:
        lines.append(",".join([
            r.family, r.preset, str(r.taps),
            _cell(r.k_orders), _cell(r.m_experts),
            _cell(r.params_formula), _cell(r.params_actual),
            str(r.seed),
            _cell(r.postinv_nmse_db), _cell(r.lin_nmse_db), _cell(r.no_dpd_nmse_db),
        ]))
    return "\n".join(lines) + "\n"


def load_model(path):
    """Load any model file, dispatching on its kind tag."""
    parsed = modelfile.read_model(path)
    kind = parsed[0]
    if kind not in MODEL_CLASSES:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    return MODEL_CLASSES[kind].from_parsed(path, parsed)
