"""Indirect-learning fit/deploy/evaluate harness and sweep reports."""

from pathlib import Path

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
    generate_waveform,
    pa_forward,
    preset,
)
from dpdlab.ila import (
    DEFAULT_MPM_K_GRID,
    DEFAULT_NN_GRID,
    DEFAULT_PARAM_TARGETS,
    DEFAULT_TAPS_LIST,
    EVAL_SEED_OFFSET,
    FAMILIES,
    MAX_ALIGN_LAG,
    REPORT_HEADER,
    TARGET_TOLERANCE,
    DpdModelSpec,
    IlaReport,
    _advance,
    _closest_spec,
    _fit_mpm_orders,
    drive_ila,
    fit_model_on_data,
    fit_predistorter,
    linearization_nmse_db,
    load_model,
    reports_to_csv,
    run_ila,
    sweep_complexity,
    sweep_taps,
)
from dpdlab.agmpnn import agmpnn_param_count
from dpdlab.pa_sim import PaConfig
from dpdlab.rvftdnn import rvftdnn_param_count

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


def test_model_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        DpdModelSpec(kind="volterra", window=TapWindow(pre_taps=3))


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
    explicit = run_ila(preset("low"), "low", spec, seed=7, n_samples=4096, eval_seed=42)
    assert explicit.eval_seed == 42
    assert explicit.lin_nmse_db != report.lin_nmse_db  # different evaluation data


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
    a = fit_predistorter(preset("low"), chi, spec, TrainConfig(), seed=1)
    b = fit_predistorter(preset("low"), chi, spec, TrainConfig(), seed=2)
    assert a.postinv_nmse_db != b.postinv_nmse_db


def test_improved_flag_matches_metrics():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=2), k_orders=2)
    report = run_ila(preset("high"), "high", spec, seed=3, n_samples=4096)
    assert report.improved == (report.lin_nmse_db <= report.no_dpd_nmse_db)


def test_iterated_fit_runs_and_stays_feasible():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=4), k_orders=4)
    chi = generate_waveform(4, 4096, 0.25)
    once = fit_predistorter(preset("low"), chi, spec, TrainConfig(), seed=4, n_iterations=1)
    twice = fit_predistorter(preset("low"), chi, spec, TrainConfig(), seed=4, n_iterations=2)
    assert np.isfinite(once.postinv_nmse_db)
    assert np.isfinite(twice.postinv_nmse_db)
    assert not np.array_equal(once.model.coeff, twice.model.coeff)
    with pytest.raises(ValueError):
        fit_predistorter(preset("low"), chi, spec, TrainConfig(), seed=4, n_iterations=0)


def test_iterated_fit_reuses_only_the_drive_stages_first_pass():
    spec = DpdModelSpec(kind="mpm", window=TapWindow(pre_taps=4), k_orders=4)
    drive = drive_ila(preset("low"), 4, 4096)
    shared = fit_predistorter(preset("low"), drive.chi_fit, spec, TrainConfig(), seed=4,
                              n_iterations=2, first_pass=drive.first_pass)
    fresh = fit_predistorter(preset("low"), drive.chi_fit, spec, TrainConfig(), seed=4,
                             n_iterations=2)
    assert np.array_equal(shared.model.coeff, fresh.model.coeff)
    assert (shared.gain, shared.delay) == (fresh.gain, fresh.delay)
    assert shared.gain != drive.first_pass.gain  # the second pass was observed anew


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
                      families=("mpm",), budget=(100, 10), n_samples=4096, cfg=FAST_CFG)
    assert [(r.taps, r.feasible) for r in rows] == [(7, False), (4, True)]
    assert rows[0].lin_nmse_db is None and rows[0].params_actual is None
    assert rows[1].k_orders == 1


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


def test_order_search_fits_equal_single_order_fits():
    # One basis at the largest order serves every order: each order's
    # coefficients and validation NMSE equal a fit at that order alone.
    chi = generate_waveform(3, 2048, 0.25)
    psi = pa_forward(preset("high"), chi, noise_seed=3)
    window = TapWindow(pre_taps=3, post_taps=1)
    orders = (1, 2, 3, 4)
    fits = _fit_mpm_orders(psi.samples, chi.samples, window, orders, 512, None)
    for k, (coeffs, val) in zip(orders, fits):
        spec = DpdModelSpec(kind="mpm", window=window, k_orders=k)
        single = fit_model_on_data(psi, chi, spec, TrainConfig(segment_len=512))
        assert np.array_equal(coeffs.coeff, single.model.coeff)
        assert val == single.postinv_nmse_db


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
        for target in targets:
            spec = _closest_spec(family, window, target, (1, 2, 3, 4, 5))
            for label in ("high", "low"):
                for seed in seeds:
                    expected.append(
                        run_ila(pa_by[label], label, spec, seed, **TINY) if spec is not None
                        else IlaReport(family=family, preset=label, taps=taps, seed=seed))
    assert 0 < sum(not r.feasible for r in expected) < len(expected)
    assert reports_to_csv(rows) == reports_to_csv(expected)


# === complexity sweep ===

def test_closest_spec_ties_go_to_fewer_params_then_lower_hyperparameters():
    taps = 5
    window = TapWindow(pre_taps=taps - 1)
    grids = {
        "mpm": ([(k,) for k in range(1, 6)], lambda k: 2 * taps * k),
        "agmpnn": ([(k, m) for k in range(1, 7) for m in range(1, 9)],
                   lambda k, m: agmpnn_param_count(taps, k, m)),
        "rvftdnn": ([(a, b) for a in range(2, 25) for b in range(2, 25)],
                    lambda a, b: rvftdnn_param_count(taps, a, b)),
    }
    hyper = {"mpm": lambda s: (s.k_orders,), "agmpnn": lambda s: (s.k_orders, s.n_experts),
             "rvftdnn": lambda s: (s.n1, s.n2)}
    for target in range(10, 800, 3):
        for family, (grid, count) in grids.items():
            dist, _, *best = min((abs(count(*h) - target), count(*h), *h) for h in grid)
            # An unsorted grid with a repeat selects the same order count.
            spec = _closest_spec(family, window, target, (5, 3, 1, 4, 2, 3))
            if dist > TARGET_TOLERANCE * target:
                assert spec is None
            else:
                assert hyper[family](spec) == tuple(best)


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


@pytest.mark.parametrize("family", FAMILIES)
def test_load_model_rejects_non_finite_values(tmp_path, family):
    path = tmp_path / "bad.model"
    _tiny_model(family).save(path)
    lines = path.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1] + ["nan"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="non-finite"):
        load_model(path)
