"""The arguments and results the benchmark's tracer hooks read.

Besides wrapping names, the tracer reads three calls as they close: the
`spec` of `ila.run_ila` (its third positional parameter) labels the cell, the
`basis` of `mpm.ls_fit` (its first parameter) is sized by its `.data`, and
the history that `training.train` returns gives `stopped_epoch` and
`best_epoch`.  A change to any of these breaks only a traced benchmark run, so
this guard checks them: by signature, and by a small traced pass through the
tracer's own hooks when the checkout has the benchmark.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from dpdlab import (PaConfig, RvftdnnModel, TapWindow, TrainConfig, generate_waveform, ila, mpm,
                    training)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WINDOW = TapWindow(pre_taps=2)
SHORT = TrainConfig(segment_len=256, max_epochs=2)


def _parameters(func) -> list:
    return list(inspect.signature(func).parameters)


def _mpm_cell():
    spec = ila.DpdModelSpec(kind="mpm", window=WINDOW, k_orders=2)
    return ila.run_ila(PaConfig(coeffs=[[1.0]]), "linear", spec, 1, n_samples=1024, cfg=SHORT)


def _short_train():
    x = generate_waveform(1, 1024, 0.25)
    return training.train(RvftdnnModel.init(WINDOW, 2, 2), x, x.samples, SHORT)


def test_run_ila_takes_its_spec_third():
    assert _parameters(ila.run_ila)[2] == "spec"


def test_ls_fit_takes_its_basis_first_and_the_basis_holds_its_data():
    assert _parameters(mpm.ls_fit)[0] == "basis"
    x = generate_waveform(1, 256, 0.25)
    basis = mpm.build_basis(x, mpm.MpmSpec(window=WINDOW, k_orders=2))
    assert basis.data.shape == (256, 6)


def test_train_returns_a_history_with_its_stopping_and_best_epochs():
    _, history = _short_train()
    assert history.stopped_epoch == 2
    assert 0 <= history.best_epoch <= history.stopped_epoch


def test_the_tracer_hooks_read_a_traced_pass():
    if not TRACER.is_file():
        pytest.skip("no perfbench/tracer.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    x = generate_waveform(1, 1024, 0.25).samples
    search = ila.DpdModelSpec(kind="rvftdnn", window=WINDOW, search_grid=((2, 2), (3, 2)),
                              budget=(1, 100))
    with tracer.installed():
        _mpm_cell()
        _short_train()
        before = tracer.epochs
        ila.fit_model_on_data(x, x, search, SHORT)
    assert len(tracer.cell_s["mpm"]) == 1
    assert tracer.basis_bytes > 0
    assert before == 2
    # A family's fit reaches train and architecture_search through the names
    # the tracer wraps, so it counts each search candidate.
    assert tracer.candidates == 2
    assert tracer.calls["rvftdnn.architecture_search"] == 1
