"""A model family is its class: registered in ila.MODEL_CLASSES, a family that
writes only its parameter table, its math and its decisions reaches every
command through the registry, and ParamModel gives it the rest."""

from dataclasses import dataclass

import numpy as np
import pytest

from dpdlab import ila, modelfile
from dpdlab.cli import dispatch
from dpdlab.mpm import MpmCoefficients
from dpdlab.signal import TapWindow, deserialize_iq, nmse_db
from dpdlab.training import FitOutcome, train


@dataclass(frozen=True)
class FirModel(modelfile.ParamModel):
    """A linear FIR predistorter: out[n] is the tap row of x at n times
    `coeff`.  It has no sizes besides its window."""

    window: TapWindow
    coeff: np.ndarray  # (T,) complex

    PARAMS = modelfile.ParamTable("fir", sizes=(), params=(
        modelfile.Param("coeff", "coeff", lambda d: (d["n_taps"],), is_complex=True, tap_axis=0),
    ))

    @classmethod
    def init(cls, window, seed=0):
        rng = np.random.default_rng(seed)
        coeff = 1e-2 * (rng.standard_normal(window.n_taps) + 1j * rng.standard_normal(window.n_taps))
        coeff[0] = 1.0
        return cls(window=window, coeff=coeff)

    @classmethod
    def fit(cls, psi, phi, spec, cfg, seed=0):
        trained, history = train(cls.init(spec.window, seed=seed), psi, phi, cfg)
        return FitOutcome(model=trained, postinv_nmse_db=history.best_val_nmse_db())

    @classmethod
    def tap_sweep_spec(cls, base, budget, **_):
        return base

    @classmethod
    def complexity_specs(cls, base, **_):
        return [base]

    def output_rows(self, rows):
        return rows @ self.coeff

    def loss_rows(self, rows, target_rows, grads):
        # d/d(re c) + i d/d(im c) of mean |rows @ c - target|^2
        err = rows @ self.coeff - target_rows
        grads["coeff"][:] = (2.0 / err.size) * (rows.conj().T @ err)
        return float(np.mean(np.abs(err) ** 2))


@pytest.fixture
def fir(monkeypatch):
    monkeypatch.setitem(ila.MODEL_CLASSES, "fir", FirModel)


@pytest.fixture
def pair(tmp_path):
    """A PA (input, output) waveform pair and a small run config over them."""
    x, y = str(tmp_path / "x.iq"), str(tmp_path / "y.iq")
    assert dispatch(["gen-signal", "--seed", "1", "--n", "4096", "--out", x]) == 0
    assert dispatch(["simulate-pa", "--in", x, "--out", y]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[signal]\nn_samples = 4096\n[model]\nkind = fir\ntaps = 3\n"
                   "[train]\nmax_epochs = 3\nsegment_len = 512\n"
                   "[sweep]\nfamilies = fir\ntaps_list = 2, 3\nseeds = 1\n")
    return x, y, str(cfg)


def test_a_registered_family_fits_evaluates_and_round_trips_its_file(fir, pair, tmp_path, capsys):
    x, y, cfg = pair
    model_file = tmp_path / "m.model"
    assert dispatch(["fit", "--model", "fir", "--taps", "4", "--in", y, "--target", x,
                     "--out", str(model_file), "--config", cfg]) == 0
    assert capsys.readouterr().err.startswith("held-out NMSE ")
    model = ila.load_model(model_file)
    assert type(model) is FirModel and model.window.n_taps == 4 and model.n_params() == 8
    assert "kind = fir\n" in model_file.read_text()
    model.save(tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == model_file.read_bytes()

    assert dispatch(["eval", "--model-file", str(model_file), "--in", y, "--target", x]) == 0
    expected = nmse_db(model.predict(deserialize_iq(y)), deserialize_iq(x))
    assert float(capsys.readouterr().out) == pytest.approx(expected, abs=1e-11)


def test_a_registered_family_runs_gradcheck(fir, capsys):
    assert dispatch(["gradcheck", "--model", "fir", "--taps", "3"]) == 0
    assert float(capsys.readouterr().out) < 1e-6


def test_a_registered_family_runs_an_ila_cell_and_a_tap_sweep(fir, pair, tmp_path):
    _, _, cfg = pair
    cell, sweep = tmp_path / "cell.csv", tmp_path / "sweep.csv"
    assert dispatch(["ila-run", "--config", cfg, "--out", str(cell)]) == 0
    assert dispatch(["sweep-taps", "--config", cfg, "--out", str(sweep)]) == 0
    row = cell.read_text().splitlines()[1]
    assert row.startswith("fir,high,3,,,6,6,1,")
    rows = sweep.read_text().splitlines()[1:]
    assert [r.split(",")[:7] for r in rows] == [["fir", "high", "2", "", "", "4", "4"],
                                                 ["fir", "high", "3", "", "", "6", "6"]]
    assert rows[1] == row  # the same cell, whichever command runs it


def test_a_registered_family_refuses_flags_it_never_reads(fir, capsys):
    for flags, message in ((["--k", "3"], "--k: not a size of fir"),
                           (["--ridge", "0.5"], "--ridge: not an option of fir"),
                           (["--cold-start"], "--cold-start: not an option of fir")):
        assert dispatch(["fit", "--model", "fir", *flags, "--in", "x", "--target", "x",
                         "--out", "x"]) == 1
        assert capsys.readouterr().err == f"error: dpdlab fit: {message}\n"


@pytest.mark.parametrize("kind", list(ila.MODEL_CLASSES))
def test_every_family_shares_the_protocol_methods(kind):
    # A family binds these only so the benchmark's tracer finds them on its
    # class; a copy of its own would let the families drift apart.
    cls = ila.MODEL_CLASSES[kind]
    for name in ("predict", "with_param_vector", "loss_and_gradient"):
        assert getattr(cls, name) is getattr(modelfile.ParamModel, name), f"{kind}.{name}"
    # MPM's sizes live in its MpmSpec, so it alone builds itself from a file.
    assert "from_parsed" not in vars(cls) or cls is MpmCoefficients


def test_the_model_protocol_has_one_spelling_on_the_model():
    # ParamTable only declares; every per-model operation is ParamModel's own.
    for name in ("freeze", "param_vector", "size", "views", "with_param_vector", "save"):
        assert not hasattr(modelfile.ParamTable, name), name
    for kind, cls in ila.MODEL_CLASSES.items():
        for name in ("param_vector", "n_params", "param_views", "with_param_vector", "save"):
            assert getattr(cls, name) is vars(modelfile.ParamModel)[name], f"{kind}.{name}"
