"""Command-line interface, exercised in-process through dispatch()."""

import argparse
import hashlib
import re

import numpy as np
import pytest

from dpdlab import (ComplexSequence, TapWindow, deserialize_iq, generate_waveform, nmse_db,
                    pa_forward, preset, serialize_iq, write_iq_csv)
from dpdlab.agmpnn import AgmpnnModel
from dpdlab.cli import build_parser, dispatch
from dpdlab.config import RunConfig, parse_config
from dpdlab.ila import REPORT_HEADER, load_model
from dpdlab.mpm import MpmCoefficients, MpmSpec
from dpdlab.rvftdnn import RvftdnnModel


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# === exit codes ===

def test_no_arguments_is_a_usage_error(capsys):
    assert dispatch([]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error(capsys):
    assert dispatch(["gen-signal", "--seed", "1"]) == 1


def test_unknown_command_is_a_usage_error():
    assert dispatch(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out
    assert dispatch(["fit", "--help"]) == 0


def test_gradcheck_help_prints_every_default(capsys):
    assert dispatch(["gradcheck", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in (("--model {agmpnn,rvftdnn}", "agmpnn"), ("--taps TAPS", "[model] taps"),
                          ("--k K_ORDERS", "[model] k_orders"),
                          ("--experts N_EXPERTS", "[model] n_experts"), ("--n1 N1", "[model] n1"),
                          ("--n2 N2", "[model] n2"), ("--seed SEED", "0"), ("--n N", "256"),
                          ("--threshold THRESHOLD", "0.0001")):
        assert re.search(rf"{re.escape(flag)} (?:(?! --)[^()])*\(default: {re.escape(default)}\)", text), flag


def test_help_prints_no_default_a_flag_does_not_have(capsys):
    # Required flags, --config and --noise-seed have no default to print.
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert len(subparsers.choices) == 10
    for command in subparsers.choices:
        assert dispatch([command, "--help"]) == 0
        assert "(default: None)" not in " ".join(capsys.readouterr().out.split()), command


def test_runtime_failure_exits_two(tmp_path, capsys):
    out = tmp_path / "w.iq"
    assert dispatch(["gen-signal", "--seed", "1", "--n", "64",
                     "--out", str(tmp_path / "no-such-dir" / "w.iq")]) == 2
    assert "error" in capsys.readouterr().err
    assert dispatch(["eval", "--model-file", str(tmp_path / "missing.model"),
                     "--in", str(out), "--target", str(out)]) == 2


def test_bad_tap_counts_are_usage_errors_naming_the_flags(tmp_path, capsys):
    out = str(tmp_path / "m.model")
    for taps, post in (("2", "3"), ("3", "3"), ("4", "-1")):
        assert dispatch(["fit", "--model", "mpm", "--taps", taps, "--post-taps", post,
                         "--in", "missing.iq", "--target", "missing.iq", "--out", out]) == 1
        assert "--post-taps" in capsys.readouterr().err


def test_non_positive_iterations_is_a_usage_error(capsys):
    for value in ("0", "-2", "two"):
        assert dispatch(["ila-run", "--iterations", value]) == 1
        assert "--iterations" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    *[("gradcheck", flag) for flag in ("--taps", "--k", "--experts", "--n1", "--n2")],
    *[("fit", flag) for flag in ("--k", "--experts", "--n1", "--n2")],
])
def test_non_positive_sizes_are_usage_errors_naming_the_flag(tmp_path, capsys, command, flag):
    wave = str(tmp_path / "w.iq")
    files = (["--model", "mpm", "--in", wave, "--target", wave, "--out", wave]
             if command == "fit" else [])
    for value in ("0", "-1"):
        assert dispatch([command, *files, flag, value]) == 1
        assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err


def test_negative_seeds_are_usage_errors_naming_the_flag(tmp_path, capsys):
    wave = str(tmp_path / "w.iq")
    for argv, flag in (
            (["gen-signal", "--seed", "-1", "--n", "64", "--out", wave], "--seed"),
            (["fit", "--model", "mpm", "--seed", "-2", "--in", wave, "--target", wave,
              "--out", wave], "--seed"),
            (["gradcheck", "--seed", "-3"], "--seed"),
            (["simulate-pa", "--in", wave, "--out", wave, "--noise-seed", "-4"], "--noise-seed")):
        assert dispatch(argv) == 1
        assert f"argument {flag}: must be at least 0" in capsys.readouterr().err


def test_a_preset_is_declared_once(monkeypatch, tmp_path):
    # A drive level added to PRESET_DRIVE_DB is a preset to pa_sim, the label
    # of a [pa] drive_db at its level and a `simulate-pa --preset` choice.
    from dpdlab import cli, pa_sim
    monkeypatch.setitem(pa_sim.PRESET_DRIVE_DB, "mid", -6.0)
    assert preset("mid").drive_db == -6.0
    assert parse_config("[pa]\ndrive_db = -6.0\n").preset_label() == "mid"
    args = cli.build_parser().parse_args(["simulate-pa", "--in", "a", "--out", "b",
                                          "--preset", "mid"])
    assert args.preset == "mid"
    chi_path, psi_path = tmp_path / "chi.iq", tmp_path / "psi.iq"
    assert dispatch(["gen-signal", "--seed", "5", "--n", "256", "--out", str(chi_path)]) == 0
    assert dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(psi_path),
                     "--preset", "mid"]) == 0
    expected = pa_forward(preset("mid"), deserialize_iq(chi_path))
    assert np.array_equal(deserialize_iq(psi_path).samples, expected.samples)
    monkeypatch.delitem(pa_sim.PRESET_DRIVE_DB, "mid")
    with pytest.raises(ValueError, match=r"expected one of \('low', 'high'\)$"):
        preset("mid")


# === waveform commands ===

def test_gen_signal_writes_binary_waveform(tmp_path, capsys):
    out = tmp_path / "chi.iq"
    assert dispatch(["gen-signal", "--seed", "3", "--n", "512", "--out", str(out)]) == 0
    seq = deserialize_iq(out)
    assert len(seq) == 512
    assert np.array_equal(seq.samples, generate_waveform(3, 512, 0.25).samples)
    # same invocation, same bytes
    again = tmp_path / "chi2.iq"
    assert dispatch(["gen-signal", "--seed", "3", "--n", "512", "--out", str(again)]) == 0
    assert _sha(out) == _sha(again)


def test_gen_signal_csv_extension_switches_format(tmp_path):
    out = tmp_path / "chi.csv"
    assert dispatch(["gen-signal", "--seed", "4", "--n", "128", "--out", str(out)]) == 0
    assert out.read_text().startswith("re,im\n")


def test_simulate_pa_matches_library_call(tmp_path):
    chi_path = tmp_path / "chi.iq"
    psi_path = tmp_path / "psi.iq"
    assert dispatch(["gen-signal", "--seed", "5", "--n", "1024", "--out", str(chi_path)]) == 0
    assert dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(psi_path),
                     "--preset", "low"]) == 0
    chi = deserialize_iq(chi_path)
    expected = pa_forward(preset("low"), chi)
    assert np.array_equal(deserialize_iq(psi_path).samples, expected.samples)


def test_simulate_pa_noise_seed(tmp_path):
    chi_path = tmp_path / "chi.iq"
    clean = tmp_path / "clean.iq"
    noisy = tmp_path / "noisy.iq"
    dispatch(["gen-signal", "--seed", "6", "--n", "1024", "--out", str(chi_path)])
    assert dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(clean)]) == 0
    assert dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(noisy),
                     "--noise-seed", "8"]) == 0
    assert not np.array_equal(deserialize_iq(clean).samples, deserialize_iq(noisy).samples)


def test_default_simulate_pa_output_is_pinned(tmp_path):
    # No flag and no config: the default [pa] amplifier, the high preset.
    chi_path = tmp_path / "chi.iq"
    psi_path = tmp_path / "psi.iq"
    dispatch(["gen-signal", "--seed", "5", "--n", "1024", "--out", str(chi_path)])
    assert dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(psi_path)]) == 0
    assert _sha(psi_path) == "32e8bdfc25b045e53ca11ee01d94aedbfcfc4dec42adead76ec2190a03a89b28"


def test_simulate_pa_preset_overrides_only_the_config_drive(tmp_path):
    chi_path = tmp_path / "chi.iq"
    dispatch(["gen-signal", "--seed", "5", "--n", "1024", "--out", str(chi_path)])

    def simulate(name, cfg_text=None, *flags):
        argv = ["simulate-pa", "--in", str(chi_path), "--out", str(tmp_path / name), *flags]
        if cfg_text is not None:
            (tmp_path / f"{name}.cfg").write_text(cfg_text)
            argv += ["--config", str(tmp_path / f"{name}.cfg")]
        assert dispatch(argv) == 0
        return _sha(tmp_path / name)

    low = simulate("low.iq", None, "--preset", "low")
    assert low == "6382055f58f6ee7f4f1d2b70bcb63234b3b850dd73afe916a4bacded052f88f2"
    # --preset used to be ignored whenever --config was given.
    assert simulate("cfg-low.iq", "[pa]\n", "--preset", "low") == low
    assert simulate("drive-low.iq", "[pa]\ndrive_db = -9.0\n") == low
    assert simulate("high-over-low.iq", "[pa]\ndrive_db = -9.0\n", "--preset", "high") == (
        simulate("high.iq", None, "--preset", "high"))
    # The rest of [pa] still holds under --preset.
    simulate("no-limit.iq", "[pa]\na_sat = none\n", "--preset", "low")
    expected = pa_forward(RunConfig(a_sat=None).pa_config(drive_db=-9.0), deserialize_iq(chi_path))
    assert np.array_equal(deserialize_iq(tmp_path / "no-limit.iq").samples, expected.samples)


def test_noise_seed_without_feedback_noise_is_a_usage_error(tmp_path, capsys):
    chi_path = tmp_path / "chi.iq"
    cfg_path = tmp_path / "quiet.cfg"
    cfg_path.write_text("[pa]\nfeedback_snr_db = none\n")
    dispatch(["gen-signal", "--seed", "6", "--n", "256", "--out", str(chi_path)])
    capsys.readouterr()
    out = tmp_path / "psi.iq"
    assert dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(out),
                     "--config", str(cfg_path), "--noise-seed", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dpdlab simulate-pa: --noise-seed: ")
    assert "feedback_snr_db" in err
    assert not out.exists()


# === fit / eval ===

def test_fit_and_eval_agree_on_polynomial_residual(tmp_path, capsys):
    chi_path = tmp_path / "chi.iq"
    psi_path = tmp_path / "psi.iq"
    model_path = tmp_path / "post.model"
    dispatch(["gen-signal", "--seed", "7", "--n", "4096", "--out", str(chi_path)])
    dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(psi_path), "--preset", "low"])
    capsys.readouterr()
    assert dispatch(["fit", "--model", "mpm", "--taps", "5", "--k", "3",
                     "--in", str(psi_path), "--target", str(chi_path),
                     "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert dispatch(["eval", "--model-file", str(model_path),
                     "--in", str(psi_path), "--target", str(chi_path)]) == 0
    printed = float(capsys.readouterr().out.strip())
    model = MpmCoefficients.load(model_path)
    expected = nmse_db(model.predict(deserialize_iq(psi_path)), deserialize_iq(chi_path))
    assert abs(printed - expected) < 1e-9
    assert expected < -25.0  # postinverse actually fits


def test_fit_rejects_a_non_finite_ridge(tmp_path, capsys):
    chi = str(tmp_path / "chi.iq")
    out = tmp_path / "post.model"
    assert dispatch(["gen-signal", "--seed", "7", "--n", "4096", "--out", chi]) == 0
    # rvftdnn and a cold-started agmpnn never reach ls_fit; the model spec checks their ridge.
    for model, ridge in (("mpm", "nan"), ("mpm", "inf"), ("mpm", "-1"), ("agmpnn", "nan"),
                         ("rvftdnn", "nan"), ("agmpnn --cold-start", "nan")):
        capsys.readouterr()
        assert dispatch(["fit", "--model", *model.split(), "--ridge", ridge,
                         "--in", chi, "--target", chi, "--out", str(out)]) == 1
        rule = "at least 0" if np.isfinite(float(ridge)) else "finite"
        assert (f"argument --ridge: must be {rule}, got {float(ridge)}"
                in capsys.readouterr().err)
    assert not out.exists()


def test_fit_rejects_length_mismatch(tmp_path):
    a = tmp_path / "a.iq"
    b = tmp_path / "b.iq"
    dispatch(["gen-signal", "--seed", "8", "--n", "256", "--out", str(a)])
    dispatch(["gen-signal", "--seed", "8", "--n", "512", "--out", str(b)])
    assert dispatch(["fit", "--model", "mpm", "--in", str(a), "--target", str(b),
                     "--out", str(tmp_path / "m.model")]) == 2


def test_eval_on_a_huge_declared_dimension_is_a_one_line_error(tmp_path, capsys):
    model_path = tmp_path / "bad.model"
    wave_path = tmp_path / "x.csv"
    AgmpnnModel.init(TapWindow(pre_taps=1), 2, 2, seed=0).save(model_path)
    model_path.write_text(model_path.read_text().replace("k_orders = 2", "k_orders = 99999999999"))
    assert dispatch(["gen-signal", "--seed", "1", "--n", "64", "--out", str(wave_path)]) == 0
    capsys.readouterr()
    assert dispatch(["eval", "--model-file", str(model_path),
                     "--in", str(wave_path), "--target", str(wave_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(model_path) in err[0]


def test_eval_on_a_sequence_shorter_than_the_window_prints_a_finite_nmse(tmp_path, capsys):
    # Taps that fall off a 3-sample sequence are zero-filled, as in window_at.
    model_path = tmp_path / "long.model"
    spec = MpmSpec(window=TapWindow(pre_taps=5, post_taps=1), k_orders=2)
    MpmCoefficients(spec=spec, coeff=np.full((7, 2), 0.1 + 0.05j)).save(model_path)
    wave_path = tmp_path / "short.csv"
    write_iq_csv(ComplexSequence([1.0, 0.5j, -0.25]), wave_path)
    assert dispatch(["eval", "--model-file", str(model_path),
                     "--in", str(wave_path), "--target", str(wave_path)]) == 0
    assert np.isfinite(float(capsys.readouterr().out.strip()))


@pytest.mark.parametrize("family", ["mpm", "agmpnn"])
def test_eval_of_a_model_whose_output_overflows_names_the_model_file(tmp_path, capsys, family):
    # The input is finite; the model's powers of |x| ~ 1e80 are not.
    model_path = tmp_path / f"{family}.model"
    window = TapWindow(pre_taps=2)
    if family == "mpm":
        MpmCoefficients(spec=MpmSpec(window=window, k_orders=4),
                        coeff=np.full((3, 4), 0.1 + 0.05j)).save(model_path)
    else:
        AgmpnnModel.init(window, 3, 2, seed=0).save(model_path)
    wave_path = tmp_path / "loud.csv"
    write_iq_csv(ComplexSequence(np.linspace(1e80, 3e80, 16) * (1 - 0.5j)), wave_path)
    assert dispatch(["eval", "--model-file", str(model_path),
                     "--in", str(wave_path), "--target", str(wave_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {model_path}: the model's output is not finite on {wave_path}"]


def test_eval_against_a_target_whose_energy_overflows_prints_a_finite_nmse(tmp_path, capsys):
    # tanh keeps the model's output finite on a 1e200 input; the NMSE squares
    # the 1e200 target and the error.
    model_path = tmp_path / "net.model"
    RvftdnnModel.init(TapWindow(pre_taps=2), 3, 3, seed=0).save(model_path)
    wave_path = tmp_path / "loud.csv"
    write_iq_csv(ComplexSequence(np.linspace(1e200, 3e200, 16) * (1 - 0.5j)), wave_path)
    assert dispatch(["eval", "--model-file", str(model_path),
                     "--in", str(wave_path), "--target", str(wave_path)]) == 0
    assert np.isfinite(float(capsys.readouterr().out.strip()))


def test_gen_signal_rejects_a_rate_that_the_reader_would_refuse(tmp_path, capsys):
    out = tmp_path / "x.iq"
    assert dispatch(["gen-signal", "--seed", "1", "--n", "64", "--sample-rate", "inf",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: dpdlab gen-signal: argument --sample-rate: must be finite, got inf"]
    assert not out.exists()


def test_fit_neural_model_with_config(tmp_path):
    chi_path = tmp_path / "chi.iq"
    psi_path = tmp_path / "psi.iq"
    model_path = tmp_path / "net.model"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[train]\nmax_epochs = 2\nsegment_len = 512\npatience = 2\n")
    dispatch(["gen-signal", "--seed", "9", "--n", "4096", "--out", str(chi_path)])
    dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(psi_path), "--preset", "low"])
    assert dispatch(["fit", "--model", "agmpnn", "--taps", "3", "--k", "2", "--experts", "2",
                     "--in", str(psi_path), "--target", str(chi_path),
                     "--out", str(model_path), "--config", str(cfg_path)]) == 0
    assert isinstance(load_model(model_path), AgmpnnModel)


def test_fit_takes_model_values_from_the_config_unless_a_flag_overrides_them(tmp_path):
    # `fit --config` used to ignore [model] and write a 4-tap K = 3 model.
    chi_path = tmp_path / "chi.iq"
    psi_path = tmp_path / "psi.iq"
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text("[model]\ntaps = 7\nk_orders = 2\npost_taps = 1\n")
    dispatch(["gen-signal", "--seed", "9", "--n", "4096", "--out", str(chi_path)])
    dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(psi_path), "--preset", "low"])
    files = ["--in", str(psi_path), "--target", str(chi_path), "--config", str(cfg_path)]
    for flags, window, k_orders in (([], TapWindow(pre_taps=5, post_taps=1), 2),
                                    (["--k", "3", "--taps", "5"], TapWindow(3, 1), 3)):
        out = tmp_path / "m.model"
        assert dispatch(["fit", "--model", "mpm", *flags, *files, "--out", str(out)]) == 0
        model = load_model(out)
        assert (model.window, model.spec.k_orders) == (window, k_orders)


def test_a_fit_flag_that_breaks_the_config_window_is_a_usage_error_naming_it(tmp_path, capsys):
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text("[model]\ntaps = 3\n")
    assert dispatch(["fit", "--model", "mpm", "--post-taps", "3", "--config", str(cfg_path),
                     "--in", "missing.iq", "--target", "missing.iq", "--out", "m.model"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: dpdlab fit: --post-taps: [model] post_taps must be below taps (3), got 3"]


def test_commands_do_not_modify_inputs(tmp_path):
    chi_path = tmp_path / "chi.iq"
    psi_path = tmp_path / "psi.iq"
    model_path = tmp_path / "m.model"
    dispatch(["gen-signal", "--seed", "10", "--n", "2048", "--out", str(chi_path)])
    before_chi = _sha(chi_path)
    dispatch(["simulate-pa", "--in", str(chi_path), "--out", str(psi_path)])
    before_psi = _sha(psi_path)
    dispatch(["fit", "--model", "mpm", "--in", str(psi_path), "--target", str(chi_path),
              "--out", str(model_path)])
    dispatch(["eval", "--model-file", str(model_path),
              "--in", str(psi_path), "--target", str(chi_path)])
    assert _sha(chi_path) == before_chi
    assert _sha(psi_path) == before_psi


# === gradient check ===

def test_gradcheck_default_models_pass(capsys):
    assert dispatch(["gradcheck"]) == 0
    worst = float(capsys.readouterr().out.strip())
    assert worst < 1e-4
    assert dispatch(["gradcheck", "--model", "rvftdnn"]) == 0


def test_a_flagless_gradcheck_checks_the_model_sizes_every_run_trains(monkeypatch, capsys):
    from dpdlab import cli
    checked = []
    monkeypatch.setattr(cli, "finite_diff_check",
                        lambda model, psi, phi: checked.append(model) or 0.0)
    for argv, kind, n_params in ((["gradcheck"], "agmpnn", 99),
                                 (["gradcheck", "--model", "rvftdnn"], "rvftdnn", 450)):
        assert dispatch(argv) == 0
        spec = RunConfig(kind=kind).model_spec()
        model = checked.pop()
        assert model.window == spec.window
        assert all(getattr(model, n) == getattr(spec, n) for n in type(model).PARAMS.sizes)
        assert model.n_params() == spec.n_params() == n_params


def test_gradcheck_unreachable_threshold_fails(capsys):
    assert dispatch(["gradcheck", "--threshold", "1e-15"]) == 2
    err = capsys.readouterr().err
    assert "gradient check failed" in err


def test_gradcheck_threshold_must_be_finite_and_non_negative(capsys):
    # --threshold nan used to make every check pass.
    for value in ("nan", "inf", "-1e-3", "tiny"):
        assert dispatch(["gradcheck", "--threshold", value]) == 1
        assert "argument --threshold" in capsys.readouterr().err


def test_gradcheck_fails_on_a_non_finite_gradient(monkeypatch, capsys):
    exact = AgmpnnModel.loss_and_gradient

    def one_nan_entry(self, x, target):
        loss, grad = exact(self, x, target)
        grad = grad.copy()
        grad[0] = np.nan
        return loss, grad

    monkeypatch.setattr(AgmpnnModel, "loss_and_gradient", one_nan_entry)
    assert dispatch(["gradcheck"]) == 2
    captured = capsys.readouterr()
    assert captured.out.strip() == "nan"
    assert "gradient check failed" in captured.err


def test_gradcheck_over_the_parameter_limit_is_a_usage_error_naming_the_flags(capsys):
    assert dispatch(["gradcheck", "--model", "rvftdnn", "--n1", "30", "--n2", "30",
                     "--taps", "13"]) == 1
    assert capsys.readouterr().err == (
        "error: dpdlab gradcheck: --taps 13 --n1 30 --n2 30: 1802 parameters; "
        "the finite-difference check takes at most 1000\n")
    assert dispatch(["gradcheck", "--k", "9", "--experts", "9", "--taps", "13"]) == 1
    assert "--taps 13 --k 9 --experts 9: 2349 parameters" in capsys.readouterr().err


def test_a_size_flag_of_another_family_is_a_usage_error_naming_it(tmp_path, capsys):
    wave = str(tmp_path / "w.iq")
    for argv, message in (
            (["fit", "--model", "mpm", "--n1", "8", "--experts", "5", "--k", "2", "--in", wave,
              "--target", wave, "--out", wave], "dpdlab fit: --experts --n1: not a size of mpm"),
            (["fit", "--model", "rvftdnn", "--k", "3", "--n2", "4", "--in", wave,
              "--target", wave, "--out", wave], "dpdlab fit: --k: not a size of rvftdnn"),
            (["gradcheck", "--model", "rvftdnn", "--k", "9"],
             "dpdlab gradcheck: --k: not a size of rvftdnn"),
            (["gradcheck", "--n2", "3"], "dpdlab gradcheck: --n2: not a size of agmpnn")):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_fit_refuses_an_option_its_family_never_reads(tmp_path, capsys):
    # rvftdnn's fit reads no ridge and no warm start, mpm's no warm start:
    # these flags used to be accepted and change nothing.
    wave = str(tmp_path / "w.iq")
    for model, flags, message in (("rvftdnn", ["--cold-start"], "--cold-start"),
                                  ("rvftdnn", ["--ridge", "0.5"], "--ridge"),
                                  ("rvftdnn", ["--cold-start", "--ridge", "0"], "--ridge --cold-start"),
                                  ("mpm", ["--cold-start"], "--cold-start")):
        assert dispatch(["fit", "--model", model, *flags, "--in", wave, "--target", wave,
                         "--out", wave]) == 1
        assert capsys.readouterr().err == f"error: dpdlab fit: {message}: not an option of {model}\n"
    # A cold-started agmpnn has no least-squares warm start for a ridge to
    # act on, whether the flags or the config make it cold.
    (tmp_path / "cold.cfg").write_text("[model]\nwarm_start = false\n")
    for flags in (["--cold-start", "--ridge", "0.5"],
                  ["--ridge", "0.5", "--config", str(tmp_path / "cold.cfg")]):
        assert dispatch(["fit", "--model", "agmpnn", *flags, "--in", wave, "--target", wave,
                         "--out", wave]) == 1
        assert capsys.readouterr().err == (
            "error: dpdlab fit: --ridge: not an option of agmpnn with a cold start\n")


# Every runaway parameter is finite: agmpnn's first step breaks only its
# validation predict.
_DIVERGED_AT = {"agmpnn": "non-finite validation score at epoch 1",
                "rvftdnn": "non-finite training loss at epoch 2"}


@pytest.mark.parametrize("family", sorted(_DIVERGED_AT))
def test_fit_that_diverges_names_the_epoch_and_nothing_else(tmp_path, capsys, family):
    # A NumPy warning on the way would fail the test (filterwarnings = error).
    x, y, cfg = (str(tmp_path / name) for name in ("x.iq", "y.iq", "run.cfg"))
    assert dispatch(["gen-signal", "--seed", "1", "--n", "4096", "--out", x]) == 0
    assert dispatch(["simulate-pa", "--in", x, "--out", y]) == 0
    (tmp_path / "run.cfg").write_text("[train]\nlearning_rate = 1e200\n")
    capsys.readouterr()
    assert dispatch(["fit", "--model", family, "--in", y, "--target", x,
                     "--out", str(tmp_path / "m.model"), "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {_DIVERGED_AT[family]}\n"
    assert not (tmp_path / "m.model").exists()


# === harness commands ===

def _tiny_cfg(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[signal]\nn_samples = 4096\n"
        "[model]\nkind = mpm\ntaps = 5\nk_orders = 4\n"
        "[train]\nmax_epochs = 2\nsegment_len = 512\n"
        "[sweep]\nfamilies = mpm\ntaps_list = 4\nseeds = 1\n" + extra)
    return path


def test_ila_run_writes_one_row_report(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    out = tmp_path / "report.csv"
    assert dispatch(["ila-run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "mpm"
    assert cells[1] == "high"
    assert float(cells[9]) < float(cells[10])  # linearized beats no-DPD


def test_ila_run_stdout_mode(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path)
    capsys.readouterr()
    assert dispatch(["ila-run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(REPORT_HEADER)


def test_sweep_taps_cli_round_trip(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path)
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    assert dispatch(["sweep-taps", "--config", str(cfg), "--out", str(out1)]) == 0
    assert dispatch(["sweep-taps", "--config", str(cfg), "--out", str(out2)]) == 0
    assert _sha(out1) == _sha(out2)
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 2  # one family x one tap count x one seed
    assert "sweep rows" in capsys.readouterr().err


def test_sweep_taps_runs_at_the_pa_drive(tmp_path):
    # The bytes `[sweep] preset = low` gave before [pa] drive_db became the
    # one operating point of every command.
    cfg = tmp_path / "low.cfg"
    cfg.write_text("[pa]\ndrive_db = -9.0\n[signal]\nn_samples = 2048\n"
                   "[sweep]\nfamilies = mpm\ntaps_list = 4, 7\nseeds = 1, 2\n")
    out = tmp_path / "sweep.csv"
    assert dispatch(["sweep-taps", "--config", str(cfg), "--out", str(out)]) == 0
    assert _sha(out) == "9f56f2d3c07bc44806d7e69121dc18748a4879ec6cf2a36e20b728f6797acd29"


def test_sweep_taps_labels_a_drive_off_every_preset_custom(tmp_path):
    out = tmp_path / "sweep.csv"
    assert dispatch(["sweep-taps", "--config", str(_tiny_cfg(tmp_path, "[pa]\ndrive_db = -5.0\n")),
                     "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert rows and all(row.split(",")[1] == "custom" for row in rows)


def test_report_summarizes_and_mirrors(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path)
    sweep_csv = tmp_path / "sweep.csv"
    dispatch(["sweep-taps", "--config", str(cfg), "--out", str(sweep_csv)])
    capsys.readouterr()
    dat = tmp_path / "sweep.dat"
    assert dispatch(["report", "--in", str(sweep_csv), "--dat", str(dat)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("family,preset,rows,feasible,")
    assert "mpm,high,1,1," in out
    text = dat.read_text()
    assert text.startswith("# family=mpm preset=high\n")
    assert "# taps params_actual seed" in text


def test_report_rejects_non_report_csv(tmp_path):
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("a,b,c\n1,2,3\n")
    assert dispatch(["report", "--in", str(bogus)]) == 2


def test_report_on_an_empty_file_says_it_is_empty(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert dispatch(["report", "--in", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: not a sweep report (the file is empty)\n"


@pytest.mark.parametrize("text, problem", [
    ("\n", "the first line is blank"),
    ("a,b,c\n1,2,3\n", "header 'a,b,c'"),
], ids=["blank", "foreign"])
def test_report_says_what_is_wrong_with_its_header_as_the_file_spells_it(
        tmp_path, capsys, text, problem):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert dispatch(["report", "--in", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not a sweep report ({problem})\n"


def test_report_on_a_non_utf8_file_names_it(tmp_path, capsys):
    bad = tmp_path / "sweep.csv"
    bad.write_bytes(REPORT_HEADER.encode() + b"\n\xff\n")
    assert dispatch(["report", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "UTF-8" in err


def test_report_names_the_line_of_a_short_row(tmp_path, capsys):
    bad = tmp_path / "sweep.csv"
    bad.write_text(f"{REPORT_HEADER}\nmpm,high,4,1,,8,8,1,-20.0,-19.0,-15.0\nmpm\n")
    assert dispatch(["report", "--in", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:3: row has 1 fields, expected 11\n"


def test_report_names_the_line_of_a_non_numeric_nmse_cell(tmp_path, capsys):
    bad = tmp_path / "sweep.csv"
    bad.write_text(f"{REPORT_HEADER}\nmpm,high,4,1,,8,8,1,x,-19.0,-15.0\n")
    assert dispatch(["report", "--in", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}:2: bad value for 'postinv_nmse_db': expected a number, got 'x'\n")


def test_report_names_the_first_bad_numeric_cell_of_a_row(tmp_path, capsys):
    # Count and seed cells are read by their rules too, not copied to the mirror.
    bad = tmp_path / "sweep.csv"
    bad.write_text(f"{REPORT_HEADER}\nmpm,high,4,1,,8,8,1,-20.0,-19.0,-15.0\n"
                   "mpm,high,x,1,,8,-5,one,-20.0,-19.0,-15.0\n")
    assert dispatch(["report", "--in", str(bad), "--dat", str(tmp_path / "s.dat")]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}:3: bad value for 'taps': expected an integer, got 'x'\n")
    assert not (tmp_path / "s.dat").exists()


@pytest.mark.parametrize("command", ["simulate-pa", "ila-run", "show-config"])
@pytest.mark.parametrize("line, message", [
    ("drive_db = 7000", ":2: bad value for 'drive_db': must be at most 300, got 7000.0"),
    ("rho = 1e200", ": [pa] rho = 1e+200 makes a PA coefficient non-finite"),
], ids=["drive", "rho"])
def test_a_pa_value_out_of_range_is_a_one_line_error(tmp_path, capsys, command, line, message):
    # The drive used to end in an OverflowError traceback, and rho in a NumPy
    # overflow warning.  `message` follows the config file's path.
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"[pa]\n{line}\n")
    wave = tmp_path / "w.iq"
    assert dispatch(["gen-signal", "--seed", "1", "--n", "64", "--out", str(wave)]) == 0
    capsys.readouterr()
    io_flags = ["--in", str(wave), "--out", str(tmp_path / "y.iq")] if command == "simulate-pa" else []
    assert dispatch([command, "--config", str(cfg_path), *io_flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {cfg_path}{message}"]


@pytest.mark.parametrize("lines", [
    # Every driven sample was subnormal: the row read deployed +14.96 dB.
    "drive_db = -3300",
    # The polynomial overflowed and the run ended in `sequence samples must be finite`.
    "drive_db = 500\na_sat = none",
    # The limiter's sixth power overflowed for the loudest samples.
    "drive_db = 1000",
    # Inside the drive's range, the order-8 polynomial still overflows.
    "drive_db = 300\na_sat = none\nk_pa = 8",
], ids=["subnormal", "no-limiter", "limiter", "order-8"])
def test_a_drive_the_pa_cannot_take_is_a_one_line_error_naming_it(tmp_path, capsys, lines):
    # Each used to warn or print a meaningless row; a RuntimeWarning fails
    # this test (filterwarnings = error).
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"[pa]\n{lines}\n[signal]\nn_samples = 4096\n")
    assert dispatch(["ila-run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "drive_db" in err[0]


def test_ila_run_on_too_few_samples_names_the_segment_count(tmp_path, capsys):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("[signal]\nn_samples = 1000\n")
    assert dispatch(["ila-run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 1000 samples make 0 segments of 1024; need at least two "
        "(one training, one validation)"]


def test_ila_run_on_a_too_short_segment_names_segment_len(tmp_path, capsys):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("[signal]\nn_samples = 2048\n[model]\nkind = rvftdnn\ntaps = 10\n"
                        "[train]\nsegment_len = 8\n")
    assert dispatch(["ila-run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 8 samples are too few for a 10-tap window: segment_len must be at least 10"]


def test_show_config_round_trips(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[model]\nkind = agmpnn\ntaps = 7\n[train]\nseed = 5\n")
    capsys.readouterr()
    assert dispatch(["show-config", "--config", str(cfg_path)]) == 0
    rendered = capsys.readouterr().out
    parsed = parse_config(rendered)
    assert parsed.kind == "agmpnn"
    assert parsed.taps == 7
    assert parsed.train_seed == 5


def test_show_config_defaults(capsys):
    assert dispatch(["show-config"]) == 0
    out = capsys.readouterr().out
    assert "[pa]" in out and "[sweep]" in out
    parse_config(out)
