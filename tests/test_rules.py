"""Value rules: each number's bounds are declared once, in rules.RULES, and
every front end that reads the number (a flag, a config line, a model or
waveform file header, a report cell, an API argument) refuses a value past
them with the same message, adding only the place it names."""

import argparse
from dataclasses import fields

import numpy as np
import pytest

from dpdlab import ila
from dpdlab.agmpnn import AgmpnnModel
from dpdlab.cli import build_parser, dispatch
from dpdlab.config import _SCHEMA, RunConfig
from dpdlab.mpm import MpmCoefficients, MpmSpec, build_basis, ls_fit
from dpdlab.pa_sim import PaConfig, coeffs_from_rule, preset
from dpdlab.rules import RULES, check
from dpdlab.rvftdnn import RvftdnnModel, rvftdnn_param_count
from dpdlab.signal import _IQ_HEADER, IQ_MAGIC, ComplexSequence, TapWindow, generate_waveform
from dpdlab.training import TrainConfig, segment_ranges

# Each rule's value just past a bound (text, as a user writes it), and the
# message every front end gives for it.
PAST = {
    **{name: ("0", "must be at least 1, got 0") for name in (
        "taps", "n_taps", "k_orders", "n_experts", "n1", "n2", "k_pa", "count", "batch_size",
        "segment_len", "max_epochs", "patience", "taps_list", "param_targets", "nn_grid",
        "mpm_k_grid", "n_iterations", "m_experts", "params_formula", "params_actual")},
    **{name: ("-1", "must be at least 0, got -1") for name in (
        "seed", "seeds", "pre_taps", "post_taps", "l_pa")},
    **{name: ("0", "must be above 0, got 0.0") for name in (
        "a_sat", "feedback_snr_db", "sample_rate_hint", "learning_rate", "epsilon",
        "bandwidth_fraction")},
    **{name: ("nan", "must be finite, got nan") for name in (
        "rho", "sigma", "amp_offset", "postinv_nmse_db", "lin_nmse_db", "no_dpd_nmse_db")},
    **{name: ("1", "must be below 1, got 1.0") for name in ("beta1", "beta2")},
    **{name: ("-0.5", "must be at least 0, got -0.5") for name in ("ridge", "threshold")},
    **{name: ("1.5", "expected an integer, got '1.5'") for name in ("budget_lo", "budget_hi")},
    "n_samples": ("63", "must be at least 64, got 63"),
    "drive_db": ("300.5", "must be at most 300, got 300.5"),
}


def test_every_rule_has_a_value_past_it():
    assert set(PAST) == set(RULES)


@pytest.mark.parametrize("name", sorted(PAST))
def test_a_value_inside_is_read_and_the_value_past_is_refused(name):
    text, message = PAST[name]
    with pytest.raises(ValueError) as err:
        RULES[name].parse(text)
    assert str(err.value) == message
    # Step back inside: toward 1 from 0 or below, and below 300 and 1.
    inside = {"0": "1", "-1": "0", "63": "64", "nan": "0.5", "1": "0.5", "-0.5": "0",
              "1.5": "2", "300.5": "300"}[text]
    assert RULES[name].problem(RULES[name].parse(inside)) is None


# === the guard: no numeric reader outside the rules ===

def _flag_actions():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            yield command, action


def test_every_numeric_flag_reads_its_value_by_a_rule():
    numeric = 0
    for command, action in _flag_actions():
        default = action.default
        if action.type is not None or (isinstance(default, (int, float))
                                       and not isinstance(default, bool)):
            name = getattr(action.type, "rule", None)
            assert name in RULES, f"{command} {action.option_strings} reads no rule"
            numeric += 1
    assert numeric == len(FLAGS)


def test_every_numeric_config_key_reads_its_value_by_its_rule():
    for f in fields(RunConfig):
        key = f.metadata["key"] or f.name
        numeric = f.type in ("int", "float", "Optional[float]") or (
            f.type == "tuple" and all(isinstance(v, int) for v in f.default))
        # A reader of its own is for words and booleans only.
        assert (f.metadata["reader"] is None) == numeric, f.name
        assert (key in RULES) == numeric, f.name


def _models():
    window = TapWindow(pre_taps=1, post_taps=1)
    return {
        "mpm": MpmCoefficients(spec=MpmSpec(window=window, k_orders=2, amp_offset=-0.1),
                               coeff=np.full((3, 2), 0.1 + 0.2j)),
        "agmpnn": AgmpnnModel.init(window, 2, 2, seed=0),
        "rvftdnn": RvftdnnModel.init(window, 2, 2, seed=0),
    }


def _header_fields():
    for family, model in _models().items():
        for key in ("pre_taps", "post_taps", *model.PARAMS.sizes, *model.PARAMS.scalars):
            yield family, key


def test_only_mpm_declares_a_header_scalar():
    assert {family: model.PARAMS.scalars for family, model in _models().items()} == {
        "mpm": ("amp_offset",), "agmpnn": (), "rvftdnn": ()}


def test_every_numeric_model_header_field_reads_its_value_by_its_rule(tmp_path):
    for family, model in _models().items():
        path = tmp_path / f"{family}.model"
        model.save(path)
        header = path.read_text().split("\n\n", 1)[0].splitlines()
        numeric = [line.split(" = ")[0] for line in header
                   if line.split(" = ")[0] not in ("format", "version", "kind")]
        assert numeric == [key for fam, key in _header_fields() if fam == family]
        assert all(key in RULES for key in numeric)


# === the table: one value past each rule, from every front end that reads it ===

def _wave(tmp_path):
    path = tmp_path / "w.iq"
    assert dispatch(["gen-signal", "--seed", "1", "--n", "64", "--out", str(path)]) == 0
    return str(path)


# (rule, command line before the flag, flag)
FLAGS = [
    *[(name, ["fit", "--model", "mpm", "--in", "{w}", "--target", "{w}", "--out", "{w}"], flag)
      for name, flag in (("taps", "--taps"), ("post_taps", "--post-taps"), ("k_orders", "--k"),
                         ("n_experts", "--experts"), ("n1", "--n1"), ("n2", "--n2"),
                         ("ridge", "--ridge"), ("seed", "--seed"))],
    *[(name, ["gradcheck"], flag)
      for name, flag in (("taps", "--taps"), ("k_orders", "--k"), ("n_experts", "--experts"),
                         ("n1", "--n1"), ("n2", "--n2"), ("seed", "--seed"),
                         ("n_samples", "--n"), ("threshold", "--threshold"))],
    *[(name, ["gen-signal", "--seed", "1", "--n", "64", "--out", "{w}"], flag)
      for name, flag in (("seed", "--seed"), ("n_samples", "--n"),
                         ("bandwidth_fraction", "--bandwidth"),
                         ("sample_rate_hint", "--sample-rate"))],
    ("seed", ["simulate-pa", "--in", "{w}", "--out", "{w}"], "--noise-seed"),
    ("n_iterations", ["ila-run"], "--iterations"),
]


@pytest.mark.parametrize("name, argv, flag", FLAGS,
                         ids=[f"{argv[0]}{flag}" for _, argv, flag in FLAGS])
def test_a_flag_past_its_rule_is_a_usage_error_naming_it(tmp_path, capsys, name, argv, flag):
    text, message = PAST[name]
    wave = str(tmp_path / "w.iq")
    assert dispatch([arg.format(w=wave) for arg in argv] + [flag, text]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: dpdlab {argv[0]}: argument {flag}: {message}"]


def test_the_flag_table_covers_every_numeric_flag():
    covered = {(argv[0], flag) for _, argv, flag in FLAGS}
    assert covered == {(command, action.option_strings[0]) for command, action in _flag_actions()
                       if getattr(action.type, "rule", None)}


CONFIG_KEYS = [(section, key) for section, schema in _SCHEMA.items()
               for key, f in schema.items() if f.metadata["reader"] is None]


@pytest.mark.parametrize("section, key", CONFIG_KEYS,
                         ids=[f"{section}-{key}" for section, key in CONFIG_KEYS])
def test_a_config_value_past_its_rule_fails_naming_the_file_line_and_key(tmp_path, capsys,
                                                                         section, key):
    text, message = PAST[key]
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    assert dispatch(["show-config", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}:2: bad value for {key!r}: {message}"]


@pytest.mark.parametrize("family, key", list(_header_fields()))
def test_a_model_header_value_past_its_rule_fails_naming_the_file_and_field(tmp_path, capsys,
                                                                            family, key):
    text, message = PAST[key]
    path = tmp_path / "m.model"
    _models()[family].save(path)
    path.write_text("\n".join(f"{key} = {text}" if line.startswith(f"{key} = ") else line
                              for line in path.read_text().splitlines()) + "\n")
    wave = _wave(tmp_path)
    capsys.readouterr()
    assert dispatch(["eval", "--model-file", str(path), "--in", wave, "--target", wave]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: header field {key!r}: {message}"]


@pytest.mark.parametrize("key", ["count", "sample_rate_hint"])
def test_a_waveform_header_value_past_its_rule_fails_naming_the_file_and_field(tmp_path, capsys,
                                                                               key):
    text, message = PAST[key]
    count, rate = (int(text), 1.0) if key == "count" else (1, float(text))
    path = tmp_path / "bad.iq"
    path.write_bytes(_IQ_HEADER.pack(IQ_MAGIC, count, rate) + np.ones(count, "<c16").tobytes())
    assert dispatch(["simulate-pa", "--in", str(path), "--out", str(tmp_path / "y.iq")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: header field {key!r}: {message}"]


# A well-formed report row, by column; m_experts is blank, as for an MPM row.
_REPORT_ROW = dict(zip(ila.REPORT_COLUMNS,
                       ["mpm", "high", "4", "1", "", "8", "8", "1", "-15.0", "-15.0", "-15.0"]))


@pytest.mark.parametrize("key", [column for column in ila.REPORT_COLUMNS if column in RULES])
def test_a_report_cell_past_its_rule_fails_naming_the_file_line_and_column(tmp_path, capsys,
                                                                           key):
    text, message = PAST[key]
    cells = _REPORT_ROW | {key: text}
    path = tmp_path / "sweep.csv"
    path.write_text(f"{ila.REPORT_HEADER}\n{','.join(cells.values())}\n")
    assert dispatch(["report", "--in", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}:2: bad value for {key!r}: {message}"]


_WINDOW = TapWindow(pre_taps=2)
_ONE = np.array([[1.0 + 0j]])

# (rule, API argument, a call that passes the value to it)
API = [
    ("taps", "taps", lambda v: ila.sweep_complexity({}, taps=v)),
    ("n_taps", "n_taps", lambda v: rvftdnn_param_count(v, 2, 2)),
    ("pre_taps", "pre_taps", lambda v: TapWindow(pre_taps=v)),
    ("post_taps", "post_taps", lambda v: TapWindow(pre_taps=2, post_taps=v)),
    ("k_orders", "k_orders", lambda v: MpmSpec(window=_WINDOW, k_orders=v)),
    ("n_experts", "n_experts", lambda v: AgmpnnModel.init(_WINDOW, 2, v)),
    ("n1", "n1", lambda v: RvftdnnModel.init(_WINDOW, v, 2)),
    ("n2", "n2", lambda v: RvftdnnModel.init(_WINDOW, 2, v)),
    ("ridge", "ridge", lambda v: ila.DpdModelSpec(kind="mpm", window=_WINDOW, ridge=v)),
    ("amp_offset", "amp_offset", lambda v: MpmSpec(window=_WINDOW, k_orders=1, amp_offset=v)),
    ("rho", "rho", lambda v: coeffs_from_rule(v, -0.12, 3, 4)),
    ("sigma", "sigma", lambda v: coeffs_from_rule(0.2, v, 3, 4)),
    ("l_pa", "l_pa", lambda v: coeffs_from_rule(0.2, -0.12, v, 4)),
    ("k_pa", "k_pa", lambda v: coeffs_from_rule(0.2, -0.12, 3, v)),
    ("drive_db", "drive_db", lambda v: PaConfig(coeffs=_ONE, drive_db=v)),
    ("a_sat", "smooth_limit", lambda v: PaConfig(coeffs=_ONE, smooth_limit=v)),
    ("feedback_snr_db", "feedback_snr_db", lambda v: PaConfig(coeffs=_ONE, feedback_snr_db=v)),
    ("seed", "seed", lambda v: ila.drive_ila(preset("high"), v)),
    ("n_samples", "n_samples", lambda v: generate_waveform(1, v, 0.25)),
    ("bandwidth_fraction", "bandwidth_fraction", lambda v: generate_waveform(1, 64, v)),
    ("sample_rate_hint", "sample_rate_hint", lambda v: ComplexSequence([1.0], v)),
    *[(name, name, lambda v, name=name: TrainConfig(**{name: v})) for name in (
        "learning_rate", "beta1", "beta2", "epsilon", "batch_size", "segment_len",
        "max_epochs", "patience")],
    ("seed", "seed", lambda v: TrainConfig(seed=v)),
    ("segment_len", "segment_len", lambda v: segment_ranges(4096, v)),
    ("seeds", "seeds", lambda v: ila.sweep_taps(preset("high"), "high", taps_list=(4,),
                                               seeds=(v,), families=("mpm",))),
    ("taps_list", "taps_list", lambda v: ila.sweep_taps(preset("high"), "high", taps_list=(v,))),
    ("param_targets", "param_targets",
     lambda v: ila.sweep_complexity({}, param_targets=(v,))),
    ("n_iterations", "n_iterations",
     lambda v: ila.fit_predistorter(preset("high"), None, None, TrainConfig(), v)),
]


@pytest.mark.parametrize("name, arg, call", API, ids=[f"{arg}-{i}" for i, (_, arg, _) in
                                                      enumerate(API)])
def test_an_api_argument_past_its_rule_names_the_argument(name, arg, call):
    text, message = PAST[name]
    with pytest.raises(ValueError) as err:
        call(RULES[name].kind(text))
    assert str(err.value) == f"{arg} {message}"


def test_the_api_table_covers_every_rule_an_api_argument_keeps():
    # A count file header, a threshold flag and report cells have no API
    # argument; the grids' entries are checked as the sizes they become.
    assert {name for name, _, _ in API} == set(RULES) - {
        "count", "threshold", "postinv_nmse_db", "lin_nmse_db", "no_dpd_nmse_db",
        "m_experts", "params_formula", "params_actual",
        "nn_grid", "mpm_k_grid", "budget_lo", "budget_hi"}


@pytest.mark.parametrize("call, message", [
    (lambda: check("ridge", "x"), "ridge must be a number, got x"),
    (lambda: check("rho", 1 + 2j), "rho must be a number, got (1+2j)"),
    (lambda: PaConfig(coeffs=_ONE, drive_db=True), "drive_db must be a number, got True"),
    (lambda: MpmSpec(window=_WINDOW, k_orders=1, amp_offset=False),
     "amp_offset must be a number, got False"),
    (lambda: RvftdnnModel.init(_WINDOW, True, 2), "n1 must be an integer, got True"),
    (lambda: TapWindow(pre_taps=True), "pre_taps must be an integer, got True"),
    (lambda: TrainConfig(batch_size=True), "batch_size must be an integer, got True"),
], ids=["str", "complex", "bool-float", "bool-offset", "bool-n1", "bool-pre_taps",
        "bool-batch_size"])
def test_a_non_number_or_a_bool_is_refused_naming_the_argument(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("budget", [(1.5, 600), (100, 1.5)])
def test_a_budget_bound_that_is_not_an_integer_is_refused_naming_it(budget):
    name = "budget_lo" if budget[0] == 1.5 else "budget_hi"
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 1\.5$"):
        ila.DpdModelSpec(kind="rvftdnn", window=_WINDOW, budget=budget)


def test_ls_fit_holds_its_ridge_to_the_rule():
    x = generate_waveform(8, 64, 0.5)
    with pytest.raises(ValueError, match=r"^ridge must be at least 0, got -0\.5$"):
        ls_fit(build_basis(x, MpmSpec(window=_WINDOW, k_orders=1)), x.samples, ridge=-0.5)
