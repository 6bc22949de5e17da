"""Sectioned key-value run configuration: parsing, rendering, builders."""

import hashlib

import numpy as np
import pytest

from dpdlab import FormatError, TapWindow
from dpdlab.config import RunConfig, load_config, parse_config, render_config
from dpdlab.pa_sim import PRESET_DRIVE_DB, preset


# === defaults ===

def test_empty_text_yields_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.kind == "mpm"
    assert cfg.taps == 4
    assert cfg.seed == 1
    assert cfg.n_samples == 16384
    assert cfg.bandwidth_fraction == 0.25
    assert cfg.drive_db == -3.0
    assert cfg.batch_size == 50
    assert cfg.families == ("mpm", "agmpnn", "rvftdnn")
    assert cfg.seeds == (1, 2, 3)
    assert cfg.preset_label() == "high"


def test_single_override():
    cfg = parse_config("[train]\nbatch_size = 8\n")
    assert cfg.batch_size == 8
    assert cfg.learning_rate == RunConfig().learning_rate


def test_comments_and_blank_lines_are_ignored():
    text = """
# experiment configuration
[signal]  # section header
seed = 9      # fit waveform
n_samples = 4096

[model]
kind = agmpnn
"""
    cfg = parse_config(text)
    assert cfg.seed == 9
    assert cfg.n_samples == 4096
    assert cfg.kind == "agmpnn"


def test_duplicate_sections_merge_keys():
    text = "[pa]\nrho = 0.3\n[signal]\nseed = 2\n[pa]\nsigma = -0.2\n"
    cfg = parse_config(text)
    assert cfg.rho == 0.3
    assert cfg.sigma == -0.2
    assert cfg.seed == 2


@pytest.mark.parametrize("text, lineno, key, section, first", [
    ("[model]\ntaps = 5\ntaps = 9\n", 3, "taps", "model", 2),
    ("[model]\ntaps = 5\n[signal]\nseed = 2\n[model]\ntaps = 9\n", 6, "taps", "model", 2),
    ("[signal]\nseed = 2\n[train]\nseed = 3\n\n# again\n[train]\nseed = 3\n", 8, "seed",
     "train", 4),
], ids=["one-header", "two-headers", "same-value"])
def test_a_repeated_key_names_both_lines(text, lineno, key, section, first):
    # The same key under [signal] and [train] is two keys; within one
    # section a key is given once, under one header or two.
    with pytest.raises(FormatError) as err:
        parse_config(text, path="run.cfg")
    assert str(err.value) == (
        f"run.cfg:{lineno}: repeated key {key!r} in [{section}], first on line {first}")


def test_sweep_preset_is_an_unknown_key():
    # The drive is [pa] drive_db; a config still naming [sweep] preset
    # fails the load rather than running at another drive.
    with pytest.raises(FormatError) as err:
        parse_config("[sweep]\npreset = low\n", path="run.cfg")
    assert str(err.value).startswith("run.cfg:2: unknown key 'preset' in [sweep] (known: ")


# === value conversion ===

def test_optional_float_none_keyword():
    cfg = parse_config("[pa]\na_sat = none\nfeedback_snr_db = none\n[model]\nridge = none\n")
    assert cfg.a_sat is None
    assert cfg.feedback_snr_db is None
    assert cfg.ridge is None
    cfg = parse_config("[model]\nridge = 1e-8\n")
    assert cfg.ridge == 1e-8


def test_bool_parsing():
    assert parse_config("[model]\nwarm_start = false\n").warm_start is False
    assert parse_config("[model]\nwarm_start = true\n").warm_start is True
    with pytest.raises(FormatError):
        parse_config("[model]\nwarm_start = maybe\n")


def test_list_parsing():
    cfg = parse_config("[sweep]\ntaps_list = 4, 6, 8\nfamilies = mpm, agmpnn\nseeds = 5\n")
    assert cfg.taps_list == (4, 6, 8)
    assert cfg.families == ("mpm", "agmpnn")
    assert cfg.seeds == (5,)


# === error reporting ===

def test_unknown_section_names_line_and_choices():
    with pytest.raises(FormatError) as err:
        parse_config("[signal]\nseed = 1\n[amp]\nrho = 0.1\n", path="run.cfg")
    msg = str(err.value)
    assert msg.startswith("run.cfg:3:")
    assert "[amp]" in msg and "pa" in msg


def test_unknown_key_names_line_and_choices():
    with pytest.raises(FormatError) as err:
        parse_config("[signal]\nseeed = 1\n", path="run.cfg")
    msg = str(err.value)
    assert msg.startswith("run.cfg:2:")
    assert "'seeed'" in msg and "n_samples" in msg


def test_bad_value_names_line():
    with pytest.raises(FormatError) as err:
        parse_config("[signal]\nseed = fast\n", path="run.cfg")
    assert str(err.value).startswith("run.cfg:2:")


@pytest.mark.parametrize("section, key, value", [
    ("pa", "drive_db", "inf"),
    ("train", "learning_rate", "nan"),
    ("model", "ridge", "-inf"),
    ("signal", "bandwidth_fraction", "1e999"),
])
def test_non_finite_float_names_line_and_key(section, key, value):
    with pytest.raises(FormatError) as err:
        parse_config(f"[{section}]\n{key} = {value}\n", path="run.cfg")
    assert str(err.value) == (
        f"run.cfg:2: bad value for {key!r}: must be finite, got {float(value)}")


@pytest.mark.parametrize("section, key, value", [
    ("model", "taps", "0"),
    ("model", "k_orders", "0"),
    ("model", "n_experts", "-1"),
    ("model", "n1", "0"),
    ("model", "n2", "0"),
    ("sweep", "taps_list", "4, 0"),
    ("sweep", "nn_grid", "0"),
    ("sweep", "mpm_k_grid", "0"),
    ("sweep", "taps", "0"),
    ("train", "batch_size", "0"),
    ("train", "segment_len", "0"),
    ("train", "max_epochs", "0"),
    ("train", "patience", "-3"),
    ("sweep", "param_targets", "0, -5"),
])
def test_count_below_one_names_line_and_key(section, key, value):
    with pytest.raises(FormatError) as err:
        parse_config(f"[{section}]\n{key} = {value}\n", path="run.cfg")
    assert str(err.value).startswith(f"run.cfg:2: bad value for {key!r}: ")


@pytest.mark.parametrize("section, key, value, bad", [
    ("signal", "seed", "-1", "-1"),
    ("train", "seed", "-2", "-2"),
    ("sweep", "seeds", "1, -3", "-3"),
])
def test_negative_seed_names_line_and_key(section, key, value, bad):
    with pytest.raises(FormatError) as err:
        parse_config(f"[{section}]\n{key} = {value}\n", path="run.cfg")
    assert str(err.value) == f"run.cfg:2: bad value for {key!r}: must be at least 0, got {bad}"


def test_inverted_budget_names_the_section():
    with pytest.raises(FormatError) as err:
        parse_config("[sweep]\nbudget_lo = 600\nbudget_hi = 100\n", path="run.cfg")
    assert str(err.value) == "run.cfg: [sweep] budget_lo (600) exceeds budget_hi (100)"
    assert parse_config("[sweep]\nbudget_lo = 300\nbudget_hi = 300\n").budget_hi == 300


def test_key_outside_section():
    with pytest.raises(FormatError) as err:
        parse_config("seed = 1\n")
    assert "outside any [section]" in str(err.value)


def test_missing_equals_sign():
    with pytest.raises(FormatError):
        parse_config("[signal]\nseed 1\n")


def test_semantic_validation_errors():
    with pytest.raises(FormatError):
        parse_config("[model]\nkind = volterra\n")
    with pytest.raises(FormatError):
        parse_config("[sweep]\nfamilies = mpm, other\n")
    with pytest.raises(FormatError):
        parse_config("[model]\ntaps = 2\npost_taps = 2\n")


@pytest.mark.parametrize("section, line, message", [
    ("train", "learning_rate = -1", "learning_rate must be above 0, got -1.0"),
    ("train", "beta1 = 1.5", "beta1 must be below 1, got 1.5"),
    ("model", "ridge = -1", "ridge must be at least 0, got -1.0"),
    ("pa", "l_pa = -1", "l_pa must be at least 0, got -1"),
    ("pa", "a_sat = 0", "a_sat must be above 0, got 0.0"),
    ("pa", "drive_db = 7000", "drive_db must be at most 300, got 7000.0"),
    ("pa", "drive_db = 6000", "drive_db must be at most 300, got 6000.0"),
    ("pa", "drive_db = -7000", "drive_db must be at least -300, got -7000.0"),
    ("signal", "n_samples = 10", "n_samples must be at least 64, got 10"),
    ("signal", "bandwidth_fraction = 1.5", "bandwidth_fraction must be at most 1, got 1.5"),
])
def test_a_value_every_run_rejects_fails_the_load_naming_the_section(section, line, message):
    # `message` is what the API says of the value.  Each value is past its
    # rule's bound, so the load fails at the value's line with the same words.
    key, rule = message.split(" ", 1)
    with pytest.raises(FormatError) as err:
        parse_config(f"[{section}]\n{line}\n", path="run.cfg")
    assert str(err.value) == f"run.cfg:2: bad value for {key!r}: {rule}"


@pytest.mark.parametrize("section, lines, message", [
    ("pa", "rho = 1e200", "rho = 1e+200 makes a PA coefficient non-finite"),
    ("model", "kind = volterra",
     "unknown model kind 'volterra'; expected one of ('mpm', 'agmpnn', 'rvftdnn')"),
    ("model", "taps = 2\npost_taps = 2", "post_taps must be below taps (2), got 2"),
], ids=["rho", "kind", "post_taps"])
def test_a_value_only_its_section_rejects_fails_the_load_naming_the_section(section, lines,
                                                                             message):
    # Each value keeps its own rule; what the section builds from it does not.
    with pytest.raises(FormatError) as err:
        parse_config(f"[{section}]\n{lines}\n", path="run.cfg")
    assert str(err.value) == f"run.cfg: [{section}] {message}"


@pytest.mark.parametrize("values, message", [
    ({"seed": -1}, "[signal] seed must be at least 0, got -1"),
    ({"k_orders": 0}, "[model] k_orders must be at least 1, got 0"),
    ({"taps_list": (4, 0)}, "[sweep] taps_list must be at least 1, got 0"),
    ({"a_sat": 0.0}, "[pa] a_sat must be above 0, got 0.0"),
    ({"train_seed": -1}, "[train] seed must be at least 0, got -1"),
    ({"sweep_taps": 0}, "[sweep] taps must be at least 1, got 0"),
    ({"taps": 3, "post_taps": 3}, "[model] post_taps must be below taps (3), got 3"),
    # A value its file text cannot say: each is read back from its rendering.
    ({"rho": None}, "[pa] rho expected a number, got 'none'"),
    ({"seeds": 5}, "[sweep] seeds = 5 reads back as (5,)"),
    ({"warm_start": "no"}, "[model] warm_start = 'no' reads back as False"),
    ({"families": "mpm"}, "[sweep] families = 'mpm' reads back as ('mpm',)"),
    ({"kind": None}, "[model] kind = None reads back as 'none'"),
    ({"taps": True}, "[model] taps expected an integer, got 'true'"),
    ({"kind": "mpm # x"}, "[model] kind = 'mpm # x' reads back as 'mpm'"),
    ({"seeds": [1, 2]}, "[sweep] seeds = [1, 2] reads back as (1, 2)"),
], ids=["seed", "k_orders", "taps_list", "a_sat", "train_seed", "sweep_taps", "post_taps",
        "rho-none", "seeds-int", "warm_start-word", "families-str", "kind-none", "taps-bool",
        "kind-comment", "seeds-list"])
def test_a_run_config_made_in_code_holds_each_number_to_its_key_rule(values, message):
    with pytest.raises(FormatError) as err:
        RunConfig(**values)
    assert str(err.value) == message


# === round trip ===

def test_render_parse_round_trip_defaults():
    cfg = RunConfig()
    assert parse_config(render_config(cfg)) == cfg


CUSTOMIZED = (
    "[pa]\nrho = 0.35\na_sat = none\n"
    "[model]\nkind = agmpnn\ntaps = 7\npost_taps = 1\nridge = 2.5e-9\nwarm_start = false\n"
    "[train]\nlearning_rate = 0.005\nseed = 11\n"
    "[sweep]\ntaps = 9\nseeds = 2, 4\n")


def test_render_parse_round_trip_of_a_numpy_float():
    cfg = RunConfig(rho=np.float64(0.35), drive_db=np.float64(-1.5))
    assert "rho = 0.35\n" in render_config(cfg)
    assert parse_config(render_config(cfg)) == cfg


def test_render_parse_round_trip_customized():
    cfg = parse_config(CUSTOMIZED)
    assert parse_config(render_config(cfg)) == cfg
    assert cfg.train_seed == 11
    assert cfg.sweep_taps == 9


GOLDEN_DEFAULT_TEXT = """\
[pa]
rho = 0.2
sigma = -0.12
l_pa = 3
k_pa = 4
drive_db = -3.0
a_sat = 1.0
feedback_snr_db = 40.0

[signal]
seed = 1
n_samples = 16384
bandwidth_fraction = 0.25

[model]
kind = mpm
taps = 4
post_taps = 0
k_orders = 3
n_experts = 3
n1 = 16
n2 = 16
ridge = none
warm_start = true

[train]
learning_rate = 0.001
beta1 = 0.9
beta2 = 0.999
epsilon = 1e-08
batch_size = 50
segment_len = 1024
max_epochs = 100
patience = 5
seed = 0

[sweep]
families = mpm, agmpnn, rvftdnn
taps_list = 4, 5, 6, 7, 8, 9, 10
param_targets = 100, 200, 300, 400, 500, 600
seeds = 1, 2, 3
budget_lo = 100
budget_hi = 600
nn_grid = 8, 10, 12, 14, 16, 18, 20
mpm_k_grid = 1, 2, 3, 4, 5, 6, 7, 8
taps = 7
"""


def test_rendered_text_matches_golden():
    assert render_config(RunConfig()) == GOLDEN_DEFAULT_TEXT
    assert GOLDEN_DEFAULT_TEXT.count(" = ") == 37
    customized = render_config(parse_config(CUSTOMIZED)).encode("utf-8")
    assert hashlib.sha256(customized).hexdigest() == (
        "d9c0a9067273edb0dd82537d27a2a9689a63e9cad788d10893a05f1c8d035e0f")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[signal]\nseed = 77\n")
    assert load_config(path).seed == 77
    path.write_text("[signal]\nbroken\n")
    with pytest.raises(FormatError) as err:
        load_config(path)
    assert str(path) in str(err.value)


# === builders ===

def test_pa_config_matches_presets():
    # The default [pa] amplifier at a preset's drive is that preset.
    cfg = RunConfig()
    for level, db in PRESET_DRIVE_DB.items():
        built = cfg.pa_config(drive_db=db)
        ref = preset(level)
        assert np.array_equal(built.coeffs, ref.coeffs)
        assert built.drive_db == ref.drive_db
        assert built.smooth_limit == ref.smooth_limit
        assert built.feedback_snr_db == ref.feedback_snr_db


def test_preset_label_detection():
    assert RunConfig().preset_label() == "high"
    assert parse_config("[pa]\ndrive_db = -9.0\n").preset_label() == "low"
    assert parse_config("[pa]\ndrive_db = -5.0\n").preset_label() == "custom"
    assert PRESET_DRIVE_DB == {"low": -9.0, "high": -3.0}


def test_window_builder_accounts_for_lookahead():
    cfg = parse_config("[model]\ntaps = 7\npost_taps = 2\n")
    assert cfg.window() == TapWindow(pre_taps=4, post_taps=2)
    assert cfg.window().n_taps == 7


def test_model_spec_builder():
    cfg = parse_config("[model]\nkind = rvftdnn\ntaps = 5\nn1 = 12\nn2 = 10\n"
                       "[sweep]\nbudget_lo = 150\nbudget_hi = 500\n")
    spec = cfg.model_spec()
    assert spec.kind == "rvftdnn"
    assert spec.window.n_taps == 5
    assert (spec.n1, spec.n2) == (12, 10)
    assert spec.budget == (150, 500)


def test_train_config_builder():
    cfg = parse_config("[train]\nlearning_rate = 0.02\nbatch_size = 4\nseed = 3\n")
    train = cfg.train_config()
    assert train.learning_rate == 0.02
    assert train.batch_size == 4
    assert train.seed == 3
    assert train.segment_len == 1024
