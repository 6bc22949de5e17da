"""Readers of outside text raise FormatError and no other exception, whatever
the text: run configs, IQ CSV waveforms and model files."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpdlab import FormatError, TapWindow, read_iq_csv
from dpdlab.agmpnn import AgmpnnModel
from dpdlab.config import RunConfig, parse_config, render_config
from dpdlab.ila import load_model
from dpdlab.mpm import MpmCoefficients, MpmSpec
from dpdlab.rvftdnn import RvftdnnModel

FUZZ = settings(max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "7", "2.5", "1e-8", "1e999", "nan", "inf", "-inf",
                     "99999999999", "none", "true", "maybe", "mpm", "agmpnn", "high",
                     "1, 2", "4,, 6", ",", "x", ""]),
    st.text(max_size=10),
)


def _one_of_or_text(choices, max_size=10):
    return st.one_of(st.sampled_from(choices), st.text(max_size=max_size))


def _lines_of(line, max_size=12):
    return st.lists(line, max_size=max_size).map("\n".join)


# === run config ===

_DEFAULT_LINES = render_config(RunConfig()).splitlines()
SECTIONS = [line for line in _DEFAULT_LINES if line.startswith("[")]
KEYS = sorted({line.split(" = ")[0] for line in _DEFAULT_LINES if " = " in line})

CONFIG_TEXT = _lines_of(st.one_of(
    _one_of_or_text(SECTIONS),
    st.builds("{} = {}".format, _one_of_or_text(KEYS), VALUES),
    st.text(max_size=20),
))


@FUZZ
@given(CONFIG_TEXT)
@example("[pa]\ndrive_db = inf\n[model]\nkind = agmpnn\ntaps = 0\n")
def test_parse_config_raises_only_format_error(text):
    try:
        parse_config(text)
    except FormatError:
        pass


# === IQ CSV ===

CSV_TEXT = _lines_of(st.one_of(
    st.builds("{},{}".format, VALUES, VALUES),
    _one_of_or_text(["re,im", "1,2,3", ""], max_size=20),
))


@FUZZ
@given(CSV_TEXT)
@example("re,im\n1.0,0.5\nnan,0\n")
def test_read_iq_csv_raises_only_format_error(tmp_path, text):
    path = tmp_path / "wave.csv"
    path.write_text(text, encoding="utf-8")
    try:
        read_iq_csv(path)
    except FormatError:
        pass


# === model files ===

def _saved_model_texts() -> list:
    window = TapWindow(pre_taps=1, post_taps=1)
    models = [MpmCoefficients(MpmSpec(window=window, k_orders=2), np.ones((3, 2), complex)),
              AgmpnnModel.init(window, 2, 2, seed=0),
              RvftdnnModel.init(window, 2, 2, seed=0)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{i}.model" for i in range(len(models))]
        for model, path in zip(models, paths):
            model.save(path)
        return [path.read_text(encoding="utf-8") for path in paths]


MODEL_TEXTS = _saved_model_texts()


@st.composite
def edited_model_text(draw):
    """A saved model file with a few lines replaced, dropped or garbled."""
    lines = draw(st.sampled_from(MODEL_TEXTS)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(VALUES)
        lines[at:at + 1] = draw(st.one_of(st.just([]), st.just([" ".join(tokens)]),
                                          st.text(max_size=20).map(lambda line: [line])))
        if not lines:
            break
    return "\n".join(lines)


@FUZZ
@given(edited_model_text())
def test_load_model_raises_only_format_error(tmp_path, text):
    path = tmp_path / "edited.model"
    path.write_text(text, encoding="utf-8")
    try:
        load_model(path)
    except FormatError:
        pass
