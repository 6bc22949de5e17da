"""Readers of outside files raise FormatError and no other exception, whatever
the bytes: run configs, IQ CSV and binary waveforms and model files.  Every
text reader skips a UTF-8 byte-order mark, and a model file's repeated or
undeclared field fails naming its line."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpdlab import FormatError, TapWindow, deserialize_iq, read_iq_csv
from dpdlab.agmpnn import AgmpnnModel
from dpdlab.cli import _read_report
from dpdlab.config import RunConfig, load_config, parse_config, render_config
from dpdlab.ila import REPORT_HEADER, load_model
from dpdlab.mpm import MpmCoefficients, MpmSpec
from dpdlab.rvftdnn import RvftdnnModel
from dpdlab.signal import _IQ_HEADER, IQ_MAGIC

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


@pytest.mark.parametrize("read, name", [(read_iq_csv, "wave.csv"), (load_config, "run.cfg"),
                                        (load_model, "fit.model")],
                         ids=["iq-csv", "config", "model"])
def test_non_utf8_file_is_a_format_error_naming_it(tmp_path, read, name):
    path = tmp_path / name
    path.write_bytes(b"re,im\n1,\xff\n")
    with pytest.raises(FormatError) as err:
        read(path)
    assert str(path) in str(err.value)


# === binary IQ ===

@st.composite
def iq_blob(draw):
    """A binary IQ file whose magic, count, rate, payload or length may be wrong."""
    magic = draw(st.one_of(st.just(IQ_MAGIC), st.binary(min_size=8, max_size=8)))
    count = draw(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 64 - 1)))
    payload = draw(st.one_of(
        st.binary(max_size=48),
        st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), max_size=4)
        .map(lambda zs: np.array(zs, dtype="<c16").tobytes())))
    blob = _IQ_HEADER.pack(magic, count, draw(st.floats())) + payload
    return blob[:draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@FUZZ
@given(iq_blob())
@example(_IQ_HEADER.pack(IQ_MAGIC, 0, 1.0))
def test_deserialize_iq_raises_only_format_error(tmp_path, blob):
    path = tmp_path / "wave.iq"
    path.write_bytes(blob)
    try:
        deserialize_iq(path)
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


@pytest.mark.parametrize("edit, line, problem", [
    (lambda text: text.replace("kind = mpm\n", "kind = mpm\nkind = mpm\n"), 4,
     "repeated field 'kind', first on line 3"),
    (lambda text: text + "\n[coeff]\n0 0 1 0\n", 17, "repeated field '[coeff]', first on line 9"),
    (lambda text: text.replace("kind = mpm\n", "kind = mpm\nbogus = 7\n"), 4,
     "unknown mpm model field 'bogus'"),
    (lambda text: text + "\n[bogus]\n0 1\n", 17, "unknown mpm model field '[bogus]'"),
], ids=["repeated-key", "repeated-section", "unknown-key", "unknown-section"])
def test_model_file_refuses_repeated_and_undeclared_fields_naming_the_line(
        tmp_path, edit, line, problem):
    path = tmp_path / "fit.model"
    path.write_text(edit(MODEL_TEXTS[0]), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert str(err.value) == f"{path}:{line}: {problem}"


def test_model_file_refuses_a_repeated_entry_naming_its_section_and_index(tmp_path):
    path = tmp_path / "fit.model"
    path.write_text(MODEL_TEXTS[0].replace("[coeff]\n", "[coeff]\n0 0 5.0 0.0\n"),
                    encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: section [coeff] repeats index 0 0"


# === every text format ===

_BOM_READERS = {
    "iq-csv": ("wave.csv", "re,im\n1.0,0.5\n-2,0\n", lambda p: read_iq_csv(p).samples.tolist()),
    "config": ("run.cfg", "[pa]\ndrive_db = 3\n", load_config),
    "model": ("fit.model", MODEL_TEXTS[0], lambda p: load_model(p).param_vector().tolist()),
    "report": ("sweep.csv", f"{REPORT_HEADER}\nmpm,high,4,1,,8,8,1,-20.0,-19.0,-15.0\n",
               _read_report),
}


@pytest.mark.parametrize("reader", sorted(_BOM_READERS))
def test_every_text_reader_skips_a_utf8_byte_order_mark(tmp_path, reader):
    name, text, read = _BOM_READERS[reader]
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(marked) == read(plain)
