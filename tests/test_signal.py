"""Waveform generation, metrics, alignment, windowing, and IQ file I/O."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpdlab
from dpdlab import (
    AlignmentResult,
    ComplexSequence,
    FormatError,
    TapWindow,
    align,
    delayed_matrix,
    deserialize_iq,
    generate_waveform,
    nmse_db,
    read_iq_csv,
    serialize_iq,
    window_at,
    write_iq_csv,
)
from dpdlab.signal import (
    _IQ_HEADER,
    _LOWPASS_NTAPS,
    IQ_MAGIC,
    NMSE_FLOOR_DB,
    FramedSequence,
    _lowpass_taps,
)

import reference_impls as ref


# === waveform generation ===

def test_generate_waveform_deterministic():
    for seed in range(5):
        a = generate_waveform(seed, 512, 0.25)
        b = generate_waveform(seed, 512, 0.25)
        assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(
        generate_waveform(0, 512, 0.25).samples,
        generate_waveform(1, 512, 0.25).samples,
    )


def test_generate_waveform_length_exact_even_below_filter_span():
    # Requested lengths shorter than the shaping filter must still be honored.
    for n in (64, 100, 126, 127, 128, 4096):
        assert len(generate_waveform(2, n, 0.25)) == n


def test_generate_waveform_unit_rms():
    for seed in range(4):
        for bw in (0.1, 0.25, 0.5, 1.0):
            w = generate_waveform(seed, 2048, bw)
            assert abs(w.rms() - 1.0) < 1e-12


def test_generate_waveform_papr_reference_value():
    w = generate_waveform(7, 65536, 0.25)
    assert abs(w.papr_db() - 9.838687) < 1e-4


def test_generate_waveform_papr_band():
    for seed in range(6):
        w = generate_waveform(seed, 16384, 0.25)
        assert 6.0 <= w.papr_db() <= 12.0


def test_generate_waveform_band_limited():
    w = generate_waveform(3, 8192, 0.25)
    spectrum = np.abs(np.fft.fft(w.samples)) ** 2
    freqs = np.fft.fftfreq(len(w))
    in_band = spectrum[np.abs(freqs) <= 0.130].sum()
    assert in_band / spectrum.sum() > 0.99


# SHA-256 of generate_waveform(seed, 4096, bw).samples.tobytes(), recorded
# when the low-pass was scipy.signal.firwin(127, bw / 2, fs=1.0).
_GOLDEN_WAVEFORM_SHA256 = {
    (0.1, 1): "cd7745a4b1206701f20be15516b8a209282b8aebefef11673d2beb0a2e8917dd",
    (0.1, 2): "e20f2768759837d9b125299a28c7736e5d4d82519a27a117b130d9917ebf130b",
    (0.25, 1): "cd6879e7238fe95a1d0aab9bd979b0d63c65d21b8d506f8342fffb1c79f55bcc",
    (0.25, 2): "311fa0e36ea4371111d7396af596f2439b2950cd7ca1c611caed3d9afce3d63b",
    (0.6, 1): "0c0a34193ee616e36d7380fb0d0910ea2911c02535626064f1fed6c16533df4c",
    (0.6, 2): "fbcc3948ebade5c2c92476c3888858b55606eb0f995774713fd240795bc7461e",
    (1.0, 1): "54e3c5b02e476a8d7f8307592f1588f2a67777e5b2d248b346b45d3061141029",
    (1.0, 2): "f0582facdb53cfdaa92098ebd760450a34ca43a7e902b0e95602eea86d1cec8b",
}


@pytest.mark.parametrize("bw, seed", sorted(_GOLDEN_WAVEFORM_SHA256))
def test_generate_waveform_golden_bytes(bw, seed):
    samples = generate_waveform(seed, 4096, bw).samples
    assert hashlib.sha256(samples.tobytes()).hexdigest() == _GOLDEN_WAVEFORM_SHA256[bw, seed]


def test_lowpass_equals_scipy_firwin():
    # SciPy is a test-only oracle: the NumPy low-pass is bit for bit firwin.
    scipy_signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(2024)
    bandwidths = np.concatenate([rng.uniform(0.0, 1.0, 500), np.linspace(0.002, 0.998, 499)])
    for bw in bandwidths[bandwidths > 0.0]:
        expected = scipy_signal.firwin(_LOWPASS_NTAPS, bw / 2.0, fs=1.0)
        assert np.array_equal(_lowpass_taps(bw), expected), bw


def test_import_does_not_load_scipy():
    # A fresh interpreter importing the dpdlab under test loads no SciPy module.
    src = str(Path(dpdlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, dpdlab; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_generate_waveform_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_waveform(0, 63, 0.25)
    with pytest.raises(ValueError):
        generate_waveform(0, 512, 0.0)
    with pytest.raises(ValueError):
        generate_waveform(0, 512, 1.5)


# === ComplexSequence / TapWindow ===

def test_complex_sequence_validation():
    with pytest.raises(ValueError):
        ComplexSequence(np.array([], dtype=np.complex128))
    with pytest.raises(ValueError):
        ComplexSequence(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ComplexSequence(np.array([1.0]), sample_rate_hint=0.0)
    seq = ComplexSequence([1.0, 1j])
    assert len(seq) == 2
    assert seq.samples.dtype == np.complex128
    with pytest.raises(ValueError):
        seq.samples[0] = 0.0


@pytest.mark.parametrize("rate", [0.0, -2.0, float("nan"), float("inf")])
def test_sample_rate_hint_must_be_positive_and_finite(rate):
    # The binary reader's rule: a written waveform must read back.
    rule = "above 0" if np.isfinite(rate) else "finite"
    with pytest.raises(ValueError, match=f"^sample_rate_hint must be {rule}, got {rate}$"):
        ComplexSequence(np.array([1.0]), sample_rate_hint=rate)


def test_papr_simple_values():
    assert abs(ComplexSequence([1.0, 1.0, 1.0]).papr_db()) < 1e-12
    two_tone = ComplexSequence([2.0, 0.0, 2.0, 0.0])
    assert abs(two_tone.papr_db() - 10.0 * np.log10(2.0)) < 1e-12


def test_tap_window():
    w = TapWindow(pre_taps=3, post_taps=1)
    assert w.n_taps == 5
    assert list(w.delays()) == [-1, 0, 1, 2, 3]
    assert TapWindow(pre_taps=0).n_taps == 1
    with pytest.raises(ValueError):
        TapWindow(pre_taps=-1)
    with pytest.raises(ValueError):
        TapWindow(pre_taps=0, post_taps=-2)


def test_tap_window_interior_counts_only_rows_whose_taps_lie_inside():
    w = TapWindow(pre_taps=3, post_taps=2)
    assert w.interior(10) == slice(3, 8)
    assert w.interior(6) == slice(3, 4)
    for n in range(6, 20):
        inside = [r for r in range(n) if all(0 <= r - int(d) < n for d in w.delays())]
        assert list(range(n)[w.interior(n)]) == inside
    for n in range(0, 6):
        with pytest.raises(ValueError, match=rf"^{n} samples are too few for a 6-tap window"):
            w.interior(n)


# === NMSE ===

def test_nmse_exact_match_hits_floor():
    x = generate_waveform(0, 256, 0.5)
    assert nmse_db(x, x) == NMSE_FLOOR_DB


def test_nmse_equal_energy_error():
    x = generate_waveform(1, 256, 0.5)
    zeros = np.zeros(len(x), dtype=np.complex128)
    assert abs(nmse_db(zeros, x)) < 1e-12


def test_nmse_scaled_copy():
    x = generate_waveform(2, 1024, 0.5)
    assert abs(nmse_db(1.1 * x.samples, x) - 20.0 * np.log10(0.1)) < 1e-9


def test_nmse_rotation_invariance():
    x = generate_waveform(3, 1024, 0.5)
    y = x.samples * 1.05 * np.exp(0.3j)
    rot = np.exp(1.234j)
    assert abs(nmse_db(y, x) - nmse_db(rot * y, rot * x.samples)) < 1e-10


def test_nmse_of_samples_whose_energy_overflows_or_underflows_keeps_its_value():
    # 2**600 is exact, so the pair keeps its ratio bit for bit; its energies,
    # ~1e361, overflow a float64 where the plain pair's do not.
    a = np.array([1.0, 2.0 - 0.5j, 3.0j])
    plain = nmse_db(a * 1.001, a)
    assert nmse_db(a * 1.001 * 2.0 ** 600, a * 2.0 ** 600) == plain
    assert abs(plain - 20.0 * np.log10(0.001)) < 1e-9
    b = np.array([1e200, 2e200, 3e200])
    assert abs(nmse_db(b * 1.001, b) - 20.0 * np.log10(0.001)) < 1e-6
    # The mirror case: energies of ~1e-361 underflow to 0.
    assert nmse_db(a * 1.001 * 2.0 ** -600, a * 2.0 ** -600) == plain


def test_nmse_of_an_error_far_above_the_reference_stays_finite():
    # The error energy, ~1e400 of a reference of 5, overflows even once both
    # are scaled by the reference's power of two.
    assert abs(nmse_db([1e200, 2e200], [1.0, 2.0]) - 4000.0) < 1e-9
    # Here the reference's energy underflows and the error's overflows.
    assert abs(nmse_db([1e300] * 2, [1e-300] * 2) - 12000.0) < 1e-9
    assert nmse_db([1e-300] * 2, [1e300] * 2) == 0.0


def test_nmse_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nmse_db(np.ones(4), np.ones(5))
    with pytest.raises(ValueError):
        nmse_db(np.ones(4), np.zeros(4))


# === alignment ===

def test_align_identity():
    x = generate_waveform(4, 512, 0.25)
    res = align(x, x, max_lag=8)
    assert res.delay == 0
    assert abs(res.gain - 1.0) < 1e-12


def test_align_recovers_shift_and_gain():
    x = generate_waveform(5, 1024, 0.25).samples
    for shift in (-3, 0, 3):
        shifted = np.roll(x, shift)
        if shift > 0:
            shifted[:shift] = 0.0
        elif shift < 0:
            shifted[shift:] = 0.0
        res = align(x, (0.5 - 2.0j) * shifted, max_lag=8)
        assert res.delay == shift
        assert abs(res.gain - (0.5 - 2.0j)) < 1e-3


def test_align_pure_complex_gain():
    x = generate_waveform(6, 512, 0.25)
    res = align(x, 2j * x.samples, max_lag=4)
    assert res.delay == 0
    assert abs(res.gain - 2j) < 1e-12


def test_align_rejects_degenerate_inputs():
    x = generate_waveform(7, 64, 0.5)
    with pytest.raises(ValueError):
        align(x, x, max_lag=-1)
    with pytest.raises(ValueError):
        align(x, x, max_lag=32)
    with pytest.raises(ValueError):
        align(np.zeros(64), x, max_lag=4)


# === tap windows / delayed matrix ===

def test_window_at_examples():
    x = np.arange(1.0, 6.0) + 0j  # [1, 2, 3, 4, 5]
    w = TapWindow(pre_taps=2, post_taps=1)
    # [x[n+1], x[n], x[n-1], x[n-2]]
    assert np.array_equal(window_at(x, 2, w), np.array([4, 3, 2, 1], dtype=complex))
    assert np.array_equal(window_at(x, 0, w), np.array([2, 1, 0, 0], dtype=complex))
    assert np.array_equal(window_at(x, 4, w), np.array([0, 5, 4, 3], dtype=complex))


def test_window_at_matches_reference():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for pre, post in ((0, 0), (3, 0), (2, 2), (0, 3)):
        w = TapWindow(pre_taps=pre, post_taps=post)
        for n in range(32):
            expected = np.array(ref.tap_values(x, n, pre, post))
            assert np.array_equal(window_at(x, n, w), expected)


def test_delayed_matrix_rows_equal_window_at():
    x = generate_waveform(8, 128, 0.5)
    for pre, post in ((4, 0), (3, 2)):
        w = TapWindow(pre_taps=pre, post_taps=post)
        mat = delayed_matrix(x, w)
        assert mat.shape == (128, w.n_taps)
        for n in (0, 1, 63, 126, 127):
            assert np.array_equal(mat[n], window_at(x, n, w))
    # Sequences shorter than pre_taps or post_taps: every tap off the ends
    # is zero-filled.
    for samples, pre, post in ((x.samples[:3], 5, 0), (x.samples[:2], 1, 4), (x.samples[:1], 6, 6)):
        w = TapWindow(pre_taps=pre, post_taps=post)
        mat = delayed_matrix(samples, w)
        assert mat.shape == (samples.size, w.n_taps)
        for n in range(samples.size):
            assert np.array_equal(mat[n], window_at(samples, n, w))


def test_framed_sequence_holds_its_window_matrix():
    x = generate_waveform(8, 128, 0.5)
    w = TapWindow(pre_taps=3, post_taps=2)
    framed = FramedSequence(x.samples, window=w)
    held = delayed_matrix(framed, w)
    assert held is framed.delayed
    assert delayed_matrix(framed, TapWindow(pre_taps=3, post_taps=2)) is held
    assert not held.flags.writeable
    assert np.array_equal(held, delayed_matrix(x, w))
    other = TapWindow(pre_taps=1)
    assert np.array_equal(delayed_matrix(framed, other), delayed_matrix(x, other))


@pytest.mark.parametrize("make", [
    lambda samples: ComplexSequence(samples),
    lambda samples: FramedSequence(samples, window=TapWindow(pre_taps=1)),
], ids=["ComplexSequence", "FramedSequence"])
def test_sequence_equality_is_identity_and_hashable(make):
    a = make([1.0, 2.0, 3.0])
    twin = make(a.samples)
    assert a == a
    assert a != twin
    assert hash(a) == hash(a)
    assert a in {a} and twin not in {a}
    assert np.array_equal(a.samples, twin.samples)


# === IQ file formats ===

def test_iq_binary_round_trip(tmp_path):
    x = generate_waveform(9, 300, 0.25, sample_rate_hint=122.88e6)
    path = tmp_path / "wave.iq"
    serialize_iq(x, path)
    back = deserialize_iq(path)
    assert np.array_equal(back.samples, x.samples)
    assert back.sample_rate_hint == x.sample_rate_hint


def test_iq_binary_rejects_corruption(tmp_path):
    x = generate_waveform(10, 64, 0.5)
    path = tmp_path / "wave.iq"
    serialize_iq(x, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.iq"
    bad_magic.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(FormatError):
        deserialize_iq(bad_magic)

    truncated = tmp_path / "trunc.iq"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        deserialize_iq(truncated)

    stub = tmp_path / "stub.iq"
    stub.write_bytes(blob[:10])
    with pytest.raises(FormatError):
        deserialize_iq(stub)


@pytest.mark.parametrize("count, rate, payload, field", [
    (0, 1.0, (), "header field 'count': must be at least 1, got 0"),
    (1, 0.0, (1.0,), "header field 'sample_rate_hint': must be above 0, got 0.0"),
    (1, -2.0, (1.0,), "header field 'sample_rate_hint': must be above 0, got -2.0"),
    (1, float("nan"), (1.0,), "header field 'sample_rate_hint': must be finite, got nan"),
    (1, float("inf"), (1.0,), "header field 'sample_rate_hint': must be finite, got inf"),
    (2, 1.0, (1.0, complex(float("nan"), 0.0)), "payload holds a non-finite sample"),
    (1, 1.0, (complex(0.0, float("-inf")),), "payload holds a non-finite sample"),
], ids=["no-samples", "zero-rate", "negative-rate", "nan-rate", "inf-rate", "nan-sample",
        "inf-sample"])
def test_iq_binary_header_and_payload_defects_name_file_and_field(tmp_path, count, rate,
                                                                  payload, field):
    path = tmp_path / "wave.iq"
    path.write_bytes(_IQ_HEADER.pack(IQ_MAGIC, count, rate)
                     + np.array(payload, dtype="<c16").tobytes())
    with pytest.raises(FormatError) as err:
        deserialize_iq(path)
    assert str(path) in str(err.value) and field in str(err.value)


def test_iq_csv_round_trip(tmp_path):
    x = generate_waveform(11, 150, 0.25)
    path = tmp_path / "wave.csv"
    write_iq_csv(x, path)
    back = read_iq_csv(path)
    assert np.array_equal(back.samples, x.samples)
    assert path.read_text().startswith("re,im\n")


def test_iq_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("re,im\n1.0,2.0,3.0\n")
    with pytest.raises(FormatError):
        read_iq_csv(path)
    path.write_text("re,im\nhello,world\n")
    with pytest.raises(FormatError):
        read_iq_csv(path)


def test_alignment_result_is_plain_record():
    res = AlignmentResult(delay=2, gain=1 + 1j)
    assert res.delay == 2 and res.gain == 1 + 1j
