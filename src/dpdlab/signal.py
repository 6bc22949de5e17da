"""Complex baseband signal toolbox.

Waveform generation, tap-window extraction, integer-delay/complex-gain
alignment, the NMSE metric, the memory polynomial's even-power chain, and IQ
sample file I/O (binary "DPDIQ1" and two-column CSV).
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import FormatError
from .rules import RULES, check, check_all

NMSE_FLOOR_DB = -300.0
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)

IQ_MAGIC = b"DPDIQ1\x00\x00"
_IQ_HEADER = struct.Struct("<8sQd")

# Fixed-length linear-phase FIR used by generate_waveform.  Frozen so the same
# (seed, n_samples, bandwidth_fraction) triple always yields the same sequence.
_LOWPASS_NTAPS = 127


def as_samples(x) -> np.ndarray:
    """Accept a ComplexSequence or array-like; return a contiguous 1-D
    complex128 array."""
    if isinstance(x, ComplexSequence):
        return x.samples
    return np.ascontiguousarray(x, dtype=np.complex128).reshape(-1)


@dataclass(frozen=True, eq=False)
class ComplexSequence:
    """Immutable, uniformly sampled complex baseband waveform.

    The sample rate is informational only; every algorithm in the package works
    in normalized (cycles per sample) units.  Equality and hashing are by
    identity; compare values with np.array_equal on `samples`.
    """

    samples: np.ndarray
    sample_rate_hint: float = 1.0

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.complex128).reshape(-1)
        if samples.size < 1:
            raise ValueError("sequence must contain at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("sequence samples must be finite")
        rate = check("sample_rate_hint", float(self.sample_rate_hint))
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hint", rate)

    def __len__(self) -> int:
        return int(self.samples.size)

    def rms(self) -> float:
        return float(np.sqrt(np.mean(np.abs(self.samples) ** 2)))

    def papr_db(self) -> float:
        """Peak-to-average power ratio in dB."""
        rms = self.rms()
        if rms == 0.0:
            raise ValueError("PAPR undefined for an all-zero sequence")
        peak = float(np.max(np.abs(self.samples)))
        return 20.0 * float(np.log10(peak / rms))


@dataclass(frozen=True)
class TapWindow:
    """Causal history depth plus optional non-causal lookahead."""

    pre_taps: int
    post_taps: int = 0

    def __post_init__(self) -> None:
        check_all(pre_taps=self.pre_taps, post_taps=self.post_taps)

    @property
    def n_taps(self) -> int:
        return self.pre_taps + self.post_taps + 1

    def delays(self) -> np.ndarray:
        """Delay l of each tap position, ordered lookahead-first.

        Position i holds delay l = i - post_taps, so the extracted window reads
        [x[n+post_taps], ..., x[n], ..., x[n-pre_taps]].
        """
        return np.arange(-self.post_taps, self.pre_taps + 1)

    def interior(self, n: int) -> slice:
        """The samples of an n-sample sequence whose taps all lie inside it,
        [pre_taps, n - post_taps): the samples a loss or a score counts."""
        lo, hi = self.pre_taps, n - self.post_taps
        if hi <= lo:
            raise ValueError(f"{n} samples are too few for a {self.n_taps}-tap window")
        return slice(lo, hi)

    def scored_rows(self, x, target) -> tuple[np.ndarray, np.ndarray]:
        """The rows a loss scores: the interior rows of x's tap matrix
        (delayed_matrix) and the interior samples of target, which must be as
        long as x."""
        phi = as_samples(target)
        if as_samples(x).size != phi.size:
            raise ValueError("input and target lengths differ")
        rows = self.interior(phi.size)
        return delayed_matrix(x, self)[rows], phi[rows]


@dataclass(frozen=True)
class AlignmentResult:
    """Integer delay and complex gain fitting a measured sequence to a reference."""

    delay: int
    gain: complex


def _lowpass_taps(bandwidth_fraction: float) -> np.ndarray:
    """Hamming-windowed sinc at cutoff bandwidth_fraction / 2 (fs = 1), unit DC gain."""
    n = _LOWPASS_NTAPS
    m = np.arange(n) - 0.5 * (n - 1)
    # 1 - 0.54 is not the double nearest 0.46; written so, the taps are
    # bit for bit scipy.signal.firwin's, and every waveform keeps its bytes.
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n))
    h = bandwidth_fraction * np.sinc(bandwidth_fraction * m) * window
    return h / np.sum(h)


def generate_waveform(seed: int, n_samples: int, bandwidth_fraction: float,
                      sample_rate_hint: float = 1.0) -> ComplexSequence:
    """Band-limited complex Gaussian noise at unit RMS.

    White complex Gaussian noise is shaped by a 127-tap linear-phase FIR
    low-pass, a Hamming-windowed sinc with normalized cutoff
    ``bandwidth_fraction / 2`` scaled to unit DC gain (the waveform occupies
    the central ``bandwidth_fraction`` of the sampling bandwidth), and
    rescaled to unit RMS.  Deterministic for a fixed (seed, n_samples,
    bandwidth_fraction).

    Parameters
    ----------
    seed : int
        Seed for the random generator.
    n_samples : int
        Number of samples, at least 64.
    bandwidth_fraction : float
        Occupied fraction of the sampling bandwidth, in (0, 1].  The value 1
        skips filtering entirely (full-band white noise).
    """
    check("seed", seed)
    check_all(bandwidth_fraction=bandwidth_fraction, n_samples=n_samples)
    rng = np.random.default_rng(seed)
    white = (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)) / np.sqrt(2.0)
    if bandwidth_fraction < 1.0:
        taps = _lowpass_taps(bandwidth_fraction)
        # Center slice of the full convolution; np.convolve(mode="same") would
        # return len(taps) samples whenever n_samples < len(taps).
        start = (_LOWPASS_NTAPS - 1) // 2
        shaped = np.convolve(white, taps, mode="full")[start:start + n_samples]
    else:
        shaped = white
    rms = float(np.sqrt(np.mean(np.abs(shaped) ** 2)))
    return ComplexSequence(shaped / rms, sample_rate_hint=sample_rate_hint)


def nmse_db(estimate, reference) -> float:
    """10*log10(||estimate - reference||^2 / ||reference||^2) in dB.

    Clamped below at -300 dB so an exact match stays finite.  Where either
    energy overflows float64 or falls below its normal range, each is taken
    again on samples scaled by its own power of two: the reference by the one
    that brings its largest real or imaginary part into [0.5, 1), the error by
    the one that does so for the larger of the two sequences.  The exponent
    difference is added back to the logarithm, so the result is finite
    whatever the scale.  Raises ValueError naming the sequence that is empty
    or holds a non-finite sample, and on length mismatch or a zero-energy
    reference.
    """
    est = as_samples(estimate)
    ref = as_samples(reference)
    for name, seq in (("estimate", est), ("reference", ref)):
        if not seq.size:
            raise ValueError(f"{name} sequence is empty")
        if not np.isfinite(seq).all():
            raise ValueError(f"{name} sequence holds a non-finite sample")
    if est.size != ref.size:
        raise ValueError(f"length mismatch: estimate has {est.size} samples, reference {ref.size}")
    octaves = 0
    with np.errstate(over="ignore"):
        ref_energy, err_energy = _energy(ref), _energy(est - ref)
    if not all(_SMALLEST_NORMAL <= e < np.inf for e in (ref_energy, err_energy)):
        ref_exp = _exponent(ref)
        err_exp = max(_exponent(est), ref_exp)
        ref_energy = _energy(_scaled(ref, ref_exp))
        err_energy = _energy(_scaled(est, err_exp) - _scaled(ref, err_exp))
        octaves = 2 * (err_exp - ref_exp)
    if ref_energy == 0.0:
        raise ValueError("reference sequence has zero energy")
    if err_energy == 0.0:
        return NMSE_FLOOR_DB
    db = 10.0 * (float(np.log10(err_energy / ref_energy)) + octaves * math.log10(2.0))
    return max(db, NMSE_FLOOR_DB)


def _energy(z: np.ndarray) -> float:
    """||z||^2."""
    return float(np.sum(np.abs(z) ** 2))


def _exponent(z: np.ndarray) -> int:
    """The power of two that brings z's largest real or imaginary part into [0.5, 1)."""
    return math.frexp(float(np.max(np.abs(z.view(np.float64)))))[1]


def _scaled(z: np.ndarray, exp: int) -> np.ndarray:
    """z * 2**-exp, exact wherever it stays in the normal range."""
    return np.ldexp(z.view(np.float64), -exp).view(np.complex128)


def even_powers(amp: np.ndarray, n: int):
    """amp^2, amp^4, ..., amp^(2n) in turn, each the previous power times amp^2:
    the even powers of a memory polynomial's orders 1 ... n, for the PA, the
    MPM basis and the agmpnn experts alike."""
    if n:
        square = power = amp * amp
        yield power
        for _ in range(n - 1):
            power = power * square
            yield power


def align(reference, measured, max_lag: int) -> AlignmentResult:
    """Find the integer delay and complex gain fitting `measured` onto `reference`.

    Searches lags d in [-max_lag, max_lag] for the one maximizing the
    normalized cross-correlation |c| * (|c| / E_r), which does not overflow
    where |c|^2 would, then solves the scalar least-squares gain such that
    measured[n] ~= gain * reference[n - d] over the overlap.

    Where either sequence's energy overflows float64 or falls below its
    normal range, the search runs on copies scaled by powers of two, as in
    nmse_db (each correlation is bounded by the energies), and the gain is
    scaled back; a gain that then leaves float64's range raises ValueError.
    """
    ref = as_samples(reference)
    mea = as_samples(measured)
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    if ref.size <= 2 * max_lag or mea.size <= 2 * max_lag:
        raise ValueError("sequences must be longer than 2*max_lag")
    if not np.any(ref) or not np.any(mea):
        raise ValueError("alignment requires nonzero-energy inputs")
    with np.errstate(over="ignore"):
        in_range = all(_SMALLEST_NORMAL <= _energy(z) < np.inf for z in (ref, mea))
    if in_range:
        return _best_alignment(ref, mea, max_lag)
    ref_exp, mea_exp = _exponent(ref), _exponent(mea)
    found = _best_alignment(_scaled(ref, ref_exp), _scaled(mea, mea_exp), max_lag)
    with np.errstate(over="ignore", under="ignore"):
        gain = complex(*np.ldexp([found.gain.real, found.gain.imag], mea_exp - ref_exp))
    if gain == 0 or not cmath.isfinite(gain):
        raise ValueError("alignment failed: the gain lies outside float64's range")
    return AlignmentResult(delay=found.delay, gain=gain)


def _best_alignment(ref: np.ndarray, mea: np.ndarray, max_lag: int) -> AlignmentResult:
    """align's lag search on sequences whose energies lie in float64's normal range."""
    best_score = -1.0
    best_lag = 0
    best_gain = 0j
    for lag in range(-max_lag, max_lag + 1):
        lo = max(0, lag)
        hi = min(mea.size, ref.size + lag)
        if hi - lo < 1:
            continue
        r_seg = ref[lo - lag:hi - lag]
        m_seg = mea[lo:hi]
        r_energy = float(np.vdot(r_seg, r_seg).real)
        if r_energy == 0.0:
            continue
        corr = np.vdot(r_seg, m_seg)  # sum conj(ref) * measured
        magnitude = float(abs(corr))
        score = magnitude * (magnitude / r_energy)
        if score > best_score:
            best_score = score
            best_lag = lag
            best_gain = corr / r_energy
    if best_score < 0.0 or best_gain == 0:
        raise ValueError("alignment failed: no usable overlap between the sequences")
    return AlignmentResult(delay=int(best_lag), gain=complex(best_gain))


def window_at(x, n: int, window: TapWindow) -> np.ndarray:
    """Tap values [x[n+post], ..., x[n], ..., x[n-pre]], zero-filled off the ends."""
    samples = as_samples(x)
    out = np.zeros(window.n_taps, dtype=np.complex128)
    for i, lag in enumerate(window.delays()):
        idx = n - int(lag)
        if 0 <= idx < samples.size:
            out[i] = samples[idx]
    return out


def delayed_matrix(x, window: TapWindow) -> np.ndarray:
    """N x T complex matrix whose row n equals window_at(x, n, window)."""
    samples = as_samples(x)
    n = samples.size
    out = np.zeros((n, window.n_taps), dtype=np.complex128)
    for i, lag in enumerate(window.delays()):
        lag = int(lag)
        if abs(lag) >= n:
            continue  # every tap at this lag lies off the sequence: all zero
        if lag > 0:
            out[lag:, i] = samples[:n - lag]
        elif lag < 0:
            out[:lag, i] = samples[-lag:]
        else:
            out[:, i] = samples
    return out


# Rows per block of a model's predict pass over its tap matrix, which bounds
# the pass's temporaries.  Each family's module says how its blocked output
# relates to the unblocked output's bits.
PREDICT_BLOCK_ROWS = 1024


def predict_rows(x, window: TapWindow, rows) -> ComplexSequence:
    """A model's output on x (a ComplexSequence or an array): `rows`, the
    family's output_rows, maps a block of rows of x's tap matrix
    (delayed_matrix) to the complex output of those rows, and runs on
    PREDICT_BLOCK_ROWS rows at a time.  A last block of one row joins the
    block before it: numpy takes a one-row matrix product as a dot product,
    whose bits differ from a gemv's.  The output keeps x's rate hint."""
    seq = x if isinstance(x, ComplexSequence) else ComplexSequence(as_samples(x))
    delayed = delayed_matrix(seq, window)
    n_rows = delayed.shape[0]
    output = np.empty(n_rows, dtype=np.complex128)
    stops = [*range(PREDICT_BLOCK_ROWS, n_rows - 1, PREDICT_BLOCK_ROWS), n_rows]
    for start, stop in zip([0, *stops], stops):
        output[start:stop] = rows(delayed[start:stop])
    return ComplexSequence(output, sample_rate_hint=seq.sample_rate_hint)


def read_text(path) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped; any other
    bytes raise FormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a UTF-8 text file") from None


def serialize_iq(x: ComplexSequence, path) -> None:
    """Write the binary IQ format: magic, u64 count, f64 rate hint, f64 I/Q pairs.

    All fields little-endian; the payload is interleaved (re, im) float64.
    """
    if not isinstance(x, ComplexSequence):
        x = ComplexSequence(x)
    header = _IQ_HEADER.pack(IQ_MAGIC, len(x), x.sample_rate_hint)
    payload = x.samples.astype("<c16").tobytes()
    Path(path).write_bytes(header + payload)


def deserialize_iq(path) -> ComplexSequence:
    """Read the binary IQ format written by serialize_iq."""
    blob = Path(path).read_bytes()
    if len(blob) < _IQ_HEADER.size:
        raise FormatError(f"{path}: truncated IQ header")
    magic, count, rate = _IQ_HEADER.unpack_from(blob)
    if magic != IQ_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    for key, value in (("count", count), ("sample_rate_hint", rate)):
        problem = RULES[key].problem(value)
        if problem:
            raise FormatError(f"{path}: header field {key!r}: {problem}")
    if len(blob) != _IQ_HEADER.size + 16 * count:
        raise FormatError(
            f"{path}: payload holds {(len(blob) - _IQ_HEADER.size) // 16} samples, header says {count}")
    samples = np.frombuffer(blob, dtype="<c16", offset=_IQ_HEADER.size)
    if not np.all(np.isfinite(samples)):
        raise FormatError(f"{path}: payload holds a non-finite sample")
    return ComplexSequence(samples, sample_rate_hint=rate)


def write_iq_csv(x: ComplexSequence, path) -> None:
    """Two-column re,im CSV with full float64 precision."""
    if not isinstance(x, ComplexSequence):
        x = ComplexSequence(x)
    lines = ["re,im"]
    for z in x.samples:
        lines.append(f"{z.real:.17e},{z.imag:.17e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_iq_csv(path) -> ComplexSequence:
    """Read a two-column re,im CSV; blank lines are skipped, and a 're,im'
    header on the first other line is optional."""
    lines = [(line_no, raw.strip())
             for line_no, raw in enumerate(read_text(path).split("\n"), start=1) if raw.strip()]
    if lines and lines[0][1].lower().replace(" ", "") == "re,im":
        del lines[0]
    values = []
    for line_no, line in lines:
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}:{line_no}: expected two columns, found {len(parts)}")
        try:
            value = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise FormatError(f"{path}:{line_no}: could not parse {line!r}") from None
        if not cmath.isfinite(value):
            raise FormatError(f"{path}:{line_no}: non-finite sample {line!r}")
        values.append(value)
    if not values:
        raise FormatError(f"{path}: no samples found")
    return ComplexSequence(np.array(values))
