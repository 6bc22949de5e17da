"""Memory-polynomial basis construction, least-squares fitting, prediction.

The basis generalizes the classical memory polynomial by a real amplitude
offset b: column (l, k) evaluates x[n-l] * max(0, |x[n-l]| + b)^(2k).  With
b = 0 the rectifier is the identity on the nonnegative amplitude and the basis
reduces to the classical x[n-l] * |x[n-l]|^(2k), computed through the very same
floating-point expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import modelfile
from .exceptions import ConditioningError
from .signal import ComplexSequence, TapWindow, as_samples, delayed_matrix

# Default ridge, relative to the mean diagonal of the normal matrix.
RIDGE_DEFAULT_REL = 1e-10

MODEL_KIND = "mpm"


@dataclass(frozen=True)
class MpmSpec:
    """Shape of a memory-polynomial model: tap window, order count, offset."""

    window: TapWindow
    k_orders: int
    amp_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.k_orders < 1:
            raise ValueError("k_orders must be at least 1")
        if not np.isfinite(self.amp_offset):
            raise ValueError("amp_offset must be finite")
        object.__setattr__(self, "amp_offset", float(self.amp_offset))

    @property
    def n_columns(self) -> int:
        return self.window.n_taps * self.k_orders

    def column_labels(self) -> list[tuple[int, int]]:
        """(delay l, order k) of every basis column, k varying fastest."""
        return [(int(l), k) for l in self.window.delays() for k in range(self.k_orders)]


@dataclass(frozen=True)
class BasisMatrix:
    """Regression matrix: one row per sample, columns ordered as column_labels."""

    data: np.ndarray
    spec: MpmSpec

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 2 or data.shape[1] != self.spec.n_columns:
            raise ValueError("basis data shape does not match its spec")
        object.__setattr__(self, "data", data)

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])


def rectified_amplitude(delayed: np.ndarray, amp_offset: float) -> np.ndarray:
    """max(0, |tap| + b); the clamp can engage only for b < 0."""
    return np.maximum(np.abs(delayed) + amp_offset, 0.0)


def build_basis(x, spec: MpmSpec) -> BasisMatrix:
    """Evaluate the basis at every sample.

    Tap values outside the sequence are zero-filled, matching window_at.  A
    FramedSequence's held tap matrix is reused.
    """
    delayed = delayed_matrix(x, spec.window)
    rect = rectified_amplitude(delayed, spec.amp_offset)
    rect_sq = rect * rect
    k_orders = spec.k_orders
    data = np.empty((delayed.shape[0], spec.n_columns), dtype=np.complex128)
    power = np.ones_like(rect)
    for k in range(k_orders):
        if k:
            power = power * rect_sq
        data[:, k::k_orders] = delayed * power
    return BasisMatrix(data=data, spec=spec)


def _dependent_columns(basis: BasisMatrix) -> list[str]:
    """Diagnose which columns are linearly dependent, via pivoted QR."""
    _, r, piv = scipy.linalg.qr(basis.data, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = (diag.max() * max(basis.data.shape) * np.finfo(float).eps) if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    labels = basis.spec.column_labels()
    return sorted(f"(l={labels[c][0]}, k={labels[c][1]})" for c in piv[rank:])


def ls_fit(basis: BasisMatrix, targets, ridge: float | None = None) -> "MpmCoefficients":
    """Least-squares coefficient fit, solved by orthogonal factorization.

    ridge=None applies the default ridge of RIDGE_DEFAULT_REL times the mean
    diagonal of the normal matrix; an explicit ridge of 0 demands full column
    rank and raises ConditioningError naming the dependent columns otherwise.
    """
    phi = as_samples(targets)
    data = basis.data
    rows, cols = data.shape
    if phi.size != rows:
        raise ValueError(f"target length {phi.size} does not match {rows} basis rows")
    if rows < cols:
        raise ValueError(f"need at least {cols} rows to fit {cols} columns, have {rows}")
    if ridge is None:
        ridge = RIDGE_DEFAULT_REL * float(np.mean(np.sum(np.abs(data) ** 2, axis=0)))
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if ridge > 0:
        aug = np.vstack([data, np.sqrt(ridge) * np.eye(cols, dtype=np.complex128)])
        rhs = np.concatenate([phi, np.zeros(cols, dtype=np.complex128)])
        coeff, _, _, _ = np.linalg.lstsq(aug, rhs, rcond=None)
    else:
        coeff, _, rank, _ = np.linalg.lstsq(data, phi, rcond=None)
        if rank < cols:
            raise ConditioningError(
                f"singular least-squares system (rank {rank} < {cols} columns) with ridge 0; "
                f"dependent columns: {', '.join(_dependent_columns(basis))}")
    t_taps = basis.spec.window.n_taps
    return MpmCoefficients(spec=basis.spec, coeff=coeff.reshape(t_taps, basis.spec.k_orders))


@dataclass(frozen=True)
class MpmCoefficients(modelfile.ParamModel):
    """Fitted coefficients, shaped (taps, orders) to mirror the basis layout."""

    spec: MpmSpec
    coeff: np.ndarray

    PARAMS = modelfile.ParamTable(MODEL_KIND, sizes=("k_orders",), params=(
        modelfile.Param("coeff", "coeff", lambda d: (d["n_taps"], d["k_orders"]),
                        is_complex=True, tap_axis=0),
    ))

    @property
    def window(self) -> TapWindow:
        return self.spec.window

    @property
    def k_orders(self) -> int:
        return self.spec.k_orders

    def predict(self, x) -> ComplexSequence:
        seq = x if isinstance(x, ComplexSequence) else ComplexSequence(as_samples(x))
        basis = build_basis(seq, self.spec)
        return ComplexSequence(basis.data @ self.coeff.reshape(-1),
                               sample_rate_hint=seq.sample_rate_hint)

    def save(self, path) -> None:
        self.PARAMS.save(self, path, amp_offset=float(self.spec.amp_offset))

    @classmethod
    def from_parsed(cls, path, parsed) -> "MpmCoefficients":
        """The model in the file at `path`, already parsed by read_model."""
        window, sizes, scalars, arrays = cls.PARAMS.load(path, parsed)
        spec = MpmSpec(window=window, k_orders=sizes["k_orders"],
                       amp_offset=modelfile.header_float(scalars, "amp_offset", path))
        return cls(spec=spec, **arrays)
