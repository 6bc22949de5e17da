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

from . import modelfile
from ._blas import qr_in_place
from .exceptions import ConditioningError
from .rules import check, check_all
from .signal import ComplexSequence, TapWindow, as_samples, delayed_matrix, predict_rows

# Default ridge, relative to the mean diagonal of the normal matrix.
RIDGE_DEFAULT_REL = 1e-10


@dataclass(frozen=True)
class MpmSpec:
    """Shape of a memory-polynomial model: tap window, order count, offset."""

    window: TapWindow
    k_orders: int
    amp_offset: float = 0.0

    def __post_init__(self) -> None:
        check_all(k_orders=self.k_orders, amp_offset=self.amp_offset)
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


def rectified_amplitude(delayed: np.ndarray, amp_offset: float) -> np.ndarray:
    """max(0, |tap| + b); the clamp can engage only for b < 0."""
    return np.maximum(np.abs(delayed) + amp_offset, 0.0)


def build_basis(x, spec: MpmSpec) -> BasisMatrix:
    """Evaluate the basis at every sample.

    Tap values outside the sequence are zero-filled, matching window_at.  A
    FramedSequence's held tap matrix is reused.
    """
    return BasisMatrix(data=basis_rows(delayed_matrix(x, spec.window), spec), spec=spec)


def basis_rows(delayed: np.ndarray, spec: MpmSpec) -> np.ndarray:
    """The basis rows of the rows of an (N, T) tap matrix, as an (N, T·K)
    array; each row depends only on its own tap row."""
    data = np.empty((delayed.shape[0], spec.n_columns), dtype=np.complex128)
    for k, power in enumerate(_order_powers(delayed, spec)):
        data[:, k::spec.k_orders] = delayed * power
    return data


def _order_powers(delayed: np.ndarray, spec: MpmSpec):
    """rect^(2k) of a tap matrix's rectified amplitudes for k = 0 … K-1, in
    turn: order k's basis columns are the taps times the k-th."""
    rect = rectified_amplitude(delayed, spec.amp_offset)
    rect_sq = rect * rect
    power = np.ones_like(rect)
    for k in range(spec.k_orders):
        if k:
            power = power * rect_sq
        yield power


def _dependent_columns(basis: BasisMatrix, rows: int) -> list[str]:
    """Name the linearly dependent columns by greedy pivoted Gram–Schmidt.

    Each step takes the column of largest remaining norm and projects it out
    of the columns left (Businger & Golub, Numer. Math. 1965).  The search
    stops once that norm is at most max(rows, cols)·eps times the largest
    column norm, `rows` being those of the system the basis stands for; the
    columns left then are the dependent ones.
    """
    rest, left = basis.data, np.arange(basis.data.shape[1])
    norms = np.linalg.norm(rest, axis=0)
    tol = norms.max() * max(rows, rest.shape[1]) * np.finfo(float).eps
    while left.size:
        best = int(np.argmax(norms))
        if norms[best] <= tol:
            break
        q = rest[:, best] / norms[best]
        rest, left = np.delete(rest, best, axis=1), np.delete(left, best)
        rest -= np.outer(q, q.conj() @ rest)
        norms = np.linalg.norm(rest, axis=0)
    labels = basis.spec.column_labels()
    return sorted(f"(l={labels[c][0]}, k={labels[c][1]})" for c in left)


def _require_full_rank(basis: BasisMatrix, rows: int) -> None:
    """Rank rule of an exact (ridge 0) fit, NumPy lstsq's cutoff on a system of
    `rows` rows: singular values at most max(rows, cols)·eps times the largest
    count as zero, and any such raises ConditioningError naming the dependent
    columns.  A triangular factor has its tall basis's singular values and
    column norms, so with that basis's row count it refuses alike.
    """
    cols = basis.data.shape[1]
    singular = np.linalg.svd(basis.data, compute_uv=False)
    rank = int(np.count_nonzero(singular > singular[0] * max(rows, cols) * np.finfo(float).eps))
    if rank < cols:
        raise ConditioningError(
            f"singular least-squares system (rank {rank} < {cols} columns) with ridge 0; "
            f"dependent columns: {', '.join(_dependent_columns(basis, rows))}")


def _check_system(rows: int, cols: int, n_targets: int) -> None:
    """Reject a least-squares system whose targets or rows do not fit its columns."""
    if n_targets != rows:
        raise ValueError(f"target length {n_targets} does not match {rows} basis rows")
    if rows < cols:
        raise ValueError(f"need at least {cols} rows to fit {cols} columns, have {rows}")


def ls_fit(basis: BasisMatrix, targets, ridge: float | None = None) -> "MpmCoefficients":
    """Least-squares coefficient fit, solved by orthogonal factorization.

    ridge=None applies the default ridge of RIDGE_DEFAULT_REL times the mean
    diagonal of the normal matrix; an explicit ridge of 0 demands full column
    rank and raises ConditioningError naming the dependent columns otherwise.
    An explicit ridge that is negative or not finite raises ValueError.
    """
    phi = as_samples(targets)
    data = basis.data
    rows, cols = data.shape
    _check_system(rows, cols, phi.size)
    if ridge is None:
        ridge = RIDGE_DEFAULT_REL * float(np.mean(np.sum(np.abs(data) ** 2, axis=0)))
    else:
        check("ridge", ridge)
    if ridge > 0:
        aug = np.vstack([data, np.sqrt(ridge) * np.eye(cols, dtype=np.complex128)])
        rhs = np.concatenate([phi, np.zeros(cols, dtype=np.complex128)])
        coeff, _, _, _ = np.linalg.lstsq(aug, rhs, rcond=None)
    else:
        _require_full_rank(basis, rows)
        coeff, _, _, _ = np.linalg.lstsq(data, phi, rcond=None)
    t_taps = basis.spec.window.n_taps
    return MpmCoefficients(spec=basis.spec, coeff=coeff.reshape(t_taps, basis.spec.k_orders))


def order_blocked_qr(taps, spec: MpmSpec, targets) -> tuple[np.ndarray, np.ndarray]:
    """Factor basis = Q·R one order block at a time; returns R and Qᴴ·targets.

    `taps` are (rows, T) tap matrices, one per training segment, whose rows,
    stacked, pair with `targets`.  The basis of `spec` is built from them
    straight into the factor, by basis_rows's power chain, so only one
    segment's temporaries are alive at a time and every column is bit for
    bit basis_rows's.

    R and Qᴴ·targets are in order-major column layout: order k's T taps are
    the block [k·T, (k+1)·T).  Each order block is orthogonalized against the
    blocks before it by classical Gram–Schmidt applied twice, then its
    remainder is factored where it lies by _blas.qr_in_place (LAPACK's zgeqrf
    and zungqr, bit for bit np.linalg.qr).  A block's operations depend only
    on the blocks before it, so R[:p, :p] and (Qᴴ·targets)[:p], p = T·K, are
    bit for bit the factor of the order-K basis alone, whatever the basis's
    top order.  R's columns have the basis columns' norms, to rounding, so
    ls_fit on them applies the same default ridge.
    """
    phi = as_samples(targets)
    t_taps, cols = spec.window.n_taps, spec.n_columns
    # Column-major, so every block and every prefix of blocks is a contiguous
    # matrix with the same leading dimension at any top order.
    q = np.empty((phi.size, cols), dtype=np.complex128, order="F")
    rows = 0
    for delayed in taps:
        end = rows + delayed.shape[0]
        # Rows past the targets are only counted, for _check_system's message.
        if end <= phi.size:
            for k, power in enumerate(_order_powers(delayed, spec)):
                np.multiply(delayed, power, out=q[rows:end, k * t_taps:(k + 1) * t_taps])
        rows = end
    _check_system(rows, cols, phi.size)
    r = np.zeros((cols, cols), dtype=np.complex128)
    qh_phi = np.empty(cols, dtype=np.complex128)
    for start in range(0, cols, t_taps):
        block = slice(start, start + t_taps)
        done = q[:, :start]
        rest = q[:, block]
        # The second pass removes what rounding left of the first.
        for _ in range(2 if start else 0):
            proj = (rest.conj().T @ done).conj().T
            rest -= done @ proj
            r[:start, block] += proj
        r[block, block] = qr_in_place(rest)
        qh_phi[block] = rest.conj().T @ phi
    return r, qh_phi


def fit_orders(pairs, window: TapWindow, orders,
               ridge: float | None = None) -> list["MpmCoefficients"]:
    """ls_fit at each order count in `orders`, on the interiors
    (TapWindow.interior) of the (input, target) segment pairs.

    The basis is built once, at the largest order: order_blocked_qr takes each
    segment's interior tap rows (TapWindow.scored_rows, a FramedSequence's
    held matrix uncopied) and builds it into its factor.  Order K's system is
    the factor's leading T·K block, its columns put back in (l, k) order: bit
    for bit the system of a fit at order K alone.  With ridge 0 that block is
    held to the rank rule of the tall basis it stands for, so the search
    refuses what ls_fit refuses.
    """
    top = MpmSpec(window=window, k_orders=max(orders))
    scored = [window.scored_rows(psi, phi) for psi, phi in pairs]
    target = np.concatenate([phi for _, phi in scored])
    r, qh_target = order_blocked_qr([rows for rows, _ in scored], top, target)
    fits = []
    for k in orders:
        cols = window.n_taps * k
        tap_major = np.arange(cols).reshape(k, window.n_taps).T.reshape(-1)
        system = BasisMatrix(data=r[:cols, tap_major], spec=MpmSpec(window=window, k_orders=k))
        if ridge == 0:
            _require_full_rank(system, target.size)
        fits.append(ls_fit(system, qh_target[:cols], ridge=ridge))
    return fits


@dataclass(frozen=True)
class MpmCoefficients(modelfile.ParamModel):
    """Fitted coefficients, shaped (taps, orders) to mirror the basis layout."""

    spec: MpmSpec
    coeff: np.ndarray

    PARAMS = modelfile.ParamTable("mpm", sizes=("k_orders",), params=(
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
        """basis · coeff, by predict_rows: the basis is built one block of rows
        at a time, so no N × T·K basis is held.  Each output row is the gemv's
        product of its own basis row, the same in a block as in the whole
        basis, so the blocking changes no output bit."""
        coeff = self.coeff.reshape(-1)
        return predict_rows(x, self.window, lambda rows: basis_rows(rows, self.spec) @ coeff)

    def save(self, path) -> None:
        self.PARAMS.save(self, path, amp_offset=float(self.spec.amp_offset))

    @classmethod
    def from_parsed(cls, path, parsed) -> "MpmCoefficients":
        """The model in the file at `path`, already parsed by read_model."""
        window, sizes, scalars, arrays = cls.PARAMS.load(path, parsed)
        spec = MpmSpec(window=window, k_orders=sizes["k_orders"],
                       amp_offset=modelfile.header_value(scalars, "amp_offset", path))
        return cls(spec=spec, **arrays)
