"""Memory-polynomial basis construction, least-squares fitting, prediction.

The basis generalizes the classical memory polynomial by a real amplitude
offset b: column (l, k) evaluates x[n-l] * max(0, |x[n-l]| + b)^(2k).  With
b = 0 the rectifier is the identity on the nonnegative amplitude and the basis
reduces to the classical x[n-l] * |x[n-l]|^(2k), computed through the very same
floating-point expressions.  The powers rect^(2k) come from signal.even_powers,
the one even-power chain of the PA, the MPM basis and the agmpnn experts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import lapack_lite

from . import modelfile
from .exceptions import ConditioningError
from .rules import check, check_all
from .signal import TapWindow, as_samples, delayed_matrix, even_powers
from .training import FitOutcome, best_fit, segment_pairs, validation_nmse_db

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


def rectified_amplitude(delayed: np.ndarray, amp_offset) -> np.ndarray:
    """max(0, |tap| + b), b an offset or an array of them; the clamp engages only for b < 0."""
    return np.maximum(np.abs(delayed) + amp_offset, 0.0)


def build_basis(x, spec: MpmSpec) -> BasisMatrix:
    """Evaluate the basis at every sample.

    Tap values outside the sequence are zero-filled, matching window_at.
    """
    return BasisMatrix(data=basis_rows(delayed_matrix(x, spec.window), spec), spec=spec)


def basis_rows(delayed: np.ndarray, spec: MpmSpec) -> np.ndarray:
    """The basis rows of the rows of an (N, T) tap matrix, as an (N, T·K)
    array; each row depends only on its own tap row."""
    data = np.empty((delayed.shape[0], spec.n_columns), dtype=np.complex128)
    _write_basis(delayed, spec, lambda k: data[:, k::spec.k_orders])
    return data


def _write_basis(delayed: np.ndarray, spec: MpmSpec, columns) -> None:
    """Write order k's basis columns of an (N, T) tap matrix, the taps times
    rect^(2k), into the (N, T) view columns(k), for k = 0 … K-1.  Order 0's are
    the taps themselves, as the product by an exact 1 would be."""
    np.copyto(columns(0), delayed)
    rect = rectified_amplitude(delayed, spec.amp_offset)
    for k, power in enumerate(even_powers(rect, spec.k_orders - 1), start=1):
        np.multiply(delayed, power, out=columns(k))


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
    straight into the factor by basis_rows's writer, _write_basis, so only
    one segment's temporaries are alive at a time and every column is bit for
    bit basis_rows's.

    R and Qᴴ·targets are in order-major column layout: order k's T taps are
    the block [k·T, (k+1)·T).  Each order block is orthogonalized against the
    blocks before it by classical Gram–Schmidt applied twice, then its
    remainder is factored where it lies by qr_in_place (LAPACK's zgeqrf and
    zungqr, bit for bit np.linalg.qr).  A block's operations depend only
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
            _write_basis(delayed, spec, lambda k: q[rows:end, k * t_taps:(k + 1) * t_taps])
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


def qr_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite the (m, n) matrix `a`, m ≥ n, with the Q of its reduced QR
    factorization and return its (n, n) R, bit for bit np.linalg.qr(a).

    `a` must be writeable, complex128 and F-contiguous.  LAPACK's zgeqrf runs
    on `a`'s own memory, R is read off the upper triangle, and zungqr then
    forms Q there.  Both are called through NumPy's own LAPACK binding,
    numpy.linalg.lapack_lite, which links the LAPACK np.linalg.qr runs.
    """
    m, n = a.shape
    if (a.dtype != np.complex128 or not a.flags.f_contiguous or not a.flags.writeable
            or m < n):
        raise ValueError("qr_in_place needs a writeable, F-contiguous complex128 "
                         f"matrix with at least as many rows as columns, got {a.shape}")
    # lapack_lite takes C-contiguous arrays; a.T is a's memory as one, which
    # LAPACK reads as the F-contiguous (m, n) matrix, column by column.
    a_t, tau, lda = a.T, np.empty(n, dtype=np.complex128), max(1, m)
    _lapack_with_workspace(lapack_lite.zgeqrf, n, m, n, a_t, lda, tau)
    r = np.triu(a[:n])
    _lapack_with_workspace(lapack_lite.zungqr, n, m, n, n, a_t, lda, tau)
    return r


def _lapack_with_workspace(routine, n: int, *args) -> None:
    """Call a lapack_lite routine whose last arguments are WORK, LWORK and INFO.

    As np.linalg.qr does, the workspace size is asked for first (LWORK = -1)
    and the call then gets max(1, n, that size) elements.
    """
    query = np.zeros(1, dtype=np.complex128)
    info = routine(*args, query, -1, 0)["info"]
    if info == 0:
        work = np.empty(max(1, n, int(query[0].real)), dtype=np.complex128)
        info = routine(*args, work, work.size, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned INFO = {info}")


@dataclass(frozen=True)
class MpmCoefficients(modelfile.ParamModel):
    """Fitted coefficients, shaped (taps, orders) to mirror the basis layout."""

    spec: MpmSpec
    coeff: np.ndarray

    PARAMS = modelfile.ParamTable("mpm", sizes=("k_orders",), scalars=("amp_offset",), params=(
        modelfile.Param("coeff", "coeff", lambda d: (d["n_taps"], d["k_orders"]),
                        is_complex=True, tap_axis=0),
    ))

    @property
    def window(self) -> TapWindow:
        return self.spec.window

    @property
    def k_orders(self) -> int:
        return self.spec.k_orders

    @property
    def amp_offset(self) -> float:
        return self.spec.amp_offset

    def output_rows(self, rows: np.ndarray) -> np.ndarray:
        """basis · coeff on the rows of a tap matrix.  Each output row is the
        gemv's product of its own basis row, the same in any block of rows."""
        return basis_rows(rows, self.spec) @ self.coeff.reshape(-1)

    # ParamModel's, bound here for perfbench/tracer.py: no N × T·K basis is
    # held, and the row blocks move no output bit.
    predict = modelfile.ParamModel.predict

    @classmethod
    def fit_options(cls, spec) -> tuple:
        return ("ridge",)

    @classmethod
    def fit(cls, psi, phi, spec, cfg, seed: int = 0) -> FitOutcome:
        """best_fit's pick of fit_orders at spec.k_orders or over spec.search_grid."""
        orders = (spec.k_orders,) if spec.search_grid is None else spec.search_grid
        if not orders:
            raise ValueError("the mpm search grid holds no order count")
        return FitOutcome(*best_fit(cls.fit_orders(psi, phi, spec.window, orders,
                                                   cfg.segment_len, spec.ridge)))

    @staticmethod
    def fit_orders(psi, phi, window: TapWindow, orders, segment_len: int, ridge=None) -> list:
        """ls_fit at each order count in `orders` on the scored rows of the
        training segments (training.segment_pairs), each with its validation
        NMSE on those of the validation segments.  order_blocked_qr builds the
        basis at the largest order from each segment's tap rows into its
        factor once.  Order K's system is its leading T·K block in (l, k)
        column order, bit for bit a fit at order K alone; with ridge 0 it is
        held to the rank rule of the tall basis, so the search refuses what
        ls_fit refuses."""
        scored, val_scored = segment_pairs(psi, phi, window, segment_len)
        top = MpmSpec(window=window, k_orders=max(orders))
        target = np.concatenate([rows_phi for _, rows_phi in scored])
        r, qh_target = order_blocked_qr([rows for rows, _ in scored], top, target)
        fits = []
        for k in orders:
            cols = window.n_taps * k
            tap_major = np.arange(cols).reshape(k, window.n_taps).T.reshape(-1)
            system = BasisMatrix(data=r[:cols, tap_major], spec=MpmSpec(window=window, k_orders=k))
            if ridge == 0:
                _require_full_rank(system, target.size)
            fits.append(ls_fit(system, qh_target[:cols], ridge=ridge))
        return [(coeffs, validation_nmse_db(coeffs, val_scored)) for coeffs in fits]

    @classmethod
    def tap_sweep_spec(cls, base, budget, *, mpm_k_grid, **_):
        """A search over mpm_k_grid's orders within the budget's top; None if none is."""
        grid = tuple(k for k in mpm_k_grid if replace(base, k_orders=k).n_params() <= budget[1])
        return replace(base, search_grid=grid, budget=budget) if grid else None

    @classmethod
    def complexity_specs(cls, base, *, mpm_k_grid, **_) -> list:
        return [replace(base, k_orders=k) for k in sorted(mpm_k_grid)]

    @classmethod
    def from_parsed(cls, path, parsed) -> "MpmCoefficients":
        """The model in the file at `path`, already parsed by read_model."""
        window, fields, arrays = cls.PARAMS.load(path, parsed)
        return cls(spec=MpmSpec(window=window, **fields), **arrays)
