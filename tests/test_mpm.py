"""Memory-polynomial basis construction and least-squares fitting."""

import numpy as np
import pytest

from dpdlab import (
    ComplexSequence,
    ConditioningError,
    FormatError,
    MpmCoefficients,
    MpmSpec,
    TapWindow,
    build_basis,
    generate_waveform,
    ls_fit,
    nmse_db,
    pa_forward,
    preset,
)
from dpdlab import _blas
from dpdlab.mpm import BasisMatrix, _dependent_columns, order_blocked_qr, rectified_amplitude
from dpdlab.signal import PREDICT_BLOCK_ROWS, FramedSequence, delayed_matrix

import reference_impls as ref


def _spec(pre=3, post=0, k=3, b=0.0):
    return MpmSpec(window=TapWindow(pre_taps=pre, post_taps=post), k_orders=k, amp_offset=b)


# === spec / shapes ===

def test_spec_columns_and_labels():
    spec = _spec(pre=2, post=1, k=2)
    assert spec.n_columns == 8
    assert spec.column_labels() == [(-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_spec_validation():
    with pytest.raises(ValueError):
        MpmSpec(window=TapWindow(pre_taps=1), k_orders=0)
    with pytest.raises(ValueError):
        MpmSpec(window=TapWindow(pre_taps=1), k_orders=2, amp_offset=np.nan)


# === basis values ===

def test_basis_single_sample_examples():
    # one tap, |x| = 0.5: columns are x * (|x| + b)^{2k}
    x = np.array([0.5 + 0.0j])
    row = build_basis(x, _spec(pre=0, k=2, b=0.0)).data[0]
    assert np.allclose(row, [0.5, 0.125])
    row = build_basis(x, _spec(pre=0, k=2, b=-0.3)).data[0]
    assert np.allclose(row, [0.5, 0.5 * 0.2 ** 2])
    assert abs(row[1] - 0.02) < 1e-15


def test_basis_offset_clamps_at_zero():
    x = np.array([0.1 + 0.0j])
    row = build_basis(x, _spec(pre=0, k=3, b=-0.5)).data[0]
    assert np.allclose(row, [0.1, 0.0, 0.0])


def test_linear_columns_ignore_offset():
    x = generate_waveform(0, 128, 0.5)
    for b in (0.0, -0.2, 0.4):
        data = build_basis(x, _spec(pre=2, k=3, b=b)).data
        assert np.array_equal(data[:, 0::3], build_basis(x, _spec(pre=2, k=3, b=0.0)).data[:, 0::3])


def test_rectified_amplitude():
    taps = np.array([[0.5 + 0.0j, 0.3j]])
    assert np.allclose(rectified_amplitude(taps, -0.4), [[0.1, 0.0]])
    assert np.allclose(rectified_amplitude(taps, 0.2), [[0.7, 0.5]])


def test_basis_matches_reference_rows():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for pre, post, k, b in ((3, 0, 3, 0.0), (2, 1, 2, -0.25), (0, 0, 4, 0.15)):
        spec = _spec(pre=pre, post=post, k=k, b=b)
        data = build_basis(x, spec).data
        for n in range(40):
            taps = ref.tap_values(x, n, pre, post)
            expected = np.array(ref.mpm_basis_row(taps, k, b))
            assert np.max(np.abs(data[n] - expected)) < 1e-12


def test_lower_order_basis_is_each_tap_blocks_column_prefix():
    # Columns are (l, k) with k fastest and every power comes from the same
    # repeated multiply, so the order-K basis is the first K columns of each
    # tap block of a larger-order basis, bit for bit.
    x = generate_waveform(4, 300, 0.5)
    k_max = 6
    for pre, post, b in ((3, 0, 0.0), (2, 2, -0.4)):
        top = build_basis(x, _spec(pre=pre, post=post, k=k_max, b=b)).data
        blocks = top.reshape(top.shape[0], pre + post + 1, k_max)
        for k in range(1, k_max + 1):
            basis = build_basis(x, _spec(pre=pre, post=post, k=k, b=b)).data
            assert np.array_equal(basis, blocks[:, :, :k].reshape(top.shape[0], -1))


# === least squares ===

def test_ls_fit_recovers_planted_coefficients():
    rng = np.random.default_rng(3)
    x = generate_waveform(3, 4096, 0.25)
    spec = _spec(pre=2, k=3)
    truth = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 0.3
    target = MpmCoefficients(spec=spec, coeff=truth).predict(x)
    fitted = ls_fit(build_basis(x, spec), target, ridge=0.0)
    assert np.max(np.abs(fitted.coeff - truth)) < 1e-8


def test_ls_fit_scalar_projection():
    # One column: the fit is the classic projection <x, y> / <x, x>.
    x = generate_waveform(4, 512, 0.5)
    y = 2.5j * x.samples + 0.01
    fitted = ls_fit(build_basis(x, _spec(pre=0, k=1)), y, ridge=0.0)
    expected = np.vdot(x.samples, y) / np.vdot(x.samples, x.samples)
    assert abs(fitted.coeff[0, 0] - expected) < 1e-12


def test_ls_fit_matches_pinv_oracle():
    x = generate_waveform(5, 2048, 0.25)
    spec = _spec(pre=3, k=4)
    y = np.tanh(np.abs(x.samples)) * x.samples
    basis = build_basis(x, spec)
    fitted = ls_fit(basis, y, ridge=0.0)
    oracle = ref.lstsq_pinv(basis.data, y)
    assert np.max(np.abs(fitted.coeff.reshape(-1) - oracle)) < 1e-9


def test_ls_fit_is_optimal():
    # Perturbing the solution in any probed direction cannot reduce the residual.
    rng = np.random.default_rng(6)
    x = generate_waveform(6, 1024, 0.25)
    y = x.samples * (1.0 - 0.2 * np.abs(x.samples) ** 2)
    basis = build_basis(x, _spec(pre=1, k=2))
    fitted = ls_fit(basis, y, ridge=0.0)
    base = np.sum(np.abs(basis.data @ fitted.coeff.reshape(-1) - y) ** 2)
    for _ in range(20):
        delta = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 1e-3
        perturbed = np.sum(np.abs(basis.data @ (fitted.coeff.reshape(-1) + delta) - y) ** 2)
        assert perturbed >= base - 1e-12


def test_capacity_ladder_monotone_without_ridge():
    # Nested model classes: on identical data, a superset basis cannot fit worse.
    chi = generate_waveform(7, 8192, 0.25)
    y = chi.samples * (1.0 - (0.15 - 0.1j) * np.abs(chi.samples) ** 2
                       - 0.05 * np.abs(chi.samples) ** 4)
    y = y + 0.05 * np.roll(y, 1)
    prev = np.inf
    for pre, k in ((0, 1), (1, 2), (3, 4), (7, 8)):
        basis = build_basis(chi, _spec(pre=pre, k=k))
        fitted = ls_fit(basis, y, ridge=0.0)
        residual = nmse_db(fitted.predict(chi), y)
        assert residual <= prev + 1e-9
        prev = residual


def test_ls_fit_shape_errors():
    x = generate_waveform(8, 64, 0.5)
    basis = build_basis(x, _spec())
    with pytest.raises(ValueError):
        ls_fit(basis, np.ones(32))
    tall = build_basis(x.samples[:10], _spec(pre=5, k=4))
    with pytest.raises(ValueError):
        ls_fit(tall, np.ones(10))  # 10 rows < 24 columns
    with pytest.raises(ValueError):
        ls_fit(basis, x.samples, ridge=-1.0)


@pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
def test_ls_fit_rejects_a_negative_or_non_finite_ridge(ridge):
    # NaN fails both `< 0` and `> 0`, so unchecked it acts as ridge 0; inf
    # would reach LAPACK.
    x = generate_waveform(8, 64, 0.5)
    with pytest.raises(ValueError, match=f"^ridge must be finite, got {ridge}$"):
        ls_fit(build_basis(x, _spec()), x.samples, ridge=ridge)


def test_singular_system_names_dependent_columns():
    # A constant-amplitude input makes every order of a tap proportional to
    # the linear column, so an exact fit must refuse and say which columns.
    x = np.exp(1j * np.linspace(0.0, 8.0, 200))
    basis = build_basis(x, _spec(pre=0, k=3))
    with pytest.raises(ConditioningError) as err:
        ls_fit(basis, x, ridge=0.0)
    message = str(err.value)
    assert "(l=0, k=1)" in message and "(l=0, k=2)" in message


def _planted_basis(rng):
    # A random basis in which some columns are combinations of others (or zero).
    spec = _spec(pre=int(rng.integers(0, 5)), k=int(rng.integers(1, 5)))
    cols = spec.n_columns
    rows = int(rng.integers(cols, 3 * cols + 40))
    data = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    data *= 10.0 ** rng.uniform(-2.0, 2.0, cols)
    for j in rng.choice(cols, int(rng.integers(0, cols)), replace=False):
        others = rng.choice(np.delete(np.arange(cols), j), int(rng.integers(0, 4)))
        coef = rng.standard_normal(others.size) + 1j * rng.standard_normal(others.size)
        data[:, j] = data[:, others] @ coef
    return BasisMatrix(data=data, spec=spec)


def _column_indices(basis, names):
    labels = [f"(l={l}, k={k})" for l, k in basis.spec.column_labels()]
    return [labels.index(name) for name in names]


def test_dependent_columns_leave_a_full_rank_basis():
    rng = np.random.default_rng(17)
    for _ in range(200):
        basis = _planted_basis(rng)
        dependent = _column_indices(basis, _dependent_columns(basis, basis.data.shape[0]))
        rank = np.linalg.matrix_rank(basis.data)
        assert len(dependent) == basis.spec.n_columns - rank
        kept = np.delete(basis.data, dependent, axis=1)
        assert np.linalg.matrix_rank(kept) == kept.shape[1] == rank


def test_dependent_columns_match_scipy_pivoted_qr():
    # SciPy is a test-only oracle: column-pivoted Householder QR with the
    # cutoff max(rows, cols)·eps·|R[0, 0]| names the same columns.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(23)
    for _ in range(200):
        basis = _planted_basis(rng)
        _, r, piv = scipy_linalg.qr(basis.data, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > diag.max() * max(basis.data.shape) * np.finfo(float).eps))
        dependent = _column_indices(basis, _dependent_columns(basis, basis.data.shape[0]))
        assert sorted(dependent) == sorted(piv[rank:].tolist())


def test_order_blocked_qr_factors_the_stacked_segment_blocks():
    # R is the order-major basis's triangular factor: RᴴR = BᴴB, and
    # (Qᴴ·targets) solves the same least-squares problem.
    spec = _spec(pre=2, k=3)
    x = generate_waveform(4, 256, 0.25)
    data = build_basis(x, spec).data
    taps = delayed_matrix(x, spec.window)
    blocks = [taps[:100], taps[100:180], taps[180:]]
    r, qh_phi = order_blocked_qr(iter(blocks), spec, x.samples)
    order_major = np.concatenate([data[:, k::3] for k in range(3)], axis=1)
    assert np.array_equal(r, np.triu(r))
    scale = np.max(np.abs(order_major.conj().T @ order_major))
    np.testing.assert_allclose(r.conj().T @ r, order_major.conj().T @ order_major,
                               rtol=0.0, atol=1e-12 * scale)
    lstsq, *_ = np.linalg.lstsq(order_major, x.samples, rcond=None)
    np.testing.assert_allclose(np.linalg.solve(r, qh_phi), lstsq, rtol=1e-9, atol=1e-12)


def test_order_blocked_qr_checks_rows_against_targets_and_columns():
    spec = _spec(pre=2, k=2)
    taps = delayed_matrix(generate_waveform(4, 64, 0.25), spec.window)
    for n_targets in (29, 31):
        with pytest.raises(ValueError,
                           match=rf"^target length {n_targets} does not match 30 basis rows$"):
            order_blocked_qr(iter([taps[:20], taps[20:30]]), spec, np.ones(n_targets))
    with pytest.raises(ValueError, match=r"^need at least 6 rows to fit 6 columns, have 5$"):
        order_blocked_qr(iter([taps[:5]]), spec, np.ones(5))


@pytest.mark.parametrize("direct", [True, False], ids=["lapack", "np-linalg-qr"])
@pytest.mark.parametrize("window, amp_offset", [
    (TapWindow(pre_taps=0), 0.0),
    (TapWindow(pre_taps=3), 0.0),
    (TapWindow(pre_taps=6), -0.3),
    (TapWindow(pre_taps=9), 0.0),
    (TapWindow(pre_taps=12), 0.0),
    (TapWindow(pre_taps=4, post_taps=2), 0.0),
    # Wider than LAPACK's 32-column block.
    (TapWindow(pre_taps=39), 0.0),
])
def test_order_blocked_qr_equals_the_copying_factor_bit_for_bit(
        monkeypatch, direct, window, amp_offset):
    # The in-place factor of fit_orders's uneven training segments equals the
    # one that gathered build_basis blocks and ran np.linalg.qr, on LAPACK's
    # routines and on the np.linalg.qr fallback alike.
    if not direct:
        monkeypatch.setattr(_blas, "lapack_qr", lambda: None)
    spec = MpmSpec(window=window, k_orders=8, amp_offset=amp_offset)
    chi = generate_waveform(17, 2000, 0.4).samples
    psi = pa_forward(preset("high"), chi).samples
    pairs = [(FramedSequence(psi[a:b], window=window), ComplexSequence(chi[a:b]))
             for a, b in ((0, 700), (700, 1213), (1213, 2000))]
    scored = [window.scored_rows(x, phi) for x, phi in pairs]
    target = np.concatenate([phi for _, phi in scored])
    r, qh_phi = order_blocked_qr([rows for rows, _ in scored], spec, target)
    r_ref, qh_phi_ref = ref.order_blocked_qr(ref.order_blocked_basis_blocks(pairs, spec),
                                             spec, target)
    assert np.array_equal(r, r_ref)
    assert np.array_equal(qh_phi, qh_phi_ref)


def test_default_ridge_handles_singular_system():
    x = np.exp(1j * np.linspace(0.0, 8.0, 200))
    basis = build_basis(x, _spec(pre=0, k=3))
    fitted = ls_fit(basis, x)  # default ridge keeps this solvable
    assert nmse_db(fitted.predict(x), x) < -100.0


# === prediction ===

def test_predict_equals_basis_times_coeff():
    # predict builds the basis PREDICT_BLOCK_ROWS rows at a time, bit for bit
    # the whole basis's gemv; 1025 and 2049 samples end in a one-row tail,
    # which joins the block before it.
    for n in (256, PREDICT_BLOCK_ROWS + 1, 2 * PREDICT_BLOCK_ROWS + 1, 16390):
        x = generate_waveform(n, n, 0.25)
        for pre, post, k, b in ((2, 1, 3, -0.1), (3, 0, 4, 0.0), (9, 0, 8, 0.0), (12, 0, 1, 0.0)):
            rng = np.random.default_rng(pre * 10 + k)
            taps = pre + post + 1
            coeff = rng.standard_normal((taps, k)) + 1j * rng.standard_normal((taps, k))
            spec = _spec(pre=pre, post=post, k=k, b=b)
            direct = build_basis(x, spec).data @ coeff.reshape(-1)
            predicted = MpmCoefficients(spec=spec, coeff=coeff).predict(x).samples
            assert np.array_equal(predicted, direct), (n, pre, k, b)


def test_predict_matches_reference_loop():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    spec = _spec(pre=2, post=1, k=2, b=-0.2)
    coeff = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    model = MpmCoefficients(spec=spec, coeff=coeff)
    expected = ref.mpm_predict(x, coeff, pre_taps=2, post_taps=1, amp_offset=-0.2)
    assert np.max(np.abs(model.predict(x).samples - expected)) < 1e-12


def test_zero_offset_matches_plain_amplitude_basis():
    # b = 0 must reproduce the classical |x|^{2k} basis bit for bit.
    x = generate_waveform(11, 512, 0.25)
    data = build_basis(x, _spec(pre=3, k=4, b=0.0)).data
    from dpdlab.signal import delayed_matrix

    delayed = delayed_matrix(x, TapWindow(pre_taps=3))
    classic = np.empty_like(data)
    amp_sq = np.abs(delayed) ** 2
    power = np.ones_like(amp_sq)
    for k in range(4):
        if k:
            power = power * amp_sq
        classic[:, k::4] = delayed * power
    assert np.array_equal(data, classic)


def test_n_params_counts_real_dof():
    model = MpmCoefficients(spec=_spec(pre=6, k=3), coeff=np.zeros((7, 3), dtype=complex))
    assert model.n_params() == 42


# === persistence ===

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    spec = _spec(pre=2, post=1, k=3, b=-0.15)
    coeff = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    model = MpmCoefficients(spec=spec, coeff=coeff)
    path = tmp_path / "model.mpm"
    model.save(path)
    back = MpmCoefficients.load(path)
    assert back.spec == spec
    assert np.array_equal(back.coeff, coeff)
    x = generate_waveform(12, 128, 0.5)
    assert np.array_equal(back.predict(x).samples, model.predict(x).samples)


def test_load_rejects_wrong_kind(tmp_path):
    model = MpmCoefficients(spec=_spec(pre=0, k=1), coeff=np.ones((1, 1), dtype=complex))
    path = tmp_path / "model.mpm"
    model.save(path)
    text = path.read_text().replace("kind = mpm", "kind = other")
    path.write_text(text)
    with pytest.raises(FormatError):
        MpmCoefficients.load(path)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        MpmCoefficients(spec=_spec(pre=1, k=2), coeff=np.zeros((3, 2), dtype=complex))
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        MpmCoefficients(spec=_spec(pre=1, k=2), coeff=bad)
