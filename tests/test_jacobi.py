"""Jacobi eigensolver against the LAPACK oracle and its own invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import ContractViolationError, NonConvergenceError, eigh_jacobi, jacobi
from descentlab.jacobi import off_diagonal_norm


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12])
def test_eigenvalues_match_lapack(n):
    for seed in range(5):
        a = random_symmetric(n, 1000 * n + seed)
        w, _ = eigh_jacobi(a)
        w_ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(w, w_ref, atol=1e-10 * max(1.0, np.abs(w_ref).max()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12])
def test_reconstruction_and_orthonormality(n):
    for seed in range(5):
        a = random_symmetric(n, 2000 * n + seed)
        w, v = eigh_jacobi(a)
        scale = max(1.0, float(np.abs(w).max()))
        assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-10 * scale
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12


def test_eigenvalues_ascend():
    a = random_symmetric(9, 42)
    w, _ = eigh_jacobi(a)
    assert np.all(np.diff(w) >= 0.0)


def test_sign_convention_largest_component_positive():
    for seed in range(10):
        _, v = eigh_jacobi(random_symmetric(6, seed))
        for i in range(6):
            lead = np.argmax(np.abs(v[:, i]))
            assert v[lead, i] > 0.0


def test_diagonal_input_is_exact():
    w, v = eigh_jacobi(np.diag([3.0, -1.0, 2.0]))
    np.testing.assert_allclose(w, [-1.0, 2.0, 3.0])
    np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_an_exact_zero_off_diagonal_entry_is_skipped():
    # a[0, 1] is exactly 0 when the first sweep reaches it, where a
    # rotation would divide by zero
    a = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0], [1.0, 1.0, 4.0]])
    w, v = eigh_jacobi(a)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-12)
    assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-12
    rotated = v.T @ a @ v
    assert np.max(np.abs(rotated - np.diag(np.diag(rotated)))) <= 1e-12


def test_two_by_two_by_hand():
    # eigenvalues of [[2, 1], [1, 2]] are 1 and 3 with (1, -1), (1, 1) axes
    w, v = eigh_jacobi(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(v), [[s, s], [s, s]], atol=1e-14)


def test_one_by_one_passthrough():
    w, v = eigh_jacobi(np.array([[-7.5]]))
    assert w[0] == -7.5
    assert v[0, 0] == 1.0
    w, v = eigh_jacobi(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)


def test_repeated_eigenvalues():
    # identity block plus a distinct eigenvalue
    a = np.diag([2.0, 2.0, 5.0])
    w, v = eigh_jacobi(a)
    np.testing.assert_allclose(w, [2.0, 2.0, 5.0])
    assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-12


def test_off_diagonal_norm():
    a = np.array([[1.0, 3.0], [3.0, 2.0]])
    assert off_diagonal_norm(a) == pytest.approx(np.sqrt(18.0))
    assert off_diagonal_norm(np.diag([4.0, 5.0])) == 0.0
    assert off_diagonal_norm([[1, 2], [2, 1]]) == pytest.approx(np.sqrt(8.0))


def test_slightly_asymmetric_input_is_symmetrized():
    a = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
    w, _ = eigh_jacobi(a)
    w_ref = np.linalg.eigvalsh(0.5 * (a + a.T))
    np.testing.assert_allclose(w, w_ref, atol=1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(ContractViolationError):
        eigh_jacobi(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    with pytest.raises(ContractViolationError):
        eigh_jacobi(np.array([[1.0, 5.0], [-5.0, 1.0]]))
    with pytest.raises(ContractViolationError):
        eigh_jacobi(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ContractViolationError):
        eigh_jacobi(np.array([1.0, 2.0]))
    with pytest.raises(ContractViolationError, match="a must be numbers"):
        eigh_jacobi([[True, False], [False, True]])


def test_max_sweeps_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(jacobi, "JACOBI_TOL", 1e-30)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    a = random_symmetric(8, 3)
    with pytest.raises(NonConvergenceError):
        eigh_jacobi(a)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_jacobi_agrees_with_lapack_under_scaling(n, seed, scale):
    a = scale * random_symmetric(n, seed)
    w, v = eigh_jacobi(a)
    np.testing.assert_allclose(
        w, np.linalg.eigvalsh(a), atol=1e-10 * max(1.0, scale * n)
    )
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12


def test_a_budget_of_no_sweeps_decomposes_a_diagonal_matrix(monkeypatch):
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    w, v = eigh_jacobi(np.diag([2.0, 1.0]))
    assert w.tolist() == [1.0, 2.0]
    assert v.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert eigh_jacobi([[3.0]])[0].tolist() == [3.0]
    with pytest.raises(NonConvergenceError):
        eigh_jacobi([[2.0, 1.0], [1.0, 3.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, eigenvalues", [
    ([[1e308, 0.0], [0.0, 1.0]], [1.0, 1e308]),
    ([[1.0, 1e308], [1e308, 1.0]], [-1e308, 1e308]),
    ([[-1.7e308, 0.0], [0.0, 3.0]], [-1.7e308, 3.0]),
])
def test_a_matrix_near_the_float_maximum_decomposes_without_a_warning(a, eigenvalues):
    w, v = eigh_jacobi(a)
    np.testing.assert_allclose(w, eigenvalues, rtol=1e-15)
    assert np.max(np.abs(v.T @ v - np.eye(2))) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_a_matrix_whose_eigenvalues_overflow_is_refused():
    with pytest.raises(ContractViolationError, match="a must have eigenvalues within the float"):
        eigh_jacobi([[1e308, 1e308], [1e308, 1e308]])


@pytest.mark.filterwarnings("error")
def test_a_zero_tolerance_rotates_without_an_overflow_warning(monkeypatch):
    monkeypatch.setattr(jacobi, "JACOBI_TOL", 0.0)
    off_norm, norms = jacobi._off_norm, []
    monkeypatch.setattr(jacobi, "_off_norm", lambda a: norms.append(off_norm(a)) or norms[-1])
    # the second draw: its rotations reach an entry so small against the
    # diagonal gap that tau * tau overflows
    rng = np.random.default_rng(0)
    rng.standard_normal((3, 3))
    a = rng.standard_normal((3, 3))
    a = a + a.T
    w, v = eigh_jacobi(a)
    assert norms[-1] == 0.0  # swept until the off-diagonal vanished
    w_ref, v_ref = np.linalg.eigh(a)
    np.testing.assert_allclose(w, w_ref, atol=1e-12 * np.abs(w_ref).max())
    np.testing.assert_allclose(np.abs(v.T @ v_ref), np.eye(3), atol=1e-10)
