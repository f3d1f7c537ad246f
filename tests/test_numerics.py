import warnings

import numpy as np
import pytest
from scipy.linalg import matrix_balance

from nisys import NumericsError
from nisys import numerics as nx
from conftest import generalized_eigenvalues


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(NumericsError):
        nx.as_matrix([[1.0, np.nan]], name="A")
    with pytest.raises(NumericsError):
        nx.as_matrix([[np.inf]], name="A")


def test_as_matrix_square_check():
    with pytest.raises(NumericsError):
        nx.as_matrix(np.ones((2, 3)), square=True, name="A")


def test_eig_symmetric_sorted_and_vectors():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    w = nx.eig_symmetric(S)
    assert np.allclose(w, [1.0, 3.0])
    w2, V = nx.eig_symmetric(S, vectors=True)
    assert np.allclose(V @ np.diag(w2) @ V.T, S)


def test_eig_symmetric_rejects_asymmetric():
    with pytest.raises(NumericsError):
        nx.eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_solve_rejects_ill_conditioned():
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(NumericsError):
        nx.solve(A, np.eye(2))


def test_solve_matches_numpy():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    B = rng.standard_normal((4, 2))
    assert np.allclose(nx.solve(A, B), np.linalg.solve(A, B))


def test_balance_is_similarity():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 5)) * np.geomspace(1, 1e6, 5)[:, None]
    Ab, T = nx.balance(A)
    assert np.allclose(T @ Ab @ np.linalg.inv(T), A)
    # permute=False keeps T diagonal so congruence transforms stay cheap
    assert np.allclose(T, np.diag(np.diag(T)))
    assert np.allclose(np.sort(np.linalg.eigvals(Ab).real),
                       np.sort(np.linalg.eigvals(A).real))


def test_balance_is_lapack_gebal():
    # bit for bit scipy's matrix_balance(permute=False), LAPACK's gebal with
    # job 'S': on matrices whose row and column scales span 1e-6 to 1e6,
    # some with a zero row, a zero column or sparse entries, and on entries
    # near the ends of the double range, where the norms are summed at a
    # power-of-2 scale and gebal's bounds keep every entry and scale factor
    # finite; balance raises no RuntimeWarning there (scipy's own cast does)
    rng = np.random.default_rng(17)
    cases = [np.zeros((0, 0)), np.array([[3.0]]), np.zeros((1, 1)), np.zeros((3, 3))]
    for k in range(300):
        n = int(rng.integers(1, 13))
        A = (rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
             * 10.0 ** rng.uniform(-6, 6, n))
        if k % 5 == 0:
            A[rng.integers(n)] = 0.0
        if k % 7 == 0:
            A[:, rng.integers(n)] = 0.0
        if k % 3 == 0:
            A[rng.random((n, n)) < 0.4] = 0.0
        cases.append(A)
    for scale in (1e300, 1e-300, 1e308, 5e-324):
        cases += [rng.uniform(0.5, 1.0, (4, 4)) * np.choose(
            rng.integers(0, 3, (4, 4)), [1.0, scale, min(1.0 / scale, 1.0)]) for _ in range(20)]
    for A in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Ab, T = nx.balance(A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = matrix_balance(A, permute=False)
        assert Ab.tobytes() == ref[0].tobytes() and T.tobytes() == ref[1].tobytes()
        assert np.isfinite(Ab).all() and np.isfinite(T).all()


def test_generalized_eigenvalues_drops_infinite():
    M1 = np.diag([1.0, 2.0, 3.0])
    M2 = np.diag([1.0, 1.0, 0.0])
    fin = generalized_eigenvalues(M1, M2)
    assert len(fin) == 2
    assert np.allclose(np.sort(fin.real), [1.0, 2.0])
    # det(M1 - s M2) = 0 for every s: a singular pencil has no eigenvalues
    with pytest.raises(NumericsError):
        generalized_eigenvalues(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))

