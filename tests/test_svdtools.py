import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrtls import OrderedBasis, ls_reduced, order_by_scores, projector, svd


def random_orthonormal(n, k, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


def test_svd_identity():
    f = svd(np.eye(3))
    np.testing.assert_allclose(f.S, [1.0, 1.0, 1.0], rtol=0, atol=0)


def test_svd_diagonal_with_zero_row():
    M = np.vstack([np.diag([2.0, 1.0]), np.zeros((1, 2))])
    f = svd(M)
    np.testing.assert_allclose(f.S, [2.0, 1.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_svd_reconstruction(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((8, 3))
    f = svd(M)
    err = np.linalg.norm(f.reconstruct() - M) / np.linalg.norm(M)
    assert err <= 1e-9
    # factor invariants
    np.testing.assert_allclose(f.U.T @ f.U, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(f.V.T @ f.V, np.eye(3), atol=1e-10)
    assert np.all(np.diff(f.S) <= 0)
    assert np.all(f.S >= 0)


def test_svd_sign_convention_and_determinism():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((10, 4))
    f1 = svd(M)
    f2 = svd(M)
    assert np.array_equal(f1.U, f2.U)
    assert np.array_equal(f1.V, f2.V)
    anchors = np.argmax(np.abs(f1.U), axis=0)
    assert np.all(f1.U[anchors, np.arange(4)] >= 0)


def test_svd_input_errors():
    with pytest.raises(ValueError, match="finite"):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="N >= k"):
        svd(np.ones((2, 3)))
    with pytest.raises(ValueError):
        svd(np.ones(3))


def test_order_aligned_observation():
    U = random_orthonormal(7, 3, seed=2)
    y = U[:, 0].copy()
    basis = order_by_scores(U, y)
    np.testing.assert_allclose(basis.scores, [1.0, 0.0, 0.0], atol=1e-20)
    assert basis.permutation[0] == 0


def test_order_orthogonal_observation_tie_break():
    U = np.eye(6)[:, :3]
    y = np.zeros(6)
    y[4] = 1.0  # orthogonal to every column
    basis = order_by_scores(U, y)
    assert np.array_equal(basis.scores, np.zeros(3))
    assert np.array_equal(basis.permutation, [0, 1, 2])


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_order_matches_direct_recomputation(seed):
    rng = np.random.default_rng(seed)
    U = random_orthonormal(9, 4, seed=seed + 100)
    y = rng.standard_normal(9)
    basis = order_by_scores(U, y)
    # independent recomputation with plain python (summation order differs
    # from the BLAS matvec, so compare at float resolution, not bitwise)
    raw = sorted(((float(U[:, j] @ y) ** 2, j) for j in range(4)), key=lambda t: -t[0])
    np.testing.assert_allclose(basis.scores, [r[0] for r in raw], rtol=1e-13)
    assert np.array_equal(basis.permutation, [r[1] for r in raw])
    for j in range(4):
        assert np.array_equal(basis.columns[:, j], U[:, basis.permutation[j]])
    assert np.all(np.diff(basis.scores) <= 0)


def test_order_rejects_bad_inputs():
    U = random_orthonormal(6, 2, seed=0)
    with pytest.raises(ValueError, match="mismatch"):
        order_by_scores(U, np.ones(5))
    with pytest.raises(ValueError, match="orthonormal"):
        order_by_scores(np.ones((6, 2)), np.ones(6))


def test_projector_full_rank():
    U = random_orthonormal(8, 3, seed=3)
    basis = order_by_scores(U, np.arange(8.0))
    P = projector(basis, 3)
    np.testing.assert_allclose(P, U @ U.T, atol=1e-12)
    assert abs(np.trace(P) - 3.0) <= 1e-10


def test_projector_single_coordinate():
    U = np.eye(5)[:, :2]
    y = np.array([2.0, 1.0, 0.0, 0.0, 0.0])
    basis = order_by_scores(U, y)
    P = projector(basis, 1)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(P, expected, atol=1e-20)


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_projector_expansion_oracle(seed):
    rng = np.random.default_rng(seed)
    U = random_orthonormal(10, 4, seed=seed + 50)
    y = rng.standard_normal(10)
    basis = order_by_scores(U, y)
    for r in range(1, 5):
        P = projector(basis, r)
        # independent expansion sum
        expected = np.zeros(10)
        for j in range(r):
            u = basis.columns[:, j]
            expected += (u @ y) * u
        assert np.linalg.norm(P @ y - expected) <= 1e-12
        # symmetry, idempotence, trace
        assert np.linalg.norm(P - P.T) <= 1e-12
        assert np.linalg.norm(P @ P - P) <= 1e-10
        assert abs(np.trace(P) - r) <= 1e-10


def test_projector_range_errors():
    U = random_orthonormal(6, 2, seed=1)
    basis = order_by_scores(U, np.ones(6))
    with pytest.raises(ValueError):
        projector(basis, 0)
    with pytest.raises(ValueError):
        projector(basis, 3)


def test_parseval_on_column_span():
    rng = np.random.default_rng(21)
    U = random_orthonormal(12, 5, seed=22)
    y = rng.standard_normal(12)
    basis = order_by_scores(U, y)
    proj = U @ (U.T @ y)
    assert abs(np.sum(basis.scores) - proj @ proj) <= 1e-10


@pytest.mark.parametrize("seed", [30, 31, 32, 33])
def test_sign_invariance(seed):
    rng = np.random.default_rng(seed)
    U = random_orthonormal(9, 4, seed=seed + 7)
    y = rng.standard_normal(9)
    flips = rng.choice([-1.0, 1.0], size=4)
    basis = order_by_scores(U, y)
    flipped = order_by_scores(U * flips, y)
    # scores, selection order and projectors are bit-identical under sign flips
    assert np.array_equal(basis.scores, flipped.scores)
    assert np.array_equal(basis.permutation, flipped.permutation)
    for r in (1, 2, 3, 4):
        assert np.array_equal(projector(basis, r), projector(flipped, r))
        assert np.array_equal(ls_reduced(basis, y, r), ls_reduced(flipped, y, r))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_ordering_is_invariant_under_column_signs(seed, data):
    rng = np.random.default_rng(seed)
    N = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(1, N))
    U = random_orthonormal(N, k, seed=seed)
    y = rng.standard_normal(N)
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k)))
    basis = order_by_scores(U, y)
    flipped = order_by_scores(U * signs, y)
    assert np.array_equal(flipped.scores, basis.scores)
    assert np.array_equal(flipped.permutation, basis.permutation)
    # the ordered columns carry their signs
    assert np.array_equal(flipped.columns, basis.columns * signs[basis.permutation])


def test_ordered_basis_is_immutable():
    U = random_orthonormal(6, 2, seed=40)
    basis = order_by_scores(U, np.ones(6))
    assert isinstance(basis, OrderedBasis)
    with pytest.raises(ValueError):
        basis.columns[0, 0] = 5.0
