"""Thin SVD with a deterministic sign convention, score-based ordering of
left singular vectors, and rank-r projector construction.

The ordering sorts an orthonormal column set by the squared products
``(u_j @ y)**2`` in descending order; every downstream quantity (scores,
projectors, reduced-rank estimates) is invariant to the signs of the
columns, and the sign convention exists only to make raw factors
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import check_integer, finite_array, finite_vector
from .model import _value_type

ORTHO_TOL = 1e-10


@_value_type("U", "S", "V")
class SvdFactorization:
    """Thin SVD ``M = U @ diag(S) @ V.T`` with U (N, k), S (k,), V (k, k)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


@_value_type("columns", "scores", ints=("permutation",))
class OrderedBasis:
    """Orthonormal columns sorted by descending score against a fixed y.

    ``scores[j] = (columns[:, j] @ y)**2`` is nonincreasing and
    ``columns[:, j]`` equals the original column ``permutation[j]``
    (0-based) exactly, signs included.
    """

    columns: np.ndarray
    scores: np.ndarray
    permutation: np.ndarray

    @property
    def k(self) -> int:
        return self.columns.shape[1]


def svd(M) -> SvdFactorization:
    """Thin SVD with the largest-magnitude entry of each left singular
    vector forced nonnegative (bit-reproducible output; all consumers are
    sign-invariant).

    Requires a tall-or-square finite matrix (N >= k).
    """
    M = finite_array(M, "M", 2)
    N, k = M.shape
    if N < k:
        raise ValueError(f"expected N >= k, got shape {M.shape}")
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    V = Vt.T
    anchor = np.argmax(np.abs(U), axis=0)
    flip = np.where(U[anchor, np.arange(k)] < 0.0, -1.0, 1.0)
    return SvdFactorization(U=U * flip, S=S, V=V * flip)


def order_by_scores(U, y) -> OrderedBasis:
    """Sort orthonormal columns of U by descending squared product with y.

    Ties are broken by ascending original column index (stable sort).
    Raises ``ValueError`` unless U is a finite matrix whose columns are
    orthonormal to ``ORTHO_TOL`` and y holds one finite entry per row.
    """
    U = finite_array(U, "U", 2)
    y = finite_vector(y, "y", U.shape[0])
    gram_err = np.max(np.abs(U.T @ U - np.eye(U.shape[1])), initial=0.0)
    if not gram_err <= ORTHO_TOL:  # an overflowed (NaN) entry fails too
        raise ValueError(f"columns of U are not orthonormal (max Gram deviation {gram_err:.3e})")
    proj = U.T @ y
    scores = proj * proj
    perm = np.argsort(-scores, kind="stable")
    return OrderedBasis(columns=U[:, perm], scores=scores[perm], permutation=perm)


def check_rank(basis: OrderedBasis, r: int) -> None:
    """Raise ``ValueError`` unless ``r`` is an integer (numpy integers
    included, bools not) with ``1 <= r <= basis.k``."""
    if check_integer(r, "rank r", 1) > basis.k:
        raise ValueError(f"rank r={r} out of range 1..{basis.k}")


def projector(basis: OrderedBasis, r: int) -> np.ndarray:
    """Rank-r orthogonal projector onto the span of the first r ordered
    columns (symmetric, idempotent, trace r)."""
    check_rank(basis, r)
    Ur = basis.columns[:, :r]
    return Ur @ Ur.T
