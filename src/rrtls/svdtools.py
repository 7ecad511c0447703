"""Thin SVD with a deterministic sign convention, score-based ordering of
left singular vectors, and rank-r projector construction.

The ordering sorts an orthonormal column set by the squared products
``(u_j @ y)**2`` in descending order; every downstream quantity (scores,
projectors, reduced-rank estimates) is invariant to the signs of the
columns, and the sign convention exists only to make raw factors
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _frozen_array

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``M = U @ diag(S) @ V.T`` with U (N, k), S (k,), V (k, k)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", _frozen_array(self.U))
        object.__setattr__(self, "S", _frozen_array(self.S))
        object.__setattr__(self, "V", _frozen_array(self.V))

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


@dataclass(frozen=True)
class OrderedBasis:
    """Orthonormal columns sorted by descending score against a fixed y.

    ``scores[j] = (columns[:, j] @ y)**2`` is nonincreasing and
    ``columns[:, j]`` equals the original column ``permutation[j]``
    (0-based) exactly, signs included.
    """

    columns: np.ndarray
    scores: np.ndarray
    permutation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", _frozen_array(self.columns))
        object.__setattr__(self, "scores", _frozen_array(self.scores))
        object.__setattr__(self, "permutation", _frozen_array(self.permutation, dtype=int))

    @property
    def k(self) -> int:
        return self.columns.shape[1]


def svd(M) -> SvdFactorization:
    """Thin SVD with the largest-magnitude entry of each left singular
    vector forced nonnegative (bit-reproducible output; all consumers are
    sign-invariant).

    Requires a tall-or-square finite matrix (N >= k).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    N, k = M.shape
    if N < k:
        raise ValueError(f"expected N >= k, got shape {M.shape}")
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    V = Vt.T
    anchor = np.argmax(np.abs(U), axis=0)
    flip = np.where(U[anchor, np.arange(k)] < 0.0, -1.0, 1.0)
    return SvdFactorization(U=U * flip, S=S, V=V * flip)


def check_orthonormal(U) -> None:
    """Raise ``ValueError`` unless the columns of U, or of every matrix of
    a (b, N, k) stack, are orthonormal to ``ORTHO_TOL``."""
    gram = np.swapaxes(U, -1, -2) @ U
    gram_err = np.max(np.abs(gram - np.eye(U.shape[-1])), initial=0.0)
    if gram_err > ORTHO_TOL:
        raise ValueError(
            f"columns of U are not orthonormal (max Gram deviation {gram_err:.3e})"
        )


def order_by_scores(U, y) -> OrderedBasis:
    """Sort orthonormal columns of U by descending squared product with y.

    Ties are broken by ascending original column index (stable sort).
    """
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if U.ndim != 2 or U.shape[0] != y.shape[0]:
        raise ValueError(
            f"dimension mismatch: U is {U.shape}, y has length {y.shape[0]}"
        )
    check_orthonormal(U)
    proj = U.T @ y
    scores = proj * proj
    perm = np.argsort(-scores, kind="stable")
    return OrderedBasis(columns=U[:, perm], scores=scores[perm], permutation=perm)


def projector(basis: OrderedBasis, r: int) -> np.ndarray:
    """Rank-r orthogonal projector onto the span of the first r ordered
    columns (symmetric, idempotent, trace r)."""
    if not 1 <= r <= basis.k:
        raise ValueError(f"rank r={r} out of range 1..{basis.k}")
    Ur = basis.columns[:, :r]
    return Ur @ Ur.T
