"""Total-least-squares estimation and the hypothesized reduced-rank variant.

The TLS solution minimizes ``|H_tilde @ theta - y|^2 / (theta @ theta + 1)``
and is computed from the SVD of the augmented matrix ``A = [H_tilde, y]``:
the direction of the smallest singular value is discarded, the retained
columns ``U_s`` define the corrected system matrix and the signal estimate,
and the parameter estimate solves the (consistent) corrected system.

The rank-q machinery mirrors the least-squares case but its selection
objective depends on the squared norm of the unknown parameter; the
objective is evaluated either with the oracle value (harness use) or with a
norm bound supplied by the caller.  A certificate helper maps a grid of
parameter norms to their selected ranks, exposing instances where the
chosen rank changes with the norm, i.e. where no norm-independent rank
rule exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSolutionError, NonUniqueTlsError
from .ls import _check_rule_inputs, ls_reduced, risk_objective, tail_sums
from .model import MeasurementModel, _frozen_array
from .svdtools import OrderedBasis, SvdFactorization, svd

# Relative thresholds of the TLS rejection checks (``_rejection_codes``).
GAP_RTOL = 1e-10
DEGENERACY_RTOL = 1e-12
# Factor by which the bound on the core's smallest singular value must clear
# the degeneracy threshold to decide a problem without the core's own SVD.
DEGENERACY_SCREEN = 1e3

Q_MODES = ("oracle", "bound")


@dataclass(frozen=True)
class TlsEstimate:
    """TLS estimate with the corrected system matrix and the SVD it came
    from.  ``singular_gap`` is the difference between the two smallest
    singular values of the augmented matrix; positivity (relative to the
    largest) guarantees uniqueness."""

    theta_hat: np.ndarray
    x_hat: np.ndarray
    n_hat: np.ndarray
    H_corrected: np.ndarray
    augmented_svd: SvdFactorization
    singular_gap: float

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", _frozen_array(self.theta_hat))
        object.__setattr__(self, "x_hat", _frozen_array(self.x_hat))
        object.__setattr__(self, "n_hat", _frozen_array(self.n_hat))
        object.__setattr__(self, "H_corrected", _frozen_array(self.H_corrected))

    @property
    def retained_columns(self) -> np.ndarray:
        """The p retained left singular vectors of the augmented matrix."""
        return self.augmented_svd.U[:, :-1]

    @property
    def discarded_column(self) -> np.ndarray:
        """The left singular vector of the smallest singular value."""
        return self.augmented_svd.U[:, -1]


@dataclass(frozen=True)
class QObjective:
    """Per-rank objective values for the reduced TLS hypothesis.

    ``values[i]`` holds rank q = i + 1; ``scores`` is the length-(p+1)
    vector of squared products used by the objective (the p ordered scores
    over the retained columns followed by the always-discarded score of
    the smallest-singular-value direction); ``mode`` records whether the
    parameter norm was the oracle value or an upper bound.
    """

    values: np.ndarray
    q_star: int
    mode: str
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        object.__setattr__(self, "scores", _frozen_array(self.scores))


@dataclass(frozen=True)
class NormDependenceCertificate:
    """Map from parameter-norm values to selected ranks, with a constancy
    flag and, when the map is not constant, the first witnessing pair."""

    theta_norm2_grid: np.ndarray
    q_stars: np.ndarray
    is_constant: bool
    witness: Optional[Tuple[float, float, int, int]]

    def __post_init__(self):
        object.__setattr__(self, "theta_norm2_grid", _frozen_array(self.theta_norm2_grid))
        object.__setattr__(self, "q_stars", _frozen_array(self.q_stars, dtype=int))


def _rejection_codes(S, v, core) -> np.ndarray:
    """Error code of each TLS problem, ``""`` when it has a unique,
    nondegenerate solution, elementwise over stacked problems.

    ``S`` (..., p + 1) are the singular values of the augmented matrix
    ``A = [H_tilde, y]``, ``v`` (...) the last component of its discarded
    right singular vector (any sign) and ``core`` (..., p, p) the core
    ``U_s' H_tilde``.  The solution is unique when ``sigma_p > sigma_{p+1}``
    (judged relative to the largest singular value, ``GAP_RTOL``) and yields
    a parameter estimate when the core is nonsingular: its smallest singular
    value exceeds ``DEGENERACY_RTOL`` times the larger of its largest and 1
    (Golub & Van Loan, SIAM J. Numer. Anal. 17, 1980).  A problem failing
    both is nonunique.

    The core's singular values come from the SVD of ``A`` where they can:
    ``U_s' A = diag(S_1..S_p) V_s'``, so the core is ``diag(S_1..S_p)``
    times the leading p-by-p block of an orthogonal matrix, whose singular
    values are 1 (p - 1 times) and ``|v|`` (CS decomposition).  Hence
    ``sigma_min(core) >= S_p |v|`` and ``sigma_max(core) <= S_1``.  A core
    whose bound ``S_p |v|`` exceeds ``DEGENERACY_SCREEN`` times the
    threshold ``DEGENERACY_RTOL * max(S_1, 1)`` is nonsingular; only the
    others are decided by the SVD of the core itself, so every code equals
    that of the exact rule.
    """
    p = S.shape[-1] - 1
    nonunique = S[..., p - 1] - S[..., p] <= GAP_RTOL * S[..., 0]
    undecided = (S[..., p - 1] * np.abs(v)
                 <= DEGENERACY_SCREEN * DEGENERACY_RTOL * np.maximum(S[..., 0], 1.0))
    degenerate = np.zeros(undecided.shape, dtype=bool)
    if undecided.any():
        svals = np.linalg.svd(core[undecided], compute_uv=False)
        degenerate[undecided] = svals[:, -1] <= DEGENERACY_RTOL * np.maximum(svals[:, 0], 1.0)
    return np.where(nonunique, NonUniqueTlsError.code,
                    np.where(degenerate, DegenerateSolutionError.code, ""))


def tls_solve(H_tilde, y) -> TlsEstimate:
    """Solve the TLS problem from the SVD of the augmented matrix.

    With ``[U_s, u_s]`` the left singular vectors of ``[H_tilde, y]``
    (``u_s`` for the smallest singular value), the estimates are
    ``x_hat = U_s U_s' y``, ``n_hat = y - x_hat``,
    ``H_corrected = U_s U_s' H_tilde`` and ``theta_hat`` the solution of
    the consistent system ``H_corrected @ theta = x_hat`` (solved as the
    square p-by-p system ``(U_s' H_tilde) theta = U_s' y``, algebraically
    equal to the normal-equations form built on U_s).

    Raises
    ------
    NonUniqueTlsError
        If the two smallest singular values are too close
        (gap <= ``GAP_RTOL`` (1e-10) times the largest), so the discarded
        direction is ill-defined.
    DegenerateSolutionError
        If the corrected system matrix is numerically rank deficient: its
        smallest singular value is at or below ``DEGENERACY_RTOL`` (1e-12)
        times the larger of its largest and 1 (the classical pathology of
        a vanishing last component in the smallest right singular vector).
        The check reads the bound ``sigma_p |V[p, p]|`` on that singular
        value from the augmented SVD and computes the core's own singular
        values only when the bound does not clear the threshold by
        ``DEGENERACY_SCREEN``; the message gives the exact value.
    """
    H_tilde = np.asarray(H_tilde, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if H_tilde.ndim != 2 or H_tilde.shape[0] != y.shape[0]:
        raise ValueError(
            f"dimension mismatch: H_tilde {H_tilde.shape}, y length {y.shape[0]}"
        )
    N, p = H_tilde.shape
    if N < p + 1:
        raise ValueError(f"need N >= p + 1 rows, got N={N}, p={p}")
    f = svd(np.hstack([H_tilde, y[:, None]]))
    gap = float(f.S[p - 1] - f.S[p])
    Us = f.U[:, :p]
    core = Us.T @ H_tilde
    code = _rejection_codes(f.S, f.V[p, p], core)
    if code == NonUniqueTlsError.code:
        raise NonUniqueTlsError(
            f"no strictly smallest singular value: gap {gap:.6e} <= "
            f"{GAP_RTOL:g} * {f.S[0]:.6e}"
        )
    if code == DegenerateSolutionError.code:
        raise DegenerateSolutionError(
            f"corrected system matrix is rank deficient: smallest singular "
            f"value {np.linalg.svd(core, compute_uv=False)[-1]:.6e}"
        )
    coeffs = Us.T @ y
    theta_hat = np.linalg.solve(core, coeffs)
    x_hat = Us @ coeffs
    return TlsEstimate(
        theta_hat=theta_hat,
        x_hat=x_hat,
        n_hat=y - x_hat,
        H_corrected=Us @ core,
        augmented_svd=f,
        singular_gap=gap,
    )


def tls_factor_stack(A):
    """Factor and check a stack of TLS problems at once.

    ``A`` (b, N, p + 1) stacks the augmented matrices ``[H_tilde, y]``.
    Returns ``(U, core, codes)``: the thin left singular vectors of each
    matrix (b, N, p + 1), retained columns first and the discarded one
    last, with no sign convention (every consumer is sign invariant); the
    cores ``U_s' H_tilde`` (b, p, p); and per row the code of the error
    :func:`tls_solve` raises on that problem, ``""`` for a solved row.
    Both share :func:`_rejection_codes`: one SVD per problem, plus the SVD of
    the core only for the rows whose right singular vectors leave its
    degeneracy undecided.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] < A.shape[2]:
        raise ValueError(f"expected a (b, N, p + 1) stack with N >= p + 1, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    p = A.shape[2] - 1
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    core = np.swapaxes(U[..., :p], 1, 2) @ A[..., :p]
    codes = _rejection_codes(S, Vt[:, p, p], core)
    return U, core, codes


def tls_objective(theta, H_tilde, y) -> float:
    """Normalized residual ``|H_tilde @ theta - y|^2 / (theta @ theta + 1)``,
    the quantity the TLS solution minimizes."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    H_tilde = np.asarray(H_tilde, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    r = H_tilde @ theta - y
    return float(r @ r) / (float(theta @ theta) + 1.0)


# The rank-q TLS signal estimate projects y onto the first q ordered
# retained columns: the same projection as the rank-r LS estimate.
tls_reduced = ls_reduced


def mse_theoretical_tls_full(model: MeasurementModel, estimate: TlsEstimate) -> float:
    """Conditional mean squared error descriptor of the full TLS signal
    estimate: squared corrected-matrix mismatch plus the compound noise
    term ``sigma2 * (1 + theta'theta) * p``.

    Treats the realized corrected matrix as fixed; agreement with the
    Monte Carlo mean squared error is therefore only approximate (the
    harness reports both).
    """
    return float(_tls_full_mse(model, estimate.H_corrected @ model.theta))


def _tls_full_mse(model: MeasurementModel, corrected_signal) -> np.ndarray:
    # mse_theoretical_tls_full along the last axis of H_corrected @ theta.
    d = corrected_signal - model.x
    return np.sum(d * d, axis=-1) + model.sigma2 * (1.0 + model.theta_norm2) * model.p


def augmented_scores(basis: OrderedBasis, u_s, y) -> np.ndarray:
    """Length-(p+1) score vector for the q objective: the p ordered scores
    over the retained columns, then the score of the discarded direction
    appended last (it sits in every tail sum, shifting all objective values
    equally without affecting the argmin)."""
    u_s = np.asarray(u_s, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    return np.append(basis.scores, float(u_s @ y) ** 2)


def q_objective(scores, sigma2: float, p: int, theta_norm2: float, mode: str) -> QObjective:
    """Rank objective for the reduced TLS hypothesis.

    values[q] = (sum_{j>q} scores[j] + sigma2*(1+t)*(2q + p)) / (1 + t)
    for q in 1..p, with t the squared parameter norm (oracle value) or its
    upper bound, per ``mode``.  The argmin resolves ties toward the
    smallest rank.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.shape[0] != p + 1:
        raise ValueError(f"expected p + 1 = {p + 1} scores, got {scores.shape[0]}")
    _check_rule_inputs(scores, sigma2, theta_norm2)
    if np.any(np.diff(scores[:p]) > 0):
        raise ValueError("the first p scores must be nonincreasing")
    if mode not in Q_MODES:
        raise ValueError(f"mode must be one of {Q_MODES}, got {mode!r}")
    values = _q_values(scores, sigma2, p, float(theta_norm2))
    q_star = int(np.argmin(values)) + 1
    return QObjective(values=values, q_star=q_star, mode=mode, scores=scores)


def q_objective_bias_recipe(scores, sigma2: float, p: int, theta_norm2: float) -> np.ndarray:
    """Alternative per-rank objective obtained by rerunning the
    least-squares bias-correction recipe on the p + 1 augmented columns
    with the compound noise variance:

    values[q] = sum_{j>q} scores[j] + sigma2*(1+t)*(2q - (p+1)),

    the first p values of ``ls.risk_objective(scores, sigma2 * (1 + t))``.
    The primary rule (:func:`q_objective`) uses a different correction
    term, but with ``s = sigma2 (1 + t)`` both objectives are increasing
    affine maps of ``sum_{j>q} scores[j] + 2 s q``, so they select the
    same rank up to floating-point ties; the grid report of
    ``harness.compare_selection_rules`` still shows both selections.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.shape[0] != p + 1:
        raise ValueError(f"expected p + 1 = {p + 1} scores, got {scores.shape[0]}")
    _check_rule_inputs(scores, sigma2, theta_norm2)
    return risk_objective(scores, sigma2 * (1.0 + float(theta_norm2)))[:p]


def _q_values(scores, sigma2: float, p: int, t):
    """The primary rank objective along the last axis of augmented scores
    (..., p + 1); the parameter norm t broadcasts against the leading axes,
    so a (G, 1, 1) grid of norms over (b, p + 1) scores gives (G, b, p).
    The bias recipe is ``risk_objective(scores, sigma2 * (1 + t))[..., :p]``,
    which broadcasts the same way and has the same argmin."""
    q = np.arange(1, p + 1)
    return (tail_sums(scores)[..., :p] + sigma2 * (1.0 + t) * (2 * q + p)) / (1.0 + t)


def norm_dependence_certificate(theta_norm2_grid: Sequence[float], scores, sigma2: float, p: int) -> NormDependenceCertificate:
    """Evaluate the selected rank across a grid of parameter norms.

    Returns the map t -> q_star(t), whether it is constant over the grid,
    and the first pair of grid values with different selections (the
    machine-checkable witness that the selection depends on the unknown
    parameter norm).
    """
    grid = np.asarray(list(theta_norm2_grid), dtype=float).reshape(-1)
    if grid.shape[0] == 0:
        raise ValueError("theta_norm2_grid must be non-empty")
    q_stars = np.array(
        [q_objective(scores, sigma2, p, t, "oracle").q_star for t in grid], dtype=int
    )
    witness = None
    for i in range(1, q_stars.shape[0]):
        if q_stars[i] != q_stars[0]:
            witness = (float(grid[0]), float(grid[i]), int(q_stars[0]), int(q_stars[i]))
            break
    return NormDependenceCertificate(
        theta_norm2_grid=grid,
        q_stars=q_stars,
        is_constant=witness is None,
        witness=witness,
    )
