"""Total-least-squares estimation and the hypothesized reduced-rank variant.

The TLS solution minimizes ``|H_tilde @ theta - y|^2 / (theta @ theta + 1)``
and is computed from the SVD of the augmented matrix ``A = [H_tilde, y]``:
the direction of the smallest singular value is discarded, the retained
columns ``U_s`` define the corrected system matrix and the signal estimate,
and the parameter estimate solves the (consistent) corrected system.
:func:`tls_solve` factors one problem that way.  The Monte Carlo engine's
:func:`tls_factor_stack` reads the same quantities, without ``U``, from the
(p + 1)-by-(p + 1) Gram matrix ``A'A`` of each stacked problem: through the
symmetric eigensolver up to order 25, which starts no BLAS thread there,
and through the SVD of the Gram matrix above it; problems the Gram matrix
cannot decide safely take the SVD of ``A``.

The rank-q machinery mirrors the least-squares case but its selection
objective depends on the squared norm of the unknown parameter; the
objective is evaluated either with the oracle value (harness use) or with a
norm bound supplied by the caller.  Both rules count scores above a
threshold (``ls._count_rank``): LS keeps a direction whose score clears
``2 sigma2``, TLS only one whose score clears ``2 sigma2 (1 + t)``, t the
unknown squared parameter norm.  A certificate helper maps a grid of
parameter norms to their selected ranks, exposing instances where the
chosen rank changes with the norm, i.e. where no norm-independent rank
rule exists.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSolutionError, NonUniqueTlsError, check_integer, finite_array, finite_vector
from .ls import _check_rule_inputs, _count_rank, _rank_threshold, ls_reduced, risk_objective, tail_sums
from .model import MeasurementModel, _value_type
from .svdtools import OrderedBasis, SvdFactorization, svd

# Relative thresholds of the TLS rejection checks (``_rejection_codes``).
GAP_RTOL = 1e-10
DEGENERACY_RTOL = 1e-12
# Factor by which the bound on the core's smallest singular value must clear
# the degeneracy threshold to decide a problem without the core's own SVD.
DEGENERACY_SCREEN = 1e3
# The Gram route of ``tls_factor_stack`` (``_gram_decided``): the smallest
# singular value must be at least GRAM_SCREEN times the largest, the
# largest within a factor GRAM_RANGE of 1, and the gap must clear its
# threshold by GAP_SCREEN.
GRAM_SCREEN = 1e-2
GRAM_RANGE = 1e100
GAP_SCREEN = 1e3
# Largest order p + 1 of a Gram matrix factored by the symmetric eigensolver
# (``np.linalg.eigh``, LAPACK dsyevd); larger ones take ``np.linalg.svd``.
# Up to 25 (dstedc's SMLSIZ) dsyevd hands the tridiagonal problem to the
# unblocked QL/QR dsteqr and starts no BLAS thread.  Above 25 it divides and
# conquers through dgemm, and above 32 dsytrd switches to blocked dsyr2k;
# OpenBLAS threads both, and threads started inside a lane oversubscribe
# the CPUs (measured: CPU/wall 2.0 at p + 1 = 26 and 33), while the SVD of
# a Gram matrix stays on one thread at every order.
EIGH_MAX_ORDER = 25

Q_MODES = ("oracle", "bound")


@_value_type("theta_hat", "x_hat", "n_hat", "H_corrected")
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

    @property
    def retained_columns(self) -> np.ndarray:
        """The p retained left singular vectors of the augmented matrix."""
        return self.augmented_svd.U[:, :-1]

    @property
    def discarded_column(self) -> np.ndarray:
        """The left singular vector of the smallest singular value."""
        return self.augmented_svd.U[:, -1]


@_value_type("values", "scores")
class QObjective:
    """Per-rank objective values for the reduced TLS hypothesis.

    ``values[i]`` holds rank q = i + 1 and ``q_star`` their exact smallest
    minimizer, a count (:func:`q_objective`); ``scores`` holds the p + 1
    squared products (the p ordered retained scores, then the score of the
    always-discarded smallest-singular-value direction); ``mode`` records
    whether the parameter norm was the oracle value or an upper bound.
    """

    values: np.ndarray
    q_star: int
    mode: str
    scores: np.ndarray


@_value_type("theta_norm2_grid", ints=("q_stars",))
class NormDependenceCertificate:
    """Map from parameter-norm values to selected ranks, with a constancy
    flag and, when the map is not constant, the first witnessing pair."""

    theta_norm2_grid: np.ndarray
    q_stars: np.ndarray
    is_constant: bool
    witness: Optional[Tuple[float, float, int, int]]


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
    that of the exact rule.  :func:`tls_solve` calls it on the SVD of its
    one problem, :func:`tls_factor_stack` on the SVDs of the stacked
    problems its Gram route leaves undecided.
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
    ValueError
        If H_tilde is not a finite 2-D matrix with N >= p + 1 rows, or y
        does not hold one finite entry per row of H_tilde.
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
    H_tilde = finite_array(H_tilde, "H_tilde", 2)
    y = finite_vector(y, "y", H_tilde.shape[0])
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


class StackFactor(NamedTuple):
    """What the Monte Carlo engine reads of each problem of a stack
    (:func:`tls_factor_stack`), with ``U`` the thin left singular vectors
    of its augmented matrix ``A = [H_tilde, y]``, retained columns first and
    the discarded one last, in no sign convention (every consumer is sign
    invariant): ``coef`` the coefficients ``U'y`` and ``coef_x`` the
    coefficients ``U'x`` of the signal (b, p + 1); ``resid`` the
    out-of-span energy ``|x - U_s U_s'x|^2`` (b,); ``core`` the cores
    ``U_s' H_tilde`` (b, p, p); ``codes`` the code of the error
    :func:`tls_solve` raises on the problem, ``""`` for a solved one; and
    ``gram`` whether the Gram route decided it.  ``coef_x`` and ``resid``
    are ``None`` when the stack was factored without a signal."""

    coef: np.ndarray
    coef_x: Optional[np.ndarray]
    resid: Optional[np.ndarray]
    core: np.ndarray
    codes: np.ndarray
    gram: np.ndarray


def tls_factor_stack(A, x=None) -> StackFactor:
    """Factor and check a stack of TLS problems at once, without forming
    the left singular vectors ``U``.

    ``A`` (b, N, p + 1) stacks the augmented matrices ``[H_tilde, y]`` and
    ``x`` (N,) is the signal their ``U'x`` and residual refer to; without
    it (``None``) those two fields are ``None`` and no least-squares solve
    is made.  Every problem is first factored through its Gram matrix
    ``G = A'A``: the factorization ``G = V diag(S^2) V'`` gives ``S`` and
    ``V``, so ``U = A V / S`` is never needed, since ``U'y = S V[p, :]``
    (y is the last column of A), the core is ``diag(S_1..S_p)`` times the
    leading p-by-p block of ``V'``, and ``U'x = S V'w`` with ``w`` the
    least-squares solution of x on A, solved from G and given one step of
    iterative refinement; the residual is ``|x - A w|^2 +
    (u_{p+1}'x)^2``, a sum of squares.  G is factored by the symmetric
    eigensolver up to order ``EIGH_MAX_ORDER`` (25), where it is about
    twice as fast as the SVD of G and starts no BLAS thread, and by the
    SVD of G above it, where the eigensolver would start BLAS threads.

    The Gram matrix squares the condition number, so the route decides only
    the problems whose answer it cannot get wrong (``_gram_decided``): the
    others, among them every rejected problem, take the SVD of ``A``
    itself and :func:`_rejection_codes`, as :func:`tls_solve` does, so
    every code equals the one ``tls_solve`` raises.
    """
    A = finite_array(A, "A", 3)
    if A.shape[1] < A.shape[2]:
        raise ValueError(f"expected a (b, N, p + 1) stack with N >= p + 1, got shape {A.shape}")
    if x is not None:
        x = finite_vector(x, "x", A.shape[1])
    p = A.shape[2] - 1
    G = np.swapaxes(A, 1, 2) @ A
    finite = np.isfinite(G).all(axis=(1, 2))
    G[~finite] = 0.0  # overflowed; decided by the SVD of A below
    if p + 1 <= EIGH_MAX_ORDER:
        lam, V = np.linalg.eigh(G)
        # ascending eigenpairs in the SVD's descending order; a rounded
        # eigenvalue below 0 is clamped, and its problem fails the screen
        lam = np.maximum(lam[:, ::-1], 0.0)
        Vt = np.swapaxes(V[:, :, ::-1], 1, 2)
    else:
        _, lam, Vt = np.linalg.svd(G)
    gram = finite & _gram_decided(np.sqrt(lam), Vt[:, p, p])
    if gram.all():  # the common case, with no copy of A
        return StackFactor(*_gram_route(A, x, lam, Vt), gram)
    merged = []
    for fast, slow in zip(_gram_route(A[gram], x, lam[gram], Vt[gram]), _svd_route(A[~gram], x)):
        if slow is None:  # a field of the signal, factored without one
            merged.append(None)
            continue
        field = np.empty(gram.shape + slow.shape[1:], dtype=slow.dtype)
        field[gram], field[~gram] = fast, slow
        merged.append(field)
    return StackFactor(*merged, gram)


def _gram_decided(S, v) -> np.ndarray:
    """Whether the Gram route decides each problem: singular values ``S``
    (b, p + 1) from the factorization of ``G = A'A`` and ``v`` (b,) the last
    component of its discarded right singular vector.

    Forming G costs the small singular values accuracy: ``S_j`` carries an
    error of about ``eps S_1^2 / S_j``.  So a problem is decided here only
    when ``S_{p+1}`` is at least ``GRAM_SCREEN`` times ``S_1``, ``S_1``
    lies within ``GRAM_RANGE`` of 1 (G squares the scale, and a squared
    residual or coefficient would near the float range), and both rejection
    checks of :func:`_rejection_codes` pass with a margin: the gap by
    ``GAP_SCREEN`` times its threshold, the core's bound ``S_p |v|`` by
    ``DEGENERACY_SCREEN`` times its threshold.  Each of those problems is
    solved, so its code is ``""``.
    """
    p = S.shape[1] - 1
    top = S[:, 0]
    return ((S[:, p] >= GRAM_SCREEN * top)
            & (1.0 / GRAM_RANGE <= top) & (top <= GRAM_RANGE)
            & (S[:, p - 1] - S[:, p] > GAP_SCREEN * GAP_RTOL * top)
            & (S[:, p - 1] * np.abs(v) > DEGENERACY_SCREEN * DEGENERACY_RTOL * np.maximum(top, 1.0)))


def _gram_route(A, x, lam, Vt):
    # StackFactor's fields up to ``gram`` for problems _gram_decided
    # accepts, from the factorizations G = V diag(lam) V' of their Gram
    # matrices, lam descending.
    p = A.shape[2] - 1
    S = np.sqrt(lam)
    coef, core, codes = S * Vt[:, :, p], S[:, :p, None] * Vt[:, :p, :p], np.full(A.shape[0], "")
    if x is None:
        return coef, None, None, core, codes
    At = np.swapaxes(A, 1, 2)
    V = np.swapaxes(Vt, 1, 2)

    def ls_solution(r):
        # least-squares solution of r (N,) or (b, N) on A, as (b, p + 1, 1)
        return V @ ((Vt @ (At @ r[..., None])) / lam[..., None])

    w = ls_solution(x)
    w += ls_solution(x - (A @ w)[..., 0])  # one step of iterative refinement
    r = x - (A @ w)[..., 0]
    coef_x = S * (Vt @ w)[..., 0]
    resid = np.sum(r * r, axis=1) + coef_x[:, p] * coef_x[:, p]
    return coef, coef_x, resid, core, codes


def _svd_route(A, x):
    # StackFactor's fields up to ``gram`` for any problems, from the SVDs
    # of A itself.
    p = A.shape[2] - 1
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    core = np.swapaxes(U[..., :p], 1, 2) @ A[..., :p]
    coef, codes = (A[:, None, :, p] @ U)[:, 0], _rejection_codes(S, Vt[:, p, p], core)
    if x is None:
        return coef, None, None, core, codes
    coef_x = x @ U
    rho = x - (U[..., :p] @ coef_x[:, :p, None])[..., 0]
    return coef, coef_x, np.sum(rho * rho, axis=1), core, codes


def tls_objective(theta, H_tilde, y) -> float:
    """Normalized residual ``|H_tilde @ theta - y|^2 / (theta @ theta + 1)``,
    the quantity the TLS solution minimizes."""
    H_tilde = finite_array(H_tilde, "H_tilde", 2)
    theta = finite_vector(theta, "theta", H_tilde.shape[1])
    y = finite_vector(y, "y", H_tilde.shape[0])
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
    d = estimate.H_corrected @ model.theta - model.x
    return float(_tls_full_mse(model, np.sum(d * d)))


def _tls_full_mse(model: MeasurementModel, mismatch) -> np.ndarray:
    # mse_theoretical_tls_full from the squared corrected-signal mismatch
    # |H_corrected theta - x|^2, elementwise.
    return mismatch + model.sigma2 * (1.0 + model.theta_norm2) * model.p


def augmented_scores(basis: OrderedBasis, u_s, y) -> np.ndarray:
    """Length-(p+1) score vector for the q objective: the p ordered scores
    over the retained columns, then the score of the discarded direction
    appended last (it sits in every tail sum, shifting all objective values
    equally without affecting the argmin).  ``u_s`` and ``y`` must hold one
    finite entry per row of the basis."""
    u_s = finite_vector(u_s, "u_s", basis.columns.shape[0])
    y = finite_vector(y, "y", basis.columns.shape[0])
    return np.append(basis.scores, float(u_s @ y) ** 2)


def _rule_scores(scores, sigma2: float, p: int, theta_norm2: float = 0.0) -> np.ndarray:
    """The checked inputs of a TLS rank rule: ``p`` a positive integer
    (bools rejected), ``p + 1`` augmented scores, returned flat, whose
    first ``p`` are nonincreasing, and the checks of
    ``ls._check_rule_inputs``."""
    check_integer(p, "p", 1)
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.shape[0] != p + 1:
        raise ValueError(f"expected p + 1 = {p + 1} scores, got {scores.shape[0]}")
    _check_rule_inputs(scores, sigma2, theta_norm2)
    if np.any(np.diff(scores[:p]) > 0):
        raise ValueError("the first p scores must be nonincreasing")
    return scores


def _norm_grid(values, name: str) -> np.ndarray:
    """A grid of squared parameter norms as a flat float array;
    ``ValueError`` naming ``name`` unless it is a non-empty sequence of
    finite values >= 0."""
    try:
        grid = np.asarray(list(values), dtype=float).reshape(-1)
    except (TypeError, ValueError):  # a scalar or a non-number
        grid = np.empty(0)
    if grid.shape[0] == 0 or not np.all(np.isfinite(grid) & (grid >= 0)):
        raise ValueError(f"{name} must be a non-empty sequence of finite values >= 0, got {values!r}")
    return grid


def q_objective(scores, sigma2: float, p: int, theta_norm2: float, mode: str) -> QObjective:
    """Rank objective for the reduced TLS hypothesis.

    values[q] = (sum_{j>q} scores[j] + sigma2*(1+t)*(2q + p)) / (1 + t)
    for q in 1..p, with t the squared parameter norm (oracle value) or its
    upper bound, per ``mode``.  The rank is the count
    ``max(1, #{j <= p : scores[j] > 2 sigma2 (1 + t)})``, the exact argmin
    with ties going to the smallest rank (the discarded score drops out).
    """
    scores = _rule_scores(scores, sigma2, p, theta_norm2)
    if mode not in Q_MODES:
        raise ValueError(f"mode must be one of {Q_MODES}, got {mode!r}")
    t = float(theta_norm2)
    values = (tail_sums(scores)[:p] + sigma2 * (1.0 + t) * (2 * np.arange(1, p + 1) + p)) / (1.0 + t)
    q_star = int(_count_rank(scores[:p], _rank_threshold(sigma2, t)))
    return QObjective(values=values, q_star=q_star, mode=mode, scores=scores)


def q_objective_bias_recipe(scores, sigma2: float, p: int, theta_norm2: float) -> np.ndarray:
    """Alternative per-rank objective obtained by rerunning the
    least-squares bias-correction recipe on the p + 1 augmented columns
    with the compound noise variance:

    values[q] = sum_{j>q} scores[j] + sigma2*(1+t)*(2q - (p+1)),

    the first p values of ``ls.risk_objective(scores, sigma2 * (1 + t))``.
    The primary rule (:func:`q_objective`) uses a different correction
    term, but with ``s = sigma2 (1 + t)`` both objectives are increasing
    affine maps of ``sum_{j>q} scores[j] + 2 s q``, so their exact argmin,
    ties going to the smallest rank, is the same count
    ``max(1, #{j <= p : scores[j] > 2 s})``; the grid report of
    ``harness.compare_selection_rules`` fills both its tables from it.
    """
    scores = _rule_scores(scores, sigma2, p, theta_norm2)
    return risk_objective(scores, sigma2 * (1.0 + float(theta_norm2)))[:p]


def norm_dependence_certificate(theta_norm2_grid: Sequence[float], scores, sigma2: float, p: int) -> NormDependenceCertificate:
    """Evaluate the selected rank across a grid of parameter norms.

    Returns the map t -> q_star(t) of :func:`q_objective`'s oracle rule,
    evaluated for the whole grid at once, whether it is constant over the
    grid, and the first pair of grid values with different selections: the
    first value and the first one whose rank differs from it (the
    machine-checkable witness that the selection depends on the unknown
    parameter norm).
    """
    grid = _norm_grid(theta_norm2_grid, "theta_norm2_grid")
    scores = _rule_scores(scores, sigma2, p)
    q_stars = _count_rank(scores[:p], _rank_threshold(sigma2, grid))
    i = int(np.argmax(q_stars != q_stars[0]))  # 0 when no rank differs
    witness = (float(grid[0]), float(grid[i]), int(q_stars[0]), int(q_stars[i])) if i else None
    return NormDependenceCertificate(
        theta_norm2_grid=grid,
        q_stars=q_stars,
        is_constant=witness is None,
        witness=witness,
    )
