"""Ground-truth measurement models and reproducible sampling of realizations.

A :class:`MeasurementModel` fixes the design matrix ``H``, the parameter
vector ``theta`` and the per-entry noise variance ``sigma2``; the noiseless
signal is ``x = H @ theta``.  Sampling is pure: a realization is a
deterministic function of ``(model, seed, trial)``, with one independent
substream per trial so that trials can be drawn in any order (or in
parallel) with identical output.

Two observation models are supported:

* additive sampling, ``y = x + noise`` with per-entry variance ``sigma2``
  and no matrix perturbation;
* errors-in-variables sampling, where the observed matrix is
  ``H + E`` (entries of ``E`` i.i.d. with variance ``sigma2``) and the
  observation noise is drawn independently of ``E`` with the compound
  per-entry variance ``sigma2 * (1 + theta @ theta)``, so that
  ``y ~ N(H @ theta, sigma2 * (1 + theta @ theta) * I)`` marginally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelInvalidError

# Relative singular-value threshold defining numerical full rank: the
# smallest singular value of H must exceed RANK_RTOL times the largest.
RANK_RTOL = 1e-10


def _check_shape(N: int, p: int) -> None:
    if not (1 <= p <= N):
        raise ModelInvalidError(f"need 1 <= p <= N, got N={N}, p={p}")


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible random stream for one (seed, trial) pair.

    Streams for distinct trial indices are statistically independent and
    do not depend on the order in which they are created.
    """
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    entropy = [int(seed), int(trial)]
    if 0 <= entropy[0] < 2**32 and entropy[1] < 2**32:
        # The same two entropy words as the list, passed as an array so that
        # SeedSequence skips converting Python ints: an identical stream,
        # built in about four fifths of the time.
        entropy = np.array(entropy, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _aux_rng(seed: int, tag: int) -> np.random.Generator:
    # Three-word entropy keeps auxiliary streams (model construction)
    # disjoint from the two-word per-trial streams.
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(tag), 0]))


@dataclass(frozen=True)
class MeasurementModel:
    """Ground truth (H, theta, sigma2) with derived signal x = H @ theta.

    Parameters
    ----------
    H : (N, p) ndarray
        Design matrix with numerically independent columns.
    theta : (p,) ndarray
        True parameter vector.
    sigma2 : float
        Per-entry noise variance; 0 is allowed for noiseless oracle runs.

    Raises ``ModelInvalidError`` unless the smallest singular value of
    ``H`` exceeds ``RANK_RTOL`` (1e-10) times the largest.
    """

    H: np.ndarray
    theta: np.ndarray
    sigma2: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if H.ndim != 2:
            raise ModelInvalidError(f"H must be 2-D, got shape {H.shape}")
        N, p = H.shape
        _check_shape(N, p)
        if theta.shape[0] != p:
            raise ModelInvalidError(
                f"theta has length {theta.shape[0]}, expected p={p}"
            )
        if not (np.isfinite(H).all() and np.isfinite(theta).all()):
            raise ModelInvalidError("H and theta must be finite")
        if not np.isfinite(self.sigma2) or self.sigma2 < 0:
            raise ModelInvalidError(f"sigma2 must be >= 0, got {self.sigma2}")
        svals = np.linalg.svd(H, compute_uv=False)
        if svals[-1] <= RANK_RTOL * svals[0]:
            raise ModelInvalidError(
                "columns of H are numerically dependent: smallest singular "
                f"value {svals[-1]:.6e} <= {RANK_RTOL:g} * {svals[0]:.6e}"
            )
        object.__setattr__(self, "H", _frozen_array(H))
        object.__setattr__(self, "theta", _frozen_array(theta))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "_x", _frozen_array(H @ theta))

    @property
    def N(self) -> int:
        return self.H.shape[0]

    @property
    def p(self) -> int:
        return self.H.shape[1]

    @property
    def x(self) -> np.ndarray:
        """Noiseless signal H @ theta."""
        return self._x

    @property
    def theta_norm2(self) -> float:
        return float(self.theta @ self.theta)


@dataclass(frozen=True)
class Realization:
    """One sampled dataset: observation ``y`` and, for errors-in-variables
    draws, the perturbed matrix ``H_tilde``."""

    y: np.ndarray
    H_tilde: Optional[np.ndarray]
    trial_index: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen_array(self.y))
        if self.H_tilde is not None:
            object.__setattr__(self, "H_tilde", _frozen_array(self.H_tilde))


def sample_ls(model: MeasurementModel, seed: int, trial: int) -> Realization:
    """Draw ``y = x + n`` with i.i.d. zero-mean noise of variance sigma2.

    Bit-identical output for identical ``(model, seed, trial)``.
    """
    rng = trial_rng(seed, trial)
    z = rng.standard_normal(model.N)
    y = model.x + np.sqrt(model.sigma2) * z
    return Realization(y=y, H_tilde=None, trial_index=trial, seed=seed)


def sample_tls(model: MeasurementModel, seed: int, trial: int) -> Realization:
    """Draw an errors-in-variables realization.

    The observed matrix is ``H + E`` with i.i.d. entries of variance
    sigma2.  The observation noise is independent of ``E`` and carries the
    compound variance ``sigma2 * (1 + theta @ theta)`` per entry, so the
    marginal law of ``y`` is ``N(H @ theta, sigma2 * (1 + theta'theta) * I)``.
    The first ``N`` draws of the substream are shared with
    :func:`sample_ls`, which pairs the two observation models on identical
    underlying noise for same-seed comparisons.
    """
    rng = trial_rng(seed, trial)
    z_obs = rng.standard_normal(model.N)
    z_mat = rng.standard_normal((model.N, model.p))
    scale = np.sqrt(model.sigma2 * (1.0 + model.theta_norm2))
    y = model.x + scale * z_obs
    H_tilde = model.H + np.sqrt(model.sigma2) * z_mat
    return Realization(y=y, H_tilde=H_tilde, trial_index=trial, seed=seed)


# ---------------------------------------------------------------------------
# Model builders used by the experiment harness and the CLI
# ---------------------------------------------------------------------------

def gaussian_model(N: int, p: int, theta, sigma2: float, seed: int) -> MeasurementModel:
    """Model with H drawn once from i.i.d. standard normal entries."""
    rng = _aux_rng(seed, 1)
    H = rng.standard_normal((N, p))
    return MeasurementModel(H=H, theta=theta, sigma2=sigma2)


def spectrum_model(N: int, spectrum, theta, sigma2: float, seed: int) -> MeasurementModel:
    """Model whose H has prescribed singular values and random singular
    vectors (orthonormal factors from QR of Gaussian draws)."""
    spectrum = np.asarray(spectrum, dtype=float).reshape(-1)
    p = spectrum.shape[0]
    _check_shape(N, p)
    if np.any(spectrum <= 0):
        raise ModelInvalidError("prescribed singular values must be positive")
    rng = _aux_rng(seed, 2)
    Q1, _ = np.linalg.qr(rng.standard_normal((N, p)))
    Q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
    H = (Q1 * spectrum) @ Q2.T
    return MeasurementModel(H=H, theta=theta, sigma2=sigma2)


def planted_model(N: int, coefficients, sigma2: float, seed: int) -> MeasurementModel:
    """Model whose signal has prescribed energies along the left singular
    vectors of H.

    ``coefficients[j]`` is the coefficient of x along the j-th left
    singular vector, so the score of x in that direction is
    ``coefficients[j]**2``.  Entries may be zero to plant a low-rank
    signal inside a full-rank design.
    """
    c = np.asarray(coefficients, dtype=float).reshape(-1)
    p = c.shape[0]
    _check_shape(N, p)
    rng = _aux_rng(seed, 3)
    Q1, _ = np.linalg.qr(rng.standard_normal((N, p)))
    Q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
    # Distinct singular values keep the left singular vectors unique up to
    # sign, so x = Q1 @ c plants exactly |c_j|^2 of energy per direction.
    spectrum = np.linspace(2.0, 1.0, p)
    H = (Q1 * spectrum) @ Q2.T
    theta = Q2 @ (c / spectrum)
    return MeasurementModel(H=H, theta=theta, sigma2=sigma2)
