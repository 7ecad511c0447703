"""Ground-truth measurement models and reproducible sampling of realizations.

A :class:`MeasurementModel` fixes the design matrix ``H``, the parameter
vector ``theta`` and the per-entry noise variance ``sigma2``; the noiseless
signal is ``x = H @ theta``.  Sampling is pure: a realization is a
deterministic function of ``(model, seed, trial)``, with one independent
substream per trial (``trial_rng``: PCG64 seeded by
``SeedSequence([seed, trial])``) so that trials can be drawn in any order
(or in parallel) with identical output.

``sample_ls``/``sample_tls`` draw one trial.  The block sampler
(``sample_ls_block``/``sample_tls_block``, not exported) draws a range of
consecutive trials into one stacked array, bit-identical to stacking the
per-trial draws: it replays SeedSequence's hash vectorized over aligned
windows of 1024 trials and PCG64's seeding in Python ints, then sets one
reused PCG64 to each trial's state instead of building a generator per
trial.  Seeds or trials of 2**32 and more (SeedSequence then hashes more
entropy words) are drawn through ``trial_rng`` itself.

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
from functools import lru_cache
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
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))


def _aux_rng(seed: int, tag: int) -> np.random.Generator:
    # Model-construction stream: child `tag` of SeedSequence(seed).spawn().
    # SeedSequence pads the entropy to four pool words before appending the
    # spawn key, so this pool is that of trial_rng(seed, tag * 2**96) and of
    # no trial index below that: a builder's design is independent of every
    # trial's noise in a sweep run at the same seed.
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(tag),)))


# numpy's SeedSequence hash (bit_generator.pyx) and the 128-bit PCG64
# multiplier; _pcg64_states replays both for a window of trials.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_WINDOW = 1024


def _hash_consts(init: int, mult: int):
    # hashmix XORs with the running constant, advances it, then multiplies
    # by the advanced one: successive (xor, multiply) pairs overlap.
    while True:
        advanced = init * mult & _MASK32
        yield np.uint32(init), np.uint32(advanced)
        init = advanced


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mul = next(consts)
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


@lru_cache(maxsize=1)
def _pcg64_states(seed: int, window: int) -> tuple:
    """``(state, inc)`` of the PCG64 that ``trial_rng(seed, t)`` builds, for
    the trials ``t`` of one aligned window ``[window * _WINDOW, ...)``.

    Vectorizes SeedSequence's entropy mixing over the window's two-word
    entropies ``[seed, t]`` (both below 2**32) and its ``generate_state(4,
    uint64)``, then runs PCG64's seeding (two LCG steps) in Python ints.
    The last window is kept: a run's chunks walk the windows in order, and
    chunks far smaller than a window (7 trials at N=256, p=32) share one
    hash.
    """
    trials = np.arange(window * _WINDOW, (window + 1) * _WINDOW, dtype=np.uint32)
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(np.full(_WINDOW, seed, np.uint32), consts), _hashmix(trials, consts)]
    pool += [_hashmix(np.zeros(_WINDOW, np.uint32), consts) for _ in range(2)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], consts)
                pool[dst] = mixed ^ (mixed >> 16)
    consts = _hash_consts(_INIT_B, _MULT_B)
    words = [_hashmix(pool[k % 4], consts).astype(np.uint64) for k in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * k] | words[2 * k + 1] << 32).tolist() for k in range(4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return tuple(states)


def _normal_rows(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row ``i`` holds the first ``width`` standard normals of
    ``trial_rng(seed, start + i)``, bit for bit.

    Trials below 2**32 of seeds below 2**32 reuse one PCG64, set to each
    trial's seeded state; other trials (SeedSequence then hashes more than
    two entropy words) are drawn through ``trial_rng`` itself.
    """
    out = np.empty((stop - start, width))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    trial = start
    while trial < stop:
        if seed >= 2**32 or trial >= 2**32:
            trial_rng(seed, trial).standard_normal(out=out[trial - start])
            trial += 1
            continue
        window, offset = divmod(trial, _WINDOW)
        states = _pcg64_states(seed, window)[offset:offset + stop - trial]
        for row, (state, inc) in enumerate(states, trial - start):
            pcg["state"], pcg["inc"] = state, inc
            bitgen.state = full_state
            gen.standard_normal(out=out[row])
        trial += len(states)
    return out


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


def sample_ls_block(model: MeasurementModel, seed: int, start: int, stop: int) -> np.ndarray:
    """Observations of trials ``[start, stop)`` as a (b, N) block whose row
    ``i`` equals ``sample_ls(model, seed, start + i).y`` bit for bit."""
    Y = _normal_rows(seed, start, stop, model.N)
    Y *= np.sqrt(model.sigma2)
    Y += model.x
    return Y


def sample_tls_block(model: MeasurementModel, seed: int, start: int, stop: int) -> np.ndarray:
    """Augmented matrices ``[H_tilde, y]`` of trials ``[start, stop)`` as a
    (b, N, p + 1) block whose entry ``i`` equals ``sample_tls(model, seed,
    start + i)``'s bit for bit (draw order: ``z_obs``, then ``z_mat``
    row-major), assembled in place."""
    N, p = model.N, model.p
    Z = _normal_rows(seed, start, stop, N * (p + 1))
    A = np.empty((stop - start, N, p + 1))
    np.multiply(Z[:, N:].reshape(-1, N, p), np.sqrt(model.sigma2), out=A[..., :p])
    A[..., :p] += model.H
    np.multiply(Z[:, :N], np.sqrt(model.sigma2 * (1.0 + model.theta_norm2)), out=A[..., p])
    A[..., p] += model.x
    return A


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
