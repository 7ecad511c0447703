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
per-trial draws: it replays SeedSequence's hash and PCG64's seeding in
uint64 limbs, vectorized over aligned windows of 1024 trials, and writes
each trial's four state words into one reused PCG64 instead of building a
generator per trial.  The write is one 32-byte copy into the generator's
state, behind a layout probe that checks the words through the public
``bitgen.state`` setter; where the probe fails, the setter itself sets each
trial's state.  Seeds or trials of 2**32 and more (SeedSequence then hashes
more entropy words) are drawn through ``trial_rng`` itself.

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

import ctypes
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ModelInvalidError, check_integer, check_real, finite_array, finite_vector

# Relative singular-value threshold defining numerical full rank: the
# smallest singular value of H must exceed RANK_RTOL times the largest.
RANK_RTOL = 1e-10


def _model_input(rule, *args):
    # An input rule of errors.py, its ValueError raised as ModelInvalidError.
    try:
        return rule(*args)
    except ValueError as err:
        raise ModelInvalidError(str(err)) from None


def _check_shape(N: int, p: int) -> None:
    _model_input(check_integer, N, "N", 1)
    _model_input(check_integer, p, "p", 1)
    if not p <= N:
        raise ModelInvalidError(f"need 1 <= p <= N, got N={N}, p={p}")


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _value_type(*arrays, ints=()):
    """Class decorator for the public result types: a frozen dataclass whose
    fields named in ``arrays`` (float) and ``ints`` (int) hold read-only
    copies of what the constructor was given; ``None`` stays ``None``."""
    dtypes = {**dict.fromkeys(arrays, float), **dict.fromkeys(ints, int)}

    def __post_init__(self):
        for name, dtype in dtypes.items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _frozen_array(value, dtype))

    def wrap(cls):
        cls.__post_init__ = __post_init__
        return dataclass(frozen=True)(cls)

    return wrap


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible random stream for one (seed, trial) pair.

    Streams for distinct trial indices are statistically independent and
    do not depend on the order in which they are created.  ``ValueError``
    unless seed and trial are non-negative integers: a bool, float or
    string is never truncated to another trial's stream.
    """
    entropy = [check_integer(seed, "seed", 0), check_integer(trial, "trial", 0)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _aux_rng(seed: int, tag: int) -> np.random.Generator:
    # Model-construction stream: child `tag` of SeedSequence(seed).spawn().
    # SeedSequence pads the entropy to four pool words before appending the
    # spawn key, so this pool is that of trial_rng(seed, tag * 2**96) and of
    # no trial index below that: a builder's design is independent of every
    # trial's noise in a sweep run at the same seed.
    return np.random.default_rng(np.random.SeedSequence(check_integer(seed, "seed", 0), spawn_key=(tag,)))


# numpy's SeedSequence hash (bit_generator.pyx) and the 128-bit PCG64
# multiplier; _pcg64_states replays both for a window of trials.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1
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


def _add128(a_lo, a_hi, b_lo, b_hi):
    # (a + b) mod 2**128 in uint64 limbs.
    lo = a_lo + b_lo
    return lo, a_hi + b_hi + (lo < a_lo)


def _mul128(lo, hi, mult: int):
    # (hi * 2**64 + lo) * mult mod 2**128 in uint64 limbs: the full 128-bit
    # product of the low words from 32-bit halves, plus the two cross terms.
    # The multiplier is split in Python ints: every uint64 operation below
    # has an array operand, as numpy < 2 promotes a uint64 scalar combined
    # with a Python int to float64.
    m_lo, m_hi = np.uint64(mult & _MASK64), np.uint64(mult >> 64)
    b0, b1 = np.uint64(mult & _MASK32), np.uint64(mult >> 32 & _MASK32)
    a0, a1 = lo & _MASK32, lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return lo * m_lo, carry + hi * m_lo + lo * m_hi


@lru_cache(maxsize=1)
def _pcg64_states(seed: int, window: int) -> np.ndarray:
    """State words of the PCG64 that ``trial_rng(seed, t)`` builds, for the
    trials ``t`` of one aligned window ``[window * _WINDOW, ...)``: a
    read-only (``_WINDOW``, 4) uint64 array whose row ``t - window *
    _WINDOW`` is ``state_lo, state_hi, inc_lo, inc_hi``.

    Vectorizes SeedSequence's entropy mixing over the window's two-word
    entropies ``[seed, t]`` (both below 2**32) and its ``generate_state(4,
    uint64)``, then PCG64's seeding, ``inc = 2 i + 1`` and ``state = (inc +
    s) * MULT + inc`` mod 2**128, in uint64 limbs.  The last window is kept:
    a run's chunks walk the windows in order, and chunks far smaller than a
    window (7 trials at N=256, p=32) share one hash.
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
    s_hi, s_lo, i_hi, i_lo = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    inc_lo, inc_hi = i_lo << 1 | np.uint64(1), i_hi << 1 | i_lo >> 63
    state = _add128(*_mul128(*_add128(inc_lo, inc_hi, s_lo, s_hi), _PCG_MULT), inc_lo, inc_hi)
    states = np.stack([*state, inc_lo, inc_hi], axis=1)
    states.setflags(write=False)
    return states


def _state_words(bitgen: np.random.PCG64) -> Optional[np.ndarray]:
    """Writable view of ``bitgen``'s ``state, inc`` pair as one 32-byte
    void item, valid while ``bitgen`` lives; None where the raw write is not
    known to be safe and exact, and the public setter is used instead.

    This depends on numpy's private layout: ``bitgen.ctypes.state_address``
    points to a ``pcg64_state`` whose first field points to the
    ``pcg64_random_t`` pair, both stored inside the ``PCG64`` object.  No
    memory is read unless both addresses lie within the object's
    ``__basicsize__`` bytes, so a numpy that stores the pair elsewhere (or a
    runtime whose ``id`` is not an address) falls back without reading
    outside the object.  The probe then sets known words through the public
    setter and requires them to read back as ``state_lo, state_hi, inc_lo,
    inc_hi``; a big-endian build, or one without ``__int128`` (such as MSVC,
    where numpy's pcg64.h emulates 128-bit integers as ``{high, low}``),
    fails it.
    """
    base, end = id(bitgen), id(bitgen) + type(bitgen).__basicsize__
    address = bitgen.ctypes.state_address
    if not base <= address <= end - ctypes.sizeof(ctypes.c_void_p):
        return None
    pair = ctypes.c_void_p.from_address(address).value
    if pair is None or not base <= pair <= end - 32:
        return None
    words = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(pair))
    probe = np.array([1, 2, 3, 4], np.uint64)
    _set_state(bitgen, probe)
    return words.view("V32") if np.array_equal(words, probe) else None


def _set_state(bitgen: np.random.PCG64, words) -> None:
    # The public setter, from ``state_lo, state_hi, inc_lo, inc_hi``.
    s_lo, s_hi, i_lo, i_hi = (int(w) for w in words)
    bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}


def _normal_rows(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row ``i`` holds the first ``width`` standard normals of
    ``trial_rng(seed, start + i)``, bit for bit.

    Trials below 2**32 of seeds below 2**32 reuse one PCG64.  Each trial
    copies its four seeded state words (``_pcg64_states``) into the
    generator in one 32-byte write (``_state_words``); if the layout probe
    rejects that, it sets them through the public ``bitgen.state`` setter
    instead.  Other trials (SeedSequence then hashes more than two entropy
    words) are drawn through ``trial_rng`` itself.
    """
    out = np.empty((stop - start, width))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    words = _state_words(bitgen)
    trial = start
    while trial < stop:
        if seed >= 2**32 or trial >= 2**32:
            trial_rng(seed, trial).standard_normal(out=out[trial - start])
            trial += 1
            continue
        window, offset = divmod(trial, _WINDOW)
        states = _pcg64_states(seed, window)[offset:offset + stop - trial]
        rows = out[trial - start:]
        if words is None:
            for row, state in zip(rows, states):
                _set_state(bitgen, state)
                gen.standard_normal(out=row)
        else:
            for row, state in zip(rows, states.view("V32")[:, 0]):
                words[0] = state
                gen.standard_normal(out=row)
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

    Raises ``ModelInvalidError`` naming the argument unless H is finite
    and 2-D with ``1 <= p <= N``, theta holds p finite entries, sigma2 is
    a finite real >= 0 (``errors.check_real``) and the smallest singular
    value of H exceeds ``RANK_RTOL`` (1e-10) times the largest.
    """

    H: np.ndarray
    theta: np.ndarray
    sigma2: float

    def __post_init__(self):
        H = _model_input(finite_array, self.H, "H", 2)
        _check_shape(*H.shape)
        theta = _model_input(finite_vector, self.theta, "theta", H.shape[1])
        sigma2 = _model_input(check_real, self.sigma2, "sigma2")
        svals = np.linalg.svd(H, compute_uv=False)
        if svals[-1] <= RANK_RTOL * svals[0]:
            raise ModelInvalidError(
                "columns of H are numerically dependent: smallest singular "
                f"value {svals[-1]:.6e} <= {RANK_RTOL:g} * {svals[0]:.6e}"
            )
        object.__setattr__(self, "H", _frozen_array(H))
        object.__setattr__(self, "theta", _frozen_array(theta))
        object.__setattr__(self, "sigma2", sigma2)
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


@_value_type("y", "H_tilde")
class Realization:
    """One sampled dataset: observation ``y`` and, for errors-in-variables
    draws, the perturbed matrix ``H_tilde``."""

    y: np.ndarray
    H_tilde: Optional[np.ndarray]
    trial_index: int
    seed: int


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
    row-major): ``[z_mat, z_obs]`` laid out once, then scaled per column and
    shifted by ``[H, x]`` in place, each entry rounded as in ``sample_tls``."""
    N, p = model.N, model.p
    Z = _normal_rows(seed, start, stop, N * (p + 1))
    A = np.concatenate([Z[:, N:].reshape(-1, N, p), Z[:, :N, None]], axis=2)
    scale = np.full(p + 1, np.sqrt(model.sigma2))
    scale[p] = np.sqrt(model.sigma2 * (1.0 + model.theta_norm2))
    A *= scale
    A += np.column_stack([model.H, model.x])
    return A


# ---------------------------------------------------------------------------
# Model builders used by the experiment harness and the CLI.  Before it
# draws the design, each raises ModelInvalidError naming an N or p that is
# not a positive integer, a seed that is not a non-negative one, or a
# non-finite spectrum or coefficients vector.
# ---------------------------------------------------------------------------

def gaussian_model(N: int, p: int, theta, sigma2: float, seed: int) -> MeasurementModel:
    """Model with H drawn once from i.i.d. standard normal entries."""
    _check_shape(N, p)
    rng = _model_input(_aux_rng, seed, 1)
    H = rng.standard_normal((N, p))
    return MeasurementModel(H=H, theta=theta, sigma2=sigma2)


def spectrum_model(N: int, spectrum, theta, sigma2: float, seed: int) -> MeasurementModel:
    """Model whose H has prescribed singular values and random singular
    vectors (orthonormal factors from QR of Gaussian draws)."""
    spectrum = _model_input(finite_vector, spectrum, "spectrum", np.size(spectrum))
    p = spectrum.shape[0]
    _check_shape(N, p)
    if np.any(spectrum <= 0):
        raise ModelInvalidError("prescribed singular values must be positive")
    rng = _model_input(_aux_rng, seed, 2)
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
    c = _model_input(finite_vector, coefficients, "coefficients", np.size(coefficients))
    p = c.shape[0]
    _check_shape(N, p)
    rng = _model_input(_aux_rng, seed, 3)
    Q1, _ = np.linalg.qr(rng.standard_normal((N, p)))
    Q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
    # Distinct singular values keep the left singular vectors unique up to
    # sign, so x = Q1 @ c plants exactly |c_j|^2 of energy per direction.
    spectrum = np.linspace(2.0, 1.0, p)
    H = (Q1 * spectrum) @ Q2.T
    theta = Q2 @ (c / spectrum)
    return MeasurementModel(H=H, theta=theta, sigma2=sigma2)
