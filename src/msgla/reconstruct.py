"""Iterative phase reconstruction: classical GLA and the two multi-source loops.

All three loops alternate consistency projections with magnitude or phase
replacement. ``nm_msgla`` consumes speech and noise magnitude estimates;
``np_msgla`` consumes a speech magnitude and a noise phase estimate. Both
drive the speech-phase iterate toward one of the closed-form candidates in
:mod:`msgla.geometry`, resolving the sign ambiguity implicitly. The three
loops share one iteration routine that carries the speech phase as a unit
complex phasor and forms angles only for the report.

Runs are deterministic: random initialization is seeded, and a fixed
iteration count (default 5) is used rather than a convergence test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import apply_sign_field, cosine_phase_candidates, nearest_candidate_distance
from .metrics import phase_cos_sim, weighted_frobenius
from .spectral import (
    Spectrogram,
    StftConfig,
    Waveform,
    canonical_length,
    decompose,
    istft,
    project_values,
    recompose,
    wrap_phase,
)

__all__ = [
    "ReconConfig",
    "IterationStats",
    "ReconReport",
    "Estimates",
    "METHODS",
    "gla",
    "nm_msgla",
    "np_msgla",
    "enhance",
]

INIT_KINDS = ("noisy", "zero", "random")
METHODS = ("passthrough", "gla", "nm", "np", "sign")


@dataclass(frozen=True)
class ReconConfig:
    """Loop parameters shared by every reconstruction method."""

    iterations: int = 5
    init: str = "noisy"
    seed: int = 0
    trace: bool = True

    def __post_init__(self) -> None:
        if int(self.iterations) != self.iterations or self.iterations < 0:
            raise ValueError(f"iterations must be a non-negative integer, got {self.iterations!r}")
        object.__setattr__(self, "iterations", int(self.iterations))
        if self.init not in INIT_KINDS:
            raise ValueError(f"init must be one of {INIT_KINDS}, got {self.init!r}")


@dataclass
class IterationStats:
    """Scalar diagnostics for one phase iterate.

    ``inconsistency`` measures the current speech estimate; the other two
    fields are filled only when oracle references were supplied.
    """

    iteration: int
    inconsistency: float
    phase_cos_sim: float | None = None
    candidate_distance: float | None = None


@dataclass
class ReconReport:
    """Outcome of a reconstruction run, with optional per-iteration trace."""

    final_phase: np.ndarray
    per_iteration: list[IterationStats] = field(default_factory=list)
    phases: list[np.ndarray] | None = None
    method: str = ""


@dataclass
class Estimates:
    """Spectral quantities a reconstruction method may consume."""

    mag_speech: np.ndarray | None = None
    mag_noise: np.ndarray | None = None
    phase_noise: np.ndarray | None = None
    sign: object | None = None


def _initial_phase(cfg: ReconConfig, shape, noisy_phase) -> np.ndarray:
    if cfg.init == "noisy":
        if noisy_phase is None:
            raise ValueError("init 'noisy' requires the mixture phase")
        return np.array(noisy_phase, dtype=np.float64)
    if cfg.init == "zero":
        return np.zeros(shape)
    rng = np.random.default_rng(cfg.seed)
    return rng.uniform(-np.pi, np.pi, size=shape)


def _stats(
    n: int,
    speech_values: np.ndarray,
    projected: np.ndarray,
    phase: np.ndarray,
    stft_cfg: StftConfig,
    ref_phase,
    candidates,
) -> IterationStats:
    return IterationStats(
        iteration=n,
        inconsistency=weighted_frobenius(speech_values - projected, stft_cfg),
        phase_cos_sim=None if ref_phase is None else phase_cos_sim(phase, ref_phase),
        candidate_distance=(
            None
            if candidates is None
            else float(np.mean(nearest_candidate_distance(phase, candidates)))
        ),
    )


def _estimate(name: str, value, shape, *, nonnegative: bool = True) -> np.ndarray:
    """Validate one caller-supplied estimate; ``shape=None`` skips the shape check."""
    arr = np.asarray(value, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} shape {arr.shape} does not match spectrogram shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if nonnegative and np.any(arr < 0):
        raise ValueError(f"{name} contains negative values")
    return arr


def _unit(values: np.ndarray, mag: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``values / mag`` into ``out`` wherever ``mag`` is nonzero.

    The real and the imaginary part are divided separately. A complex
    division, or a product with ``1 / mag``, would overflow where ``mag`` is
    subnormal.
    """
    nonzero = mag != 0
    np.divide(values.real, mag, out=out.real, where=nonzero)
    np.divide(values.imag, mag, out=out.imag, where=nonzero)
    return out


def _phasor(z: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values / |values|``; an exact zero carries no phase and keeps ``z``.

    The result is finite and of unit modulus also where ``|values|`` is
    subnormal (down to 5e-324).
    """
    return _unit(values, np.abs(values), z.copy())


def _initial_mixture_phasor(cfg: ReconConfig, noisy: Spectrogram):
    """Initial phase of nm/np and, for init 'noisy', its phasor.

    That phasor is ``mixture / |mixture|`` (1 at exact zeros), normalized
    without ``exp``; other inits leave it to ``_run``.
    """
    mag_mix, phase_mix = decompose(noisy)
    phase = _initial_phase(cfg, mag_mix.shape, phase_mix)
    if cfg.init != "noisy":
        return phase, None
    return phase, _unit(noisy.values, mag_mix, np.ones(mag_mix.shape, dtype=np.complex128))


def _run(
    method, mag, phase, update, cfg: ReconConfig, stft_cfg, length, ref_phase, candidates, z0=None
):
    """The loop shared by every method, on a unit phasor iterate ``z``.

    Each iteration projects the speech estimate ``mag * z`` onto consistent
    spectrograms and hands the projection to ``update(z, projected)``, which
    returns the next phasor. Angles are formed only for the report. A bin
    whose phasor never moved reports ``phase`` exactly as given. ``z0``, the
    initial phasor, defaults to ``exp(1j * phase)``.
    """
    z0 = np.exp(1j * phase) if z0 is None else z0

    def angles(z):
        return phase if z is z0 else np.where(z == z0, phase, wrap_phase(np.angle(z)))

    z = z0
    stats: list[IterationStats] = []
    phases: list[np.ndarray] | None = [phase] if cfg.trace else None
    # With trace on, one more projection measures the final iterate.
    for n in range(cfg.iterations + cfg.trace):
        speech = mag * z
        projected = project_values(speech, stft_cfg, length)
        if cfg.trace:
            stats.append(_stats(n, speech, projected, phases[-1], stft_cfg, ref_phase, candidates))
        if n < cfg.iterations:
            z = update(z, projected)
            if cfg.trace:
                phases.append(angles(z))
    final_phase = phases[-1] if cfg.trace else angles(z)
    return ReconReport(final_phase=final_phase, per_iteration=stats, phases=phases, method=method)


def gla(
    mag_speech,
    cfg: ReconConfig | None = None,
    stft_cfg: StftConfig | None = None,
    *,
    origin_length: int | None = None,
    noisy_phase=None,
    ref_phase=None,
    candidates=None,
) -> ReconReport:
    """Classical Griffin-Lim: repeatedly take the phase of the projection.

    At bins where the projection is exactly zero the previous phase is
    retained (zero magnitude carries no phase information), so an all-zero
    magnitude leaves the initialization untouched.
    """
    cfg = cfg if cfg is not None else ReconConfig()
    stft_cfg = stft_cfg if stft_cfg is not None else StftConfig()
    mag = _estimate("mag_speech", mag_speech, None)
    if mag.ndim != 2 or mag.shape[1] != stft_cfg.n_bins:
        raise ValueError(
            f"mag_speech shape {mag.shape} does not fit config bins {stft_cfg.n_bins}"
        )
    length = origin_length if origin_length is not None else canonical_length(mag.shape[0], stft_cfg)
    phase = _initial_phase(cfg, mag.shape, noisy_phase)
    return _run("gla", mag, phase, _phasor, cfg, stft_cfg, length, ref_phase, candidates)


def nm_msgla(
    noisy: Spectrogram,
    mag_speech,
    mag_noise,
    cfg: ReconConfig | None = None,
    *,
    ref_phase=None,
    candidates=None,
) -> ReconReport:
    """Noise-magnitude multi-source loop.

    Each iteration: (i) project the current speech estimate onto consistent
    spectrograms and keep its phase, (ii) project the mixture residual and
    keep its phase as the noise phase, (iii) subtract the re-phased noise
    magnitude from the mixture and take the angle as the next speech phase.
    Wherever a value in (i)-(iii) is exactly zero, the current speech phase
    is kept in its place.
    """
    cfg = cfg if cfg is not None else ReconConfig()
    mag_speech = _estimate("mag_speech", mag_speech, noisy.values.shape)
    mag_noise = _estimate("mag_noise", mag_noise, noisy.values.shape)
    mixture, stft_cfg, length = noisy.values, noisy.config, noisy.origin_length
    phase, z0 = _initial_mixture_phasor(cfg, noisy)

    def update(z, projected):
        speech = _phasor(z, projected)
        noise = _phasor(z, project_values(mixture - mag_speech * speech, stft_cfg, length))
        return _phasor(z, mixture - mag_noise * noise)

    return _run("nm", mag_speech, phase, update, cfg, stft_cfg, length, ref_phase, candidates, z0)


def np_msgla(
    noisy: Spectrogram,
    mag_speech,
    phase_noise,
    cfg: ReconConfig | None = None,
    *,
    ref_phase=None,
    candidates=None,
) -> ReconReport:
    """Noise-phase multi-source loop.

    Each iteration: (i) project the current speech estimate and keep its
    phase, (ii) project the mixture residual and keep its *magnitude* as the
    implied noise magnitude, (iii) subtract that magnitude at the supplied
    noise phase from the mixture and take the angle as the next speech phase.
    Wherever a value in (i) or (iii) is exactly zero, the current speech
    phase is kept in its place.
    """
    cfg = cfg if cfg is not None else ReconConfig()
    mag_speech = _estimate("mag_speech", mag_speech, noisy.values.shape)
    phase_noise = _estimate("phase_noise", phase_noise, noisy.values.shape, nonnegative=False)
    mixture, stft_cfg, length = noisy.values, noisy.config, noisy.origin_length
    phase, z0 = _initial_mixture_phasor(cfg, noisy)
    noise = np.exp(1j * phase_noise)

    def update(z, projected):
        speech = _phasor(z, projected)
        implied_mag_noise = np.abs(project_values(mixture - mag_speech * speech, stft_cfg, length))
        return _phasor(z, mixture - implied_mag_noise * noise)

    return _run("np", mag_speech, phase, update, cfg, stft_cfg, length, ref_phase, candidates, z0)


def _require(value, method: str, name: str):
    if value is None:
        raise ValueError(f"method '{method}' requires estimate '{name}'")
    return value


def enhance(
    noisy: Spectrogram,
    method: str,
    estimates: Estimates | None = None,
    cfg: ReconConfig | None = None,
    *,
    ref_phase=None,
    candidates=None,
) -> tuple[Waveform, ReconReport]:
    """Reconstruct a speech phase with ``method`` and synthesize the estimate.

    The output waveform is the inversion of the (estimated) speech magnitude
    combined with the reconstructed phase, trimmed to the mixture's original
    length. ``passthrough`` keeps the mixture phase; ``sign`` applies a
    supplied sign field to the law-of-cosines candidates in one shot.

    Every estimate the method uses is checked before any work starts: it must
    have the mixture's shape and be finite, and magnitudes must be
    non-negative.
    """
    cfg = cfg if cfg is not None else ReconConfig()
    est = estimates if estimates is not None else Estimates()
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    # nm and np decompose the mixture inside their own loop.
    mag_mix, phase_mix = decompose(noisy) if method in ("passthrough", "gla", "sign") else (None, None)

    def needed(name: str, nonnegative: bool = True) -> np.ndarray:
        value = _require(getattr(est, name), method, name)
        return _estimate(name, value, noisy.values.shape, nonnegative=nonnegative)

    def one_shot(mag, phase) -> ReconReport:
        no_loop = replace(cfg, iterations=0)
        length = noisy.origin_length
        return _run(method, mag, phase, None, no_loop, noisy.config, length, ref_phase, candidates)

    mag = mag_mix if method == "passthrough" and est.mag_speech is None else needed("mag_speech")
    if method == "passthrough":
        report = one_shot(mag, phase_mix)
    elif method == "gla":
        report = gla(
            mag,
            cfg,
            noisy.config,
            origin_length=noisy.origin_length,
            noisy_phase=phase_mix,
            ref_phase=ref_phase,
            candidates=candidates,
        )
    elif method == "nm":
        mag_noise = needed("mag_noise")
        report = nm_msgla(noisy, mag, mag_noise, cfg, ref_phase=ref_phase, candidates=candidates)
    elif method == "np":
        phase_noise = needed("phase_noise", nonnegative=False)
        report = np_msgla(noisy, mag, phase_noise, cfg, ref_phase=ref_phase, candidates=candidates)
    else:  # sign
        mag_noise = needed("mag_noise")
        sign = _require(est.sign, method, "sign")
        cand = cosine_phase_candidates(mag_mix, phase_mix, mag, mag_noise)
        report = one_shot(mag, apply_sign_field(phase_mix, cand.abs_delta, sign))

    estimate = Spectrogram(
        recompose(mag, report.final_phase), noisy.config, noisy.origin_length, noisy.sample_rate
    )
    return istft(estimate), report
