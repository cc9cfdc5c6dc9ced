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
from .metrics import _dot, weighted_frobenius
from .spectral import (
    Spectrogram,
    StftConfig,
    Waveform,
    _analyze,
    _angle,
    _elementwise,
    _estimate,
    _expj,
    _synthesize,
    _whole_number,
    decompose,
    project_values,
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
# The estimates each method of ``enhance`` consumes.
METHOD_NEEDS = {
    "passthrough": (),
    "gla": ("mag_speech",),
    "nm": ("mag_speech", "mag_noise"),
    "np": ("mag_speech", "phase_noise"),
    "sign": ("mag_speech", "mag_noise"),
}
METHODS = tuple(METHOD_NEEDS)

@dataclass(frozen=True)
class ReconConfig:
    """Loop parameters shared by every reconstruction method."""

    iterations: int = 5
    init: str = "noisy"
    seed: int = 0
    trace: bool = True

    def __post_init__(self) -> None:
        for name in ("iterations", "seed"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name), positive=False))
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
    """Outcome of a reconstruction run, with optional per-iteration trace.

    ``final_inconsistency`` measures the final iterate, traced or not; with
    trace on it equals ``per_iteration[-1].inconsistency``. ``signal`` is the
    synthesis of the final iterate, trimmed to the original length. The trace
    keeps scalars only; the phase after ``k`` iterations is the
    ``final_phase`` of a run with ``iterations=k``.
    """

    final_phase: np.ndarray
    final_inconsistency: float
    signal: np.ndarray
    per_iteration: list[IterationStats] = field(default_factory=list)


@dataclass
class Estimates:
    """Spectral quantities a reconstruction method may consume; ``sign`` holds one
    value in [-1, 1] per bin, as :func:`~msgla.geometry.oracle_sign` returns."""

    mag_speech: np.ndarray | None = None
    mag_noise: np.ndarray | None = None
    phase_noise: np.ndarray | None = None
    sign: np.ndarray | None = None


def _stats(
    n: int,
    speech_values: np.ndarray,
    projected: np.ndarray,
    z: np.ndarray,
    stft_cfg: StftConfig,
    ref: np.ndarray | None,
    candidates,
    angles,
) -> IterationStats:
    """Diagnostics of the iterate ``z``; ``ref`` is the reference phasor.

    As ``|z| = |ref| = 1`` to rounding, the phase cosine similarity is
    ``Re <ref, z> / N``: one dot product over the float64 components.
    ``angles(z)``, the iterate's phase, is formed only for the candidates.
    """
    return IterationStats(
        iteration=n,
        inconsistency=weighted_frobenius(_elementwise(np.subtract, speech_values, projected), stft_cfg),
        phase_cos_sim=None if ref is None else _dot(ref.view(np.float64), z.view(np.float64)) / z.size,
        candidate_distance=(
            None
            if candidates is None
            else float(np.mean(nearest_candidate_distance(angles(z), candidates)))
        ),
    )


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

    def part(z, values, out):
        np.copyto(out, z)
        return _unit(values, np.abs(values), out)

    return _elementwise(part, z, values, dtype=np.complex128)


def _residual(mixture: np.ndarray, mag: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """``mixture - mag * unit``."""

    def part(mixture, mag, unit, out):
        return np.subtract(mixture, np.multiply(mag, unit, out=out), out=out)

    return _elementwise(part, mixture, mag, unit, dtype=np.complex128)


def _start(cfg: ReconConfig, noisy: Spectrogram) -> tuple[np.ndarray, np.ndarray]:
    """Initial phase of every loop and its phasor ``z0``: for init 'noisy' the mixture
    phase and ``mixture / |mixture|`` (1 at exact zeros), else ``exp(1j * phase)``."""
    shape = noisy.values.shape
    if cfg.init == "noisy":
        mag_mix, phase = decompose(noisy)

        def part(values, mag, out):
            out.fill(1.0)
            return _unit(values, mag, out)

        return phase, _elementwise(part, noisy.values, mag_mix, dtype=np.complex128)
    rng = np.random.default_rng(cfg.seed)
    phase = np.zeros(shape) if cfg.init == "zero" else rng.uniform(-np.pi, np.pi, size=shape)
    return phase, _expj(phase)


def _run(noisy: Spectrogram, mag, update, cfg: ReconConfig, ref_phase, candidates, phase, z0):
    """The loop shared by every method, on a unit phasor iterate ``z``.

    Each iteration projects the speech estimate ``mag * z`` onto consistent
    spectrograms of the mixture's STFT grid and hands the projection to
    ``update(z, projected)``, which returns the next phasor. One last pass
    projects the final iterate through its synthesized signal, which measures
    the final inconsistency and goes on the report. Angles are formed once,
    for ``final_phase``, and per iteration only when a traced run is given
    ``candidates``. A bin whose phasor never moved from ``z0`` reports
    ``phase`` exactly as given. A given ``ref_phase`` is checked, traced or
    not; a traced run forms its phasor once and compares every iterate with it.
    """
    stft_cfg, length = noisy.config, noisy.origin_length
    if ref_phase is not None:
        ref_phase = _estimate("ref_phase", ref_phase, mag.shape, nonnegative=False)
    ref = _expj(ref_phase) if cfg.trace and ref_phase is not None else None

    def angles(z):
        return phase if z is z0 else np.where(z == z0, phase, wrap_phase(_angle(z)))

    z = z0
    stats: list[IterationStats] = []
    for n in range(cfg.iterations + 1):
        speech = _elementwise(np.multiply, mag, z)
        if n < cfg.iterations:
            projected = project_values(speech, stft_cfg, length)
        else:
            signal = _synthesize(speech, stft_cfg, length)
            projected = _analyze(signal, stft_cfg)
        if cfg.trace:
            stats.append(_stats(n, speech, projected, z, stft_cfg, ref, candidates, angles))
        if n < cfg.iterations:
            z = update(z, projected)
    if cfg.trace:
        final = stats[-1].inconsistency
    else:
        final = weighted_frobenius(_elementwise(np.subtract, speech, projected), stft_cfg)
    return ReconReport(angles(z), final, signal, stats)


def gla(
    noisy: Spectrogram,
    mag_speech,
    cfg: ReconConfig | None = None,
    *,
    ref_phase=None,
    candidates=None,
) -> ReconReport:
    """Classical Griffin-Lim: repeatedly take the phase of the projection.

    The mixture ``noisy`` gives the STFT grid and, for init 'noisy', the
    initial phase. At bins where the projection is exactly zero the previous
    phase is retained (zero magnitude carries no phase information), so an
    all-zero magnitude leaves the initialization untouched.
    """
    mag_speech = _estimate("mag_speech", mag_speech, noisy.values.shape)
    cfg = cfg if cfg is not None else ReconConfig()
    return _run(noisy, mag_speech, _phasor, cfg, ref_phase, candidates, *_start(cfg, noisy))


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
    mag_speech = _estimate("mag_speech", mag_speech, noisy.values.shape)
    mag_noise = _estimate("mag_noise", mag_noise, noisy.values.shape)
    cfg = cfg if cfg is not None else ReconConfig()
    mixture, stft_cfg, length = noisy.values, noisy.config, noisy.origin_length

    def update(z, projected):
        speech = _phasor(z, projected)
        noise = _phasor(z, project_values(_residual(mixture, mag_speech, speech), stft_cfg, length))
        return _phasor(z, _residual(mixture, mag_noise, noise))

    return _run(noisy, mag_speech, update, cfg, ref_phase, candidates, *_start(cfg, noisy))


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
    mag_speech = _estimate("mag_speech", mag_speech, noisy.values.shape)
    phase_noise = _estimate("phase_noise", phase_noise, noisy.values.shape, nonnegative=False)
    cfg = cfg if cfg is not None else ReconConfig()
    mixture, stft_cfg, length = noisy.values, noisy.config, noisy.origin_length
    noise = _expj(phase_noise)

    def update(z, projected):
        speech = _phasor(z, projected)
        projected_noise = project_values(_residual(mixture, mag_speech, speech), stft_cfg, length)
        implied_mag_noise = _elementwise(np.abs, projected_noise, dtype=np.float64)
        return _phasor(z, _residual(mixture, implied_mag_noise, noise))

    return _run(noisy, mag_speech, update, cfg, ref_phase, candidates, *_start(cfg, noisy))


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

    The output waveform is the synthesis of the final iterate, the
    (estimated) speech magnitude times the reconstructed phasor, trimmed to
    the mixture's original length; the loop's last pass builds it once.
    ``gla``, ``nm`` and ``np`` run through the public :func:`gla`,
    :func:`nm_msgla` and :func:`np_msgla`. ``passthrough`` keeps the mixture
    phase; ``sign`` applies a supplied sign field to the law-of-cosines
    candidates in one shot.

    Every estimate the method uses, and ``ref_phase``, is checked before any
    STFT: it must be present, have the mixture's shape and be finite, and
    magnitudes must be non-negative; a sign field must lie in [-1, 1].
    """
    cfg = cfg if cfg is not None else ReconConfig()
    est = estimates if estimates is not None else Estimates()
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")

    def present(name: str):
        value = getattr(est, name)
        if value is None:
            raise ValueError(f"method '{method}' requires estimate '{name}'")
        return value

    # Looked up per call: the names may be rebound on the module (a tracer does).
    loops = {"gla": gla, "nm": nm_msgla, "np": np_msgla}
    if method in loops:
        needs = [present(name) for name in METHOD_NEEDS[method]]
        report = loops[method](noisy, *needs, cfg, ref_phase=ref_phase, candidates=candidates)
    else:
        mag_mix, phase = decompose(noisy)
        if method == "passthrough" and est.mag_speech is None:
            mag = mag_mix
        else:
            mag = _estimate("mag_speech", present("mag_speech"), mag_mix.shape)
        if method == "sign":
            mag_noise, sign = present("mag_noise"), present("sign")
            cand = cosine_phase_candidates(mag_mix, phase, mag, mag_noise)
            phase = apply_sign_field(phase, cand.abs_delta, sign)
        no_loop = replace(cfg, iterations=0)
        report = _run(noisy, mag, None, no_loop, ref_phase, candidates, phase, _expj(phase))
    return Waveform(report.signal, noisy.sample_rate), report
