"""Closed-form phase candidates from the additive-mixture triangle.

At each T-F bin the complex values of speech, noise and mixture form a
triangle, so knowing enough side lengths (magnitudes) or angles (phases)
pins the speech phase down to a two-way ambiguity:

* law of cosines: speech and noise magnitudes give the absolute phase
  difference to the mixture, leaving a sign choice;
* law of sines: speech magnitude and noise phase give an arcsine whose
  two branches are the candidates.

Estimated magnitudes routinely violate the triangle inequality, so the
inverse-trig arguments are clamped to [-1, 1]; the validity masks record
where clamping or a degenerate denominator occurred. Every array argument
must have the mixture's shape and finite values, and magnitudes must be
non-negative (``spectral._estimate``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _estimate, angular_distance, wrap_phase

__all__ = [
    "DEFAULT_FLOOR",
    "CosineCandidates",
    "SineCandidates",
    "cosine_phase_candidates",
    "sine_phase_candidates",
    "apply_sign_field",
    "oracle_sign",
    "nearest_candidate_distance",
]

# Magnitude products below this are treated as degenerate geometry; the laws
# read it at each call.
DEFAULT_FLOOR = 1e-12


@dataclass
class CosineCandidates:
    """Two speech-phase candidates derived from magnitudes alone."""

    abs_delta: np.ndarray
    plus_candidate: np.ndarray
    minus_candidate: np.ndarray
    validity_mask: np.ndarray

    def candidate_pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.plus_candidate, self.minus_candidate


@dataclass
class SineCandidates:
    """Two speech-phase candidates derived from speech magnitude + noise phase."""

    primary_candidate: np.ndarray
    reflected_candidate: np.ndarray
    validity_mask: np.ndarray

    def candidate_pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.primary_candidate, self.reflected_candidate


def _mixture(mag_mix, phase_mix) -> tuple[np.ndarray, np.ndarray]:
    """The checked mixture magnitude and phase; the magnitude's shape is the mixture's."""
    mag_mix = _estimate("mag_mix", mag_mix, np.shape(mag_mix))
    return mag_mix, _estimate("phase_mix", phase_mix, mag_mix.shape, nonnegative=False)


def cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise) -> CosineCandidates:
    """Speech-phase candidates ``phase_mix +- |delta|`` via the law of cosines.

    ``|delta| = arccos((mag_mix^2 + mag_speech^2 - mag_noise^2) /
    (2 * mag_speech * mag_mix))`` with the argument clamped to [-1, 1].
    Bins whose magnitude product falls below ``DEFAULT_FLOOR`` get
    ``|delta| = 0`` (both candidates collapse onto the mixture phase) and are
    marked invalid.
    """
    mag_mix, phase_mix = _mixture(mag_mix, phase_mix)
    mag_speech = _estimate("mag_speech", mag_speech, mag_mix.shape)
    mag_noise = _estimate("mag_noise", mag_noise, mag_mix.shape)

    product = mag_speech * mag_mix
    nondegenerate = product >= DEFAULT_FLOOR
    numerator = mag_mix**2 + mag_speech**2 - mag_noise**2
    # A degenerate bin is divided by 1; the mask and abs_delta drop what it gives.
    raw = numerator / np.where(nondegenerate, 2.0 * product, 1.0)
    arg = np.clip(raw, -1.0, 1.0)
    abs_delta = np.where(nondegenerate, np.arccos(arg), 0.0)
    validity = nondegenerate & (np.abs(raw) <= 1.0)
    return CosineCandidates(
        abs_delta=abs_delta,
        plus_candidate=wrap_phase(phase_mix + abs_delta),
        minus_candidate=wrap_phase(phase_mix - abs_delta),
        validity_mask=validity,
    )


def sine_phase_candidates(mag_mix, phase_mix, mag_speech, phase_noise) -> SineCandidates:
    """Speech-phase candidates via the law of sines.

    With ``r = (mag_mix / mag_speech) * sin(phase_mix - phase_noise)``
    clamped to [-1, 1], the candidates are ``arcsin(r) + phase_noise`` and
    ``pi - arcsin(r) + phase_noise``, wrapped to [-pi, pi). Bins with speech
    magnitude below ``DEFAULT_FLOOR`` get the wrapped mixture phase for both
    candidates, as the cosine law gives them, and are marked invalid.
    """
    mag_mix, phase_mix = _mixture(mag_mix, phase_mix)
    mag_speech = _estimate("mag_speech", mag_speech, mag_mix.shape)
    phase_noise = _estimate("phase_noise", phase_noise, mag_mix.shape, nonnegative=False)

    nondegenerate = mag_speech >= DEFAULT_FLOOR
    # A degenerate bin is divided by 1; the mask and both candidates drop what it gives.
    ratio = mag_mix / np.where(nondegenerate, mag_speech, 1.0)
    raw = ratio * np.sin(phase_mix - phase_noise)
    arc = np.arcsin(np.clip(raw, -1.0, 1.0))
    held = wrap_phase(phase_mix)
    primary = np.where(nondegenerate, wrap_phase(arc + phase_noise), held)
    reflected = np.where(nondegenerate, wrap_phase(np.pi - arc + phase_noise), held)
    validity = nondegenerate & (np.abs(raw) <= 1.0)
    return SineCandidates(
        primary_candidate=primary,
        reflected_candidate=reflected,
        validity_mask=validity,
    )


def apply_sign_field(phase_mix, abs_delta, sign) -> np.ndarray:
    """Resolve the candidate ambiguity: ``wrap(phase_mix + sign * abs_delta)``.

    ``sign`` holds one value in [-1, 1] per bin: hard signs pick a
    candidate, soft values interpolate between the two.
    """
    phase_mix = _estimate("phase_mix", phase_mix, np.shape(phase_mix), nonnegative=False)
    abs_delta = _estimate("abs_delta", abs_delta, phase_mix.shape)
    sign = _estimate("sign", sign, phase_mix.shape, nonnegative=False)
    if np.any(np.abs(sign) > 1.0):
        raise ValueError("sign contains values outside [-1, 1]")
    return wrap_phase(phase_mix + sign * abs_delta)


def oracle_sign(candidates: CosineCandidates, phase_ref) -> np.ndarray:
    """Per-bin sign (+-1) selecting the candidate closest to a reference phase.

    Ties (including zero ``abs_delta``) resolve to +1 for determinism.
    """
    phase_ref = _estimate("phase_ref", phase_ref, candidates.plus_candidate.shape, nonnegative=False)
    d_plus = angular_distance(candidates.plus_candidate, phase_ref)
    d_minus = angular_distance(candidates.minus_candidate, phase_ref)
    return np.where(d_minus < d_plus, -1.0, 1.0)


def nearest_candidate_distance(phase, candidates) -> np.ndarray:
    """Per-bin angular distance from ``phase`` to the closer of the two candidates."""
    a, b = candidates.candidate_pair()
    phase = _estimate("phase", phase, a.shape, nonnegative=False)
    return np.minimum(angular_distance(phase, a), angular_distance(phase, b))
