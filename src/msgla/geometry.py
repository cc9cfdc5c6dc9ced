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
where clamping or a degenerate denominator occurred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import angular_distance, wrap_phase

__all__ = [
    "DEFAULT_FLOOR",
    "CosineCandidates",
    "SineCandidates",
    "SignField",
    "cosine_phase_candidates",
    "sine_phase_candidates",
    "apply_sign_field",
    "oracle_sign",
    "nearest_candidate_distance",
]

# Magnitude products below this are treated as degenerate geometry.
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


@dataclass
class SignField:
    """Per-bin candidate selector: hard signs (+-1) or soft values in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(np.abs(self.values) > 1.0):
            raise ValueError("sign field values must lie in [-1, 1]")


def _check_shapes(**arrays) -> None:
    shapes = {name: np.shape(a) for name, a in arrays.items()}
    if len(set(shapes.values())) > 1:
        raise ValueError(f"shape mismatch: {shapes}")


def cosine_phase_candidates(
    mag_mix,
    phase_mix,
    mag_speech,
    mag_noise,
    floor: float = DEFAULT_FLOOR,
) -> CosineCandidates:
    """Speech-phase candidates ``phase_mix +- |delta|`` via the law of cosines.

    ``|delta| = arccos((mag_mix^2 + mag_speech^2 - mag_noise^2) /
    (2 * mag_speech * mag_mix))`` with the argument clamped to [-1, 1].
    Bins whose magnitude product falls below ``floor`` get ``|delta| = 0``
    (both candidates collapse onto the mixture phase) and are marked invalid.
    """
    mag_mix = np.asarray(mag_mix, dtype=np.float64)
    phase_mix = np.asarray(phase_mix, dtype=np.float64)
    mag_speech = np.asarray(mag_speech, dtype=np.float64)
    mag_noise = np.asarray(mag_noise, dtype=np.float64)
    _check_shapes(mag_mix=mag_mix, phase_mix=phase_mix, mag_speech=mag_speech, mag_noise=mag_noise)

    product = mag_speech * mag_mix
    nondegenerate = product >= floor
    numerator = mag_mix**2 + mag_speech**2 - mag_noise**2
    raw = np.where(nondegenerate, numerator / np.where(nondegenerate, 2.0 * product, 1.0), 1.0)
    arg = np.clip(raw, -1.0, 1.0)
    abs_delta = np.where(nondegenerate, np.arccos(arg), 0.0)
    validity = nondegenerate & (np.abs(raw) <= 1.0)
    return CosineCandidates(
        abs_delta=abs_delta,
        plus_candidate=wrap_phase(phase_mix + abs_delta),
        minus_candidate=wrap_phase(phase_mix - abs_delta),
        validity_mask=validity,
    )


def sine_phase_candidates(
    mag_mix,
    phase_mix,
    mag_speech,
    phase_noise,
    floor: float = DEFAULT_FLOOR,
) -> SineCandidates:
    """Speech-phase candidates via the law of sines.

    With ``r = (mag_mix / mag_speech) * sin(phase_mix - phase_noise)``
    clamped to [-1, 1], the candidates are ``arcsin(r) + phase_noise`` and
    ``pi - arcsin(r) + phase_noise``, wrapped to [-pi, pi). Bins with speech
    magnitude below ``floor`` get the wrapped mixture phase for both
    candidates, as the cosine law gives them, and are marked invalid.
    """
    mag_mix = np.asarray(mag_mix, dtype=np.float64)
    phase_mix = np.asarray(phase_mix, dtype=np.float64)
    mag_speech = np.asarray(mag_speech, dtype=np.float64)
    phase_noise = np.asarray(phase_noise, dtype=np.float64)
    _check_shapes(
        mag_mix=mag_mix, phase_mix=phase_mix, mag_speech=mag_speech, phase_noise=phase_noise
    )

    nondegenerate = mag_speech >= floor
    ratio = np.where(nondegenerate, mag_mix / np.where(nondegenerate, mag_speech, 1.0), 0.0)
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

    ``sign`` may be a :class:`SignField` or a bare array; values must lie in
    [-1, 1] (soft selectors interpolate between the candidates).
    """
    phase_mix = np.asarray(phase_mix, dtype=np.float64)
    abs_delta = np.asarray(abs_delta, dtype=np.float64)
    values = sign.values if isinstance(sign, SignField) else np.asarray(sign, dtype=np.float64)
    _check_shapes(phase_mix=phase_mix, abs_delta=abs_delta, sign=values)
    if np.any(np.abs(values) > 1.0):
        raise ValueError("sign field values must lie in [-1, 1]")
    return wrap_phase(phase_mix + values * abs_delta)


def oracle_sign(candidates: CosineCandidates, phase_ref) -> SignField:
    """Per-bin sign selecting the candidate closest to a reference phase.

    Ties (including zero ``abs_delta``) resolve to +1 for determinism.
    """
    phase_ref = np.asarray(phase_ref, dtype=np.float64)
    _check_shapes(plus=candidates.plus_candidate, ref=phase_ref)
    d_plus = angular_distance(candidates.plus_candidate, phase_ref)
    d_minus = angular_distance(candidates.minus_candidate, phase_ref)
    return SignField(np.where(d_minus < d_plus, -1.0, 1.0))


def nearest_candidate_distance(phase, candidates) -> np.ndarray:
    """Per-bin angular distance from ``phase`` to the closer of the two candidates."""
    a, b = candidates.candidate_pair()
    return np.minimum(angular_distance(phase, a), angular_distance(phase, b))
