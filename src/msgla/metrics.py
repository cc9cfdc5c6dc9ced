"""Objective evaluation: SI-SNR, phase cosine similarity, inconsistency, error maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import StftConfig, Waveform, _elementwise, angular_distance, project_values, recompose

__all__ = [
    "SI_SNR_CAP_DB",
    "MetricRow",
    "si_snr",
    "plain_snr",
    "phase_cos_sim",
    "bin_weights",
    "weighted_frobenius",
    "inconsistency",
    "phase_error_map",
    "metric_row",
]

# Ratio cap keeping (near-)identical signals finite in aggregated tables.
SI_SNR_CAP_DB = 60.0


@dataclass
class MetricRow:
    """One evaluation cell: waveform metrics plus phase/consistency metrics."""

    si_snr_db: float
    phase_cos_sim: float
    inconsistency: float
    snr_db_plain: float


def _samples(x) -> np.ndarray:
    if isinstance(x, Waveform):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def _ratio_db(p_num: float, p_den: float) -> float:
    if p_num == 0.0:
        return -SI_SNR_CAP_DB
    if p_den == 0.0:
        return SI_SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(p_num / p_den), -SI_SNR_CAP_DB, SI_SNR_CAP_DB))


def si_snr(est, ref) -> float:
    """Scale-invariant signal-to-noise ratio in dB.

    Both signals are mean-removed, the estimate is projected onto the
    reference, and the energy ratio of the projection to the residual is
    returned, capped to +-SI_SNR_CAP_DB.
    """
    e = _samples(est)
    r = _samples(ref)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: estimate {e.shape} vs reference {r.shape}")
    e = e - e.mean()
    r = r - r.mean()
    ref_power = float(r @ r)
    if ref_power == 0.0:
        raise ValueError("reference signal is silent")
    target = (float(e @ r) / ref_power) * r
    residual = e - target
    return _ratio_db(float(target @ target), float(residual @ residual))


def plain_snr(est, ref) -> float:
    """Ordinary (scale-sensitive) SNR of ``est`` against ``ref`` in dB."""
    e = _samples(est)
    r = _samples(ref)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: estimate {e.shape} vs reference {r.shape}")
    ref_power = float(r @ r)
    if ref_power == 0.0:
        raise ValueError("reference signal is silent")
    diff = e - r
    return _ratio_db(ref_power, float(diff @ diff))


def phase_cos_sim(phase_est, phase_ref) -> float:
    """Mean cosine of the per-bin phase difference, every bin weighted alike."""
    pe = np.asarray(phase_est, dtype=np.float64)
    pr = np.asarray(phase_ref, dtype=np.float64)
    if pe.shape != pr.shape:
        raise ValueError(f"shape mismatch: {pe.shape} vs {pr.shape}")
    return float(_elementwise(_cos_of_difference, pe, pr).mean())


def _cos_of_difference(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.cos(np.subtract(a, b, out=out), out=out)


def bin_weights(cfg: StftConfig) -> np.ndarray:
    """Multiplicity of each one-sided bin in the full conjugate-symmetric spectrum."""
    w = np.full(cfg.n_bins, 2.0)
    w[0] = 1.0
    if cfg.fft_length % 2 == 0:
        w[-1] = 1.0
    return w


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the elementwise products of two float64 arrays of one size.

    It runs in einsum's own loop, not in BLAS, so that no result depends on
    the BLAS thread count.
    """
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def weighted_frobenius(values, cfg: StftConfig) -> float:
    """Frobenius norm of a one-sided array measured on the full spectrum.

    It is ``sqrt(sum(bin_weights(cfg) * abs(values)**2))``, formed as twice
    the sum of squares of every component less that of the edge bins (DC, and
    Nyquist for an even FFT length), so no weighted copy is built. The last
    axis must hold the ``cfg.n_bins`` bins; leading axes are free.
    """
    v = np.asarray(values)
    if v.shape[-1:] != (cfg.n_bins,):
        raise ValueError(f"values shape {v.shape} does not end in config bins {cfg.n_bins}")
    complex_input = np.iscomplexobj(v)
    v = np.ascontiguousarray(v, dtype=np.complex128 if complex_input else np.float64)
    # (..., bin, component): one component for real input, two for complex.
    parts = v.view(np.float64).reshape(*v.shape, 2 if complex_input else 1)
    # An even FFT length has a Nyquist bin: the stride n_bins - 1 picks it and DC.
    edges = parts[..., :: cfg.n_bins - 1, :] if cfg.fft_length % 2 == 0 else parts[..., :1, :]
    return float(np.sqrt(2.0 * _dot(parts, parts) - _dot(edges, edges)))


def inconsistency(mag, phase, cfg: StftConfig, origin_length: int | None = None) -> float:
    """Distance of ``mag * exp(j*phase)`` from its consistency projection.

    Measured as the Frobenius norm on the full conjugate-symmetric
    spectrogram, so it is exactly the quantity the projection minimizes.
    Zero (within float error) if and only if the input is consistent.
    """
    s = recompose(mag, phase)
    projected = project_values(s, cfg, origin_length)
    return weighted_frobenius(_elementwise(np.subtract, s, projected), cfg)


def phase_error_map(phase_est, phase_ref) -> np.ndarray:
    """Per-bin angular distance between two phase arrays, in [0, pi]."""
    pe = np.asarray(phase_est, dtype=np.float64)
    pr = np.asarray(phase_ref, dtype=np.float64)
    if pe.shape != pr.shape:
        raise ValueError(f"shape mismatch: {pe.shape} vs {pr.shape}")
    return angular_distance(pe, pr)


def metric_row(
    est_wave,
    ref_wave,
    phase_est,
    phase_ref,
    mag,
    cfg: StftConfig,
    origin_length: int | None = None,
) -> MetricRow:
    """Bundle the standard evaluation metrics for one enhanced signal."""
    return MetricRow(
        si_snr_db=si_snr(est_wave, ref_wave),
        phase_cos_sim=phase_cos_sim(phase_est, phase_ref),
        inconsistency=inconsistency(mag, phase_est, cfg, origin_length),
        snr_db_plain=plain_snr(est_wave, ref_wave),
    )
