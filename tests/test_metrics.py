import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgla
from msgla.metrics import (
    SI_SNR_CAP_DB,
    bin_weights,
    inconsistency,
    phase_cos_sim,
    phase_error_map,
    plain_snr,
    si_snr,
    weighted_frobenius,
)
from msgla.spectral import StftConfig, Waveform, canonical_length, decompose, stft


def _zero_mean(rng, n):
    x = rng.standard_normal(n)
    return x - x.mean()


def test_si_snr_identical_is_capped():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    assert si_snr(x, x) == SI_SNR_CAP_DB
    assert si_snr(3.0 * x, x) == SI_SNR_CAP_DB


def test_si_snr_of_a_silent_estimate_is_the_floor():
    # A silent (or constant, hence silent once mean-removed) estimate has no
    # projection onto the reference: the ratio is 0, read as -SI_SNR_CAP_DB.
    ref = np.random.default_rng(5).standard_normal(1000)
    assert si_snr(np.zeros(1000), ref) == -SI_SNR_CAP_DB
    assert si_snr(np.full(1000, 0.25), ref) == -SI_SNR_CAP_DB


def test_si_snr_scale_invariance():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(2000)
    est = ref + 0.3 * rng.standard_normal(2000)
    base = si_snr(est, ref)
    for alpha in (0.01, -1.0, 7.5, 1e4):
        assert abs(si_snr(alpha * est, ref) - base) < 1e-9


def test_si_snr_orthogonal_noise_is_zero_db():
    rng = np.random.default_rng(2)
    ref = _zero_mean(rng, 4096)
    raw = _zero_mean(rng, 4096)
    noise = raw - (raw @ ref) / (ref @ ref) * ref
    noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
    assert abs(si_snr(ref + noise, ref)) < 1e-6


def test_si_snr_errors():
    with pytest.raises(ValueError, match="length"):
        si_snr(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="silent"):
        si_snr(np.ones(8), np.zeros(8))


def test_si_snr_accepts_waveforms():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(500)
    assert si_snr(Waveform(x, 16000), Waveform(x, 16000)) == SI_SNR_CAP_DB


def test_plain_snr_matches_hand_computation():
    ref = np.array([1.0, -1.0, 2.0, 0.0])
    est = ref + np.array([0.1, 0.0, -0.1, 0.2])
    expected = 10 * np.log10((ref @ ref) / (0.1**2 + 0.1**2 + 0.2**2))
    assert plain_snr(est, ref) == pytest.approx(expected, abs=1e-9)


def test_phase_cos_sim_trivials():
    rng = np.random.default_rng(4)
    p = rng.uniform(-np.pi, np.pi, (20, 30))
    assert phase_cos_sim(p, p) == 1.0
    assert phase_cos_sim(p + np.pi, p) == pytest.approx(-1.0, abs=1e-12)
    assert phase_cos_sim(p + 2 * np.pi, p) == pytest.approx(1.0, abs=1e-9)


def test_phase_metrics_reject_shapes_that_only_broadcast():
    for metric in (phase_cos_sim, phase_error_map):
        with pytest.raises(ValueError, match=r"^shape mismatch: \(3, 4\) vs \(4,\)"):
            metric(np.zeros((3, 4)), np.zeros(4))


def test_phase_cos_sim_random_is_near_zero():
    rng = np.random.default_rng(5)
    shape = (200, 400)
    p_est = rng.uniform(-np.pi, np.pi, shape)
    p_ref = rng.uniform(-np.pi, np.pi, shape)
    n = shape[0] * shape[1]
    assert abs(phase_cos_sim(p_est, p_ref)) < 3.0 / np.sqrt(n)


def test_phase_cos_sim_weighted():
    # Every bin counts alike: one matching and one opposite bin average to 0.
    p_est = np.array([[0.0, np.pi]])
    p_ref = np.array([[0.0, 0.0]])
    assert phase_cos_sim(p_est, p_ref) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="shape"):
        phase_cos_sim(p_est, np.zeros((2, 2)))


def test_inconsistency_zero_iff_consistent():
    cfg = StftConfig()
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4000)
    s = stft(Waveform(x, 16000), cfg)
    mag, phase = decompose(s)
    assert inconsistency(mag, phase, cfg, s.origin_length) < 1e-9

    other = rng.uniform(-np.pi, np.pi, mag.shape)
    assert inconsistency(mag, other, cfg, s.origin_length) > 1e-3


def test_inconsistency_zero_spectrogram():
    cfg = StftConfig()
    shape = (9, cfg.n_bins)
    assert inconsistency(np.zeros(shape), np.zeros(shape), cfg, canonical_length(9, cfg)) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    frames=st.one_of(st.none(), st.integers(0, 6)),
    fft_length=st.integers(2, 41),
    content=st.sampled_from(["complex", "real", "zero", "edges"]),
    scale_exp=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_frobenius_is_the_explicit_weighted_sum(frames, fft_length, content, scale_exp, seed):
    # frames None is a single 1-D frame; odd and even FFT lengths differ in the Nyquist bin.
    cfg = StftConfig(window_length=2, hop_length=1, fft_length=fft_length)
    shape = (cfg.n_bins,) if frames is None else (frames, cfg.n_bins)
    rng = np.random.default_rng(seed)
    values = 10.0**scale_exp * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if content == "real":
        values = values.real
    elif content == "zero":
        values = np.zeros(shape, dtype=np.complex128)
    elif content == "edges":
        values[..., 1 : cfg.n_bins - (fft_length % 2 == 0)] = 0.0
    expected = np.sqrt(np.sum(bin_weights(cfg) * np.abs(values) ** 2))
    assert weighted_frobenius(values, cfg) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shape", [(3, 258), (256,), (257, 1), ()])
def test_weighted_frobenius_rejects_a_wrong_bin_count(shape):
    with pytest.raises(ValueError, match="257"):
        weighted_frobenius(np.ones(shape), StftConfig())


def test_weighted_frobenius_does_not_depend_on_the_blas_thread_count():
    script = (
        "import numpy as np\n"
        "from msgla.metrics import weighted_frobenius\n"
        "from msgla.spectral import StftConfig\n"
        "rng = np.random.default_rng(9)\n"
        "v = rng.standard_normal((626, 257)) + 1j * rng.standard_normal((626, 257))\n"
        "print(repr(weighted_frobenius(v, StftConfig())))\n"
    )
    src = str(Path(msgla.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        printed.append(proc.stdout)
    assert printed[0] == printed[1] != ""


def test_phase_error_map_values_and_symmetry():
    rng = np.random.default_rng(7)
    p = rng.uniform(-np.pi, np.pi, (10, 12))
    assert np.all(phase_error_map(p, p) == 0.0)
    shifted = p + np.pi / 2
    assert np.allclose(phase_error_map(shifted, p), np.pi / 2, atol=1e-12)
    q = rng.uniform(-np.pi, np.pi, (10, 12))
    assert np.allclose(phase_error_map(p, q), phase_error_map(q, p), atol=1e-15)
    err = phase_error_map(p, q)
    assert np.all(err >= 0) and np.all(err <= np.pi)


def test_phase_error_map_masked_mean_two_paths():
    # mean over low-energy bins computed from the exported map equals the
    # value obtained by masking directly
    rng = np.random.default_rng(8)
    p_est = rng.uniform(-np.pi, np.pi, (30, 40))
    p_ref = rng.uniform(-np.pi, np.pi, (30, 40))
    energy = rng.uniform(0, 1, (30, 40))
    mask = energy < np.median(energy)
    err_map = phase_error_map(p_est, p_ref)
    direct = np.abs(
        np.mod(p_est[mask] - p_ref[mask] + np.pi, 2 * np.pi) - np.pi
    ).mean()
    assert err_map[mask].mean() == pytest.approx(direct, abs=1e-12)
