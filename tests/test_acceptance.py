"""Acceptance gate: one test per release criterion, each printing a pass/fail line.

Criteria 2 and 3 build their exact additive pairs directly in the T-F domain
(seeded complex Gaussian arrays, mixture defined as the exact elementwise
sum). Spectrograms of real signals are unsuitable for a 1e-9 exactness bound
because their DC/Nyquist bins are structurally collinear, which parks the
arccos on its branch point and amplifies float rounding to ~1e-7 there; the
candidate-geometry claim is elementwise, so the generic-phase corpus audits
it at every bin.
"""

import time

import numpy as np
import pytest

from msgla.cli import main as cli_main
from msgla.geometry import (
    cosine_phase_candidates,
    nearest_candidate_distance,
    sine_phase_candidates,
)
from msgla.harness import (
    EstimateProvider,
    ExperimentSpec,
    MixtureSpec,
    default_provider_pairs,
    run_experiment,
    synthesize_mixture,
)
from msgla.metrics import phase_cos_sim, si_snr
from msgla.reconstruct import Estimates, ReconConfig, enhance, gla, nm_msgla, np_msgla
from msgla.spectral import Spectrogram, StftConfig, Waveform, canonical_length, decompose, istft, stft, wrap_phase

CFG = StftConfig()


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _exact_array_mixture(seed: int, shape=(17, 257)):
    rng = np.random.default_rng(seed)
    h_speech = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h_noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return h_speech, h_noise, h_speech + h_noise


def _oracle_parts(seed: int):
    triple = synthesize_mixture("harmonic", 0.0, 0.5, 16000, seed)
    noisy_spec = stft(triple.noisy, CFG)
    mag_mix, phase_mix = decompose(noisy_spec)
    mag_speech, phase_speech = decompose(stft(triple.clean, CFG))
    mag_noise, phase_noise = decompose(stft(triple.noise, CFG))
    return triple, noisy_spec, mag_mix, phase_mix, mag_speech, phase_speech, mag_noise, phase_noise


def test_criterion_1_stft_round_trip():
    start = time.monotonic()
    worst = 0.0
    for seed in range(50):
        x = np.random.default_rng(seed).standard_normal(8000)
        y = istft(stft(Waveform(x, 16000), CFG))
        worst = max(worst, np.max(np.abs(y.samples - x)) / np.max(np.abs(x)))
    elapsed = time.monotonic() - start
    _report(
        1,
        "stft round trip",
        worst < 1e-10 and elapsed < 5.0,
        f"worst relative error {worst:.3e} (limit 1e-10), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_cosine_candidate_exactness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        h_speech, h_noise, h_mix = _exact_array_mixture(seed)
        keep = (np.abs(h_speech) > 1e-6) & (np.abs(h_mix) > 1e-6)
        cand = cosine_phase_candidates(
            np.abs(h_mix), wrap_phase(np.angle(h_mix)), np.abs(h_speech), np.abs(h_noise)
        )
        dist = nearest_candidate_distance(wrap_phase(np.angle(h_speech)), cand)
        worst = max(worst, float(dist[keep].max()))
    elapsed = time.monotonic() - start
    _report(
        2,
        "law-of-cosines exactness",
        worst < 1e-9 and elapsed < 30.0,
        f"worst candidate distance {worst:.3e} rad (limit 1e-9), {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_3_sine_candidate_exactness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        h_speech, h_noise, h_mix = _exact_array_mixture(seed)
        keep = (np.abs(h_speech) > 1e-6) & (np.abs(h_mix) > 1e-6)
        cand = sine_phase_candidates(
            np.abs(h_mix),
            wrap_phase(np.angle(h_mix)),
            np.abs(h_speech),
            wrap_phase(np.angle(h_noise)),
        )
        dist = nearest_candidate_distance(wrap_phase(np.angle(h_speech)), cand)
        worst = max(worst, float(dist[keep].max()))
    elapsed = time.monotonic() - start
    _report(
        3,
        "law-of-sines exactness",
        worst < 1e-9 and elapsed < 30.0,
        f"worst candidate distance {worst:.3e} rad (limit 1e-9), {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_4_gla_monotonicity():
    start = time.monotonic()
    worst_step = -np.inf
    for seed in range(10):
        mag = np.random.default_rng(seed).uniform(0.0, 1.0, size=(17, CFG.n_bins))
        noisy = Spectrogram(mag, CFG, canonical_length(len(mag), CFG))
        report = gla(noisy, mag, ReconConfig(iterations=100, init="zero"))
        seq = np.array([s.inconsistency for s in report.per_iteration])
        assert seq.shape[0] == 101
        worst_step = max(worst_step, float(np.diff(seq).max()))
    elapsed = time.monotonic() - start
    _report(
        4,
        "GLA monotonicity",
        worst_step <= 1e-9 and elapsed < 30.0,
        f"largest per-step increase {worst_step:.3e} (limit 1e-9), {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_5_candidate_attraction():
    start = time.monotonic()
    recon = ReconConfig(iterations=5, trace=True)
    worst_final_nm = worst_final_np = 0.0
    ok = True
    for seed in range(20):
        (triple, noisy_spec, mag_mix, phase_mix, mag_speech, phase_speech,
         mag_noise, phase_noise) = _oracle_parts(seed)
        high = mag_speech > np.median(mag_speech)

        # Iteration 0 of init 'noisy' is the mixture phase; iteration 5 is the final phase.
        cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
        rep = nm_msgla(noisy_spec, mag_speech, mag_noise, recon)
        d0 = float(np.median(nearest_candidate_distance(phase_mix, cand)[high]))
        d5 = float(np.median(nearest_candidate_distance(rep.final_phase, cand)[high]))
        ok = ok and d5 < 0.1 and d5 <= d0
        worst_final_nm = max(worst_final_nm, d5)

        scand = sine_phase_candidates(mag_mix, phase_mix, mag_speech, phase_noise)
        rep = np_msgla(noisy_spec, mag_speech, phase_noise, recon)
        s0 = float(np.median(nearest_candidate_distance(phase_mix, scand)[high]))
        s5 = float(np.median(nearest_candidate_distance(rep.final_phase, scand)[high]))
        ok = ok and s5 < 0.1 and s5 <= s0
        worst_final_np = max(worst_final_np, s5)
    elapsed = time.monotonic() - start
    _report(
        5,
        "candidate attraction",
        ok and elapsed < 60.0,
        f"worst median distance at iteration 5: nm {worst_final_nm:.3f}, np "
        f"{worst_final_np:.3f} rad (limit 0.1), {elapsed:.2f}s (limit 60s)",
    )


def test_criterion_6_oracle_matrix_ordering():
    start = time.monotonic()
    mixtures = [MixtureSpec("harmonic", 0.0, 0.5, 16000, seed) for seed in range(20)]
    spec = ExperimentSpec(
        mixtures=mixtures,
        methods=["nm"],
        provider_pairs=default_provider_pairs(0.3, 0),
        stft_cfg=CFG,
        recon_cfg=ReconConfig(trace=False),
    )
    table = run_experiment(spec)
    means = {
        (r["speech_provider"], r["noise_provider"]): r["phase_cos_sim"]
        for r in table.rows
        if r["row_kind"] == "mean"
    }
    baseline = float(
        np.mean([r["phase_cos_sim_noisy"] for r in table.rows if r["row_kind"] == "cell"])
    )
    oo = means[("oracle", "oracle")]
    pp = means[("perturbed(0.3)", "perturbed(0.3)")]
    highest = all(oo > v for k, v in means.items() if k != ("oracle", "oracle"))
    lowest = all(pp < v for k, v in means.items() if k != ("perturbed(0.3)", "perturbed(0.3)"))
    beats_baseline = all(v > baseline for v in means.values())
    elapsed = time.monotonic() - start
    _report(
        6,
        "oracle-experiment ordering",
        highest and lowest and beats_baseline and elapsed < 120.0,
        f"cells {dict((k, round(v, 3)) for k, v in means.items())}, baseline "
        f"{baseline:.3f}, {elapsed:.2f}s (limit 120s)",
    )


def test_criterion_7_enhancement_gain():
    start = time.monotonic()
    gains_nm, gains_np = [], []
    recon = ReconConfig(trace=False)
    for seed in range(20):
        (triple, noisy_spec, _, _, mag_speech, _, mag_noise, phase_noise) = _oracle_parts(seed)
        base = si_snr(triple.noisy, triple.clean)
        wave_nm, _ = enhance(
            noisy_spec, "nm", Estimates(mag_speech=mag_speech, mag_noise=mag_noise), recon
        )
        wave_np, _ = enhance(
            noisy_spec, "np", Estimates(mag_speech=mag_speech, phase_noise=phase_noise), recon
        )
        gains_nm.append(si_snr(wave_nm, triple.clean) - base)
        gains_np.append(si_snr(wave_np, triple.clean) - base)
    mean_nm, mean_np = float(np.mean(gains_nm)), float(np.mean(gains_np))
    elapsed = time.monotonic() - start
    _report(
        7,
        "enhancement gain",
        mean_nm > 3.0 and mean_np > 3.0 and elapsed < 120.0,
        f"mean SI-SNR gain nm {mean_nm:.2f} dB, np {mean_np:.2f} dB (limit 3 dB), "
        f"{elapsed:.2f}s",
    )


def test_criterion_8_metric_correctness():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(4096)
    est = ref + 0.4 * rng.standard_normal(4096)
    base = si_snr(est, ref)
    scale_ok = all(abs(si_snr(a * est, ref) - base) < 1e-9 for a in (0.001, -2.0, 1e5))

    ref0 = ref - ref.mean()
    raw = rng.standard_normal(4096)
    raw -= raw.mean()
    ortho = raw - (raw @ ref0) / (ref0 @ ref0) * ref0
    ortho *= np.linalg.norm(ref0) / np.linalg.norm(ortho)
    zero_db = si_snr(ref0 + ortho, ref0)
    ortho_ok = abs(zero_db) < 1e-6

    phases = rng.uniform(-np.pi, np.pi, (40, 60))
    identical = phase_cos_sim(phases, phases)
    antipodal = phase_cos_sim(phases + np.pi, phases)
    cos_ok = identical == 1.0 and antipodal == pytest.approx(-1.0, abs=1e-12)
    _report(
        8,
        "metric correctness",
        scale_ok and ortho_ok and cos_ok,
        f"scale-invariant to 1e-9 dB: {scale_ok}; orthogonal-noise SI-SNR "
        f"{zero_db:.2e} dB; cos-sim identical/antipodal {identical}/{antipodal:.12f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    argv = [
        "oracle-exp",
        "--methods",
        "nm",
        "--snr-grid",
        "0",
        "--seeds",
        "0",
        "1",
        "2",
        "--duration",
        "0.25",
        "--jobs",
        "2",
    ]
    assert cli_main(argv + ["--out-dir", str(tmp_path / "run1")]) == 0
    assert cli_main(argv + ["--out-dir", str(tmp_path / "run2")]) == 0
    first = (tmp_path / "run1" / "results.csv").read_bytes()
    second = (tmp_path / "run2" / "results.csv").read_bytes()
    _report(
        9,
        "experiment determinism",
        first == second,
        f"results.csv identical across reruns ({len(first)} bytes)",
    )


def test_criterion_10_degradation_monotonicity():
    start = time.monotonic()
    means = []
    for std in (0.0, 0.1, 0.3):
        provider = EstimateProvider("perturbed_oracle", noise_std=std, seed=0)
        spec = ExperimentSpec(
            mixtures=[MixtureSpec("harmonic", 0.0, 0.5, 16000, seed) for seed in range(20)],
            methods=["nm"],
            provider_pairs=[(provider, provider)],
            stft_cfg=CFG,
            recon_cfg=ReconConfig(trace=False),
        )
        table = run_experiment(spec)
        mean_row = [r for r in table.rows if r["row_kind"] == "mean"][0]
        means.append(float(mean_row["phase_cos_sim"]))
    elapsed = time.monotonic() - start
    monotone = means[0] >= means[1] >= means[2]
    _report(
        10,
        "degradation monotonicity",
        monotone,
        f"mean cos-sim over noise_std (0, 0.1, 0.3): "
        f"{[round(m, 4) for m in means]}, {elapsed:.2f}s",
    )
