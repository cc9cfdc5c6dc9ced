import ast
import importlib
import inspect
import sys
import threading
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgla import metrics, reconstruct, spectral
from msgla.geometry import (
    apply_sign_field,
    cosine_phase_candidates,
    nearest_candidate_distance,
    oracle_sign,
    sine_phase_candidates,
)
from msgla.harness import synthesize_mixture
from msgla.metrics import bin_weights, inconsistency, phase_cos_sim, si_snr, weighted_frobenius
from msgla.reconstruct import METHODS, Estimates, ReconConfig, enhance, gla, nm_msgla, np_msgla
from msgla.spectral import (
    Spectrogram,
    StftConfig,
    Waveform,
    angular_distance,
    decompose,
    istft,
    project_values,
    recompose,
    stft,
)

CFG = StftConfig()


def _mixture(seed=0, snr_db=0.0):
    tri = synthesize_mixture("harmonic", snr_db, 0.5, 16000, seed)
    noisy = stft(tri.noisy, CFG)
    mag_speech, phase_speech = decompose(stft(tri.clean, CFG))
    mag_noise, phase_noise = decompose(stft(tri.noise, CFG))
    return tri, noisy, mag_speech, phase_speech, mag_noise, phase_noise


def test_recon_config_validation():
    with pytest.raises(ValueError):
        ReconConfig(iterations=-1)
    with pytest.raises(ValueError):
        ReconConfig(init="bogus")
    for seed in (-1, 1.5, float("nan"), None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            ReconConfig(seed=seed, init="noisy")
    assert ReconConfig(seed=3.0).seed == 3


def test_gla_fixed_point_at_true_phase():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4000)
    s = stft(Waveform(x, 16000), CFG)
    mag, phase = decompose(s)
    report = gla(
        mag,
        ReconConfig(iterations=3, init="noisy"),
        CFG,
        origin_length=s.origin_length,
        noisy_phase=phase,
    )
    # consistent input: the phase never moves
    assert np.max(np.abs(np.mod(report.final_phase - phase + np.pi, 2 * np.pi) - np.pi)) < 1e-9


def test_gla_inconsistency_nonincreasing():
    rng = np.random.default_rng(1)
    mag = rng.uniform(0.0, 1.0, size=(17, CFG.n_bins))
    report = gla(mag, ReconConfig(iterations=100, init="zero"), CFG)
    seq = [entry.inconsistency for entry in report.per_iteration]
    assert len(seq) == 101
    diffs = np.diff(seq)
    assert np.all(diffs <= 1e-9)


def test_gla_zero_magnitude_keeps_initialization():
    shape = (9, CFG.n_bins)
    rng = np.random.default_rng(2)
    init = rng.uniform(-np.pi, np.pi, shape)
    report = gla(
        np.zeros(shape),
        ReconConfig(iterations=4, init="noisy"),
        CFG,
        noisy_phase=init,
    )
    assert np.array_equal(report.final_phase, init)


def test_gla_requires_noisy_phase_for_noisy_init():
    with pytest.raises(ValueError, match="mixture phase"):
        gla(np.ones((5, CFG.n_bins)), ReconConfig(init="noisy"), CFG)


def test_gla_random_init_deterministic():
    mag = np.random.default_rng(3).uniform(0, 1, (7, CFG.n_bins))
    cfg = ReconConfig(iterations=3, init="random", seed=42)
    a = gla(mag, cfg, CFG)
    b = gla(mag, cfg, CFG)
    assert np.array_equal(a.final_phase, b.final_phase)
    assert [s.inconsistency for s in a.per_iteration] == [
        s.inconsistency for s in b.per_iteration
    ]


def test_nm_zero_noise_fixed_point_at_mixture_phase():
    tri, noisy, *_ = _mixture(seed=4, snr_db=float("inf"))
    mag_mix, phase_mix = decompose(noisy)
    report = nm_msgla(noisy, mag_mix, np.zeros_like(mag_mix), ReconConfig(iterations=1))
    assert np.max(np.abs(report.final_phase - phase_mix)) < 1e-12


def test_nm_improves_cosine_similarity_with_oracle_magnitudes():
    tri, noisy, mag_speech, phase_speech, mag_noise, _ = _mixture(seed=5)
    _, phase_mix = decompose(noisy)
    report = nm_msgla(noisy, mag_speech, mag_noise, ReconConfig(iterations=5))
    assert phase_cos_sim(report.final_phase, phase_speech) > phase_cos_sim(
        phase_mix, phase_speech
    )


def test_nm_trace_records_candidate_attraction():
    tri, noisy, mag_speech, phase_speech, mag_noise, _ = _mixture(seed=6)
    mag_mix, phase_mix = decompose(noisy)
    cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    report = nm_msgla(
        noisy,
        mag_speech,
        mag_noise,
        ReconConfig(iterations=5),
        ref_phase=phase_speech,
        candidates=cand,
    )
    assert len(report.per_iteration) == 6
    first, last = report.per_iteration[0], report.per_iteration[-1]
    assert last.candidate_distance < first.candidate_distance
    assert last.phase_cos_sim > first.phase_cos_sim
    for entry in report.per_iteration:
        assert np.isfinite(entry.inconsistency)


def test_np_zero_noise_fixed_point():
    tri, noisy, *_ = _mixture(seed=7, snr_db=float("inf"))
    mag_mix, phase_mix = decompose(noisy)
    arbitrary = np.full_like(phase_mix, 1.1)
    report = np_msgla(noisy, mag_mix, arbitrary, ReconConfig(iterations=2))
    from msgla.spectral import angular_distance

    # bins near rounding level carry no phase; the identity holds everywhere else
    keep = mag_mix > 1e-6 * mag_mix.max()
    assert np.max(angular_distance(report.final_phase, phase_mix)[keep]) < 1e-9


def test_np_moves_toward_true_phase():
    tri, noisy, mag_speech, phase_speech, _, phase_noise = _mixture(seed=8)
    _, phase_mix = decompose(noisy)
    report = np_msgla(noisy, mag_speech, phase_noise, ReconConfig(iterations=5))
    from msgla.spectral import angular_distance

    before = angular_distance(phase_mix, phase_speech).mean()
    after = angular_distance(report.final_phase, phase_speech).mean()
    assert after < before


def test_np_trace_against_sine_candidates():
    tri, noisy, mag_speech, phase_speech, _, phase_noise = _mixture(seed=9)
    mag_mix, phase_mix = decompose(noisy)
    cand = sine_phase_candidates(mag_mix, phase_mix, mag_speech, phase_noise)
    report = np_msgla(
        noisy,
        mag_speech,
        phase_noise,
        ReconConfig(iterations=5),
        candidates=cand,
    )
    # Iteration 0 of init 'noisy' is the mixture phase; iteration 5 is the final phase.
    dist0 = np.median(nearest_candidate_distance(phase_mix, cand))
    dist5 = np.median(nearest_candidate_distance(report.final_phase, cand))
    assert dist5 < dist0


def test_all_phases_stay_wrapped_and_finite():
    tri, noisy, mag_speech, _, mag_noise, phase_noise = _mixture(seed=10)
    for k in range(5):
        for report in (
            nm_msgla(noisy, mag_speech, mag_noise, ReconConfig(iterations=k)),
            np_msgla(noisy, mag_speech, phase_noise, ReconConfig(iterations=k)),
        ):
            phase = report.final_phase
            assert np.all(phase >= -np.pi) and np.all(phase < np.pi)
            assert np.isfinite(phase).all()


def test_nm_shape_mismatch():
    tri, noisy, mag_speech, *_ = _mixture(seed=11)
    with pytest.raises(ValueError, match="shape"):
        nm_msgla(noisy, mag_speech[:, :-1], mag_speech[:, :-1])


def test_magnitude_distance_nonincreasing_in_weighted_norm():
    # the classical descent quantity: distance between target magnitude and
    # the magnitude of the projected iterate
    rng = np.random.default_rng(12)
    mag = rng.uniform(0, 1, size=(9, CFG.n_bins))
    weights = bin_weights(CFG)
    values = []
    for k in range(31):
        phase = gla(mag, ReconConfig(iterations=k, init="zero"), CFG).final_phase
        projected = project_values(recompose(mag, phase), CFG)
        gap = mag - np.abs(projected)
        values.append(float(np.sqrt(np.sum(weights * gap**2))))
    assert np.all(np.diff(values) <= 1e-9)


def test_enhance_passthrough_recovers_noisy_signal():
    tri, noisy, *_ = _mixture(seed=13)
    wave, report = enhance(noisy, "passthrough")
    assert np.max(np.abs(wave.samples - tri.noisy.samples)) < 1e-10
    assert np.max(np.abs(istft(noisy).samples - tri.noisy.samples)) < 1e-10


def test_enhance_zero_iterations_is_magnitude_plus_noisy_phase():
    tri, noisy, mag_speech, *_ = _mixture(seed=14)
    _, phase_mix = decompose(noisy)
    wave, report = enhance(
        noisy,
        "nm",
        Estimates(mag_speech=mag_speech, mag_noise=np.zeros_like(mag_speech)),
        ReconConfig(iterations=0),
    )
    assert np.array_equal(report.final_phase, phase_mix)
    from msgla.spectral import recompose, _synthesize

    expected = _synthesize(recompose(mag_speech, phase_mix), CFG, noisy.origin_length)
    assert np.max(np.abs(wave.samples - expected)) < 1e-12


def test_enhance_nm_improves_si_snr():
    tri, noisy, mag_speech, _, mag_noise, _ = _mixture(seed=15)
    wave, _ = enhance(noisy, "nm", Estimates(mag_speech=mag_speech, mag_noise=mag_noise))
    assert si_snr(wave, tri.clean) > si_snr(tri.noisy, tri.clean)


def test_enhance_sign_field_close_to_nm():
    tri, noisy, mag_speech, phase_speech, mag_noise, _ = _mixture(seed=16)
    mag_mix, phase_mix = decompose(noisy)
    cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    sign = oracle_sign(cand, phase_speech)
    est = Estimates(mag_speech=mag_speech, mag_noise=mag_noise, sign=sign)
    wave_sign, _ = enhance(noisy, "sign", est)
    wave_nm, _ = enhance(noisy, "nm", Estimates(mag_speech=mag_speech, mag_noise=mag_noise))
    # the oracle sign resolves the geometry exactly, so it should not trail
    # the iterative loop by more than a few dB
    assert si_snr(wave_sign, tri.clean) >= si_snr(wave_nm, tri.clean) - 3.0


def test_enhance_missing_estimates():
    tri, noisy, mag_speech, *_ = _mixture(seed=17)
    with pytest.raises(ValueError, match="requires estimate 'mag_noise'"):
        enhance(noisy, "nm", Estimates(mag_speech=mag_speech))
    with pytest.raises(ValueError, match="requires estimate 'mag_speech'"):
        enhance(noisy, "gla", Estimates())
    with pytest.raises(ValueError, match="requires estimate 'phase_noise'"):
        enhance(noisy, "np", Estimates(mag_speech=mag_speech))
    with pytest.raises(ValueError, match="unknown method"):
        enhance(noisy, "wiener", Estimates())


def test_enhance_deterministic():
    tri, noisy, mag_speech, _, mag_noise, _ = _mixture(seed=18)
    est = Estimates(mag_speech=mag_speech, mag_noise=mag_noise)
    a, ra = enhance(noisy, "nm", est)
    b, rb = enhance(noisy, "nm", est)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(ra.final_phase, rb.final_phase)


def _spoiled(arr, defect):
    if defect == "shape":
        return arr[:, :-1]
    arr = np.array(arr)
    arr[2, 3] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}[defect]
    return arr


def _all_estimates(seed):
    tri, noisy, mag_speech, phase_speech, mag_noise, phase_noise = _mixture(seed=seed)
    mag_mix, phase_mix = decompose(noisy)
    cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    sign = oracle_sign(cand, phase_speech)
    fields = dict(mag_speech=mag_speech, mag_noise=mag_noise, phase_noise=phase_noise, sign=sign)
    return noisy, fields


def _refuse_projection(*args, **kwargs):
    raise AssertionError("an estimate was used before it was validated")


DEFECTS = ("nan", "inf", "negative", "shape")
# noisy_phase is gla's own input (enhance passes the mixture's phase), so it is called directly.
BAD_ESTIMATES = [
    (method, name, defect)
    for method, names in (
        ("gla", ("mag_speech", "noisy_phase")),
        ("nm", ("mag_speech", "mag_noise")),
        ("np", ("mag_speech", "phase_noise")),
        ("sign", ("mag_speech", "mag_noise")),
    )
    for name in names
    for defect in DEFECTS
    if defect != "negative" or name.startswith("mag")
]


@pytest.mark.parametrize("method, name, defect", BAD_ESTIMATES)
def test_enhance_rejects_bad_estimates_up_front(monkeypatch, method, name, defect):
    noisy, fields = _all_estimates(seed=19)
    monkeypatch.setattr(reconstruct, "project_values", _refuse_projection)
    with pytest.raises(ValueError, match=name):
        if name == "noisy_phase":
            bad = _spoiled(decompose(noisy)[1], defect)
            gla(fields["mag_speech"], stft_cfg=noisy.config, origin_length=noisy.origin_length, noisy_phase=bad)
        else:
            fields[name] = _spoiled(fields[name], defect)
            enhance(noisy, method, Estimates(**fields))


def test_nm_exact_zero_update_keeps_previous_phase():
    tri, noisy, mag_speech, _, mag_noise, _ = _mixture(seed=20)
    values = noisy.values.copy()
    values[5, 40] = 0.0
    holed = Spectrogram(values, CFG, noisy.origin_length, noisy.sample_rate)
    mag_noise = mag_noise.copy()
    mag_noise[5, 40] = 0.0
    cfg = ReconConfig(iterations=3, init="random", seed=1)
    report = nm_msgla(holed, mag_speech, mag_noise, cfg)
    start = nm_msgla(holed, mag_speech, mag_noise, replace(cfg, iterations=0)).final_phase
    # the update mixture - |N| e^{j phase_noise} is exactly zero at (5, 40)
    assert report.final_phase[5, 40] == start[5, 40] != 0.0
    assert np.mean(report.final_phase != start) > 0.9


def test_np_exact_zero_update_keeps_previous_phase():
    shape = (9, CFG.n_bins)
    silent = Spectrogram(np.zeros(shape), CFG, 2048)
    phase_noise = np.random.default_rng(21).uniform(-np.pi, np.pi, shape)
    cfg = ReconConfig(iterations=3, init="random", seed=2)
    report = np_msgla(silent, np.zeros(shape), phase_noise, cfg)
    start = np_msgla(silent, np.zeros(shape), phase_noise, replace(cfg, iterations=0)).final_phase
    assert np.any(start != 0.0)
    assert np.array_equal(report.final_phase, start)


SMALL_CFG = StftConfig(window_length=32, hop_length=16)


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(["gla", "nm", "np"]),
    kind=st.sampled_from(["zero", "tiny", "violating"]),
    init=st.sampled_from(["noisy", "zero", "random"]),
    frames=st.integers(3, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_loops_stay_finite_on_unit_phasors(method, kind, init, frames, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((frames - 1) * SMALL_CFG.hop_length)
    noisy = stft(Waveform(x, 16000), SMALL_CFG)
    mag_mix, phase_mix = decompose(noisy)
    shape = mag_mix.shape
    if kind == "zero":
        mag_speech, mag_noise = np.zeros(shape), np.zeros(shape)
    elif kind == "tiny":
        mag_speech, mag_noise = np.full(shape, 1e-300), np.full(shape, 1e-300)
    else:  # both far longer than the mixture, or both far shorter
        scale = rng.choice([1e-3, 10.0], size=shape)
        mag_speech = scale * mag_mix * rng.uniform(0.5, 1.0, shape)
        mag_noise = scale * mag_mix * rng.uniform(0.5, 1.0, shape)
    phase_noise = rng.uniform(-np.pi, np.pi, shape)
    cfg = ReconConfig(iterations=4, init=init, seed=seed)

    def run(cfg):
        if method == "gla":
            return gla(mag_speech, cfg, SMALL_CFG, origin_length=len(x), noisy_phase=phase_mix)
        if method == "nm":
            return nm_msgla(noisy, mag_speech, mag_noise, cfg)
        return np_msgla(noisy, mag_speech, phase_noise, cfg)

    phasors = []

    def recorded(z, values):
        out = real_phasor(z, values)
        phasors.append(out)
        return out

    real_phasor = reconstruct._phasor
    with mock.patch.object(reconstruct, "_phasor", recorded):
        report = run(cfg)

    assert len(phasors) == {"gla": 1, "nm": 3, "np": 2}[method] * cfg.iterations
    for z in phasors:
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-12
    for k in range(cfg.iterations + 1):
        phase = run(replace(cfg, iterations=k)).final_phase
        assert np.all(np.isfinite(phase))
        assert np.all(phase >= -np.pi) and np.all(phase < np.pi)
    assert all(np.isfinite(entry.inconsistency) for entry in report.per_iteration)


def test_phasor_stays_unit_on_subnormal_values():
    turns = np.exp(1j * np.random.default_rng(22).uniform(-np.pi, np.pi, 64))
    axes = np.array([1.0, -1.0, 1j, -1j])
    values = np.stack(
        [
            np.concatenate([1e-310 * turns, 1e-310 * axes]),
            np.concatenate([5e-324 * np.resize(axes, 64), 5e-324 * axes]),
        ]
    )
    assert set(np.unique(np.abs(values[1]))) == {5e-324}
    z = reconstruct._phasor(np.ones(values.shape, dtype=np.complex128), values)
    assert np.all(np.isfinite(z))
    assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-12


@pytest.mark.parametrize("method", ["gla", "nm", "np"])
def test_loops_stay_finite_on_subnormal_magnitudes(method):
    tri, noisy, mag_speech, _, mag_noise, phase_noise = _mixture(seed=23)
    mag_speech, mag_noise = 1e-310 * mag_speech, 1e-310 * mag_noise
    _, phase_mix = decompose(noisy)
    for k in range(4):
        cfg = ReconConfig(iterations=k)
        if method == "gla":
            report = gla(mag_speech, cfg, CFG, origin_length=noisy.origin_length, noisy_phase=phase_mix)
        elif method == "nm":
            report = nm_msgla(noisy, mag_speech, mag_noise, cfg)
        else:
            report = np_msgla(noisy, mag_speech, phase_noise, cfg)
        phase = report.final_phase
        assert np.all(np.isfinite(phase))
        assert np.all(phase >= -np.pi) and np.all(phase < np.pi)


def _holed_mixture(seed):
    """A mixture spectrogram with a row, a column and scattered bins exactly zero."""
    tri, noisy, mag_speech, _, mag_noise, phase_noise = _mixture(seed=seed)
    values = noisy.values.copy()
    values[4] = 0.0
    values[:, 17] = 0.0
    values[np.random.default_rng(seed).random(values.shape) < 0.05] = 0.0
    holed = Spectrogram(values, CFG, noisy.origin_length, noisy.sample_rate)
    return holed, mag_speech, mag_noise, phase_noise


@pytest.mark.parametrize("method", ["nm", "np"])
def test_zero_iterations_report_the_mixture_phase_bit_for_bit(method):
    holed, mag_speech, mag_noise, phase_noise = _holed_mixture(seed=24)
    _, phase_mix = decompose(holed)
    for trace in (False, True):
        cfg = ReconConfig(iterations=0, trace=trace)
        if method == "nm":
            report = nm_msgla(holed, mag_speech, mag_noise, cfg)
        else:
            report = np_msgla(holed, mag_speech, phase_noise, cfg)
        assert np.array_equal(report.final_phase.view(np.int64), phase_mix.view(np.int64))


def test_initial_mixture_phasor_is_one_at_exact_zeros():
    holed, *_ = _holed_mixture(seed=25)
    mag_mix, phase_mix = decompose(holed)
    zero = holed.values == 0
    phase, z0 = reconstruct._initial_mixture_phasor(ReconConfig(), holed.values, mag_mix, phase_mix)
    assert np.array_equal(phase, phase_mix)
    assert np.all(z0[zero] == 1.0)
    assert np.max(np.abs(z0[~zero] - np.exp(1j * phase_mix[~zero]))) <= 1e-15
    for init in ("zero", "random"):
        cfg = ReconConfig(init=init)
        assert reconstruct._initial_mixture_phasor(cfg, holed.values, mag_mix, phase_mix)[1] is None


def _last_pass_case(method):
    """A mixture, oracle estimates for ``method`` and the magnitude it synthesizes."""
    tri, noisy, mag_speech, phase_speech, mag_noise, phase_noise = _mixture(seed=31, snr_db=3.0)
    if method == "passthrough":
        return noisy, Estimates(), decompose(noisy)[0]
    est = Estimates(mag_speech=mag_speech, mag_noise=mag_noise, phase_noise=phase_noise)
    if method == "sign":
        mag_mix, phase_mix = decompose(noisy)
        cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
        est.sign = oracle_sign(cand, phase_speech)
    return noisy, est, mag_speech


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_last_pass_yields_the_waveform_and_the_final_inconsistency(method, trace):
    noisy, est, mag = _last_pass_case(method)
    wave, report = enhance(noisy, method, est, ReconConfig(iterations=4, trace=trace))
    if trace:
        assert report.final_inconsistency == report.per_iteration[-1].inconsistency
    else:
        assert report.per_iteration == []
    # Where the iterate is consistent (passthrough) the inconsistency is
    # rounding noise, so the absolute part of the bound scales with the norm.
    measured = inconsistency(mag, report.final_phase, CFG, noisy.origin_length)
    scale = 1e-12 * weighted_frobenius(mag, CFG)
    assert report.final_inconsistency == pytest.approx(measured, rel=1e-12, abs=scale)
    rebuilt = Spectrogram(recompose(mag, report.final_phase), CFG, noisy.origin_length, noisy.sample_rate)
    expected = istft(rebuilt)
    assert wave.sample_rate == expected.sample_rate
    if method in ("passthrough", "sign"):
        assert np.array_equal(wave.samples.view(np.int64), expected.samples.view(np.int64))
    else:
        gap = np.linalg.norm(wave.samples - expected.samples)
        assert gap <= 1e-12 * np.linalg.norm(expected.samples)


def test_public_loops_report_the_signal_enhance_returns():
    noisy, est, mag = _last_pass_case("nm")
    cfg = ReconConfig(iterations=3)
    mag_mix, phase_mix = decompose(noisy)
    reports = {
        "gla": gla(mag, cfg, noisy.config, origin_length=noisy.origin_length, noisy_phase=phase_mix),
        "nm": nm_msgla(noisy, mag, est.mag_noise, cfg),
        "np": np_msgla(noisy, mag, est.phase_noise, cfg),
    }
    for method, report in reports.items():
        wave, _ = enhance(noisy, method, est, cfg)
        assert report.signal.shape == (noisy.origin_length,)
        assert np.array_equal(report.signal, wave.samples)


@pytest.mark.parametrize("method", METHODS)
def test_enhance_synthesizes_once_per_projection_plus_the_last_pass(monkeypatch, method):
    noisy, est, _ = _last_pass_case(method)
    calls = []
    synthesize = spectral._synthesize

    def counting(*args, **kwargs):
        calls.append(None)
        return synthesize(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("recompose and istft are not on the enhance path")

    monkeypatch.setattr(spectral, "_synthesize", counting)
    monkeypatch.setattr(reconstruct, "_synthesize", counting)
    for module in (spectral, metrics, reconstruct):
        for name in ("recompose", "istft"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    iterations = 3
    expected = {"gla": iterations + 1, "nm": 2 * iterations + 1, "np": 2 * iterations + 1}.get(method, 1)
    for trace in (False, True):
        calls.clear()
        enhance(noisy, method, est, ReconConfig(iterations=iterations, trace=trace))
        assert len(calls) == expected


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["harmonic", "speech_shaped"]),
    snr_db=st.sampled_from([-6.0, 0.0, 6.0]),
    seed=st.integers(0, 2**16),
)
def test_true_speech_phase_is_a_fixed_point_of_nm_and_np(kind, snr_db, seed):
    tri = synthesize_mixture(kind, snr_db, 0.25, 16000, seed)
    noisy = stft(tri.noisy, CFG)
    mag_speech, phase_speech = decompose(stft(tri.clean, CFG))
    mag_noise, phase_noise = decompose(stft(tri.noise, CFG))
    strong = mag_speech >= 1e-2 * mag_speech.max()
    cfg = ReconConfig(iterations=20, trace=False)
    with pytest.MonkeyPatch.context() as patch:
        # Start both loops at the true speech phase instead of the mixture's.
        patch.setattr(reconstruct, "_initial_mixture_phasor", lambda cfg, *mixture: (phase_speech, None))
        for report in (
            nm_msgla(noisy, mag_speech, mag_noise, cfg),
            np_msgla(noisy, mag_speech, phase_noise, cfg),
        ):
            assert np.max(angular_distance(report.final_phase, phase_speech)[strong]) <= 1e-8


@settings(max_examples=8, deadline=None)
@given(
    kind=st.sampled_from(["harmonic", "speech_shaped"]),
    snr_db=st.sampled_from([-6.0, 0.0, 6.0]),
    seed=st.integers(0, 2**16),
)
def test_nm_escapes_the_wrong_sign(kind, snr_db, seed):
    # The consistency constraint, not the start, picks the candidate: from the
    # cosine candidate with every oracle sign flipped, nm moves a share of the
    # strong, well-separated bins nearer the truth than where they started
    # (measured: >= 0.53 over 150 seeds of each kind and SNR; 0 at 0 iterations).
    tri = synthesize_mixture(kind, snr_db, 0.25, 16000, seed)
    noisy = stft(tri.noisy, CFG)
    mag_speech, phase_speech = decompose(stft(tri.clean, CFG))
    mag_noise, _ = decompose(stft(tri.noise, CFG))
    mag_mix, phase_mix = decompose(noisy)
    cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    wrong = apply_sign_field(phase_mix, cand.abs_delta, -oracle_sign(cand, phase_speech).values)
    watched = (mag_speech >= 1e-2 * mag_speech.max()) & (cand.abs_delta > 0.2)
    assert watched.any()
    fractions = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reconstruct, "_initial_mixture_phasor", lambda cfg, *mixture: (wrong, None))
        for iterations in (0, 5):
            report = nm_msgla(noisy, mag_speech, mag_noise, ReconConfig(iterations=iterations, trace=False))
            moved = angular_distance(report.final_phase, phase_speech)
            fractions.append(np.mean(moved[watched] < angular_distance(wrong, phase_speech)[watched]))
    assert fractions[0] == 0.0
    assert fractions[1] >= 0.25


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["harmonic", "speech_shaped"]),
    snr_db=st.sampled_from([-6.0, 0.0, 6.0]),
    seed=st.integers(0, 2**16),
)
def test_traced_phase_similarity_is_phase_cos_sim_of_each_iterate(kind, snr_db, seed):
    tri = synthesize_mixture(kind, snr_db, 0.25, 16000, seed)
    noisy = stft(tri.noisy, CFG)
    mag_speech, phase_speech = decompose(stft(tri.clean, CFG))
    mag_noise, phase_noise = decompose(stft(tri.noise, CFG))
    mag_mix, phase_mix = decompose(noisy)
    sign = oracle_sign(cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise), phase_speech)
    est = Estimates(mag_speech=mag_speech, mag_noise=mag_noise, phase_noise=phase_noise, sign=sign)
    for method in METHODS:
        for init in ("noisy", "random"):
            cfg = ReconConfig(iterations=3, init=init, seed=seed)
            _, report = enhance(noisy, method, est, cfg, ref_phase=phase_speech)
            for k, stats in enumerate(report.per_iteration):
                phase = enhance(noisy, method, est, replace(cfg, iterations=k))[1].final_phase
                assert abs(stats.phase_cos_sim - phase_cos_sim(phase, phase_speech)) <= 1e-12


def _bits(stats):
    return [v if v is None or isinstance(v, int) else float(v).hex() for v in astuple(stats)]


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(["gla", "nm", "np"]),
    init=st.sampled_from(["noisy", "zero", "random"]),
    iterations=st.integers(0, 5),
    with_candidates=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_traced_scalars_are_the_final_scalars_of_shorter_runs(method, init, iterations, with_candidates, seed):
    # The loop has a fixed iteration count, so iteration k of a traced run is
    # the last iterate of a k-iteration run, bit for bit.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(6 * SMALL_CFG.hop_length)
    noisy = stft(Waveform(x, 16000), SMALL_CFG)
    mag_mix, phase_mix = decompose(noisy)
    mag_speech = mag_mix * rng.uniform(0.2, 1.0, mag_mix.shape)
    mag_noise = mag_mix * rng.uniform(0.2, 1.0, mag_mix.shape)
    phase_noise = rng.uniform(-np.pi, np.pi, mag_mix.shape)
    extra = {"ref_phase": rng.uniform(-np.pi, np.pi, mag_mix.shape)}
    if with_candidates:
        extra["candidates"] = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)

    def run(k):
        cfg = ReconConfig(iterations=k, init=init, seed=seed)
        if method == "gla":
            return gla(mag_speech, cfg, SMALL_CFG, origin_length=len(x), noisy_phase=phase_mix, **extra)
        if method == "nm":
            return nm_msgla(noisy, mag_speech, mag_noise, cfg, **extra)
        return np_msgla(noisy, mag_speech, phase_noise, cfg, **extra)

    full = run(iterations)
    assert [stats.iteration for stats in full.per_iteration] == list(range(iterations + 1))
    for k, stats in enumerate(full.per_iteration):
        short = run(k)
        assert _bits(stats) == _bits(short.per_iteration[-1])
        assert float(stats.inconsistency).hex() == float(short.final_inconsistency).hex()
        assert (stats.candidate_distance is None) == (not with_candidates)


@pytest.mark.parametrize("method", ["gla", "nm", "np"])
def test_traced_run_without_candidates_forms_angles_once(monkeypatch, method):
    noisy, est, mag = _last_pass_case(method)
    calls = []
    wrap = reconstruct.wrap_phase

    def counting(*args, **kwargs):
        calls.append(None)
        return wrap(*args, **kwargs)

    monkeypatch.setattr(reconstruct, "wrap_phase", counting)
    for iterations in (0, 1, 6):
        calls.clear()
        cfg = ReconConfig(iterations=iterations, init="random", trace=True)
        _, report = enhance(noisy, method, est, cfg, ref_phase=np.zeros_like(mag))
        assert len(report.per_iteration) == iterations + 1
        assert len(calls) <= 1


@pytest.mark.parametrize("method", METHODS)
def test_traced_run_rejects_a_reference_phase_of_another_shape(method):
    noisy, est, _ = _last_pass_case(method)
    short = np.zeros((noisy.values.shape[0] - 1, noisy.values.shape[1]))
    cases = [(short, "ref_phase shape")]
    for value in (np.nan, np.inf):
        ref_phase = np.zeros(noisy.values.shape)
        ref_phase[3, 7] = value
        cases.append((ref_phase, "ref_phase contains non-finite values"))
    for ref_phase, message in cases:
        with pytest.raises(ValueError, match=message):
            enhance(noisy, method, est, ReconConfig(iterations=1), ref_phase=ref_phase)
        # A run without a trace never reads the reference.
        enhance(noisy, method, est, ReconConfig(iterations=1, trace=False), ref_phase=ref_phase)


@pytest.mark.parametrize("method", METHODS)
def test_enhance_runs_each_loop_through_its_public_function(monkeypatch, method):
    # The benchmark's tracer sees the loops only through these module names.
    noisy, est, _ = _last_pass_case(method)
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("gla", "nm_msgla", "np_msgla", "decompose"):
        monkeypatch.setattr(reconstruct, name, counting(name, getattr(reconstruct, name)))
    enhance(noisy, method, est, ReconConfig(iterations=2))
    loop = {"gla": ["gla"], "nm": ["nm_msgla"], "np": ["np_msgla"]}.get(method, [])
    assert sorted(calls) == sorted(["decompose", *loop])


def _benchmark_source(name: str) -> ast.Module:
    # Parsed, not imported, so that no bytecode is written under benchmarks/.
    return ast.parse((Path(__file__).resolve().parents[1] / "benchmarks" / name).read_text())


def _msgla_module(name: str):
    return importlib.import_module("msgla" if name == "msgla" else f"msgla.{name}")


def test_benchmark_tracer_names_exist_in_reconstruct():
    # Every name the benchmark reaches in msgla: the functions the tracer
    # wraps (LAYERS), the parameters its EXTRAS read from a call's bound
    # arguments, and each m.<module>.<name> of the tracer and the workloads.
    tracer = _benchmark_source("tracer.py")
    assigned = {
        target.id: node.value
        for node in tracer.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    layers = ast.literal_eval(assigned["LAYERS"])
    assert layers["reconstruct"] and layers["spectral"]
    for module, names in layers.items():
        for name in names:
            assert callable(getattr(_msgla_module(module), name, None)), f"{module}.{name}"

    functions = {node.name: node for node in tracer.body if isinstance(node, ast.FunctionDef)}
    extras = assigned["EXTRAS"]
    assert extras.keys
    for key, extra in zip(extras.keys, extras.values):
        module, name = ast.literal_eval(key).split(".")
        parameters = inspect.signature(getattr(_msgla_module(module), name)).parameters
        for node in ast.walk(functions[extra.id]):
            # bound.arguments["x"] or bound.arguments.get("x")
            if isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "arguments":
                read = node.slice
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
                if getattr(node.func.value, "attr", None) != "arguments":
                    continue
                read = node.args[0]
            else:
                continue
            assert ast.literal_eval(read) in parameters, f"{module}.{name}({ast.literal_eval(read)})"

    reached = {
        (node.value.attr, node.attr)
        for source in ("tracer.py", "workloads.py")
        for node in ast.walk(_benchmark_source(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and getattr(node.value.value, "id", None) == "m"
    }
    assert ("harness", "provide_estimates") in reached
    for module, name in reached:
        assert hasattr(_msgla_module(module), name), f"m.{module}.{name}"


def test_enhance_waveforms_stay_with_their_threads():
    # enhance collects the last pass's signal per thread; more threads than
    # cores, with a short switch interval, must not swap signals between calls.
    methods = ["gla", "nm", "np", "sign"] * 2
    cases = [_last_pass_case(method) for method in methods]
    cfg = ReconConfig(iterations=3, trace=False)
    expected = [enhance(noisy, m, est, cfg)[0].samples for m, (noisy, est, _) in zip(methods, cases)]
    swapped = []

    def work(i):
        noisy, est, _ = cases[i]
        for _ in range(20):
            if not np.array_equal(enhance(noisy, methods[i], est, cfg)[0].samples, expected[i]):
                swapped.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert swapped == []
