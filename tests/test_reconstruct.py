from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgla import reconstruct
from msgla.geometry import (
    cosine_phase_candidates,
    nearest_candidate_distance,
    oracle_sign,
    sine_phase_candidates,
)
from msgla.harness import synthesize_mixture
from msgla.metrics import bin_weights, phase_cos_sim, si_snr
from msgla.reconstruct import Estimates, ReconConfig, enhance, gla, nm_msgla, np_msgla
from msgla.spectral import (
    Spectrogram,
    StftConfig,
    Waveform,
    consistency_project,
    decompose,
    istft,
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
    assert len(report.phases) == 6
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
    dist0 = np.median(nearest_candidate_distance(report.phases[0], cand))
    dist5 = np.median(nearest_candidate_distance(report.phases[5], cand))
    assert dist5 < dist0


def test_all_phases_stay_wrapped_and_finite():
    tri, noisy, mag_speech, _, mag_noise, phase_noise = _mixture(seed=10)
    for report in (
        nm_msgla(noisy, mag_speech, mag_noise, ReconConfig(iterations=4)),
        np_msgla(noisy, mag_speech, phase_noise, ReconConfig(iterations=4)),
    ):
        for phase in report.phases:
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
    report = gla(mag, ReconConfig(iterations=30, init="zero"), CFG)
    weights = bin_weights(CFG)
    values = []
    for phase in report.phases:
        projected = consistency_project(mag, phase, CFG)
        gap = mag - np.abs(projected.values)
        values.append(float(np.sqrt(np.sum(weights * gap**2))))
    assert np.all(np.diff(values) <= 1e-9)


def test_enhance_passthrough_recovers_noisy_signal():
    tri, noisy, *_ = _mixture(seed=13)
    wave, report = enhance(noisy, "passthrough")
    assert np.max(np.abs(wave.samples - tri.noisy.samples)) < 1e-10
    assert report.method == "passthrough"
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
BAD_ESTIMATES = [
    (method, name, defect)
    for method, names in (
        ("gla", ("mag_speech",)),
        ("nm", ("mag_speech", "mag_noise")),
        ("np", ("mag_speech", "phase_noise")),
        ("sign", ("mag_speech", "mag_noise")),
    )
    for name in names
    for defect in DEFECTS
    if not (name == "phase_noise" and defect == "negative")
]


@pytest.mark.parametrize("method, name, defect", BAD_ESTIMATES)
def test_enhance_rejects_bad_estimates_up_front(monkeypatch, method, name, defect):
    noisy, fields = _all_estimates(seed=19)
    fields[name] = _spoiled(fields[name], defect)
    monkeypatch.setattr(reconstruct, "project_values", _refuse_projection)
    with pytest.raises(ValueError, match=name):
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
    # the update mixture - |N| e^{j phase_noise} is exactly zero at (5, 40)
    assert report.final_phase[5, 40] == report.phases[0][5, 40] != 0.0
    assert np.mean(report.final_phase != report.phases[0]) > 0.9


def test_np_exact_zero_update_keeps_previous_phase():
    shape = (9, CFG.n_bins)
    silent = Spectrogram(np.zeros(shape), CFG, 2048)
    phase_noise = np.random.default_rng(21).uniform(-np.pi, np.pi, shape)
    report = np_msgla(
        silent, np.zeros(shape), phase_noise, ReconConfig(iterations=3, init="random", seed=2)
    )
    assert np.any(report.phases[0] != 0.0)
    assert np.array_equal(report.final_phase, report.phases[0])


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

    phasors = []

    def recorded(z, values):
        out = real_phasor(z, values)
        phasors.append(out)
        return out

    real_phasor = reconstruct._phasor
    with mock.patch.object(reconstruct, "_phasor", recorded):
        if method == "gla":
            report = gla(mag_speech, cfg, SMALL_CFG, origin_length=len(x), noisy_phase=phase_mix)
        elif method == "nm":
            report = nm_msgla(noisy, mag_speech, mag_noise, cfg)
        else:
            report = np_msgla(noisy, mag_speech, phase_noise, cfg)

    assert len(phasors) == {"gla": 1, "nm": 3, "np": 2}[method] * cfg.iterations
    for z in phasors:
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-12
    for phase in report.phases:
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
    cfg = ReconConfig(iterations=3)
    _, phase_mix = decompose(noisy)
    if method == "gla":
        report = gla(mag_speech, cfg, CFG, origin_length=noisy.origin_length, noisy_phase=phase_mix)
    elif method == "nm":
        report = nm_msgla(noisy, mag_speech, mag_noise, cfg)
    else:
        report = np_msgla(noisy, mag_speech, phase_noise, cfg)
    for phase in report.phases:
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
    _, phase_mix = decompose(holed)
    zero = holed.values == 0
    phase, z0 = reconstruct._initial_mixture_phasor(ReconConfig(), holed)
    assert np.array_equal(phase, phase_mix)
    assert np.all(z0[zero] == 1.0)
    assert np.max(np.abs(z0[~zero] - np.exp(1j * phase_mix[~zero]))) <= 1e-15
    for init in ("zero", "random"):
        assert reconstruct._initial_mixture_phasor(ReconConfig(init=init), holed)[1] is None
