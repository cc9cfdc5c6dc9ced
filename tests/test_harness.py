import inspect
import logging
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from msgla import harness
from msgla.geometry import cosine_phase_candidates, oracle_sign
from msgla.harness import (
    METHOD_NEEDS,
    EstimateProvider,
    ExperimentSpec,
    MixtureSpec,
    RESULT_COLUMNS,
    default_provider_pairs,
    provide_estimates,
    run_experiment,
    synthesize_mixture,
)
from msgla.metrics import metric_row, phase_cos_sim, si_snr, weighted_frobenius
from msgla.reconstruct import METHODS, Estimates, ReconConfig, enhance
from msgla.spectral import StftConfig, decompose, stft

CFG = StftConfig()


def test_mixture_snr_is_exact():
    for snr in (-6.0, 0.0, 6.0, 17.3):
        tri = synthesize_mixture("harmonic", snr, 0.25, 16000, 1)
        measured = 10 * np.log10(
            np.sum(tri.clean.samples**2) / np.sum(tri.noise.samples**2)
        )
        assert abs(measured - snr) < 1e-9


def test_mixture_zero_db_equal_norms():
    tri = synthesize_mixture("harmonic", 0.0, 0.25, 16000, 2)
    assert np.linalg.norm(tri.clean.samples) == pytest.approx(
        np.linalg.norm(tri.noise.samples), rel=1e-9
    )


def test_mixture_infinite_snr_is_noiseless():
    tri = synthesize_mixture("harmonic", float("inf"), 0.25, 16000, 3)
    assert np.all(tri.noise.samples == 0)
    assert np.array_equal(tri.noisy.samples, tri.clean.samples)


def test_mixture_deterministic():
    a = synthesize_mixture("harmonic", 0.0, 0.25, 16000, 4)
    b = synthesize_mixture("harmonic", 0.0, 0.25, 16000, 4)
    assert np.array_equal(a.clean.samples, b.clean.samples)
    assert np.array_equal(a.noisy.samples, b.noisy.samples)
    c = synthesize_mixture("harmonic", 0.0, 0.25, 16000, 5)
    assert not np.array_equal(a.noisy.samples, c.noisy.samples)


def test_mixture_additive_in_stft_domain():
    for kind in ("harmonic", "speech_shaped"):
        tri = synthesize_mixture(kind, 0.0, 0.25, 16000, 6)
        assert np.array_equal(
            tri.noisy.samples, tri.clean.samples + tri.noise.samples
        )
        h_mix = stft(tri.noisy, CFG).values
        h_sum = stft(tri.clean, CFG).values + stft(tri.noise, CFG).values
        assert np.max(np.abs(h_mix - h_sum)) < 1e-10 * np.max(np.abs(h_mix))


def test_mixture_bad_kind():
    with pytest.raises(ValueError, match="kind"):
        synthesize_mixture("pink", 0.0, 0.25, 16000, 0)


@pytest.mark.parametrize("snr_db", [float("nan"), -float("inf")])
def test_mixture_rejects_an_snr_without_a_noise_scale(snr_db):
    with pytest.raises(ValueError, match="snr_db must be a number or"):
        synthesize_mixture("harmonic", snr_db, 0.25, 16000, 0)


# Clip lengths whose envelopes of n // 2 + 1 bins give a width of 3 (the
# minimum), an odd width (7) and an even width (10).
@pytest.mark.parametrize("n", [200, 900, 1280])
def test_speech_shaped_envelope_is_the_box_convolution(n):
    clean = np.random.default_rng(n).standard_normal(n)
    envelope = np.abs(np.fft.rfft(clean))
    width = max(len(envelope) // 64, 3)
    smoothed = np.convolve(envelope, np.ones(width) / width, mode="same")
    white = np.random.default_rng(1).standard_normal(n)
    expected = np.fft.irfft(np.fft.rfft(white) * (smoothed / smoothed.max() + 1e-3), n=n)
    got = harness._speech_shaped_noise(clean, np.random.default_rng(1))
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", ["harmonic", "speech_shaped"])
def test_mixture_of_no_sample_is_rejected_without_a_numpy_warning(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="duration_s"):
            synthesize_mixture(kind, 0.0, 0.00002, 16000, 0)


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"kind": "bogus"}, "kind"),
        ({"snr_db": float("nan")}, "snr_db"),
        ({"snr_db": -float("inf")}, "snr_db"),
        ({"duration_s": 0.0}, "duration_s"),
        ({"duration_s": float("nan")}, "duration_s"),
        ({"duration_s": 0.00002}, "duration_s"),
        ({"sample_rate": 1.5}, "sample_rate"),
        ({"seed": -1}, "seed"),
    ],
)
def test_a_bad_mixture_is_rejected_when_its_spec_is_made(fields, name):
    with pytest.raises(ValueError, match=name):
        MixtureSpec(**fields)


def test_a_mixture_too_short_to_analyze_fails_before_any_cell():
    # Six good mixtures and a bad seventh: the spec is refused, so no cell runs.
    mixtures = [MixtureSpec("harmonic", 0.0, 0.25, 16000, seed) for seed in range(6)]
    mixtures.append(MixtureSpec("harmonic", 0.0, 0.01, 16000, 6))
    with pytest.raises(ValueError, match=r"duration_s 0.01 at sample_rate 16000 \(160 samples\) is too short"):
        ExperimentSpec(mixtures=mixtures, methods=["nm"])
    # The shortest mixture that analyzes is half a window and one sample.
    ExperimentSpec(mixtures=[MixtureSpec(duration_s=257 / 16000)], methods=["nm"])


def test_speech_shaped_mixture_of_two_samples():
    tri = synthesize_mixture("speech_shaped", 0.0, 2 / 16000, 16000, 0)
    assert len(tri.noisy) == 2
    assert np.all(np.isfinite(tri.noise.samples))


def test_oracle_estimates_recompose_to_mixture():
    tri = synthesize_mixture("harmonic", 0.0, 0.25, 16000, 8)
    est = provide_estimates(EstimateProvider("oracle"), tri, CFG)
    h_mix = stft(tri.noisy, CFG).values
    _, phase_speech = decompose(stft(tri.clean, CFG))
    rebuilt = est.mag_speech * np.exp(1j * phase_speech) + est.mag_noise * np.exp(
        1j * est.phase_noise
    )
    assert np.max(np.abs(rebuilt - h_mix)) < 1e-10 * np.max(np.abs(h_mix))


def test_perturbed_oracle_zero_std_is_oracle():
    tri = synthesize_mixture("harmonic", 0.0, 0.25, 16000, 9)
    exact = provide_estimates(EstimateProvider("oracle"), tri, CFG)
    degraded = provide_estimates(EstimateProvider("perturbed_oracle", 0.0, 5), tri, CFG)
    for quantity in ("mag_speech", "mag_noise", "phase_noise"):
        # the exact spectra themselves, passed through read-only, not a perturbed copy
        supplied = getattr(degraded, quantity)
        assert np.array_equal(getattr(exact, quantity), supplied) and not supplied.flags.writeable, quantity


def test_perturbed_oracle_properties():
    tri = synthesize_mixture("harmonic", 0.0, 0.25, 16000, 10)
    for seed in range(5):
        est = provide_estimates(EstimateProvider("perturbed_oracle", 0.3, seed), tri, CFG)
        assert np.all(est.mag_speech >= 0)
        assert np.all(est.mag_noise >= 0)
        assert np.all(est.phase_noise >= -np.pi) and np.all(est.phase_noise < np.pi)
    a = provide_estimates(EstimateProvider("perturbed_oracle", 0.3, 1), tri, CFG)
    b = provide_estimates(EstimateProvider("perturbed_oracle", 0.3, 1), tri, CFG)
    assert np.array_equal(a.mag_speech, b.mag_speech)


@pytest.mark.parametrize(
    "provider",
    [
        EstimateProvider("oracle"),
        EstimateProvider("perturbed_oracle", 0.3, 4),
    ],
    ids=["oracle", "perturbed_oracle"],
)
def test_provide_estimates_equals_the_grids_estimates(provider):
    tri = synthesize_mixture("speech_shaped", -3.0, 0.25, 16000, 12)
    _, spectra = harness._spectra(tri.noisy, tri.clean, tri.noise, CFG)
    est = provide_estimates(provider, tri, CFG)
    for method in ("nm", "np"):
        grid = harness._estimates(method, spectra, (provider, provider), tri.seed)
        for quantity in METHOD_NEEDS[method]:
            assert getattr(est, quantity).tobytes() == getattr(grid, quantity).tobytes()
    if provider.kind == "oracle":
        for quantity in ("mag_speech", "mag_noise", "phase_noise"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(est, quantity)[0, 0] = 0.0


def test_provider_validation():
    with pytest.raises(ValueError, match="provider kind"):
        EstimateProvider("dnn")
    with pytest.raises(ValueError, match="noise_std"):
        EstimateProvider("perturbed_oracle", -0.1)
    # a bad seed would fail only inside the first perturbed cell, in numpy's words
    for seed in (-1, 1.5, float("nan"), "0"):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            EstimateProvider("perturbed_oracle", 0.3, seed)
    assert EstimateProvider("perturbed_oracle", 0.3, 2.0).seed == 2


@pytest.mark.parametrize("std", [float("nan"), float("inf"), -float("inf")])
def test_provider_rejects_a_non_finite_scale(std):
    with pytest.raises(ValueError, match="noise_std must be finite and non-negative"):
        EstimateProvider("perturbed_oracle", std)


def _small_spec(methods, seeds=(0, 1), snr=0.0, pairs=None):
    mixtures = [MixtureSpec("harmonic", snr, 0.25, 16000, s) for s in seeds]
    return ExperimentSpec(
        mixtures=mixtures,
        methods=list(methods),
        provider_pairs=pairs if pairs is not None else default_provider_pairs(0.3, 0),
        stft_cfg=CFG,
        recon_cfg=ReconConfig(trace=False),
    )


def test_run_experiment_passthrough_rows_match_baseline():
    table = run_experiment(_small_spec(["passthrough"]))
    cells = [r for r in table.rows if r["row_kind"] == "cell"]
    assert len(cells) == 2
    for row in cells:
        assert row["si_snr_db"] == pytest.approx(row["si_snr_noisy_db"], abs=1e-9)
        assert row["phase_cos_sim"] == pytest.approx(row["phase_cos_sim_noisy"], abs=1e-12)


def test_run_experiment_structure_and_order():
    table = run_experiment(_small_spec(["nm"]))
    assert table.columns == RESULT_COLUMNS
    cells = [r for r in table.rows if r["row_kind"] == "cell"]
    means = [r for r in table.rows if r["row_kind"] == "mean"]
    assert len(cells) == 8  # 4 provider pairs x 2 mixtures
    assert len(means) == 4
    labels = [(r["speech_provider"], r["noise_provider"]) for r in means]
    assert labels == [
        ("oracle", "oracle"),
        ("oracle", "perturbed(0.3)"),
        ("perturbed(0.3)", "oracle"),
        ("perturbed(0.3)", "perturbed(0.3)"),
    ]
    # cell rows come before aggregate rows
    kinds = [r["row_kind"] for r in table.rows]
    assert kinds == ["cell"] * 8 + ["mean"] * 4


def test_run_experiment_oracle_cell_dominates():
    table = run_experiment(_small_spec(["nm"], seeds=range(4)))
    means = {
        (r["speech_provider"], r["noise_provider"]): r["phase_cos_sim"]
        for r in table.rows
        if r["row_kind"] == "mean"
    }
    oo = means[("oracle", "oracle")]
    assert all(oo > v for k, v in means.items() if k != ("oracle", "oracle"))


def test_run_experiment_deterministic_and_parallel_consistent():
    spec = _small_spec(["nm", "np"], seeds=(0, 1))
    serial = run_experiment(spec, jobs=1)
    again = run_experiment(spec, jobs=1)
    parallel = run_experiment(spec, jobs=4)
    assert serial.rows == again.rows
    assert serial.rows == parallel.rows


def test_run_experiment_empty():
    spec = ExperimentSpec(mixtures=[], methods=["nm"])
    table = run_experiment(spec)
    assert table.rows == []
    assert table.columns == RESULT_COLUMNS


def test_degradation_monotone():
    seeds = range(8)
    means = []
    for std in (0.0, 0.1, 0.3):
        provider = EstimateProvider("perturbed_oracle", std, 0)
        table = run_experiment(_small_spec(["nm"], seeds=seeds, pairs=[(provider, provider)]))
        mean_row = [r for r in table.rows if r["row_kind"] == "mean"][0]
        means.append(mean_row["phase_cos_sim"])
    assert means[0] >= means[1] >= means[2]


def _reuse_spec():
    pairs = default_provider_pairs(0.3, 0) + [
        (EstimateProvider("perturbed_oracle", 0.1, 1), EstimateProvider("perturbed_oracle", 0.5, 2))
    ]
    return ExperimentSpec(
        mixtures=[
            MixtureSpec("harmonic", 0.0, 0.25, 16000, 3),
            MixtureSpec("speech_shaped", -4.0, 0.25, 16000, 4),
        ],
        methods=list(METHODS),
        provider_pairs=pairs,
        stft_cfg=CFG,
        recon_cfg=ReconConfig(iterations=3, trace=False),
    )


def _cell_by_cell(spec):
    """Cell rows built one cell at a time from the public functions alone."""
    rows = []
    for method in spec.methods:
        needs = METHOD_NEEDS[method]
        for pair in spec.provider_pairs if needs else [None]:
            for m in spec.mixtures:
                triple = synthesize_mixture(m.kind, m.snr_db, m.duration_s, m.sample_rate, m.seed)
                noisy = stft(triple.noisy, CFG)
                mag_mix, phase_mix = decompose(noisy)
                _, phase_speech = decompose(stft(triple.clean, CFG))
                est = Estimates()
                labels = ("-", "-")
                if pair is not None:
                    labels = (pair[0].label(), pair[1].label())
                    est.mag_speech = provide_estimates(pair[0], triple, CFG).mag_speech
                    noise = provide_estimates(pair[1], triple, CFG)
                    for quantity in needs[1:]:
                        setattr(est, quantity, getattr(noise, quantity))
                if method == "sign":
                    cand = cosine_phase_candidates(mag_mix, phase_mix, est.mag_speech, est.mag_noise)
                    est.sign = oracle_sign(cand, phase_speech)
                wave, report = enhance(noisy, method, est, spec.recon_cfg)
                mag_used = est.mag_speech if est.mag_speech is not None else mag_mix
                row = metric_row(
                    wave, triple.clean, report.final_phase, phase_speech, mag_used, CFG, noisy.origin_length
                )
                # The final inconsistency is the loop's last pass; metric_row
                # measures the same iterate through its reported phase. Where
                # the iterate is consistent both are rounding noise, so the
                # absolute part of the bound scales with the estimate's norm.
                scale = 1e-12 * weighted_frobenius(mag_used, CFG)
                assert report.final_inconsistency == pytest.approx(row.inconsistency, rel=1e-12, abs=scale)
                rows.append(
                    {
                        "row_kind": "cell",
                        "method": method,
                        "speech_provider": labels[0],
                        "noise_provider": labels[1],
                        "mixture_kind": m.kind,
                        "mixture_seed": m.seed,
                        "snr_db": m.snr_db,
                        "si_snr_db": row.si_snr_db,
                        "snr_db_plain": row.snr_db_plain,
                        "phase_cos_sim": row.phase_cos_sim,
                        "inconsistency": report.final_inconsistency,
                        "si_snr_noisy_db": si_snr(triple.noisy, triple.clean),
                        "phase_cos_sim_noisy": phase_cos_sim(phase_mix, phase_speech),
                    }
                )
    return rows


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_experiment_shared_spectra_match_cell_by_cell(jobs):
    spec = _reuse_spec()
    expected = _cell_by_cell(spec)
    table = run_experiment(spec, jobs=jobs)
    cells = [r for r in table.rows if r["row_kind"] == "cell"]
    assert cells == expected  # exact float equality, in method -> pair -> mixture order
    means = [r for r in table.rows if r["row_kind"] == "mean"]
    groups = [expected[i : i + len(spec.mixtures)] for i in range(0, len(expected), len(spec.mixtures))]
    assert len(means) == len(groups)
    for mean, group in zip(means, groups):
        for column in ("method", "speech_provider", "noise_provider"):
            assert mean[column] == group[0][column]
        for column in RESULT_COLUMNS[7:13]:
            assert mean[column] == float(np.mean([r[column] for r in group]))


def test_run_experiment_analyzes_each_signal_once(monkeypatch):
    calls = []

    def counting_stft(x, cfg=None):
        calls.append(x)
        return stft(x, cfg)

    monkeypatch.setattr(harness, "stft", counting_stft)
    spec = _reuse_spec()
    run_experiment(spec)
    assert len(calls) == 3 * len(spec.mixtures)  # noisy, clean and noise, once each


def test_spec_and_provider_defaults():
    # A harmonic mixture of 0.5 s at 0 dB and 16 kHz from seed 0; the exact oracle;
    # the perturbed one of the grid at scale 0.3 from seed 0.
    assert astuple(MixtureSpec()) == ("harmonic", 0.0, 0.5, 16000, 0)
    parameters = inspect.signature(synthesize_mixture).parameters.values()
    assert tuple(p.default for p in parameters) == astuple(MixtureSpec())
    assert astuple(EstimateProvider()) == ("oracle", 0.0, 0)
    assert default_provider_pairs()[3] == (EstimateProvider("perturbed_oracle", 0.3, 0),) * 2


def test_scale_noise_rejects_silence_and_scales_unit_signals():
    with pytest.raises(ValueError, match="^noise signal is silent"):
        harness._scale_noise(np.ones(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="^clean signal is silent"):
        harness._scale_noise(np.zeros(3), np.ones(3), 0.0)
    # Two signals of norm 1 at 0 dB: a gain of exactly 1.
    scaled = harness._scale_noise(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 0.0)
    assert np.array_equal(scaled, [0.0, 0.0, 1.0])


def test_experiment_spec_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        ExperimentSpec([MixtureSpec()], methods=["nm", "bogus"])


def test_the_spectra_and_every_estimate_of_a_mixture_are_read_only():
    tri = synthesize_mixture(duration_s=0.1)
    _, spectra = harness._spectra(tri.noisy, tri.clean, tri.noise, StftConfig())
    assert [name for name, array in spectra.items() if array.flags.writeable] == []
    supplied = {}
    for method in ("nm", "np"):
        harness._estimates(method, spectra, default_provider_pairs()[3], tri.seed, supplied)
    assert len(supplied) == 3
    assert [key for key, array in supplied.items() if array.flags.writeable] == []


def test_run_experiment_logs_its_grid(caplog):
    spec = ExperimentSpec([MixtureSpec(duration_s=0.05)], methods=["passthrough"])
    with caplog.at_level(logging.INFO, logger="msgla.harness"):
        run_experiment(spec)
    assert caplog.messages == ["running 1 experiment cells over 1 mixture(s) with 1 worker(s)"]
