import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from msgla import cli
from msgla.audio_io import read_wav, write_wav
from msgla.cli import main
from msgla.harness import EstimateProvider, _estimates, _scale_noise, _spectra, synthesize_mixture
from msgla.metrics import si_snr
from msgla.reconstruct import ReconConfig, enhance
from msgla.spectral import Spectrogram, StftConfig, Waveform, decompose, istft, recompose, stft


def _quantized_triple(seed, snr_db=0.0, duration=0.5):
    """Mixture whose float32 WAV round trip keeps noisy == clean + noise exact.

    Samples are snapped to a 2**-12 grid so that clean, noise and their sum
    are all exactly float32-representable.
    """
    from msgla.harness import MixtureTriple
    from msgla.spectral import Waveform

    tri = synthesize_mixture("harmonic", snr_db, duration, 16000, seed)
    grid = 2.0**-12
    clean = np.round(tri.clean.samples / grid) * grid
    noise = np.round(tri.noise.samples / grid) * grid
    return MixtureTriple(
        clean=Waveform(clean, 16000),
        noise=Waveform(noise, 16000),
        noisy=Waveform(clean + noise, 16000),
        snr_db=snr_db,
        seed=seed,
    )


@pytest.fixture()
def mixture_files(tmp_path):
    tri = _quantized_triple(0)
    paths = {}
    for name, wave in (("noisy", tri.noisy), ("clean", tri.clean), ("noise", tri.noise)):
        path = tmp_path / f"{name}.wav"
        write_wav(wave, path, "float32")
        paths[name] = path
    return tmp_path, paths, tri


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "enhance" in capsys.readouterr().out


def test_unknown_flag_exits_two():
    assert main(["enhance", "x.wav", "--out", "y.wav", "--frobnicate"]) == 2


def test_enhance_passthrough_identity(mixture_files):
    tmp_path, paths, tri = mixture_files
    out = tmp_path / "out.wav"
    code = main(
        ["enhance", str(paths["noisy"]), "--method", "passthrough", "--out", str(out)]
    )
    assert code == 0
    back = read_wav(out)
    assert np.max(np.abs(back.samples - tri.noisy.samples.astype(np.float32))) < 1e-7
    metrics = json.loads(out.with_suffix(".metrics.json").read_text())
    assert metrics["method"] == "passthrough"
    assert metrics["config"]["iters"] == 5


def test_enhance_nm_improves_si_snr(mixture_files):
    tmp_path, paths, tri = mixture_files
    out = tmp_path / "nm.wav"
    code = main(
        [
            "enhance",
            str(paths["noisy"]),
            "--method",
            "nm",
            "--oracle-clean",
            str(paths["clean"]),
            "--oracle-noise",
            str(paths["noise"]),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    metrics = json.loads(out.with_suffix(".metrics.json").read_text())
    assert metrics["metrics"]["si_snr_improvement_db"] > 0.0
    assert len(metrics["per_iteration"]) == 6
    for entry in metrics["per_iteration"]:
        assert set(entry) == {"iteration", "inconsistency", "phase_cos_sim"}
    enhanced = read_wav(out)
    assert si_snr(enhanced.samples, tri.clean.samples) > si_snr(
        tri.noisy.samples, tri.clean.samples
    )


def test_enhance_missing_estimate_exits_two(mixture_files, capsys):
    tmp_path, paths, _ = mixture_files
    code = main(
        [
            "enhance",
            str(paths["noisy"]),
            "--method",
            "nm",
            "--oracle-clean",
            str(paths["clean"]),
            "--out",
            str(tmp_path / "x.wav"),
        ]
    )
    assert code == 2
    assert "--oracle-noise" in capsys.readouterr().err


def test_enhance_missing_file_exits_one(tmp_path, capsys):
    code = main(
        ["enhance", str(tmp_path / "absent.wav"), "--method", "passthrough", "--out", str(tmp_path / "o.wav")]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: no such WAV file: {tmp_path / 'absent.wav'}\n"


def test_enhance_length_mismatch_exits_two(mixture_files, capsys):
    tmp_path, paths, tri = mixture_files
    from msgla.spectral import Waveform

    short = tmp_path / "short.wav"
    write_wav(Waveform(tri.clean.samples[:1000], 16000), short, "float32")
    code = main(
        [
            "enhance",
            str(paths["noisy"]),
            "--method",
            "gla",
            "--oracle-clean",
            str(short),
            "--out",
            str(tmp_path / "y.wav"),
        ]
    )
    assert code == 2
    assert "samples" in capsys.readouterr().err


def test_enhance_sign_method(mixture_files):
    tmp_path, paths, tri = mixture_files
    out = tmp_path / "sign.wav"
    code = main(
        [
            "enhance",
            str(paths["noisy"]),
            "--method",
            "sign",
            "--oracle-clean",
            str(paths["clean"]),
            "--oracle-noise",
            str(paths["noise"]),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    metrics = json.loads(out.with_suffix(".metrics.json").read_text())
    assert metrics["metrics"]["si_snr_improvement_db"] > 0.0


def test_oracle_exp_outputs_and_row_order(tmp_path):
    out_dir = tmp_path / "exp"
    code = main(
        [
            "oracle-exp",
            "--out-dir",
            str(out_dir),
            "--methods",
            "nm",
            "--snr-grid",
            "0",
            "--seeds",
            "0",
            "1",
            "--duration",
            "0.25",
            "--jobs",
            "1",
        ]
    )
    assert code == 0
    with (out_dir / "results.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    cells = [r for r in rows if r["row_kind"] == "cell"]
    pair_order = []
    for r in cells:
        pair = (r["speech_provider"], r["noise_provider"])
        if pair not in pair_order:
            pair_order.append(pair)
    assert pair_order == [
        ("oracle", "oracle"),
        ("oracle", "perturbed(0.3)"),
        ("perturbed(0.3)", "oracle"),
        ("perturbed(0.3)", "perturbed(0.3)"),
    ]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["iters"] == 5
    assert all(r["fingerprint"] == manifest["fingerprint"] for r in rows)


def test_oracle_exp_rerun_is_byte_identical(tmp_path):
    argv = [
        "oracle-exp",
        "--methods",
        "nm",
        "--snr-grid",
        "0",
        "--seeds",
        "0",
        "--duration",
        "0.25",
    ]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("results.csv", "results.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_oracle_exp_runs_at_the_shortest_duration(tmp_path):
    # 257 samples, the fewest that centered analysis with a 512-sample window takes
    argv = ["oracle-exp", "--methods", "nm", "--snr-grid", "0", "--seeds", "0", "--jobs", "1"]
    assert main([*argv, "--duration", str(257 / 16000), "--out-dir", str(tmp_path / "exp")]) == 0
    assert (tmp_path / "exp" / "results.csv").is_file()


def test_candidates_cos_law(mixture_files):
    tmp_path, paths, _ = mixture_files
    out = tmp_path / "cand.csv"
    code = main(
        [
            "candidates",
            str(paths["noisy"]),
            str(paths["clean"]),
            str(paths["noise"]),
            "--law",
            "cos",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert {"frame", "bin", "abs_delta", "candidate_error", "valid"} <= set(rows[0])
    speech_peak = max(float(r["mag_speech"]) for r in rows)
    mix_peak = max(float(r["mag_mix"]) for r in rows)

    def separated(row):
        # distance between the two candidates phase_mix +- abs_delta
        delta = float(row["abs_delta"])
        return min(2 * delta, 2 * np.pi - 2 * delta) > 1e-3

    audited = [
        float(r["candidate_error"])
        for r in rows
        if r["valid"] == "1"
        and float(r["mag_speech"]) > 1e-2 * speech_peak
        and float(r["mag_mix"]) > 1e-2 * mix_peak
        and separated(r)
    ]
    assert audited and max(audited) < 1e-9
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["max_error_audited"] < 1e-9


def test_candidates_zero_noise_zero_delta(tmp_path):
    tri = _quantized_triple(1, snr_db=float("inf"), duration=0.25)
    paths = {}
    for name, wave in (("noisy", tri.noisy), ("clean", tri.clean), ("noise", tri.noise)):
        path = tmp_path / f"{name}.wav"
        write_wav(wave, path, "float32")
        paths[name] = path
    out = tmp_path / "cand0.csv"
    assert (
        main(
            [
                "candidates",
                str(paths["noisy"]),
                str(paths["clean"]),
                str(paths["noise"]),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    deltas = [float(r["abs_delta"]) for r in rows if r["valid"] == "1"]
    assert max(deltas) < 1e-5


def test_candidates_sin_law_and_mismatch(mixture_files, tmp_path):
    _, paths, tri = mixture_files
    out = tmp_path / "sin.csv"
    code = main(
        [
            "candidates",
            str(paths["noisy"]),
            str(paths["clean"]),
            str(paths["noise"]),
            "--law",
            "sin",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with out.open() as handle:
        header = handle.readline()
    assert "primary" in header and "reflected" in header

    from msgla.spectral import Waveform

    short = tmp_path / "short.wav"
    write_wav(Waveform(tri.noise.samples[:512], 16000), short, "float32")
    assert (
        main(
            [
                "candidates",
                str(paths["noisy"]),
                str(paths["clean"]),
                str(short),
                "--out",
                str(tmp_path / "bad.csv"),
            ]
        )
        == 2
    )


def test_candidates_triangle_violations_flagged_without_nan(mixture_files, tmp_path):
    # feeding the clean file as "noise" breaks the additive geometry: the
    # audit must flag invalid bins rather than produce NaN
    _, paths, _ = mixture_files
    out = tmp_path / "violate.csv"
    code = main(
        [
            "candidates",
            str(paths["noisy"]),
            str(paths["clean"]),
            str(paths["clean"]),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert any(r["valid"] == "0" for r in rows)
    deltas = np.array([float(r["abs_delta"]) for r in rows])
    assert np.isfinite(deltas).all()
    assert np.all(deltas >= 0) and np.all(deltas <= np.pi)


def test_analyze_oracle_maps_are_zero(mixture_files, tmp_path):
    _, paths, _ = mixture_files
    out_dir = tmp_path / "maps0"
    code = main(
        [
            "analyze",
            "--clean",
            str(paths["clean"]),
            "--noise",
            str(paths["noise"]),
            "--noise-std",
            "0",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    grid = np.loadtxt(out_dir / "speech_phase_error.csv", delimiter=",")
    assert np.all(grid == 0)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["noise_phase"]["mean_error_low_energy"] == 0.0


def test_analyze_energy_scaled_contrast(mixture_files, tmp_path):
    _, paths, _ = mixture_files
    out_dir = tmp_path / "maps"
    code = main(
        [
            "analyze",
            "--clean",
            str(paths["clean"]),
            "--noise",
            str(paths["noise"]),
            "--scale-by-energy",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    noise_stats = summary["noise_phase"]
    assert noise_stats["mean_error_low_energy"] < noise_stats["mean_error_high_energy"]
    speech_stats = summary["speech_phase"]
    assert speech_stats["mean_error_high_energy"] < speech_stats["mean_error_low_energy"]


def test_analyze_counts_bins_equal_to_the_median_as_low_energy(tmp_path):
    # An impulse of 0.5 every 256 samples gives most bins a magnitude of
    # exactly 0.5, the median, so the rule for ties decides the split.
    clean = np.zeros(16000)
    clean[::256] = 0.5
    noise = 0.1 * np.random.default_rng(0).standard_normal(16000)
    for name, samples in (("clean", clean), ("noise", noise)):
        write_wav(Waveform(samples, 16000), tmp_path / f"{name}.wav", "float32")
    out_dir = tmp_path / "maps"
    argv = ["analyze", "--clean", str(tmp_path / "clean.wav"), "--noise", str(tmp_path / "noise.wav")]
    assert main([*argv, "--out-dir", str(out_dir)]) == 0
    mag, _ = decompose(stft(read_wav(tmp_path / "clean.wav"), StftConfig()))
    median = np.median(mag)
    high = mag > median
    assert (median, np.count_nonzero(high), np.count_nonzero(mag >= median)) == (0.5, 130, 16064)
    summary = json.loads((out_dir / "summary.json").read_text())
    for part in ("speech", "noise"):
        error = np.loadtxt(out_dir / f"{part}_phase_error.csv", delimiter=",")
        stats = summary[f"{part}_phase"]
        assert stats["mean_error_high_energy"] == pytest.approx(error[high].mean(), rel=1e-7)
        assert stats["mean_error_low_energy"] == pytest.approx(error[~high].mean(), rel=1e-7)


def test_config_file_merging(mixture_files, tmp_path):
    _, paths, _ = mixture_files
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"iters": 2, "method": "passthrough"}))
    out = tmp_path / "cfgd.wav"
    code = main(
        ["enhance", str(paths["noisy"]), "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    metrics = json.loads(out.with_suffix(".metrics.json").read_text())
    assert metrics["config"]["iters"] == 2
    assert metrics["method"] == "passthrough"
    # explicit flag beats config file
    code = main(
        [
            "enhance",
            str(paths["noisy"]),
            "--config",
            str(config),
            "--iters",
            "1",
            "--out",
            str(out),
        ]
    )
    metrics = json.loads(out.with_suffix(".metrics.json").read_text())
    assert metrics["config"]["iters"] == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert (
        main(["enhance", str(paths["noisy"]), "--config", str(bad), "--out", str(out)]) == 2
    )


@pytest.mark.parametrize("module", ["msgla", "msgla.cli"])
def test_console_entry_point_runs(module):
    proc = subprocess.run([sys.executable, "-m", module, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "msgla" in proc.stdout


MINIMAL_ARGVS = [
    ["enhance", "noisy.wav", "--out", "out.wav"],
    ["oracle-exp", "--out-dir", "results"],
    ["candidates", "noisy.wav", "clean.wav", "noise.wav", "--out", "cand.csv"],
    ["analyze", "--clean", "clean.wav", "--noise", "noise.wav", "--out-dir", "maps"],
]


@pytest.mark.parametrize("argv", MINIMAL_ARGVS)
def test_no_center_flag_is_a_usage_error(argv, capsys):
    # Uncentered periodic Hann has w[0] = 0, so no uncentered run could succeed.
    assert main([*argv, "--no-center"]) == 2
    assert "--no-center" in capsys.readouterr().err


def test_no_center_config_key_is_rejected(mixture_files, tmp_path, capsys):
    _, paths, _ = mixture_files
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"no_center": False}))
    out = tmp_path / "out.wav"
    code = main(["enhance", str(paths["noisy"]), "--config", str(config), "--out", str(out)])
    assert code == 2
    assert "no_center" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr_flags", [[], ["--snr-db", "0"]])
def test_analyze_rejects_a_silent_clean_wav(mixture_files, tmp_path, capsys, snr_flags):
    _, paths, tri = mixture_files
    silent = tmp_path / "silent.wav"
    write_wav(Waveform(np.zeros(len(tri.clean)), 16000), silent)
    out_dir = tmp_path / "maps"
    argv = ["analyze", "--clean", str(silent), "--noise", str(paths["noise"]), "--out-dir", str(out_dir)]
    assert main([*argv, *snr_flags]) == 2
    err = capsys.readouterr().err
    assert "--clean" in err and str(silent) in err and "silent" in err
    assert not (out_dir / "summary.json").exists()


def test_analyze_snr_db_scales_noise_like_the_harness(mixture_files, tmp_path, capsys):
    _, paths, tri = mixture_files
    silent = tmp_path / "silent.wav"
    write_wav(Waveform(np.zeros(len(tri.noise)), 16000), silent)
    argv = ["analyze", "--clean", str(paths["clean"]), "--out-dir", str(tmp_path / "maps")]
    assert main([*argv, "--noise", str(silent), "--snr-db", "6"]) == 2
    err = capsys.readouterr().err
    assert str(silent) in err and "silent" in err

    calls = []

    def spy(clean, noise, snr_db):
        calls.append(snr_db)
        return _scale_noise(clean, noise, snr_db)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_scale_noise", spy)
        assert main([*argv, "--noise", str(paths["noise"]), "--snr-db", "6"]) == 0
    assert calls == [6.0]
    summary = json.loads((tmp_path / "maps" / "summary.json").read_text())
    values = [v for part in ("speech_phase", "noise_phase") for v in summary[part].values()]
    assert all(np.isfinite(values))


def _enhance_argv(paths, out, method, *extra):
    return [
        "enhance",
        str(paths["noisy"]),
        "--method",
        method,
        "--oracle-clean",
        str(paths["clean"]),
        "--oracle-noise",
        str(paths["noise"]),
        "--out",
        str(out),
        *extra,
    ]


@pytest.mark.parametrize("method", ["nm", "np", "sign"])
def test_enhance_perturbed_estimates_are_the_grids(mixture_files, method):
    # --perturb-std s --perturb-seed k is the grid's perturbed(s) provider, seed k,
    # for speech and noise alike, on a mixture of seed 0.
    tmp_path, paths, _ = mixture_files
    out = tmp_path / f"{method}.wav"
    assert main(_enhance_argv(paths, out, method, "--perturb-std", "0.3", "--perturb-seed", "7")) == 0

    waves = [read_wav(paths[name]) for name in ("noisy", "clean", "noise")]
    noisy_spec, spectra = _spectra(*waves, StftConfig())
    provider = EstimateProvider("perturbed_oracle", 0.3, 7)
    estimates = _estimates(method, spectra, (provider, provider), 0)
    expected, _ = enhance(noisy_spec, method, estimates, ReconConfig())
    assert np.array_equal(read_wav(out).samples, expected.samples.astype(np.float32))
    oracle = EstimateProvider("oracle")
    unperturbed, _ = enhance(noisy_spec, method, _estimates(method, spectra, (oracle, oracle), 0))
    assert not np.array_equal(expected.samples, unperturbed.samples)


def test_enhance_perturbation_is_seeded(mixture_files):
    tmp_path, paths, _ = mixture_files
    outputs = {}
    for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
        out = tmp_path / f"{name}.wav"
        assert main(_enhance_argv(paths, out, "nm", "--perturb-std", "0.3", "--perturb-seed", seed)) == 0
        outputs[name] = out.read_bytes()
    assert outputs["a"] == outputs["b"]
    assert outputs["a"] != outputs["c"]


def test_enhance_passthrough_takes_the_clean_magnitude(mixture_files):
    tmp_path, paths, tri = mixture_files
    out = tmp_path / "pass.wav"
    argv = ["enhance", str(paths["noisy"]), "--method", "passthrough", "--out", str(out)]
    assert main([*argv, "--oracle-clean", str(paths["clean"])]) == 0
    samples = read_wav(out).samples
    noisy_spec = stft(tri.noisy)
    mag_speech, _ = decompose(stft(tri.clean))
    _, phase_mix = decompose(noisy_spec)
    expected = istft(Spectrogram(recompose(mag_speech, phase_mix), noisy_spec.config, len(tri.noisy)))
    assert not np.allclose(samples, tri.noisy.samples, atol=1e-3)
    np.testing.assert_allclose(samples, expected.samples, rtol=0, atol=1e-7)


@pytest.mark.parametrize(
    ("command", "flag", "value"),
    [
        ("enhance", "--perturb-std", "-0.3"),
        ("enhance", "--perturb-std", "nan"),
        ("oracle-exp", "--noise-std", "-1"),
        ("oracle-exp", "--noise-std", "nan"),
    ],
)
def test_bad_perturbation_scale_is_a_usage_error(mixture_files, capsys, command, flag, value):
    tmp_path, paths, _ = mixture_files
    if command == "enhance":
        out = tmp_path / "out.wav"
        argv = _enhance_argv(paths, out, "nm")
    else:
        out = tmp_path / "exp" / "results.csv"
        argv = ["oracle-exp", "--out-dir", str(out.parent), "--seeds", "0", "--snr-grid", "0"]
    assert main([*argv, flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and "finite and non-negative" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_analyze_rejects_a_bad_noise_std(mixture_files, tmp_path, capsys, value):
    _, paths, _ = mixture_files
    out_dir = tmp_path / "maps"
    argv = ["analyze", "--clean", str(paths["clean"]), "--noise", str(paths["noise"])]
    assert main([*argv, "--out-dir", str(out_dir), "--noise-std", value]) == 2
    err = capsys.readouterr().err
    assert "--noise-std" in err and "finite and non-negative" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("mismatch", ["length", "rate"])
@pytest.mark.parametrize(
    ("command", "wav", "reference"),
    [
        ("enhance", "--oracle-clean", "noisy input"),
        ("candidates", "clean WAV", "noisy input"),
        ("analyze", "--noise", "--clean"),
    ],
)
def test_misaligned_wav_error_names_the_actual_reference(
    mixture_files, tmp_path, capsys, command, wav, reference, mismatch
):
    _, paths, tri = mixture_files
    bad = tmp_path / "bad.wav"
    samples = tri.noise.samples if command == "analyze" else tri.clean.samples
    if mismatch == "length":
        write_wav(Waveform(samples[: len(samples) // 2], 16000), bad)
    else:
        write_wav(Waveform(samples, 8000), bad)
    out = tmp_path / "out"
    argv = {
        "enhance": ["enhance", str(paths["noisy"]), "--method", "gla", "--oracle-clean", str(bad), "--out"],
        "candidates": ["candidates", str(paths["noisy"]), str(bad), str(paths["noise"]), "--out"],
        "analyze": ["analyze", "--clean", str(paths["clean"]), "--noise", str(bad), "--out-dir"],
    }[command]
    assert main([*argv, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wav} ")
    assert f"{reference} has" in err if mismatch == "length" else f"does not match {reference} 16000" in err
    assert not out.exists()


def _snapshot(folder):
    return {str(p.relative_to(folder)): p.read_bytes() for p in sorted(folder.rglob("*")) if p.is_file()}


def _run_twice(argv, out, config_path, config, flags):
    """Output bytes of ``argv`` with ``flags``, then with ``config`` as a config file instead."""
    main([*argv, *flags])
    from_flags = _snapshot(out)
    shutil.rmtree(out)
    config_path.write_text(json.dumps(config))
    assert main([*argv, "--config", str(config_path)]) == 0
    return from_flags, _snapshot(out)


def test_config_file_and_flags_give_identical_bytes(tmp_path):
    # JSON ints for float flags are parsed as the flags' text is, so the fingerprint matches too;
    # the worker count stays out of it
    out = tmp_path / "exp"
    config = {"snr_grid": [0], "duration": 1, "noise_std": 0, "seeds": [1], "methods": ["nm"], "jobs": 2}
    flags = ["--snr-grid", "0", "--duration", "1", "--noise-std", "0", "--seeds", "1", "--methods", "nm"]
    argv = ["oracle-exp", "--out-dir", str(out)]
    from_flags, from_config = _run_twice(argv, out, tmp_path / "cfg.json", config, [*flags, "--jobs", "1"])
    assert sorted(from_flags) == ["manifest.json", "results.csv", "results.json"]
    assert from_config == from_flags


@pytest.mark.parametrize(
    ("command", "config", "flags"),
    [
        ("analyze", {"scale_by_energy": True, "seed": None}, ["--scale-by-energy"]),
        ("analyze", {"scale_by_energy": False, "noise_std": 1}, ["--noise-std", "1"]),
        ("candidates", {"fft": None, "law": "sin"}, ["--law", "sin"]),
        (
            "oracle-exp",
            {"seeds": 3, "methods": "nm", "snr_grid": 0},
            ["--seeds", "3", "--methods", "nm", "--snr-grid", "0"],
        ),
    ],
)
def test_config_value_shapes_behave_like_flags(mixture_files, command, config, flags):
    tmp_path, paths, _ = mixture_files
    out = tmp_path / "out"
    argv = {
        "analyze": ["analyze", "--clean", str(paths["clean"]), "--noise", str(paths["noise"]), "--out-dir", str(out)],
        "candidates": ["candidates", str(paths["noisy"]), str(paths["clean"]), str(paths["noise"])],
        "oracle-exp": ["oracle-exp", "--out-dir", str(out), "--jobs", "1"],
    }[command]
    if command == "candidates":
        argv += ["--out", str(out / "cand.csv")]
    from_flags, from_config = _run_twice(argv, out, tmp_path / "cfg.json", config, flags)
    assert from_flags and from_config == from_flags


def _refuse_io(*args, **kwargs):
    raise AssertionError("input was read or work started before the flags were checked")


@pytest.mark.parametrize(
    ("command", "config", "flags", "name"),
    [
        ("oracle-exp", {"window": 512.7}, [], "--window"),
        ("oracle-exp", {"iters": "x"}, [], "--iters"),
        ("oracle-exp", {"init": "bogus"}, [], "--init"),
        ("oracle-exp", {"kind": "wav_pair"}, [], "--kind"),
        ("oracle-exp", {"methods": ["nm", "bogus"]}, [], "--methods"),
        ("oracle-exp", [1, 2], [], "must hold a JSON object, got list"),
        ("oracle-exp", {"out_dir": "elsewhere"}, [], "out_dir"),
        ("enhance", {"encoding": "pcm24"}, [], "--encoding"),
        ("enhance", {"scale_by_energy": True}, [], "scale_by_energy"),
        ("analyze", {"scale_by_energy": "yes"}, [], "--scale-by-energy"),
        ("oracle-exp", None, ["--iters", "-1"], "--iters"),
        ("oracle-exp", None, ["--window", "0"], "--window"),
        ("oracle-exp", None, ["--hop", "1024"], "--hop"),
        ("oracle-exp", None, ["--fft", "100"], "--fft"),
        ("oracle-exp", None, ["--duration", "0"], "argument --duration: must be finite and positive"),
        ("oracle-exp", None, ["--sample-rate", "0"], "--sample-rate"),
        ("oracle-exp", None, ["--seeds", "0", "-1"], "--seeds"),
        ("oracle-exp", None, ["--provider-seed", "-1"], "--provider-seed"),
        ("oracle-exp", None, ["--jobs", "0"], "--jobs"),
        ("oracle-exp", None, ["--jobs", "-2"], "--jobs"),
        ("enhance", None, ["--init", "random", "--seed", "-1"], "--seed"),
        ("enhance", None, ["--perturb-seed", "-1"], "--perturb-seed"),
        ("enhance", None, ["--hop", "1024"], "--hop"),
        ("candidates", None, ["--fft", "100"], "--fft"),
        ("analyze", None, ["--seed", "-1"], "--seed"),
        ("enhance", None, ["--hop", "512"], "--window/--hop"),
        ("oracle-exp", None, ["--window", "256", "--hop", "256"], "--window/--hop"),
        ("oracle-exp", None, ["--duration", "nan"], "--duration"),
        ("oracle-exp", None, ["--duration", "inf"], "--duration"),
        ("oracle-exp", None, ["--duration=-0.5"], "--duration"),
        ("candidates", {"floor": 1e-12}, [], "unknown config file keys: ['floor']"),
        ("oracle-exp", None, ["--snr-grid", "0", "nan"], "--snr-grid"),
        ("oracle-exp", None, ["--snr-grid=-inf"], "--snr-grid"),
        ("analyze", None, ["--snr-db", "nan"], "--snr-db"),
        ("analyze", None, ["--snr-db=-inf"], "--snr-db"),
        ("analyze", {"snr_db": "nan"}, [], "--snr-db"),
        ("oracle-exp", None, ["--snr-grid", "-inf"], "--snr-grid: must be a number"),
        ("analyze", None, ["--snr-db", "-inf"], "--snr-db: must be a number"),
        ("oracle-exp", None, ["--duration", "0.00002"], "--duration"),
        ("oracle-exp", None, ["--duration", "0.01"], "--sample-rate"),
        ("oracle-exp", {"duration": 0.01}, [], "--window"),
        ("candidates", None, ["--floor", "1e-12"], "unrecognized arguments: --floor"),
    ],
)
def test_bad_values_are_usage_errors_before_any_work(
    mixture_files, monkeypatch, capsys, command, config, flags, name
):
    tmp_path, paths, _ = mixture_files
    out = tmp_path / "out"
    argv = {
        "enhance": ["enhance", str(paths["noisy"]), "--method", "gla", "--oracle-clean", str(paths["clean"])],
        "oracle-exp": ["oracle-exp", "--out-dir", str(out)],
        "candidates": ["candidates", str(paths["noisy"]), str(paths["clean"]), str(paths["noise"])],
        "analyze": ["analyze", "--clean", str(paths["clean"]), "--noise", str(paths["noise"]), "--out-dir", str(out)],
    }[command]
    if command in ("enhance", "candidates"):
        argv += ["--out", str(out / "result")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    for target in ("read_wav", "run_experiment"):
        monkeypatch.setattr(cli, target, _refuse_io)
    assert main([*argv, *flags]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("command", "config", "flags", "key", "value"),
    [
        ("oracle-exp", None, ["--snr-grid", "-1e1", "0"], "snr_grid", [-10.0, 0.0]),
        ("oracle-exp", {"snr_grid": [-1e-05, 0]}, [], "snr_grid", [-1e-05, 0.0]),
        ("analyze", None, ["--snr-db", "-1e-3"], "snr_db", -1e-3),
    ],
)
def test_number_like_flag_values_are_values(mixture_files, command, config, flags, key, value):
    # argparse on its own reads "-1e1" and "-1e-3" as unknown flags.
    tmp_path, paths, _ = mixture_files
    out = tmp_path / "out"
    argv = {
        "oracle-exp": ["oracle-exp", "--out-dir", str(out), "--seeds", "0", "--methods", "gla", "--jobs", "1"],
        "analyze": ["analyze", "--clean", str(paths["clean"]), "--noise", str(paths["noise"]), "--out-dir", str(out)],
    }[command]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main([*argv, *flags]) == 0
    written = json.loads((out / ("manifest.json" if command == "oracle-exp" else "summary.json")).read_text())
    assert written["config"][key] == value


@pytest.mark.parametrize("argv", MINIMAL_ARGVS)
def test_help_shows_the_parser_defaults(argv, capsys):
    assert main([argv[0], "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = vars(cli.build_parser().parse_args(argv))
    shown = [v for k, v in defaults.items() if k not in ("command", "func") and v is not None and v is not False]
    shown = [v for v in shown if v not in argv]
    assert shown
    for value in shown:
        assert f"(default {value})" in text
    assert "(default None)" not in text


def test_jobs_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    # A restricted affinity set, as under taskset or a container's cpuset,
    # is smaller than the machine's logical core count.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
    argv = ["oracle-exp", "--out-dir", "out"]
    assert cli.build_parser().parse_args(argv).jobs == 2
    # Where the OS reports no affinity set, the logical core count stands.
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert cli.build_parser().parse_args(argv).jobs == 8


PARSER_DEFAULTS = {
    "enhance": {
        "noisy": "noisy.wav",
        "out": "out.wav",
        "method": "nm",
        "oracle_clean": None,
        "oracle_noise": None,
        "perturb_std": 0.0,
        "perturb_seed": 0,
        "iters": 5,
        "init": "noisy",
        "seed": 0,
        "encoding": "float32",
        "metrics_out": None,
    },
    "oracle-exp": {
        "out_dir": "results",
        "methods": ["nm", "np"],
        "snr_grid": [-6.0, 0.0, 6.0],
        "seeds": [0, 1, 2, 3, 4],
        "noise_std": 0.3,
        "provider_seed": 0,
        "kind": "harmonic",
        "duration": 0.5,
        "sample_rate": 16000,
        "iters": 5,
        "init": "noisy",
    },
    "candidates": {"noisy": "noisy.wav", "clean": "clean.wav", "noise": "noise.wav", "law": "cos", "out": "cand.csv"},
    "analyze": {
        "clean": "clean.wav",
        "noise": "noise.wav",
        "out_dir": "maps",
        "noise_std": 0.3,
        "seed": 0,
        "scale_by_energy": False,
        "snr_db": None,
    },
}


@pytest.mark.parametrize("argv", MINIMAL_ARGVS)
def test_parser_defaults(argv):
    parsed = vars(cli.build_parser().parse_args(argv))
    want = {"command": argv[0], **PARSER_DEFAULTS[argv[0]], "window": 512, "hop": 256, "fft": None, "config": None}
    if argv[0] == "oracle-exp":
        want["jobs"] = cli._usable_cpus()
    assert {k: v for k, v in parsed.items() if k != "func"} == want


def test_each_command_prints_what_it_wrote_and_makes_its_folders(mixture_files, capsys):
    tmp_path, paths, _ = mixture_files
    out, metrics = tmp_path / "a" / "out.wav", tmp_path / "b" / "c" / "m.json"
    argv = ["enhance", str(paths["noisy"]), "--method", "passthrough", "--out", str(out)]
    assert main([*argv, "--metrics-out", str(metrics)]) == 0
    assert capsys.readouterr().out == f"wrote {out} and {metrics}\n"
    assert out.is_file() and metrics.is_file()
    exp = ["oracle-exp", "--methods", "nm", "--snr-grid", "0", "--seeds", "0", "--duration", "0.25", "--jobs", "1"]
    assert main([*exp, "--out-dir", str(tmp_path / "exp")]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 'exp' / 'results.csv'} (8 rows)\n"
    cand = tmp_path / "d" / "cand.csv"
    assert main(["candidates", str(paths["noisy"]), str(paths["clean"]), str(paths["noise"]), "--out", str(cand)]) == 0
    summary = json.loads(cand.with_suffix(".manifest.json").read_text())
    want = f"wrote {cand}: {summary['audited_bins']} audited bins, max error {summary['max_error_audited']}\n"
    assert capsys.readouterr().out == want
    maps = tmp_path / "e" / "maps"
    argv = ["analyze", "--clean", str(paths["clean"]), "--noise", str(paths["noise"])]
    assert main([*argv, "--out-dir", str(maps)]) == 0
    assert capsys.readouterr().out == f"wrote error maps and summary to {maps}\n"


def test_msgla_log_turns_on_progress_logging(mixture_files):
    tmp_path, paths, _ = mixture_files
    argv = ["enhance", str(paths["noisy"]), "--method", "gla", "--oracle-clean", str(paths["clean"])]
    for level, shown in (("info", True), ("warning", False)):
        proc = subprocess.run(
            [sys.executable, "-m", "msgla", *argv, "--iters", "1", "--out", str(tmp_path / f"{level}.wav")],
            capture_output=True,
            text=True,
            env={**os.environ, "MSGLA_LOG": level},
        )
        assert proc.returncode == 0, proc.stderr
        assert ("INFO:msgla.cli:si-snr improvement: " in proc.stderr) == shown


def test_candidates_audit_is_scale_free_and_skips_the_energy_test_of_a_silent_spectrogram(mixture_files):
    tmp_path, paths, tri = mixture_files
    # Scaling every waveform by 2**-14 scales every magnitude exactly, below 1.
    for name, wave in (("noisy", tri.noisy), ("clean", tri.clean), ("noise", tri.noise)):
        write_wav(Waveform(wave.samples * 2.0**-14, 16000), tmp_path / f"quiet_{name}.wav", "float32")
    write_wav(Waveform(np.zeros(len(tri.noisy)), 16000), tmp_path / "silent.wav", "float32")
    audits = {}
    for label, noisy, clean, noise, law in (
        ("loud", "noisy", "clean", "noise", "cos"),
        ("quiet", "quiet_noisy", "quiet_clean", "quiet_noise", "cos"),
        ("silent mixture", "silent", "clean", "noise", "sin"),
    ):
        out = tmp_path / f"{label}.csv"
        files = [str(tmp_path / f"{name}.wav") for name in (noisy, clean, noise)]
        assert main(["candidates", *files, "--law", law, "--out", str(out)]) == 0
        audits[label] = json.loads(out.with_suffix(".manifest.json").read_text())
    assert audits["quiet"]["audited_bins"] == audits["loud"]["audited_bins"] > 0
    assert audits["quiet"]["max_error_audited"] == audits["loud"]["max_error_audited"]
    # A silent mixture makes every bin of the sine law valid, its candidates pi apart.
    silent = audits["silent mixture"]
    assert silent["audited_bins"] == silent["valid_bins"] > 0


def test_analyze_energy_scaling_is_scale_free(mixture_files):
    # Scaling the clean waveform by 2**-14 scales its magnitudes exactly, below 1,
    # and leaves its phases, its energy profile and so the whole summary as they are.
    tmp_path, paths, tri = mixture_files
    write_wav(Waveform(tri.clean.samples * 2.0**-14, 16000), tmp_path / "quiet.wav", "float32")
    summaries = []
    for clean in ("clean.wav", "quiet.wav"):
        out_dir = tmp_path / f"maps_{clean}"
        argv = ["analyze", "--clean", str(tmp_path / clean), "--noise", str(paths["noise"]), "--scale-by-energy"]
        assert main([*argv, "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        summaries.append({part: summary[part] for part in ("speech_phase", "noise_phase")})
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("role", ["clean", "noisy"])
def test_candidates_audit_leaves_out_bins_exactly_at_the_energy_threshold(tmp_path, role):
    # An impulse at every frame's center gives every bin of that frame the
    # impulse's magnitude exactly: 100 in even frames and `small` in odd ones,
    # so with small = 1.0 half the bins sit exactly at 1e-2 of the maximum.
    rng = np.random.default_rng(0)
    speech, noise = (np.round(0.5 * rng.standard_normal(8192) * 2**12) / 2**12 for _ in range(2))
    audited = []
    for small in (0.99, 1.0, 1.01):
        train = np.zeros(8192)
        train[::256] = small
        train[::512] = 100.0
        waves = {"clean": train, "noise": noise, "noisy": train + noise}
        if role == "noisy":
            waves = {"clean": speech, "noise": noise, "noisy": train}
        files = [str(tmp_path / f"{name}.wav") for name in ("noisy", "clean", "noise")]
        for name, samples in waves.items():
            write_wav(Waveform(samples, 16000), tmp_path / f"{name}.wav", "float32")
        assert main(["candidates", *files, "--out", str(tmp_path / "cand.csv")]) == 0
        audited.append(json.loads((tmp_path / "cand.manifest.json").read_text())["audited_bins"])
    assert audited[0] == audited[1] < audited[2]
