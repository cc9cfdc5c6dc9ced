import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from msgla.audio_io import read_wav, write_wav
from msgla.cli import main
from msgla.harness import synthesize_mixture
from msgla.metrics import si_snr


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


def test_enhance_missing_file_exits_one(tmp_path):
    code = main(
        ["enhance", str(tmp_path / "absent.wav"), "--method", "passthrough", "--out", str(tmp_path / "o.wav")]
    )
    assert code == 1


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "msgla", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "msgla" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["enhance", "noisy.wav", "--out", "out.wav"],
        ["oracle-exp", "--out-dir", "results"],
        ["candidates", "noisy.wav", "clean.wav", "noise.wav", "--out", "cand.csv"],
        ["analyze", "--clean", "clean.wav", "--noise", "noise.wav", "--out-dir", "maps"],
    ],
)
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
