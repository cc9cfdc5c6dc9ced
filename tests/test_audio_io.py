import json
import subprocess
import sys

import numpy as np
import pytest

from msgla.audio_io import (
    RunArtifact,
    fingerprint,
    format_number,
    persist_run,
    read_wav,
    write_wav,
)
from msgla.spectral import Waveform


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
    wave = Waveform(samples, 16000)
    path = tmp_path / "x.wav"
    write_wav(wave, path, "float32")
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert np.array_equal(back.samples, samples)


def test_pcm16_full_scale_negative(tmp_path):
    wave = Waveform(np.array([-1.0, 0.0, 1.0]), 16000)
    path = tmp_path / "fs.wav"
    write_wav(wave, path, "pcm16")
    back = read_wav(path)
    assert back.samples[0] == -1.0
    assert back.samples[1] == 0.0
    assert back.samples[2] == pytest.approx(32767 / 32768)


def test_pcm16_clamps_out_of_range(tmp_path):
    wave = Waveform(np.array([1.5, -2.0]), 8000)
    path = tmp_path / "clip.wav"
    write_wav(wave, path, "pcm16")
    back = read_wav(path)
    assert back.samples[0] == pytest.approx(32767 / 32768)
    assert back.samples[1] == -1.0


def test_pcm16_rounds_half_away_from_zero(tmp_path):
    # 0.5/32768 scales to exactly 0.5, which must round to 1, not 0
    wave = Waveform(np.array([0.5 / 32768, -0.5 / 32768]), 8000)
    path = tmp_path / "round.wav"
    write_wav(wave, path, "pcm16")
    back = read_wav(path)
    assert back.samples[0] == pytest.approx(1 / 32768)
    assert back.samples[1] == pytest.approx(-1 / 32768)


def test_silence_round_trip(tmp_path):
    path = tmp_path / "quiet.wav"
    write_wav(Waveform(np.zeros(100), 16000), path, "pcm16")
    assert np.all(read_wav(path).samples == 0)


def test_write_deterministic_bytes(tmp_path):
    wave = Waveform(np.linspace(-0.5, 0.5, 333), 16000)
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(wave, a, "pcm16")
    write_wav(wave, b, "pcm16")
    assert a.read_bytes() == b.read_bytes()


def test_read_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "absent.wav")
    from scipy.io import wavfile

    stereo = tmp_path / "stereo.wav"
    wavfile.write(stereo, 16000, np.zeros((10, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="mono"):
        read_wav(stereo)
    int32 = tmp_path / "wide.wav"
    wavfile.write(int32, 16000, np.zeros(10, dtype=np.int32))
    with pytest.raises(ValueError, match="unsupported encoding"):
        read_wav(int32)
    with pytest.raises(ValueError, match="encoding"):
        write_wav(Waveform(np.zeros(4), 16000), tmp_path / "y.wav", "mp3")


def test_format_number():
    assert format_number(0.1234567891234) == "0.123456789"
    assert format_number(3) == "3"
    assert format_number("oracle") == "oracle"
    assert format_number(None) == ""


def test_fingerprint_changes_with_seeds():
    a = fingerprint({"config": {"x": 1}, "seeds": [0, 1]})
    b = fingerprint({"config": {"x": 1}, "seeds": [0, 2]})
    c = fingerprint({"config": {"x": 1}, "seeds": [0, 1]})
    assert a == c
    assert a != b


def _artifact(seed=0):
    columns = ["row_kind", "method", "si_snr_db", "fingerprint"]
    rows = [
        {"row_kind": "cell", "method": "nm", "si_snr_db": 12.3456789123, "fingerprint": ""},
        {"row_kind": "mean", "method": "nm", "si_snr_db": 12.3456789123, "fingerprint": ""},
    ]
    return RunArtifact(columns, rows, config={"snr_db": 0.0}, seeds=[seed])


def test_persist_run_deterministic(tmp_path):
    p1 = persist_run(_artifact(), tmp_path / "one")
    p2 = persist_run(_artifact(), tmp_path / "two")
    for name in ("results.csv", "results.json", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    manifest = json.loads(p1.read_text())
    assert manifest["row_count"] == 2
    assert manifest["fingerprint"]
    csv_text = (tmp_path / "one" / "results.csv").read_text()
    assert csv_text.startswith("row_kind,method,si_snr_db,fingerprint")
    assert "12.3456789" in csv_text


def test_persist_run_fingerprint_tracks_seeds(tmp_path):
    m1 = json.loads(persist_run(_artifact(0), tmp_path / "a").read_text())
    m2 = json.loads(persist_run(_artifact(1), tmp_path / "b").read_text())
    assert m1["fingerprint"] != m2["fingerprint"]


def test_persist_run_empty_table(tmp_path):
    artifact = RunArtifact(["row_kind", "method"], [], config={}, seeds=[])
    persist_run(artifact, tmp_path / "empty")
    lines = (tmp_path / "empty" / "results.csv").read_text().strip().splitlines()
    assert lines == ["row_kind,method"]


def test_persist_run_stamps_fingerprint_into_rows(tmp_path):
    path = persist_run(_artifact(), tmp_path / "stamp")
    manifest = json.loads(path.read_text())
    results = json.loads((tmp_path / "stamp" / "results.json").read_text())
    assert all(r["fingerprint"] == manifest["fingerprint"] for r in results["rows"])


def test_importing_the_cli_does_not_load_scipy_io():
    code = "import sys, msgla.cli; print('scipy.io' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
