import csv
import json
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(FileNotFoundError, match="^no such WAV file: .*absent.wav$"):
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
    for name in ("results.json", "manifest.json"):
        text = (tmp_path / "one" / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_persist_run_fingerprint_tracks_seeds(tmp_path):
    m1 = json.loads(persist_run(_artifact(0), tmp_path / "a").read_text())
    m2 = json.loads(persist_run(_artifact(1), tmp_path / "b").read_text())
    assert m1["fingerprint"] != m2["fingerprint"]


def test_persist_run_empty_table(tmp_path):
    artifact = RunArtifact(["row_kind", "method"], [], config={}, seeds=[])
    persist_run(artifact, tmp_path / "empty")
    lines = (tmp_path / "empty" / "results.csv").read_text().strip().splitlines()
    assert lines == ["row_kind,method"]
    persist_run(RunArtifact(["method"], [{"method": "nm"}, {"method": "np"}]), tmp_path / "one")
    assert (tmp_path / "one" / "results.csv").read_bytes() == b"method\r\nnm\r\nnp\r\n"


def test_persist_run_stamps_fingerprint_into_rows(tmp_path):
    path = persist_run(_artifact(), tmp_path / "stamp")
    manifest = json.loads(path.read_text())
    results = json.loads((tmp_path / "stamp" / "results.json").read_text())
    assert all(r["fingerprint"] == manifest["fingerprint"] for r in results["rows"])


def test_results_csv_has_the_bytes_csv_writer_writes(tmp_path):
    # Every cell kind a row may hold, and text that csv.writer quotes.
    columns = ["kind", "seed", "snr_db", "score", "note", "fingerprint"]
    rows = [
        {"kind": "cell", "seed": 3, "snr_db": float("inf"), "score": 0.1234567891234, "note": None},
        {"kind": "mean", "seed": "", "snr_db": "", "score": float("nan"), "note": 'a, "quoted"\nline'},
        {"kind": "cell", "seed": np.int64(7), "snr_db": -6.0, "score": np.float64(-1e-300), "note": True},
        {"kind": "cell", "score": 2.0, "note": "x\ry"},
    ]
    persist_run(RunArtifact(columns, rows, seeds=[0]), tmp_path)
    run_id = json.loads((tmp_path / "manifest.json").read_text())["fingerprint"]
    with (tmp_path / "expected.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            filled = dict(row, fingerprint=run_id)
            writer.writerow([format_number(filled.get(col, "")) for col in columns])
    assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_importing_the_cli_does_not_load_scipy_io():
    code = "import sys, msgla.cli; print('scipy.io' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# --- parity with scipy.io.wavfile, the reference reader and writer --------

_RATES = st.integers(1, 384000)


def _scipy_write(path, rate, samples, encoding):
    """What ``write_wav`` wrote when it called ``scipy.io.wavfile.write``."""
    from scipy.io import wavfile

    if encoding == "float32":
        wavfile.write(path, rate, samples.astype(np.float32))
        return
    scaled = np.clip(samples, -1.0, 1.0) * 32768.0
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    wavfile.write(path, rate, np.clip(rounded, -32768, 32767).astype(np.int16))


def _scipy_read(path):
    """What ``read_wav`` returned when it called ``scipy.io.wavfile.read``."""
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    return rate, (data / 32768.0 if data.dtype == np.int16 else data.astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), max_size=300),
    rate=_RATES,
)
def test_float32_round_trip_is_exact(tmp_path_factory, samples, rate):
    path = tmp_path_factory.mktemp("f32") / "x.wav"
    wave = Waveform(np.array(samples, dtype=np.float64), rate)
    write_wav(wave, path, "float32")
    back = read_wav(path)
    assert back.sample_rate == rate
    assert back.samples.dtype == np.float64
    assert np.array_equal(back.samples, wave.samples)


@settings(max_examples=60, deadline=None)
@given(codes=st.lists(st.integers(-32768, 32767), max_size=300), rate=_RATES)
def test_pcm16_round_trip_is_exact(tmp_path_factory, codes, rate):
    path = tmp_path_factory.mktemp("pcm") / "x.wav"
    wave = Waveform(np.array(codes, dtype=np.float64) / 32768.0, rate)
    write_wav(wave, path, "pcm16")
    back = read_wav(path)
    assert back.sample_rate == rate
    assert np.array_equal(back.samples, wave.samples)


@settings(max_examples=40, deadline=None)
@given(
    length=st.one_of(st.integers(0, 64), st.sampled_from([1000, 16001])),
    rate=_RATES,
    encoding=st.sampled_from(["float32", "pcm16"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_written_bytes_equal_scipy_and_read_back_alike(tmp_path_factory, length, rate, encoding, seed):
    folder = tmp_path_factory.mktemp("parity")
    samples = 0.7 * np.random.default_rng(seed).standard_normal(length)
    ours, theirs = folder / "ours.wav", folder / "scipy.wav"
    write_wav(Waveform(samples, rate), ours, encoding)
    _scipy_write(theirs, rate, samples, encoding)
    assert ours.read_bytes() == theirs.read_bytes()
    back = read_wav(theirs)
    want_rate, want = _scipy_read(theirs)
    assert back.sample_rate == want_rate
    assert np.array_equal(back.samples, want)


# --- hand-built headers ---------------------------------------------------

_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _chunk(chunk_id, payload, declared=None):
    size = len(payload) if declared is None else declared
    return chunk_id + struct.pack("<I", size) + payload + b"\x00" * (len(payload) & 1)


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag, bits, rate=16000, channels=1):
    align = channels * (bits // 8 if bits > 8 else 1)
    return struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)


def _extensible(sub_format, bits, rate=16000):
    align = bits // 8
    head = struct.pack("<HHIIHH", 0xFFFE, 1, rate, rate * align, align, bits)
    return head + struct.pack("<HHIH", 22, bits, 4, sub_format) + _GUID_TAIL


_PCM = np.array([0, 1, -1, 32767, -32768, 1234], dtype="<i2")
_FLT = np.array([0.0, 0.5, -0.25, 3.0e-8, -7.5], dtype="<f4")


@pytest.mark.parametrize(
    "raw, want",
    [
        pytest.param(
            _riff(_chunk(b"LIST", b"abc"), _chunk(b"fmt ", _fmt(1, 16)), _chunk(b"data", _PCM.tobytes())),
            _PCM / 32768.0,
            id="odd LIST before fmt",
        ),
        pytest.param(
            _riff(_chunk(b"fmt ", _extensible(1, 16)), _chunk(b"data", _PCM.tobytes())),
            _PCM / 32768.0,
            id="extensible PCM16",
        ),
        pytest.param(
            _riff(
                _chunk(b"fmt ", _extensible(3, 32)),
                _chunk(b"fact", struct.pack("<I", _FLT.size)),
                _chunk(b"data", _FLT.tobytes()),
            ),
            _FLT.astype(np.float64),
            id="extensible float32",
        ),
        pytest.param(
            _riff(
                _chunk(b"fmt ", _fmt(3, 32) + b"\x00\x00"),
                _chunk(b"JUNK", b"x" * 5),
                _chunk(b"data", _FLT.tobytes()),
                _chunk(b"LIST", b"tail"),
            ),
            _FLT.astype(np.float64),
            id="odd JUNK before data, LIST after",
        ),
        pytest.param(
            _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 12)), _chunk(b"data", _PCM.tobytes())),
            _PCM / 32768.0,
            id="12-bit PCM in 2-byte blocks",
        ),
        pytest.param(
            _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 64)), _chunk(b"data", _FLT.tobytes())),
            _FLT.astype(np.float64),
            id="float header of 64 bits in 4-byte blocks",
        ),
    ],
)
def test_reads_hand_built_headers_like_scipy(tmp_path, raw, want):
    path = tmp_path / "hand.wav"
    path.write_bytes(raw)
    wave = read_wav(path)
    assert wave.sample_rate == 16000
    assert np.array_equal(wave.samples, want)
    rate, reference = _scipy_read(path)
    assert rate == wave.sample_rate and np.array_equal(wave.samples, reference)


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"hello, this is not a WAV file", "not a RIFF/WAVE file"),
        (b"RIFF\x04\x00\x00\x00AVI ", "not a RIFF/WAVE file"),
        (b"RIFF\x04\x00\x00\x00WAVE", "missing fmt chunk"),
        (b"RF64\xff\xff\xff\xffWAVEds64" + bytes(28), "RF64"),
        (_riff(_chunk(b"data", _PCM.tobytes())), "missing fmt chunk"),
        (_riff(_chunk(b"fmt ", _fmt(1, 16))), "missing data chunk"),
        (_riff(_chunk(b"fmt ", _fmt(1, 16)), b"dat"), "missing data chunk"),
        (_riff(_chunk(b"fmt ", _fmt(1, 16)[:14]), _chunk(b"data", bytes(4))), "fmt chunk is truncated"),
        (
            _riff(_chunk(b"fmt ", _fmt(1, 16)), _chunk(b"data", _PCM.tobytes(), declared=100)),
            "declares 100 bytes but holds 12$",
        ),
        (_riff(_chunk(b"fmt ", _fmt(1, 16)), _chunk(b"data", b"\x01\x02\x03")), "whole number"),
        (_riff(_chunk(b"fmt ", _fmt(1, 16, channels=3)), _chunk(b"data", bytes(12))), "got 3 channels"),
        (_riff(_chunk(b"fmt ", _fmt(1, 8)), _chunk(b"data", bytes(4))), "unsupported encoding 8-bit PCM"),
        (
            _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 8)), _chunk(b"data", bytes(4))),
            "unsupported encoding 8-bit PCM",
        ),
        (_riff(_chunk(b"fmt ", _fmt(1, 24)), _chunk(b"data", bytes(6))), "unsupported encoding 24-bit PCM"),
        (_riff(_chunk(b"fmt ", _fmt(1, 32)), _chunk(b"data", bytes(8))), "unsupported encoding 32-bit PCM"),
        (_riff(_chunk(b"fmt ", _fmt(3, 64)), _chunk(b"data", bytes(16))), "unsupported encoding 64-bit float"),
        (_riff(_chunk(b"fmt ", _extensible(1, 24)), _chunk(b"data", bytes(6))), "unsupported encoding 24-bit PCM"),
        # An extensible header too short to hold its sub-format keeps its own tag.
        (
            _riff(_chunk(b"fmt ", _fmt(0xFFFE, 16) + b"\x00\x00"), _chunk(b"data", bytes(4))),
            "unsupported encoding 16-bit format 0xfffe",
        ),
    ],
    ids=lambda value: value if isinstance(value, str) else "wav",
)
def test_read_rejects_bad_files_naming_the_path(tmp_path, raw, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message) as info:
        read_wav(path)
    assert str(path) in str(info.value)


def test_enhance_does_not_load_scipy(tmp_path):
    rng = np.random.default_rng(0)
    for name in ("noisy", "clean", "noise"):
        write_wav(Waveform(0.1 * rng.standard_normal(2048), 16000), tmp_path / f"{name}.wav")
    argv = [
        "enhance", str(tmp_path / "noisy.wav"), "--method", "nm", "--iters", "1",
        "--oracle-clean", str(tmp_path / "clean.wav"),
        "--oracle-noise", str(tmp_path / "noise.wav"),
        "--out", str(tmp_path / "out.wav"),
    ]
    code = (
        "import sys\n"
        "from msgla.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 False"
    assert read_wav(tmp_path / "out.wav").sample_rate == 16000
