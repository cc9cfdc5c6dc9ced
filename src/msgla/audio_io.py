"""WAV ingestion/emission and byte-deterministic run persistence."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import Waveform

__all__ = [
    "RunArtifact",
    "read_wav",
    "write_wav",
    "persist_run",
    "fingerprint",
    "format_number",
]

PCM16_SCALE = 32768.0
ENCODINGS = ("float32", "pcm16")


def read_wav(path) -> Waveform:
    """Read a mono PCM16 or float32 WAV file.

    PCM16 samples are normalized by 32768, so full-scale negative maps to
    exactly -1.0.
    """
    from scipy.io import wavfile  # deferred: importing scipy.io costs ~0.2 s

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such WAV file: {path}")
    sample_rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: only mono WAV is supported, got {data.ndim} channels")
    if data.dtype == np.int16:
        samples = data / PCM16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported encoding {data.dtype}; expected PCM16 or float32")
    return Waveform(samples, int(sample_rate))


def write_wav(wave: Waveform, path, encoding: str = "float32") -> None:
    """Write a mono WAV file.

    PCM16 clamps samples to [-1, 1], scales by 32768, and rounds half away
    from zero (clipping the top code to 32767); float32 writes values as-is.
    """
    from scipy.io import wavfile  # deferred: importing scipy.io costs ~0.2 s

    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")
    path = Path(path)
    if encoding == "float32":
        wavfile.write(path, wave.sample_rate, wave.samples.astype(np.float32))
        return
    scaled = np.clip(wave.samples, -1.0, 1.0) * PCM16_SCALE
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    wavfile.write(path, wave.sample_rate, np.clip(rounded, -32768, 32767).astype(np.int16))


def fingerprint(payload: dict) -> str:
    """Deterministic hash of a JSON-serializable configuration."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def format_number(value) -> str:
    """Stable cell formatting: 9 significant digits for floats."""
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return ""
    return str(value)


@dataclass
class RunArtifact:
    """Everything one run persists: rows, configuration, seeds, traces."""

    columns: list[str]
    rows: list[dict]
    config: dict = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    version: str = __version__
    traces: dict | None = None


def persist_run(artifact: RunArtifact, out_dir) -> Path:
    """Write results.csv, results.json and manifest.json into ``out_dir``.

    Output bytes are a pure function of the artifact: no timestamps, sorted
    JSON keys, fixed column order, 9-significant-digit floats. Returns the
    manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = fingerprint({"config": artifact.config, "seeds": artifact.seeds})

    rows = []
    for row in artifact.rows:
        filled = dict(row)
        if "fingerprint" in artifact.columns:
            filled["fingerprint"] = run_id
        rows.append(filled)

    csv_path = out_dir / "results.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(artifact.columns)
        for row in rows:
            writer.writerow([format_number(row.get(col, "")) for col in artifact.columns])

    json_path = out_dir / "results.json"
    payload = {
        "fingerprint": run_id,
        "version": artifact.version,
        "config": artifact.config,
        "seeds": artifact.seeds,
        "columns": artifact.columns,
        "rows": rows,
    }
    if artifact.traces is not None:
        payload["traces"] = artifact.traces
    json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    manifest_path = out_dir / "manifest.json"
    manifest = {
        "fingerprint": run_id,
        "version": artifact.version,
        "seeds": artifact.seeds,
        "config": artifact.config,
        "row_count": len(rows),
        "files": {"results_csv": csv_path.name, "results_json": json_path.name},
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest_path
