"""WAV ingestion/emission and byte-deterministic run persistence."""

from __future__ import annotations

import hashlib
import json
import struct
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
WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Rows that _write_csv formats at once; it bounds the memory its cells take.
_CSV_CHUNK_ROWS = 8192


def read_wav(path) -> Waveform:
    """Read a mono PCM16 or IEEE float32 RIFF/WAVE file.

    PCM16 samples are normalized by 32768, so full-scale negative maps to
    exactly -1.0. Chunks other than ``fmt `` and ``data`` are skipped, and a
    ``WAVE_FORMAT_EXTENSIBLE`` header takes its encoding from its sub-format.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such WAV file: {path}")
    raw = path.read_bytes()
    if raw[:4] == b"RF64":
        raise ValueError(f"{path}: RF64 WAV is not supported")
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    chunks = {}
    pos = 12
    while pos + 8 <= len(raw) and b"data" not in chunks:
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        chunks.setdefault(chunk_id, (pos + 8, size))
        pos += 8 + size + (size & 1)
    for chunk_id in (b"fmt ", b"data"):
        if chunk_id not in chunks:
            raise ValueError(f"{path}: missing {chunk_id.decode().strip()} chunk")
    start, size = chunks[b"fmt "]
    if size < 16 or start + size > len(raw):
        raise ValueError(f"{path}: fmt chunk is truncated")
    tag, channels, sample_rate, _, block_align, bits = struct.unpack_from("<HHIIHH", raw, start)
    if tag == WAVE_FORMAT_EXTENSIBLE and size >= 40:
        tag = struct.unpack_from("<H", raw, start + 24)[0]
    if channels != 1:
        raise ValueError(f"{path}: only mono WAV is supported, got {channels} channels")
    # The block align (sample container) sets the sample type; the declared
    # depth only tells 8-bit PCM and non-IEEE float depths apart, so a 12-bit
    # PCM header with 2-byte blocks reads as PCM16.
    if tag == WAVE_FORMAT_PCM and block_align == 2 and bits > 8:
        dtype = "<i2"
    elif tag == WAVE_FORMAT_IEEE_FLOAT and block_align == 4 and bits in (32, 64):
        dtype = "<f4"
    else:
        kind = {WAVE_FORMAT_PCM: "PCM", WAVE_FORMAT_IEEE_FLOAT: "float"}.get(tag, f"format {tag:#06x}")
        raise ValueError(f"{path}: unsupported encoding {bits}-bit {kind}; expected PCM16 or float32")
    start, size = chunks[b"data"]
    if start + size > len(raw):
        raise ValueError(f"{path}: data chunk declares {size} bytes but holds {len(raw) - start}")
    if size % block_align:
        raise ValueError(f"{path}: data chunk of {size} bytes is not a whole number of {block_align}-byte samples")
    data = np.frombuffer(raw, dtype=dtype, count=size // block_align, offset=start)
    samples = data / PCM16_SCALE if tag == WAVE_FORMAT_PCM else data.astype(np.float64)
    return Waveform(samples, sample_rate)


def write_wav(wave: Waveform, path, encoding: str = "float32") -> None:
    """Write a mono WAV file: RIFF/WAVE with a ``fmt `` and a ``data`` chunk.

    PCM16 clamps samples to [-1, 1], scales by 32768, and rounds half away
    from zero (clipping the top code to 32767); float32 writes values as-is
    and adds a ``fact`` chunk, as non-PCM WAV requires.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")
    if encoding == "float32":
        data = wave.samples.astype("<f4")
        tag, extra = WAVE_FORMAT_IEEE_FLOAT, b"\x00\x00"
        fact = struct.pack("<4sII", b"fact", 4, data.size)
    else:
        scaled = np.clip(wave.samples, -1.0, 1.0) * PCM16_SCALE
        rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
        data = np.clip(rounded, -32768, 32767).astype("<i2")
        tag, extra, fact = WAVE_FORMAT_PCM, b"", b""
    width = data.itemsize
    rate = wave.sample_rate
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * width, width, 8 * width) + extra
    chunks = struct.pack("<4sI", b"fmt ", len(fmt)) + fmt + fact + struct.pack("<4sI", b"data", data.nbytes)
    riff = struct.pack("<4sI4s", b"RIFF", 4 + len(chunks) + data.nbytes, b"WAVE")
    Path(path).write_bytes(riff + chunks + data.tobytes())


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


def _cell(value) -> str:
    """:func:`format_number`'s text, quoted as ``csv.writer`` quotes a comma, quote or line break."""
    text = format_number(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path, columns, header=None) -> None:
    """Write equal-length 1-D arrays as CSV columns, formatted column by column.

    Float columns get :func:`format_number`'s text, integer columns ``str``
    and object columns :func:`_cell`'s: the bytes ``csv.writer`` writes, CRLF included.
    """
    with Path(path).open("w", newline="") as handle:
        if header:
            handle.write(",".join(map(_cell, header)) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            parts = [column[start : start + _CSV_CHUNK_ROWS] for column in columns]
            cells = [
                [f"{v:.9g}" for v in p.tolist()] if p.dtype.kind == "f"
                else map(_cell if p.dtype.kind == "O" else str, p.tolist())
                for p in parts
            ]
            handle.writelines(",".join(row) + "\r\n" for row in zip(*cells))


@dataclass
class RunArtifact:
    """Everything one run persists: rows, configuration, seeds."""

    columns: list[str]
    rows: list[dict]
    config: dict = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    version: str = __version__


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
    cells = [np.array([row.get(col, "") for row in rows], dtype=object) for col in artifact.columns]
    _write_csv(csv_path, cells, header=artifact.columns)

    json_path = out_dir / "results.json"
    payload = {
        "fingerprint": run_id,
        "version": artifact.version,
        "config": artifact.config,
        "seeds": artifact.seeds,
        "columns": artifact.columns,
        "rows": rows,
    }
    _write_json(json_path, payload)

    manifest_path = out_dir / "manifest.json"
    manifest = {
        "fingerprint": run_id,
        "version": artifact.version,
        "seeds": artifact.seeds,
        "config": artifact.config,
        "row_count": len(rows),
        "files": {"results_csv": csv_path.name, "results_json": json_path.name},
    }
    _write_json(manifest_path, manifest)
    return manifest_path


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON; ``str`` stands in for what JSON cannot hold."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n")
