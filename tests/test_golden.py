"""Seeded outputs of every command, held against values recorded in ``golden.json``.

The other tests hold invariants; this one holds the numbers the seeds
promise, at a tolerance (1e-9 relative) that tells a changed seed stream or
threshold from last-bit reordering. Values that are rounding noise around
zero (a consistent mixture's inconsistency, the plain SNR of a 0 dB mixture,
all below 1e-13) are held to 1e-12 absolute; every other recorded value is
above 1e-8. A change that moves outputs on purpose regenerates the file and
says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from msgla.audio_io import write_wav
from msgla.cli import main
from msgla.harness import ExperimentSpec, MixtureSpec, run_experiment, synthesize_mixture
from msgla.reconstruct import METHODS

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-9
ATOL = 1e-12


def _grid() -> list[list]:
    """Every row of a 2-mixture grid over all methods and the default provider pairs."""
    spec = ExperimentSpec(
        mixtures=[MixtureSpec("harmonic", 0.0, seed=3), MixtureSpec("speech_shaped", 6.0, seed=4)],
        methods=list(METHODS),
    )
    table = run_experiment(spec)
    return [[row[column] for column in table.columns if column != "fingerprint"] for row in table.rows]


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


def _commands(folder: Path) -> dict:
    """``enhance`` metrics per method, ``candidates`` manifests per law and ``analyze`` summaries."""
    triple = synthesize_mixture("harmonic", 3.0, 0.5, 16000, seed=5)
    wav = {part: str(folder / f"{part}.wav") for part in ("noisy", "clean", "noise")}
    for part, path in wav.items():
        write_wav(getattr(triple, part), path)
    observed: dict = {"enhance": {}, "candidates": {}, "analyze": {}}
    for method in METHODS:
        out = folder / f"{method}.wav"
        _cli(
            ["enhance", wav["noisy"], "--method", method, "--out", str(out), "--perturb-std", "0.3",
             "--oracle-clean", wav["clean"], "--oracle-noise", wav["noise"]]
        )
        summary = json.loads(out.with_suffix(".metrics.json").read_text())
        observed["enhance"][method] = {"metrics": summary["metrics"], "per_iteration": summary["per_iteration"]}
    for law in ("cos", "sin"):
        out = folder / f"candidates_{law}.csv"
        _cli(["candidates", wav["noisy"], wav["clean"], wav["noise"], "--law", law, "--out", str(out)])
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        observed["candidates"][law] = {key: value for key, value in manifest.items() if key not in ("config", "version")}
    for name, extra in (("plain", []), ("energy", ["--scale-by-energy", "--snr-db", "3"])):
        out = folder / f"analyze_{name}"
        _cli(["analyze", "--clean", wav["clean"], "--noise", wav["noise"], "--out-dir", str(out), *extra])
        summary = json.loads((out / "summary.json").read_text())
        observed["analyze"][name] = {key: value for key, value in summary.items() if key not in ("config", "version")}
    return observed


def observe() -> dict:
    with tempfile.TemporaryDirectory(prefix="msgla-golden-") as tmp:
        return {"grid": _grid(), **_commands(Path(tmp))}


def _compare(path: str, got, want) -> list[str]:
    """Where ``got`` differs from ``want``: floats beyond ``RTOL``/``ATOL``, anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [miss for key in want for miss in _compare(f"{path}.{key}", got[key], want[key])]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} entries != {len(want)}"]
        return [miss for i, (g, w) in enumerate(zip(got, want)) for miss in _compare(f"{path}[{i}]", g, w)]
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def test_seeded_outputs_match_the_recorded_values():
    misses = _compare("golden", json.loads(json.dumps(observe())), json.loads(GOLDEN.read_text()))
    assert not misses, "\n".join(misses[:20])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
