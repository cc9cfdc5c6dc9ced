#!/usr/bin/env python3
"""Mutation check: the tier-1 tests must fail on every mutant listed here.

    python tools/mutants.py [NAME ...]

Each mutant replaces one snippet of one file of ``src/msgla``, which must
occur there exactly once. For each mutant, the tool copies the working tree
(without ``.git``) into a temporary directory, applies the mutant to the copy
and runs pytest there, stopping at the first failure, on the tier-1 test
files that import the mutated module. It prints ``killed`` when a test fails
and ``survived`` when every test passes. Before the mutants, the same copy,
unmutated, must pass all of tier-1. Names select mutants by substring; with
none, every mutant runs, one after another. The exit status is 1 when a
mutant survives or its snippet no longer matches the source.

A mutant belongs on the list when tier-1 once failed on it; a later edit
that loses the kill shows up here as a survivor.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # the file src/msgla/<module>.py
    old: str
    new: str


# The head of spectral._synthesize, for a mutant that checks the grid after the inverse FFT.
_GRID_CHECK = "    values, length = _grid(values, cfg, origin_length)\n"
_DENOMINATOR = "    core = _denominator(cfg, frames, length)\n"
_INVERSE_FFT = "    _halves(rows, frames, segments.size)\n"
_SYNTHESIS = (
    _GRID_CHECK
    + "    frames = values.shape[0]\n"
    + _DENOMINATOR
    + """    w = cfg.window_length
    segments = np.empty((frames, cfg.fft_length))
    window = cfg.window()

    def rows(lo, hi):
        np.fft.irfft(values[lo:hi], n=cfg.fft_length, axis=1, out=segments[lo:hi])
        segments[lo:hi, :w] *= window

"""
    + _INVERSE_FFT
)

MUTANTS = [
    # The STFT-grid rule (spectral._grid) and where it is held.
    Mutant(
        "grid rule dropped from _synthesize",
        "spectral",
        "    values, length = _grid(values, cfg, origin_length)\n",
        "    values, length = np.asarray(values, dtype=np.complex128), int(origin_length)\n",
    ),
    Mutant("grid frame count != -> <", "spectral", "    if frames != values.shape[0]:\n", "    if frames < values.shape[0]:\n"),
    Mutant("grid frame-count test dropped", "spectral", "    if frames != values.shape[0]:\n", "    if False:\n"),
    Mutant(
        "grid whole-number test dropped",
        "spectral",
        '    length = _whole_number("origin_length", origin_length, positive=False)\n',
        "    length = int(origin_length)\n",
    ),
    Mutant(
        "shortest-signal bound dropped from the grid rule",
        "spectral",
        '    _check_analyzable(f"origin_length {length}", length, cfg)\n',
        "",
    ),
    Mutant("shortest-signal bound < -> <=", "spectral", "    if length < shortest:\n", "    if length <= shortest:\n"),
    Mutant(
        "shortest-signal bound dropped from the analysis",
        "spectral",
        '    _check_analyzable(f"signal of length {n}", n, cfg)\n',
        "",
    ),
    Mutant(
        "grid check moved after irfft",
        "spectral",
        _SYNTHESIS,
        _SYNTHESIS.replace(_GRID_CHECK, "    values = np.asarray(values, dtype=np.complex128)\n")
        .replace(_DENOMINATOR, "")
        .replace(_INVERSE_FFT, _INVERSE_FFT + _GRID_CHECK + _DENOMINATOR),
    ),
    Mutant(
        "Spectrogram skips the grid rule",
        "spectral",
        "        self.values, self.origin_length = _grid(self.values, self.config, self.origin_length)\n",
        "        self.values = np.asarray(self.values, dtype=np.complex128)\n",
    ),
    # The one estimate check (spectral._estimate).
    Mutant(
        "estimate finiteness test dropped",
        "spectral",
        "    if not (np.isfinite(low) and np.isfinite(high)):\n",
        "    if False:\n",
    ),
    Mutant("estimate non-negativity test dropped", "spectral", "    if nonnegative and low < 0:\n", "    if False:\n"),
    Mutant("estimate < 0 -> <= 0", "spectral", "    if nonnegative and low < 0:\n", "    if nonnegative and low <= 0:\n"),
    Mutant("estimate shape test dropped", "spectral", "    if arr.shape != shape:\n", "    if False:\n"),
    Mutant("complex test dropped from _real", "spectral", "    if np.iscomplexobj(value):\n", "    if False:\n"),
    # Every function that casts an array argument to float64 holds _real first.
    *(
        Mutant(f"_real dropped for {name}", module, f'_real("{name}", {name})', f"np.asarray({name}, dtype=np.float64)")
        for module, name in (
            ("spectral", "angles"),
            ("spectral", "a"),
            ("spectral", "b"),
            ("spectral", "mag"),
            ("spectral", "phase"),
            ("metrics", "phase_est"),
            ("metrics", "phase_ref"),
        )
    ),
    Mutant("_real dropped from _estimate", "spectral", "    arr = _real(name, value)\n", "    arr = np.asarray(value, dtype=np.float64)\n"),
    Mutant(
        "canonical_length's check dropped",
        "spectral",
        '    _check_analyzable(f"n_frames {n_frames} ({length} samples)", length, cfg)\n',
        "",
    ),
    Mutant(
        "provider seed not checked",
        "harness",
        '            raise ValueError(f"noise_std must be finite and non-negative, got {self.noise_std!r}")\n'
        '        object.__setattr__(self, "seed", _whole_number("seed", self.seed, positive=False))\n',
        '            raise ValueError(f"noise_std must be finite and non-negative, got {self.noise_std!r}")\n',
    ),
    # The two-thread helper (spectral._halves) and the kernels it splits.
    Mutant(
        "halves: no context hand-off",
        "spectral",
        "_helper.submit(contextvars.copy_context().run, lambda: held[0](0, half))",
        "_helper.submit(lambda: held[0](0, half))",
    ),
    Mutant("halves: work-item list not emptied", "spectral", "        held.clear()\n", "        pass\n"),
    Mutant(
        "halves: no fork handler",
        "spectral",
        "    os.register_at_fork(after_in_child=_start_helper)\n",
        "    pass\n",
    ),
    Mutant("halves that overlap", "spectral", "        fn(half, rows)\n", "        fn(half - 1, rows)\n"),
    Mutant(
        "halves: CPU check dropped",
        "spectral",
        "    if size < _SPLIT_MIN or rows < 2 or _usable_cpus() < 2:\n",
        "    if size < _SPLIT_MIN or rows < 2:\n",
    ),
    Mutant(
        "halves: Future.cancel() never tried",
        "spectral",
        "        if top.cancel():\n            fn(0, half)\n        else:\n            top.result()\n",
        "        top.result()\n",
    ),
    Mutant("halves: the helper's error dropped", "spectral", "            top.result()\n", "            top.exception()\n"),
    Mutant(
        "halves: a traced layer (wrap_phase) run on the helper",
        "spectral",
        "    return _elementwise(np.abs, values, dtype=np.float64), wrap_phase(_angle(values))\n",
        "    return _elementwise(np.abs, values, dtype=np.float64), _elementwise(\n"
        "        lambda a, out: np.copyto(out, wrap_phase(a)), _angle(values)\n    )\n",
    ),
    Mutant(
        "an in-place complex product in recompose",
        "spectral",
        "    return _elementwise(np.multiply, mag, _expj(phase))\n",
        "    return _elementwise(lambda m, c, out: np.copyto(out, np.multiply(m, c, out=c)), mag, _expj(phase))\n",
    ),
    # Boundaries that tests pin.
    Mutant(
        "COLA floor < -> <=",
        "spectral",
        "    if np.any(core < COLA_FLOOR):\n",
        "    if np.any(core <= COLA_FLOOR):\n",
    ),
    Mutant(
        "cosine floor >= -> >",
        "geometry",
        "    nondegenerate = product >= DEFAULT_FLOOR\n",
        "    nondegenerate = product > DEFAULT_FLOOR\n",
    ),
    Mutant(
        "sine floor >= -> >",
        "geometry",
        "    nondegenerate = mag_speech >= DEFAULT_FLOOR\n",
        "    nondegenerate = mag_speech > DEFAULT_FLOOR\n",
    ),
    Mutant(
        "oracle_sign ties to -1",
        "geometry",
        "    return np.where(d_minus < d_plus, -1.0, 1.0)\n",
        "    return np.where(d_minus <= d_plus, -1.0, 1.0)\n",
    ),
    Mutant(
        "_ratio_db gives +60 dB for silence",
        "metrics",
        "    if p_num == 0.0:\n        return -SI_SNR_CAP_DB\n",
        "    if p_num == 0.0:\n        return SI_SNR_CAP_DB\n",
    ),
    Mutant("supplied key without its provider", "harness", "        key = (provider, quantity)\n", "        key = quantity\n"),
    Mutant(
        "the cell's mixture seed replaced by 0",
        "harness",
        "_estimates(method, spectra, pair, mixture.seed, supplied)",
        "_estimates(method, spectra, pair, 0, supplied)",
    ),
    Mutant(
        "seed-stream tags of mag_noise and phase_noise swapped",
        "harness",
        '_QUANTITY_TAGS = {"mag_speech": 0, "mag_noise": 1, "phase_noise": 2}\n',
        '_QUANTITY_TAGS = {"mag_speech": 0, "mag_noise": 2, "phase_noise": 1}\n',
    ),
    Mutant(
        "audit separation 1e-3 -> 1e-2",
        "cli",
        "    separated = angular_distance(cand_a, cand_b) > 1e-3\n",
        "    separated = angular_distance(cand_a, cand_b) > 1e-2\n",
    ),
    Mutant(
        "audit separation 1e-3 -> 1e-4",
        "cli",
        "    separated = angular_distance(cand_a, cand_b) > 1e-3\n",
        "    separated = angular_distance(cand_a, cand_b) > 1e-4\n",
    ),
    Mutant(
        "audit speech energy 1e-2 -> 1e-1",
        "cli",
        "(mag_speech > 1e-2 * mag_speech.max())",
        "(mag_speech > 1e-1 * mag_speech.max())",
    ),
    Mutant("audit mixture energy 1e-2 -> 1e-3", "cli", "(mag_mix > 1e-2 * mag_mix.max())", "(mag_mix > 1e-3 * mag_mix.max())"),
    Mutant(
        "analyze median > -> >=",
        "cli",
        "    high = mag_speech > np.median(mag_speech)\n",
        "    high = mag_speech >= np.median(mag_speech)\n",
    ),
    # Loop and WAV mutants that the benchmark's reference check or earlier tests named.
    Mutant(
        "one loop update dropped",
        "reconstruct",
        "        if n < cfg.iterations:\n            z = update(z, projected)\n",
        "        if n < cfg.iterations - 1:\n            z = update(z, projected)\n",
    ),
    Mutant(
        "final phase shifted by 8.6e-7 rad",
        "reconstruct",
        "    return ReconReport(angles(z), final, signal, stats)\n",
        "    return ReconReport(angles(z) + 8.6e-7, final, signal, stats)\n",
    ),
    Mutant("WAV pad byte not skipped", "audio_io", "        pos += 8 + size + (size & 1)\n", "        pos += 8 + size\n"),
    Mutant(
        "WAV extensible sub-format ignored",
        "audio_io",
        "    if tag == WAVE_FORMAT_EXTENSIBLE and size >= 40:\n",
        "    if False:\n",
    ),
    Mutant("WAV RF64 check dropped", "audio_io", '    if raw[:4] == b"RF64":\n', "    if False:\n"),
    Mutant("WAV whole-sample check dropped", "audio_io", "    if size % block_align:\n", "    if False:\n"),
]


def _importers(tests: Path, module: str) -> list[str]:
    """The tier-1 test files that import ``msgla.<module>``, also as ``from msgla import <module>``."""
    found = []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in (f"msgla.{module}", "msgla"):
                names = {alias.name for alias in node.names}
                hit = node.module != "msgla" or module in names
            elif isinstance(node, ast.Import):
                hit = any(alias.name == f"msgla.{module}" for alias in node.names)
            else:
                continue
            if hit:
                found.append(f"tests/{path.name}")
                break
    return found


def _pytest(tree: Path, files: list[str], stop_first: bool) -> tuple[int, float]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *(["-x"] if stop_first else []), *files]
    start = time.perf_counter()
    try:
        code = subprocess.run(args, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return code, time.perf_counter() - start


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    if not chosen:
        print(f"no mutant matches {argv}", file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory(prefix="msgla-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", ".hypothesis", "__pycache__"))
        code, seconds = _pytest(tree, ["tests"], stop_first=False)
        if code != 0:
            print(f"the unmutated copy fails tier-1 (pytest exit {code}); no mutant was run", file=sys.stderr)
            return 1
        print(f"control: tier-1 passes unmutated ({seconds:.0f} s)")
        for mutant in chosen:
            source = tree / "src" / "msgla" / f"{mutant.module}.py"
            text = source.read_text()
            if text.count(mutant.old) != 1:
                print(f"STALE     {mutant.name}: its snippet occurs {text.count(mutant.old)} times in {mutant.module}.py")
                bad += 1
                continue
            source.write_text(text.replace(mutant.old, mutant.new))
            try:
                files = _importers(tree / "tests", mutant.module)
                code, seconds = _pytest(tree, files, stop_first=True)
            finally:
                source.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed", -1: "killed (timeout)"}.get(code, f"ERROR (pytest exit {code})")
            bad += verdict not in ("killed", "killed (timeout)")
            print(f"{verdict:<9} {mutant.name} ({len(files)} files, {seconds:.0f} s)", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
