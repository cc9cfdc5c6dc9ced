"""The three closed-loop workloads of the msgla benchmark.

Each workload builds its inputs from the workload seed during set-up, then
exposes one op per input. msgla is reached only through its public functions,
always looked up on the module at call time, so that the traced run can
rebind them from outside the package.

An op returns raw outputs; ``table`` turns them into a flat result table
(label -> float, or a digest string) outside the timed region. The tables are
what the output checks compare: finite values, identical repeats within a run,
and on the default seed the stored reference values.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# Relative and absolute tolerance of the reference check. Reordered floating
# point (a phasor loop moved phases by up to 8.6e-7 rad) may shift results by
# 1e-5 relative even if every bin moves that far; one loop iteration more or
# less shifts them by more than 1e-3.
REF_RTOL = 1e-4
REF_ATOL = 1e-6

CHILD_TIMEOUT_S = 60.0


def import_msgla(src: Path) -> SimpleNamespace:
    """Import msgla from ``src`` and refuse any other copy."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import msgla
    import msgla.cli

    origin = Path(msgla.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"msgla was imported from {origin}, not from {src}")
    return SimpleNamespace(
        msgla=msgla,
        spectral=msgla.spectral,
        geometry=msgla.geometry,
        reconstruct=msgla.reconstruct,
        metrics=msgla.metrics,
        harness=msgla.harness,
        audio_io=msgla.audio_io,
        cli=msgla.cli,
    )


def run_child(argv, env=None, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; return (exit code, peak RSS KiB, stdout, stderr).

    The child is reaped with ``wait4`` so that its own peak RSS is known, and
    killed if it outlives ``timeout``.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, out.decode(), err.decode()


def _drain(proc):
    # Read both pipes to EOF without reaping, so wait4 still sees the child.
    chunks = {}

    def read(name, stream):
        chunks[name] = stream.read()
        stream.close()

    readers = [
        threading.Thread(target=read, args=(name, stream))
        for name, stream in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for reader in readers:
        reader.start()
    for reader in readers:
        reader.join()
    return chunks["out"], chunks["err"]


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Input:
    """One op's input. Latency medians are taken per ``kind``."""

    key: str
    kind: str
    cells: int
    clips: int
    payload: dict = field(default_factory=dict)


@dataclass
class Outcome:
    table: dict
    gain_db: float


class OracleGrid:
    """The default ``oracle-exp`` grid through ``harness.run_experiment``, jobs=1."""

    name = "oracle_grid"
    in_process = True
    columns = (
        "si_snr_db", "snr_db_plain", "phase_cos_sim", "inconsistency", "si_snr_noisy_db", "phase_cos_sim_noisy",
    )

    def setup(self, m, seed: int, smoke: bool, workdir: Path) -> list[Input]:
        seeds = [seed] if smoke else [5 * seed + i for i in range(5)]
        snrs = [0.0] if smoke else [-6.0, 0.0, 6.0]
        spec = m.harness.ExperimentSpec(
            mixtures=[m.harness.MixtureSpec(kind="harmonic", snr_db=s, seed=k) for s in snrs for k in seeds]
        )
        cells = len(spec.methods) * len(spec.provider_pairs) * len(spec.mixtures)
        return [Input("grid", "grid", cells, len(spec.mixtures), {"spec": spec})]

    def op(self, m, inp: Input, in_process: bool):
        return m.harness.run_experiment(inp.payload["spec"])

    def table(self, m, inp: Input, result) -> Outcome:
        table = {}
        gains = []
        for row in result.rows:
            prefix = "|".join(
                str(row[c])
                for c in ("row_kind", "method", "speech_provider", "noise_provider", "snr_db", "mixture_seed")
            )
            for column in self.columns:
                table[f"{prefix}|{column}"] = float(row[column])
            if row["row_kind"] == "cell":
                gains.append(row["si_snr_db"] - row["si_snr_noisy_db"])
        if len(gains) != inp.cells:
            raise AssertionError(f"grid produced {len(gains)} cells, expected {inp.cells}")
        return Outcome(table, sum(gains) / len(gains))


class LongClip:
    """A 10 s speech-shaped clip at 0 dB, enhanced the way ``msgla enhance`` and
    ``msgla candidates`` do, from perturbed-oracle(0.3) estimates built in set-up."""

    name = "long_clip"
    in_process = True
    methods = ("gla", "nm", "np", "sign")

    def setup(self, m, seed: int, smoke: bool, workdir: Path) -> list[Input]:
        count, duration = (1, 1.0) if smoke else (4, 10.0)
        cfg = m.spectral.StftConfig()
        provider = m.harness.EstimateProvider("perturbed_oracle", noise_std=0.3, seed=0)
        inputs = []
        for i in range(count):
            triple = m.harness.synthesize_mixture("speech_shaped", 0.0, duration, seed=count * seed + i)
            estimates = m.harness.provide_estimates(provider, triple, cfg)
            _, ref_phase = m.spectral.decompose(m.spectral.stft(triple.clean, cfg))
            payload = {
                "cfg": cfg,
                "triple": triple,
                "estimates": estimates,
                "ref_phase": ref_phase,
                "si_snr_noisy": m.metrics.si_snr(triple.noisy, triple.clean),
            }
            inputs.append(Input(f"clip{i}", "clip", len(self.methods), 1, payload))
        return inputs

    def op(self, m, inp: Input, in_process: bool):
        p = inp.payload
        cfg, triple, est, ref_phase = p["cfg"], p["triple"], p["estimates"], p["ref_phase"]
        noisy = m.spectral.stft(triple.noisy, cfg)
        mag_mix, phase_mix = m.spectral.decompose(noisy)
        cos = m.geometry.cosine_phase_candidates(mag_mix, phase_mix, est.mag_speech, est.mag_noise)
        sin = m.geometry.sine_phase_candidates(mag_mix, phase_mix, est.mag_speech, est.phase_noise)
        sign = m.geometry.oracle_sign(cos, ref_phase)
        out = {
            "cos": cos,
            "sin": sin,
            "cos_error": m.geometry.nearest_candidate_distance(ref_phase, cos),
            "sin_error": m.geometry.nearest_candidate_distance(ref_phase, sin),
        }
        estimates = m.reconstruct.Estimates(
            mag_speech=est.mag_speech, mag_noise=est.mag_noise, phase_noise=est.phase_noise, sign=sign
        )
        recon_cfg = m.reconstruct.ReconConfig(iterations=5, trace=True)
        for method in self.methods:
            wave, report = m.reconstruct.enhance(noisy, method, estimates, recon_cfg, ref_phase=ref_phase)
            row = m.metrics.metric_row(
                wave, triple.clean, report.final_phase, ref_phase, est.mag_speech, cfg, noisy.origin_length
            )
            out[method] = (wave, report, row)
        return out

    def table(self, m, inp: Input, result) -> Outcome:
        table = {}
        for law in ("cos", "sin"):
            table[f"{law}|valid_fraction"] = float(result[law].validity_mask.mean())
            table[f"{law}|mean_candidate_error"] = float(result[f"{law}_error"].mean())
        gains = []
        for method in self.methods:
            wave, report, row = result[method]
            for name in ("si_snr_db", "snr_db_plain", "phase_cos_sim", "inconsistency"):
                table[f"{method}|{name}"] = float(getattr(row, name))
            for stats in report.per_iteration:
                table[f"{method}|iter{stats.iteration}|inconsistency"] = float(stats.inconsistency)
                table[f"{method}|iter{stats.iteration}|phase_cos_sim"] = float(stats.phase_cos_sim)
            table[f"{method}|wave_sha256"] = hashlib.sha256(wave.samples.tobytes()).hexdigest()
            gains.append(row.si_snr_db - inp.payload["si_snr_noisy"])
        return Outcome(table, sum(gains) / len(gains))


class CliCold:
    """Fresh ``python -m msgla`` processes, alternating ``enhance --method nm``
    on a 1 s WAV triple with a one-mixture ``oracle-exp``."""

    name = "cli_cold"
    in_process = False  # outside the traced run, every op is a fresh process

    def setup(self, m, seed: int, smoke: bool, workdir: Path) -> list[Input]:
        count = 1 if smoke else 4
        inputs = []
        for i in range(count):
            mix_seed = count * seed + i
            folder = workdir / f"cli{i}"
            folder.mkdir(parents=True, exist_ok=True)
            triple = m.harness.synthesize_mixture("harmonic", 0.0, 1.0, seed=mix_seed)
            for part in ("noisy", "clean", "noise"):
                m.audio_io.write_wav(getattr(triple, part), folder / f"{part}.wav")
            out = folder / "enhanced.wav"
            enhance = [
                "enhance", str(folder / "noisy.wav"), "--method", "nm",
                "--oracle-clean", str(folder / "clean.wav"),
                "--oracle-noise", str(folder / "noise.wav"),
                "--out", str(out),
            ]
            inputs.append(
                Input(f"enhance{i}", "enhance", 1, 1, {"argv": enhance, "out": out, "metrics": out.with_suffix(".metrics.json")})
            )
            out_dir = folder / "oracle"
            oracle = [
                "oracle-exp", "--seeds", str(mix_seed), "--snr-grid", "0", "--jobs", "1",
                "--out-dir", str(out_dir),
            ]
            inputs.append(Input(f"oracle{i}", "oracle-exp", 8, 1, {"argv": oracle, "out_dir": out_dir}))
        return inputs

    def op(self, m, inp: Input, in_process: bool):
        argv = inp.payload["argv"]
        if in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code = m.cli.main(list(argv))
            rss = 0
            err = ""
        else:
            src = Path(m.msgla.__file__).resolve().parents[1]
            code, rss, _, err = run_child([sys.executable, "-m", "msgla", *argv], env=child_env(src))
        if code != 0:
            raise RuntimeError(f"msgla {argv[0]} exited {code}: {err.strip()}")
        return rss

    def table(self, m, inp: Input, result) -> Outcome:
        # The outputs are removed once read, so an op that writes nothing fails.
        if inp.kind == "enhance":
            outputs = [inp.payload["out"], inp.payload["metrics"]]
        else:
            outputs = [inp.payload["out_dir"] / name for name in ("results.csv", "results.json", "manifest.json")]
        try:
            return self._read(inp)
        finally:
            for path in outputs:
                path.unlink(missing_ok=True)

    def _read(self, inp: Input) -> Outcome:
        table = {}
        if inp.kind == "enhance":
            summary = json.loads(inp.payload["metrics"].read_text())
            for name, value in sorted(summary["metrics"].items()):
                table[f"metrics|{name}"] = float(value)
            for stats in summary["per_iteration"]:
                for name in ("inconsistency", "phase_cos_sim"):
                    table[f"iter{stats['iteration']}|{name}"] = float(stats[name])
            table["wav_sha256"] = sha256_file(inp.payload["out"])
            table["metrics_sha256"] = sha256_file(inp.payload["metrics"])
            return Outcome(table, summary["metrics"]["si_snr_improvement_db"])
        out_dir = inp.payload["out_dir"]
        with (out_dir / "results.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        gains = []
        for row in rows:
            prefix = "|".join(row[c] for c in ("row_kind", "method", "speech_provider", "noise_provider"))
            for name in ("si_snr_db", "snr_db_plain", "phase_cos_sim", "inconsistency", "si_snr_noisy_db"):
                table[f"{prefix}|{name}"] = float(row[name])
            if row["row_kind"] == "cell":
                gains.append(float(row["si_snr_db"]) - float(row["si_snr_noisy_db"]))
        if len(gains) != inp.cells:
            raise AssertionError(f"oracle-exp wrote {len(gains)} cells, expected {inp.cells}")
        for name in ("results.csv", "results.json", "manifest.json"):
            table[f"{name}|sha256"] = sha256_file(out_dir / name)
        return Outcome(table, sum(gains) / len(gains))


WORKLOADS = {w.name: w for w in (OracleGrid(), LongClip(), CliCold())}


def check_finite(table: dict) -> None:
    bad = [k for k, v in table.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise AssertionError(f"non-finite results: {bad[:5]}")


def check_reference(table: dict, reference: dict) -> None:
    """Compare every stored reference value; digests are not compared."""
    missing = sorted(set(reference) - set(table))
    if missing:
        raise AssertionError(f"results lack reference labels {missing[:5]}")
    off = [
        (label, table[label], want)
        for label, want in reference.items()
        if abs(table[label] - want) > REF_ATOL + REF_RTOL * abs(want)
    ]
    if off:
        raise AssertionError(f"{len(off)} results differ from the reference, e.g. {off[:3]}")


def reference_values(table: dict) -> dict:
    return {k: v for k, v in table.items() if isinstance(v, float)}
