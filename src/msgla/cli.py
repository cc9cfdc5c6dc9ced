"""Command-line entry point: enhancement, oracle experiments, candidate audit, error maps.

Exit codes: 0 on success, 1 on runtime errors (I/O, numerical), 2 on usage
errors (bad flags, missing estimates, mismatched inputs). Every command
echoes its fully resolved configuration into the JSON it writes, so runs are
reproducible from their artifacts alone. Set ``MSGLA_LOG`` to a level name
(e.g. ``info``) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio_io import RunArtifact, fingerprint, format_number, persist_run, read_wav, write_wav
from .geometry import (
    cosine_phase_candidates,
    nearest_candidate_distance,
    oracle_sign,
    sine_phase_candidates,
)
from .harness import (
    ExperimentSpec,
    MixtureSpec,
    default_provider_pairs,
    perturb_magnitude,
    perturb_phase,
    run_experiment,
)
from .metrics import inconsistency, phase_cos_sim, phase_error_map, plain_snr, si_snr
from .reconstruct import METHODS, Estimates, ReconConfig, enhance
from .spectral import StftConfig, Waveform, decompose, stft, wrap_phase

log = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad flags or unusable inputs; maps to exit code 2."""


_STFT_DEFAULTS = {
    "window": 512,
    "hop": 256,
    "fft": None,
}

ENHANCE_DEFAULTS = {
    **_STFT_DEFAULTS,
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
}

ORACLE_EXP_DEFAULTS = {
    **_STFT_DEFAULTS,
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
    "jobs": os.cpu_count() or 1,
}

CANDIDATES_DEFAULTS = {
    **_STFT_DEFAULTS,
    "law": "cos",
    "floor": 1e-12,
}

ANALYZE_DEFAULTS = {
    **_STFT_DEFAULTS,
    "noise_std": 0.3,
    "seed": 0,
    "scale_by_energy": False,
    "snr_db": None,
}


def _setup_logging() -> None:
    level_name = os.environ.get("MSGLA_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))


def _stft_config(cfg: dict) -> StftConfig:
    return StftConfig(
        window_length=int(cfg["window"]),
        hop_length=int(cfg["hop"]),
        fft_length=None if cfg["fft"] is None else int(cfg["fft"]),
    )


def _merge_config(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    explicit = {k: v for k, v in vars(args).items() if k != "func"}
    merged = dict(defaults)
    config_path = explicit.pop("config", None)
    if config_path is not None:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {config_path} is not valid JSON: {exc}") from exc
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config file keys: {unknown}")
        merged.update(file_cfg)
    merged.update(explicit)
    return merged


def _read_aligned(path, reference, what: str):
    wave = read_wav(path)
    if reference is not None:
        if wave.sample_rate != reference.sample_rate:
            raise UsageError(
                f"{what} sample rate {wave.sample_rate} does not match noisy input "
                f"{reference.sample_rate}"
            )
        if len(wave) != len(reference):
            raise UsageError(
                f"{what} has {len(wave)} samples but noisy input has {len(reference)}"
            )
    return wave


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n")


def cmd_enhance(cfg: dict) -> int:
    method = cfg["method"]
    if method not in METHODS:
        raise UsageError(f"unknown method {cfg['method']!r}; choose from {METHODS}")
    stft_cfg = _stft_config(cfg)
    noisy = read_wav(cfg["noisy"])
    noisy_spec = stft(noisy, stft_cfg)
    mag_mix, phase_mix = decompose(noisy_spec)

    needs = {
        "passthrough": (),
        "gla": ("clean",),
        "nm": ("clean", "noise"),
        "np": ("clean", "noise"),
        "sign": ("clean", "noise"),
    }[method]
    if "clean" in needs and cfg["oracle_clean"] is None:
        raise UsageError(f"method '{method}' requires --oracle-clean (clean reference WAV)")
    if "noise" in needs and cfg["oracle_noise"] is None:
        raise UsageError(f"method '{method}' requires --oracle-noise (noise reference WAV)")

    clean = noise = None
    phase_speech = None
    estimates = Estimates()
    std = float(cfg["perturb_std"])
    if cfg["oracle_clean"] is not None:
        clean = _read_aligned(cfg["oracle_clean"], noisy, "--oracle-clean")
        mag_speech, phase_speech = decompose(stft(clean, stft_cfg))
        if std > 0:
            rng = np.random.default_rng([int(cfg["perturb_seed"]), 0])
            mag_speech = perturb_magnitude(mag_speech, std, rng)
        estimates.mag_speech = mag_speech
    if cfg["oracle_noise"] is not None:
        noise = _read_aligned(cfg["oracle_noise"], noisy, "--oracle-noise")
        mag_noise, phase_noise = decompose(stft(noise, stft_cfg))
        if std > 0:
            estimates.mag_noise = perturb_magnitude(
                mag_noise, std, np.random.default_rng([int(cfg["perturb_seed"]), 1])
            )
            estimates.phase_noise = perturb_phase(
                phase_noise, std, np.random.default_rng([int(cfg["perturb_seed"]), 2])
            )
        else:
            estimates.mag_noise = mag_noise
            estimates.phase_noise = phase_noise
    if method == "sign":
        cand = cosine_phase_candidates(mag_mix, phase_mix, estimates.mag_speech, estimates.mag_noise)
        estimates.sign = oracle_sign(cand, phase_speech)

    recon_cfg = ReconConfig(
        iterations=int(cfg["iters"]), init=cfg["init"], seed=int(cfg["seed"]), trace=True
    )
    wave, report = enhance(noisy_spec, method, estimates, recon_cfg, ref_phase=phase_speech)
    out_path = Path(cfg["out"])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(wave, out_path, cfg["encoding"])

    resolved = {k: v for k, v in cfg.items()}
    mag_used = estimates.mag_speech if estimates.mag_speech is not None else mag_mix
    summary: dict = {
        "version": __version__,
        "config": resolved,
        "method": method,
        "output": str(out_path),
        "metrics": {
            "inconsistency": inconsistency(
                mag_used, report.final_phase, stft_cfg, noisy_spec.origin_length
            )
        },
        "per_iteration": [
            {
                "iteration": s.iteration,
                "inconsistency": s.inconsistency,
                "phase_cos_sim": s.phase_cos_sim,
                "candidate_distance": s.candidate_distance,
            }
            for s in report.per_iteration
        ],
    }
    if clean is not None:
        improvement = si_snr(wave, clean) - si_snr(noisy, clean)
        summary["metrics"].update(
            si_snr_db=si_snr(wave, clean),
            snr_db_plain=plain_snr(wave, clean),
            si_snr_noisy_db=si_snr(noisy, clean),
            si_snr_improvement_db=improvement,
            phase_cos_sim=phase_cos_sim(report.final_phase, phase_speech),
            phase_cos_sim_noisy=phase_cos_sim(phase_mix, phase_speech),
        )
        log.info("si-snr improvement: %.2f dB", improvement)
    metrics_out = cfg["metrics_out"]
    metrics_path = Path(metrics_out) if metrics_out else out_path.with_suffix(".metrics.json")
    _write_json(metrics_path, summary)
    print(f"wrote {out_path} and {metrics_path}")
    return 0


def cmd_oracle_exp(cfg: dict) -> int:
    for method in cfg["methods"]:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}; choose from {METHODS}")
    stft_cfg = _stft_config(cfg)
    recon_cfg = ReconConfig(iterations=int(cfg["iters"]), init=cfg["init"], trace=False)
    seeds = [int(s) for s in cfg["seeds"]]
    mixtures = [
        MixtureSpec(
            kind=cfg["kind"],
            snr_db=float(snr),
            duration_s=float(cfg["duration"]),
            sample_rate=int(cfg["sample_rate"]),
            seed=seed,
        )
        for snr in cfg["snr_grid"]
        for seed in seeds
    ]
    spec = ExperimentSpec(
        mixtures=mixtures,
        methods=list(cfg["methods"]),
        provider_pairs=default_provider_pairs(float(cfg["noise_std"]), int(cfg["provider_seed"])),
        stft_cfg=stft_cfg,
        recon_cfg=recon_cfg,
    )
    # performance knobs (jobs) and output location stay out of the fingerprint
    science = {
        k: cfg[k]
        for k in (
            "methods",
            "snr_grid",
            "seeds",
            "noise_std",
            "provider_seed",
            "kind",
            "duration",
            "sample_rate",
            "iters",
            "init",
            "window",
            "hop",
            "fft",
        )
    }
    science["phase_cos_sim_weighting"] = "unweighted"
    table = run_experiment(spec, jobs=int(cfg["jobs"]), fingerprint=fingerprint(science))
    artifact = RunArtifact(
        columns=table.columns,
        rows=table.rows,
        config=science,
        seeds=seeds,
        version=__version__,
    )
    manifest = persist_run(artifact, cfg["out_dir"])
    print(f"wrote {manifest.parent / 'results.csv'} ({len(table.rows)} rows)")
    return 0


def cmd_candidates(cfg: dict) -> int:
    stft_cfg = _stft_config(cfg)
    noisy = read_wav(cfg["noisy"])
    clean = _read_aligned(cfg["clean"], noisy, "clean WAV")
    noise = _read_aligned(cfg["noise"], noisy, "noise WAV")
    mag_mix, phase_mix = decompose(stft(noisy, stft_cfg))
    mag_speech, phase_speech = decompose(stft(clean, stft_cfg))
    mag_noise, phase_noise = decompose(stft(noise, stft_cfg))

    floor = float(cfg["floor"])
    if cfg["law"] == "cos":
        cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise, floor)
        extra = {"abs_delta": cand.abs_delta}
    else:
        cand = sine_phase_candidates(mag_mix, phase_mix, mag_speech, phase_noise, floor)
        extra = {"primary": cand.primary_candidate, "reflected": cand.reflected_candidate}
    error = nearest_candidate_distance(phase_speech, cand)

    out_path = Path(cfg["out"])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    columns = ["frame", "bin", "mag_mix", "mag_speech", "mag_noise", *extra, "candidate_error", "valid"]
    frames, bins = mag_mix.shape
    with out_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for m in range(frames):
            for k in range(bins):
                row = [m, k, mag_mix[m, k], mag_speech[m, k], mag_noise[m, k]]
                row += [arr[m, k] for arr in extra.values()]
                row += [error[m, k], int(cand.validity_mask[m, k])]
                writer.writerow([format_number(v) for v in row])

    # Audit bins that carry real energy (relative to each spectrogram's own
    # scale) and where the two candidates are genuinely distinct; collinear
    # phasors put acos/asin at a branch point where rounding noise is
    # amplified and there is no sign ambiguity to resolve.
    from .spectral import angular_distance

    cand_a, cand_b = cand.candidate_pair()
    separated = angular_distance(cand_a, cand_b) > 1e-3
    strong = cand.validity_mask & separated
    if mag_speech.max() > 0 and mag_mix.max() > 0:
        strong = strong & (mag_speech > 1e-2 * mag_speech.max()) & (mag_mix > 1e-2 * mag_mix.max())
    summary = {
        "version": __version__,
        "config": {k: v for k, v in cfg.items()},
        "bins": int(error.size),
        "valid_bins": int(cand.validity_mask.sum()),
        "audited_bins": int(strong.sum()),
        "max_error_audited": float(error[strong].max()) if strong.any() else None,
        "median_error_audited": float(np.median(error[strong])) if strong.any() else None,
    }
    _write_json(out_path.with_suffix(".manifest.json"), summary)
    print(
        f"wrote {out_path}: {summary['audited_bins']} audited bins, "
        f"max error {summary['max_error_audited']}"
    )
    return 0


def _write_grid(path: Path, grid: np.ndarray) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        for row in grid:
            writer.writerow([format_number(float(v)) for v in row])


def cmd_analyze(cfg: dict) -> int:
    stft_cfg = _stft_config(cfg)
    clean = read_wav(cfg["clean"])
    noise = _read_aligned(cfg["noise"], clean, "--noise")
    noise_samples = noise.samples
    if cfg["snr_db"] is not None:
        clean_norm = float(np.linalg.norm(clean.samples))
        noise_norm = float(np.linalg.norm(noise_samples))
        if noise_norm == 0.0:
            raise UsageError("noise WAV is silent; cannot rescale to the requested SNR")
        noise_samples = noise_samples * (
            clean_norm / noise_norm * 10.0 ** (-float(cfg["snr_db"]) / 20.0)
        )

    mag_speech, phase_speech = decompose(stft(clean, stft_cfg))
    _, phase_noise = decompose(stft(Waveform(noise_samples, clean.sample_rate), stft_cfg))

    std = float(cfg["noise_std"])
    energy = mag_speech / mag_speech.max() if mag_speech.max() > 0 else mag_speech
    if cfg["scale_by_energy"]:
        # speech phase degrades where speech is weak; noise phase degrades
        # where speech is strong (the complementary pattern under audit)
        sigma_speech = std * (1.0 - energy)
        sigma_noise = std * energy
    else:
        sigma_speech = np.full_like(mag_speech, std)
        sigma_noise = np.full_like(mag_speech, std)
    rng_speech = np.random.default_rng([int(cfg["seed"]), 0])
    rng_noise = np.random.default_rng([int(cfg["seed"]), 1])
    est_speech = wrap_phase(phase_speech + sigma_speech * rng_speech.standard_normal(mag_speech.shape))
    est_noise = wrap_phase(phase_noise + sigma_noise * rng_noise.standard_normal(mag_speech.shape))

    speech_map = phase_error_map(est_speech, phase_speech)
    noise_map = phase_error_map(est_noise, phase_noise)
    high = mag_speech > np.median(mag_speech)

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_grid(out_dir / "speech_phase_error.csv", speech_map)
    _write_grid(out_dir / "noise_phase_error.csv", noise_map)
    summary = {
        "version": __version__,
        "config": {k: v for k, v in cfg.items()},
        "speech_phase": {
            "mean_error_high_energy": float(speech_map[high].mean()),
            "mean_error_low_energy": float(speech_map[~high].mean()),
        },
        "noise_phase": {
            "mean_error_high_energy": float(noise_map[high].mean()),
            "mean_error_low_energy": float(noise_map[~high].mean()),
        },
    }
    _write_json(out_dir / "summary.json", summary)
    print(f"wrote error maps and summary to {out_dir}")
    return 0


def _add_stft_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, help="analysis window length in samples (default 512)")
    parser.add_argument("--hop", type=int, help="hop size in samples (default 256)")
    parser.add_argument("--fft", type=int, help="FFT length (default: window length)")
    parser.add_argument("--config", help="JSON file of flag defaults (flags still win)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msgla",
        description="Multi-source Griffin-Lim phase reconstruction for noisy speech.",
    )
    parser.add_argument("--version", action="version", version=f"msgla {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.required = True

    enh = sub.add_parser(
        "enhance",
        help="reconstruct a speech phase for one noisy WAV",
        argument_default=argparse.SUPPRESS,
    )
    enh.add_argument("noisy", help="noisy input WAV (mono PCM16/float32)")
    enh.add_argument("--method", choices=METHODS, help="reconstruction method (default nm)")
    enh.add_argument("--out", required=True, help="enhanced output WAV path")
    enh.add_argument("--oracle-clean", dest="oracle_clean", help="clean reference WAV")
    enh.add_argument("--oracle-noise", dest="oracle_noise", help="noise reference WAV")
    enh.add_argument(
        "--perturb-std",
        dest="perturb_std",
        type=float,
        help="degrade oracle estimates with this perturbation scale (default 0)",
    )
    enh.add_argument("--perturb-seed", dest="perturb_seed", type=int, help="perturbation seed")
    enh.add_argument("--iters", type=int, help="phase update iterations (default 5)")
    enh.add_argument("--init", choices=("noisy", "zero", "random"), help="initial phase (default noisy)")
    enh.add_argument("--seed", type=int, help="seed for random initialization")
    enh.add_argument("--encoding", choices=("float32", "pcm16"), help="output encoding")
    enh.add_argument("--metrics-out", dest="metrics_out", help="metrics JSON path")
    _add_stft_flags(enh)
    enh.set_defaults(func=lambda a: cmd_enhance(_merge_config(ENHANCE_DEFAULTS, a)))

    exp = sub.add_parser(
        "oracle-exp",
        help="run the oracle/perturbed provider matrix on synthetic mixtures",
        argument_default=argparse.SUPPRESS,
    )
    exp.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")
    exp.add_argument("--methods", nargs="+", help="methods to evaluate (default: nm np)")
    exp.add_argument(
        "--snr-grid", dest="snr_grid", nargs="+", type=float, help="mixture SNRs in dB (default -6 0 6)"
    )
    exp.add_argument("--seeds", nargs="+", type=int, help="mixture seeds (default 0..4)")
    exp.add_argument(
        "--noise-std", dest="noise_std", type=float, help="perturbed-oracle scale (default 0.3)"
    )
    exp.add_argument("--provider-seed", dest="provider_seed", type=int, help="perturbation seed")
    exp.add_argument("--kind", choices=("harmonic", "speech_shaped"), help="mixture kind")
    exp.add_argument("--duration", type=float, help="mixture duration in seconds (default 0.5)")
    exp.add_argument("--sample-rate", dest="sample_rate", type=int, help="sample rate (default 16000)")
    exp.add_argument("--iters", type=int, help="phase update iterations (default 5)")
    exp.add_argument("--init", choices=("noisy", "zero", "random"), help="initial phase")
    exp.add_argument("--jobs", type=int, help="mixtures run in parallel threads (default: logical cores)")
    _add_stft_flags(exp)
    exp.set_defaults(func=lambda a: cmd_oracle_exp(_merge_config(ORACLE_EXP_DEFAULTS, a)))

    cand = sub.add_parser(
        "candidates",
        help="audit per-bin geometric phase candidates against the true phase",
        argument_default=argparse.SUPPRESS,
    )
    cand.add_argument("noisy", help="noisy WAV")
    cand.add_argument("clean", help="aligned clean WAV")
    cand.add_argument("noise", help="aligned noise WAV")
    cand.add_argument("--law", choices=("cos", "sin"), help="candidate construction (default cos)")
    cand.add_argument("--floor", type=float, help="magnitude floor (default 1e-12)")
    cand.add_argument("--out", required=True, help="per-bin CSV output path")
    _add_stft_flags(cand)
    cand.set_defaults(func=lambda a: cmd_candidates(_merge_config(CANDIDATES_DEFAULTS, a)))

    ana = sub.add_parser(
        "analyze",
        help="write speech/noise phase-error maps and an energy-split summary",
        argument_default=argparse.SUPPRESS,
    )
    ana.add_argument("--clean", required=True, help="clean WAV")
    ana.add_argument("--noise", required=True, help="aligned noise WAV")
    ana.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")
    ana.add_argument(
        "--noise-std", dest="noise_std", type=float, help="phase perturbation scale (default 0.3)"
    )
    ana.add_argument("--seed", type=int, help="perturbation seed")
    ana.add_argument(
        "--scale-by-energy",
        dest="scale_by_energy",
        action="store_true",
        help="scale perturbations by speech energy (complementary error pattern)",
    )
    ana.add_argument("--snr-db", dest="snr_db", type=float, help="rescale noise to this SNR first")
    _add_stft_flags(ana)
    ana.set_defaults(func=lambda a: cmd_analyze(_merge_config(ANALYZE_DEFAULTS, a)))
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
