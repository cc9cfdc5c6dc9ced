"""Command-line entry point: enhancement, oracle experiments, candidate audit, error maps.

Exit codes: 0 on success, 1 on runtime errors (I/O, numerical), 2 on usage
errors (bad flags or config values, missing estimates, mismatched inputs).
Bad flag and config values are rejected before any WAV is read or any file
is written. argparse is the only parser: each default is declared once, in
``add_argument``, and a ``--config`` file is parsed as the flags it spells
out (``_ConfigFile``). Every command echoes its fully resolved configuration
into the JSON it writes, so runs are reproducible from their artifacts
alone. Set ``MSGLA_LOG`` to a level name (e.g. ``info``) for progress logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio_io import ENCODINGS, RunArtifact, _write_csv, _write_json, persist_run, read_wav, write_wav
from .geometry import cosine_phase_candidates, nearest_candidate_distance, sine_phase_candidates
from .harness import (
    MIXTURE_KINDS,
    EstimateProvider,
    ExperimentSpec,
    MixtureSpec,
    _estimates,
    _noisy_scores,
    _scale_noise,
    _scores,
    _spectra,
    default_provider_pairs,
    perturb_phase,
    run_experiment,
)
from .metrics import phase_error_map
from .reconstruct import INIT_KINDS, METHOD_NEEDS, METHODS, ReconConfig, enhance
from .spectral import DEFAULT_SAMPLE_RATE, StftConfig, Waveform, angular_distance, decompose, stft
from .spectral import _check_invertible, _usable_cpus

log = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad flags or unusable inputs; maps to exit code 2."""


def _checked(cast, ok, need: str):
    """An argparse ``type=``: ``cast`` the text, then reject values for which ``ok`` is false."""

    def convert(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    convert.__name__ = cast.__name__  # argparse's "invalid int value" names the cast
    return convert


_pos_int = _checked(int, lambda v: v > 0, "a positive integer")
_nonneg_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_pos_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
_nonneg_float = _checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")
# +inf dB is a noiseless mixture; NaN and -inf dB have no noise scale.
_snr_db = _checked(float, lambda v: v > -math.inf, "a number or inf")

# Tokens that every subparser reads as flag values, not flags: a minus sign,
# then a digit, ".digit", "inf" or "nan". argparse's own matcher (Python 3.11)
# takes only forms like -1 and -.5, so "--snr-grid -1e1" and "--snr-db -inf"
# would fail. No msgla flag looks like a number.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _ConfigFile(argparse.Action):
    """``--config FILE``: store the flag tokens that the file's JSON object stands for.

    Keys are the command's optional flags, long name with dashes as
    underscores; positionals, required flags and ``--config`` itself are not
    keys. ``true`` sets a switch, ``null`` and ``false`` keep the default, a
    list becomes ``--flag v1 v2 ...`` and any other value ``--flag=value``.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            spec = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise argparse.ArgumentError(self, f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise argparse.ArgumentError(
                self, f"config file {path} must hold a JSON object, got {type(spec).__name__}"
            )
        flags = {
            a.dest: a.option_strings[-1]
            for a in parser._actions
            if a.option_strings and not a.required and a.dest not in ("help", self.dest)
        }
        unknown = sorted(set(spec) - set(flags))
        if unknown:
            raise argparse.ArgumentError(self, f"unknown config file keys: {unknown}")
        tokens = []
        for key, value in spec.items():
            if value is True:
                tokens.append(flags[key])
            elif isinstance(value, list):
                tokens += [flags[key], *map(str, value)]
            elif value is not None and value is not False:
                tokens.append(f"{flags[key]}={value}")
        setattr(namespace, self.dest, tokens)


def _setup_logging() -> None:
    level_name = os.environ.get("MSGLA_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))


def _stft_config(cfg: dict) -> StftConfig:
    try:
        stft_cfg = StftConfig(window_length=cfg["window"], hop_length=cfg["hop"], fft_length=cfg["fft"])
        _check_invertible(stft_cfg)
    except ValueError as exc:
        raise UsageError(f"--window/--hop/--fft: {exc}") from exc
    return stft_cfg


def _read_aligned(path, reference, what: str, reference_name: str):
    """The WAV at ``path``, checked against ``reference``; None for no path.

    Error messages name the file as ``what`` and the reference as ``reference_name``.
    """
    if path is None:
        return None
    wave = read_wav(path)
    if wave.sample_rate != reference.sample_rate:
        raise UsageError(
            f"{what} sample rate {wave.sample_rate} does not match {reference_name} "
            f"{reference.sample_rate}"
        )
    if len(wave) != len(reference):
        raise UsageError(f"{what} has {len(wave)} samples but {reference_name} has {len(reference)}")
    return wave


def cmd_enhance(cfg: dict, stft_cfg: StftConfig) -> int:
    method = cfg["method"]
    for quantity in METHOD_NEEDS[method]:
        source = "clean" if quantity == "mag_speech" else "noise"
        if cfg[f"oracle_{source}"] is None:
            raise UsageError(f"method '{method}' requires --oracle-{source} ({source} reference WAV)")
    # The grid's perturbed oracle, for both halves of the pair, on a mixture of seed 0.
    provider = EstimateProvider("perturbed_oracle", cfg["perturb_std"], cfg["perturb_seed"])
    noisy = read_wav(cfg["noisy"])
    clean = _read_aligned(cfg["oracle_clean"], noisy, "--oracle-clean", "noisy input")
    noise = _read_aligned(cfg["oracle_noise"], noisy, "--oracle-noise", "noisy input")
    noisy_spec, spectra = _spectra(noisy, clean, noise, stft_cfg)
    estimates = _estimates(method, spectra, (provider, provider), 0)

    recon_cfg = ReconConfig(iterations=cfg["iters"], init=cfg["init"], seed=cfg["seed"], trace=True)
    wave, report = enhance(noisy_spec, method, estimates, recon_cfg, ref_phase=spectra.get("phase_speech"))
    out_path = Path(cfg["out"])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(wave, out_path, cfg["encoding"])

    summary: dict = {
        "version": __version__,
        "config": cfg,
        "method": method,
        "output": str(out_path),
        "metrics": {"inconsistency": report.final_inconsistency},
        "per_iteration": [
            {
                "iteration": s.iteration,
                "inconsistency": s.inconsistency,
                "phase_cos_sim": s.phase_cos_sim,
            }
            for s in report.per_iteration
        ],
    }
    if clean is not None:
        scores = _scores(wave, report, clean, spectra, _noisy_scores(noisy, clean, spectra))
        improvement = scores["si_snr_db"] - scores["si_snr_noisy_db"]
        summary["metrics"].update(scores, si_snr_improvement_db=improvement)
        log.info("si-snr improvement: %.2f dB", improvement)
    metrics_out = cfg["metrics_out"]
    metrics_path = Path(metrics_out) if metrics_out else out_path.with_suffix(".metrics.json")
    _write_json(metrics_path, summary)
    print(f"wrote {out_path} and {metrics_path}")
    return 0


def cmd_oracle_exp(cfg: dict, stft_cfg: StftConfig) -> int:
    provider_pairs = default_provider_pairs(cfg["noise_std"], cfg["provider_seed"])
    recon_cfg = ReconConfig(iterations=cfg["iters"], init=cfg["init"], trace=False)
    try:
        mixtures = [
            MixtureSpec(cfg["kind"], snr, cfg["duration"], cfg["sample_rate"], seed)
            for snr in cfg["snr_grid"]
            for seed in cfg["seeds"]
        ]
        spec = ExperimentSpec(mixtures, cfg["methods"], provider_pairs, stft_cfg, recon_cfg)
    except ValueError as exc:
        raise UsageError(f"--duration/--sample-rate/--window: {exc}") from exc
    # performance knobs (jobs) and output location stay out of the fingerprint
    science = {k: v for k, v in cfg.items() if k not in ("command", "jobs", "out_dir")}
    science["phase_cos_sim_weighting"] = "unweighted"
    table = run_experiment(spec, jobs=cfg["jobs"])
    artifact = RunArtifact(table.columns, table.rows, config=science, seeds=cfg["seeds"], version=__version__)
    manifest = persist_run(artifact, cfg["out_dir"])
    print(f"wrote {manifest.parent / 'results.csv'} ({len(table.rows)} rows)")
    return 0


def cmd_candidates(cfg: dict, stft_cfg: StftConfig) -> int:
    noisy = read_wav(cfg["noisy"])
    clean = _read_aligned(cfg["clean"], noisy, "clean WAV", "noisy input")
    noise = _read_aligned(cfg["noise"], noisy, "noise WAV", "noisy input")
    _, spectra = _spectra(noisy, clean, noise, stft_cfg)
    mag_mix, phase_mix = spectra["mag_mix"], spectra["phase_mix"]
    mag_speech, phase_speech = spectra["mag_speech"], spectra["phase_speech"]
    mag_noise, phase_noise = spectra["mag_noise"], spectra["phase_noise"]

    if cfg["law"] == "cos":
        cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
        extra = {"abs_delta": cand.abs_delta}
    else:
        cand = sine_phase_candidates(mag_mix, phase_mix, mag_speech, phase_noise)
        extra = {"primary": cand.primary_candidate, "reflected": cand.reflected_candidate}
    error = nearest_candidate_distance(phase_speech, cand)

    out_path = Path(cfg["out"])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    frame, bin_ = np.indices(mag_mix.shape)
    columns = dict(frame=frame, bin=bin_, mag_mix=mag_mix, mag_speech=mag_speech, mag_noise=mag_noise)
    columns.update(extra, candidate_error=error, valid=cand.validity_mask.astype(int))
    _write_csv(out_path, [column.ravel() for column in columns.values()], header=list(columns))

    # Audit bins that carry real energy (relative to each spectrogram's own
    # scale) and where the two candidates are genuinely distinct; collinear
    # phasors put acos/asin at a branch point where rounding noise is
    # amplified and there is no sign ambiguity to resolve.
    cand_a, cand_b = cand.candidate_pair()
    separated = angular_distance(cand_a, cand_b) > 1e-3
    strong = cand.validity_mask & separated
    if mag_speech.max() > 0 and mag_mix.max() > 0:
        strong = strong & (mag_speech > 1e-2 * mag_speech.max()) & (mag_mix > 1e-2 * mag_mix.max())
    summary = {
        "version": __version__,
        "config": cfg,
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


def cmd_analyze(cfg: dict, stft_cfg: StftConfig) -> int:
    std = cfg["noise_std"]
    clean = read_wav(cfg["clean"])
    if not clean.samples.any():
        raise UsageError(f"--clean WAV {cfg['clean']} is silent; its energy split is undefined")
    noise = _read_aligned(cfg["noise"], clean, "--noise", "--clean")
    noise_samples = noise.samples
    if cfg["snr_db"] is not None:
        try:
            noise_samples = _scale_noise(clean.samples, noise_samples, cfg["snr_db"])
        except ValueError as exc:
            raise UsageError(f"--noise WAV {cfg['noise']}: {exc}") from exc

    mag_speech, phase_speech = decompose(stft(clean, stft_cfg))
    _, phase_noise = decompose(stft(Waveform(noise_samples, clean.sample_rate), stft_cfg))

    energy = mag_speech / mag_speech.max() if mag_speech.max() > 0 else mag_speech
    if cfg["scale_by_energy"]:
        # speech phase degrades where speech is weak; noise phase degrades
        # where speech is strong (the complementary pattern under audit)
        sigma_speech = std * (1.0 - energy)
        sigma_noise = std * energy
    else:
        sigma_speech = np.full_like(mag_speech, std)
        sigma_noise = np.full_like(mag_speech, std)
    rng_speech = np.random.default_rng([cfg["seed"], 0])
    rng_noise = np.random.default_rng([cfg["seed"], 1])
    est_speech = perturb_phase(phase_speech, sigma_speech, rng_speech)
    est_noise = perturb_phase(phase_noise, sigma_noise, rng_noise)

    speech_map = phase_error_map(est_speech, phase_speech)
    noise_map = phase_error_map(est_noise, phase_noise)
    high = mag_speech > np.median(mag_speech)

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "speech_phase_error.csv", speech_map.T)
    _write_csv(out_dir / "noise_phase_error.csv", noise_map.T)
    summary = {
        "version": __version__,
        "config": cfg,
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


class _HelpFormatter(argparse.HelpFormatter):
    """Show the default, through ``%(default)s``, of every flag that takes a value and has one."""

    def _get_help_string(self, action):
        if action.option_strings and action.nargs != 0 and action.default is not None:
            return f"{action.help} (default %(default)s)"
        return action.help


def _add_stft_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window", type=_pos_int, default=StftConfig.window_length, help="analysis window length in samples"
    )
    parser.add_argument("--hop", type=_pos_int, default=StftConfig.hop_length, help="hop size in samples")
    parser.add_argument("--fft", type=_pos_int, help="FFT length (default: the window length)")
    parser.add_argument("--config", action=_ConfigFile, help="JSON file of flag values (explicit flags win)")


def _add_loop_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iters", type=_nonneg_int, default=ReconConfig.iterations, help="phase update iterations")
    parser.add_argument("--init", choices=INIT_KINDS, default=ReconConfig.init, help="initial phase")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msgla",
        description="Multi-source Griffin-Lim phase reconstruction for noisy speech.",
    )
    parser.add_argument("--version", action="version", version=f"msgla {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, **kwargs) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, formatter_class=_HelpFormatter, **kwargs)
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
        return subparser

    enh = command("enhance", help="reconstruct a speech phase for one noisy WAV")
    enh.add_argument("noisy", help="noisy input WAV (mono PCM16/float32)")
    enh.add_argument("--method", choices=METHODS, default="nm", help="reconstruction method")
    enh.add_argument("--out", required=True, help="enhanced output WAV path")
    enh.add_argument("--oracle-clean", help="clean reference WAV")
    enh.add_argument("--oracle-noise", help="noise reference WAV")
    enh.add_argument(
        "--perturb-std",
        type=_nonneg_float,
        default=0.0,
        help="degrade oracle estimates with this perturbation scale",
    )
    enh.add_argument("--perturb-seed", type=_nonneg_int, default=0, help="perturbation seed")
    _add_loop_flags(enh)
    enh.add_argument("--seed", type=_nonneg_int, default=ReconConfig.seed, help="seed for random initialization")
    enh.add_argument("--encoding", choices=ENCODINGS, default="float32", help="output encoding")
    enh.add_argument("--metrics-out", help="metrics JSON path (default: next to --out)")
    _add_stft_flags(enh)
    enh.set_defaults(func=cmd_enhance)

    exp = command("oracle-exp", help="run the oracle/perturbed provider matrix on synthetic mixtures")
    exp.add_argument("--out-dir", required=True, help="output directory")
    exp.add_argument("--methods", nargs="+", choices=METHODS, default=["nm", "np"], help="methods to run")
    exp.add_argument("--snr-grid", nargs="+", type=_snr_db, default=[-6.0, 0.0, 6.0], help="mixture SNRs in dB")
    exp.add_argument("--seeds", nargs="+", type=_nonneg_int, default=[0, 1, 2, 3, 4], help="mixture seeds")
    exp.add_argument("--noise-std", type=_nonneg_float, default=0.3, help="perturbed-oracle scale")
    exp.add_argument("--provider-seed", type=_nonneg_int, default=0, help="perturbation seed")
    exp.add_argument("--kind", choices=MIXTURE_KINDS, default=MixtureSpec.kind, help="mixture kind")
    exp.add_argument("--duration", type=_pos_float, default=MixtureSpec.duration_s, help="mixture duration in seconds")
    exp.add_argument("--sample-rate", type=_pos_int, default=DEFAULT_SAMPLE_RATE, help="sample rate")
    _add_loop_flags(exp)
    exp.add_argument(
        "--jobs",
        type=_pos_int,
        default=_usable_cpus(),
        help="mixtures run in parallel threads, the CPUs this process may use by default",
    )
    _add_stft_flags(exp)
    exp.set_defaults(func=cmd_oracle_exp)

    cand = command("candidates", help="audit per-bin geometric phase candidates against the true phase")
    cand.add_argument("noisy", help="noisy WAV")
    cand.add_argument("clean", help="aligned clean WAV")
    cand.add_argument("noise", help="aligned noise WAV")
    cand.add_argument("--law", choices=("cos", "sin"), default="cos", help="candidate construction")
    cand.add_argument("--out", required=True, help="per-bin CSV output path")
    _add_stft_flags(cand)
    cand.set_defaults(func=cmd_candidates)

    ana = command("analyze", help="write speech/noise phase-error maps and an energy-split summary")
    ana.add_argument("--clean", required=True, help="clean WAV")
    ana.add_argument("--noise", required=True, help="aligned noise WAV")
    ana.add_argument("--out-dir", required=True, help="output directory")
    ana.add_argument("--noise-std", type=_nonneg_float, default=0.3, help="phase perturbation scale")
    ana.add_argument("--seed", type=_nonneg_int, default=0, help="perturbation seed")
    ana.add_argument(
        "--scale-by-energy",
        action="store_true",
        help="scale perturbations by speech energy (complementary error pattern)",
    )
    ana.add_argument("--snr-db", type=_snr_db, help="rescale noise to this SNR first")
    _add_stft_flags(ana)
    ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go right after the command, so explicit flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *args.config, *argv[at:]])
        cfg = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
        return args.func(cfg, _stft_config(cfg))
    except SystemExit as exc:
        return int(exc.code or 0)
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
