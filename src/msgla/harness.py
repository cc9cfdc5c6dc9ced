"""Synthetic mixtures, oracle/degraded estimate providers, and experiment runs.

The experiment runner reproduces, at desk scale, the oracle-versus-degraded
matrix: each reconstruction method is evaluated with every combination of a
speech-magnitude provider and a noise-quantity provider. Trained estimators
are replaced by a seeded perturbed oracle; output metadata labels them as
such.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import cosine_phase_candidates, oracle_sign
from .metrics import phase_cos_sim, plain_snr, si_snr
from .reconstruct import METHOD_NEEDS, Estimates, ReconConfig, enhance
from .spectral import DEFAULT_SAMPLE_RATE, Spectrogram, StftConfig, Waveform, decompose, stft, wrap_phase

__all__ = [
    "MixtureTriple",
    "MixtureSpec",
    "EstimateProvider",
    "ExperimentSpec",
    "ResultTable",
    "RESULT_COLUMNS",
    "MIXTURE_KINDS",
    "synthesize_mixture",
    "provide_estimates",
    "default_provider_pairs",
    "run_experiment",
    "perturb_magnitude",
    "perturb_phase",
]

log = logging.getLogger(__name__)

MIXTURE_KINDS = ("harmonic", "speech_shaped")
PROVIDER_KINDS = ("oracle", "perturbed_oracle")

HARMONIC_PARTIALS = 8
CLEAN_RMS = 0.05

# Stable per-quantity stream tags so perturbations are independent.
_QUANTITY_TAGS = {"mag_speech": 0, "mag_noise": 1, "phase_noise": 2}

RESULT_COLUMNS = [
    "row_kind",
    "method",
    "speech_provider",
    "noise_provider",
    "mixture_kind",
    "mixture_seed",
    "snr_db",
    "si_snr_db",
    "snr_db_plain",
    "phase_cos_sim",
    "inconsistency",
    "si_snr_noisy_db",
    "phase_cos_sim_noisy",
    "fingerprint",
]

_MEAN_COLUMNS = [
    "si_snr_db",
    "snr_db_plain",
    "phase_cos_sim",
    "inconsistency",
    "si_snr_noisy_db",
    "phase_cos_sim_noisy",
]


@dataclass
class MixtureTriple:
    """Aligned clean/noise/noisy waveforms; noisy = clean + noise samplewise."""

    clean: Waveform
    noise: Waveform
    noisy: Waveform
    snr_db: float
    seed: int


@dataclass(frozen=True)
class MixtureSpec:
    """Recipe for one synthetic mixture: the arguments of :func:`synthesize_mixture`."""

    kind: str = "harmonic"
    snr_db: float = 0.0
    duration_s: float = 0.5
    sample_rate: int = DEFAULT_SAMPLE_RATE
    seed: int = 0


@dataclass(frozen=True)
class EstimateProvider:
    """Source of spectral estimates: the exact oracle or a seeded perturbation of it."""

    kind: str = "oracle"
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"provider kind must be one of {PROVIDER_KINDS}, got {self.kind!r}")
        if not np.isfinite(self.noise_std) or self.noise_std < 0:
            raise ValueError(f"noise_std must be finite and non-negative, got {self.noise_std!r}")

    def label(self) -> str:
        if self.kind == "perturbed_oracle":
            return f"perturbed({self.noise_std:g})"
        return self.kind


def _harmonic_clean(n: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    # 8-partial tone with mild vibrato: strong quasi-stationary harmonic bins
    # plus a broad low-energy floor, the two regimes the experiments contrast.
    f0 = rng.uniform(110.0, 220.0)
    vib_rate = rng.uniform(4.0, 6.0)
    vib_depth = 0.005
    offsets = rng.uniform(-np.pi, np.pi, size=HARMONIC_PARTIALS)
    t = np.arange(n) / sample_rate
    inst_freq = f0 * (1.0 + vib_depth * np.sin(2.0 * np.pi * vib_rate * t))
    base_phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate
    clean = np.zeros(n)
    for k in range(1, HARMONIC_PARTIALS + 1):
        clean += np.sin(k * base_phase + offsets[k - 1]) / k
    rms = np.sqrt(np.mean(clean**2))
    return clean * (CLEAN_RMS / rms)


def _speech_shaped_noise(clean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # White noise colored by a smoothed magnitude envelope of the clean signal.
    white = rng.standard_normal(clean.shape[0])
    envelope = np.abs(np.fft.rfft(clean))
    width = max(len(envelope) // 64, 3)
    # np.convolve(envelope, np.ones(width), mode="same") / width, from one running sum.
    sums = np.cumsum(np.pad(envelope, (width // 2 + 1, (width - 1) // 2)))
    smoothed = (sums[width:] - sums[:-width]) / width
    smoothed = smoothed / smoothed.max() + 1e-3
    return np.fft.irfft(np.fft.rfft(white) * smoothed, n=clean.shape[0])


def _scale_noise(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db!r}")
    if np.isinf(snr_db):
        return np.zeros_like(noise)
    clean_norm = float(np.linalg.norm(clean))
    noise_norm = float(np.linalg.norm(noise))
    if noise_norm == 0.0:
        raise ValueError("noise signal is silent; cannot scale to a finite SNR")
    if clean_norm == 0.0:
        raise ValueError("clean signal is silent; SNR is undefined")
    gain = clean_norm / noise_norm * 10.0 ** (-snr_db / 20.0)
    return noise * gain


def synthesize_mixture(
    kind: str = "harmonic",
    snr_db: float = 0.0,
    duration_s: float = 0.5,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
) -> MixtureTriple:
    """Deterministically build an additive clean/noise/noisy triple.

    The noise is scaled so that ``10*log10(|clean|^2 / |noise|^2)`` equals
    ``snr_db`` exactly; ``snr_db = inf`` yields zero noise.
    """
    if kind not in MIXTURE_KINDS:
        raise ValueError(f"kind must be one of {MIXTURE_KINDS}, got {kind!r}")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    n = int(round(duration_s * sample_rate))
    rng = np.random.default_rng(seed)
    clean = _harmonic_clean(n, sample_rate, rng)
    if kind == "harmonic":
        noise = rng.standard_normal(n)
    else:
        noise = _speech_shaped_noise(clean, rng)
    noise = _scale_noise(clean, noise, snr_db)
    return MixtureTriple(
        clean=Waveform(clean, sample_rate),
        noise=Waveform(noise, sample_rate),
        noisy=Waveform(clean + noise, sample_rate),
        snr_db=snr_db,
        seed=seed,
    )


def perturb_magnitude(mag: np.ndarray, std: float, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative log-normal degradation, clamped to stay non-negative."""
    perturbed = mag * np.exp(std * rng.standard_normal(mag.shape))
    return np.maximum(perturbed, 0.0)


def perturb_phase(phase: np.ndarray, std: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian degradation, re-wrapped to [-pi, pi)."""
    return wrap_phase(phase + std * rng.standard_normal(phase.shape))


def _provided(provider: EstimateProvider, quantity: str, exact: dict, mixture_seed: int) -> np.ndarray:
    """One quantity as ``provider`` supplies it, from a mixture's exact spectra.

    ``exact`` maps quantity names to the mixture's exact arrays.
    """
    value = exact[quantity]
    if provider.kind == "perturbed_oracle" and provider.noise_std > 0:
        rng = np.random.default_rng([provider.seed, mixture_seed, _QUANTITY_TAGS[quantity]])
        if quantity.startswith("mag"):
            return perturb_magnitude(value, provider.noise_std, rng)
        return perturb_phase(value, provider.noise_std, rng)
    return value


def provide_estimates(provider: EstimateProvider, triple: MixtureTriple, stft_cfg: StftConfig) -> Estimates:
    """``mag_speech``, ``mag_noise`` and ``phase_noise`` as ``provider`` supplies them to a grid cell.

    Each array equals the grid's bit for bit. ``oracle`` passes the clean
    and noise spectra through as read-only arrays; ``perturbed_oracle``
    applies a seeded multiplicative log-normal perturbation to magnitudes and
    an additive wrapped Gaussian to phases.
    """
    _, spectra = _spectra(triple.noisy, triple.clean, triple.noise, stft_cfg)
    return Estimates(**{q: _provided(provider, q, spectra, triple.seed) for q in _QUANTITY_TAGS})


def default_provider_pairs(
    noise_std: float = 0.3, seed: int = 0
) -> list[tuple[EstimateProvider, EstimateProvider]]:
    """The 2x2 oracle/perturbed matrix, ordered exact-first."""
    exact = EstimateProvider("oracle")
    degraded = EstimateProvider("perturbed_oracle", noise_std=noise_std, seed=seed)
    return [(exact, exact), (exact, degraded), (degraded, exact), (degraded, degraded)]


@dataclass
class ExperimentSpec:
    """Full description of an experiment grid."""

    mixtures: list[MixtureSpec]
    methods: list[str] = field(default_factory=lambda: ["nm", "np"])
    provider_pairs: list[tuple[EstimateProvider, EstimateProvider]] = field(
        default_factory=default_provider_pairs
    )
    stft_cfg: StftConfig = field(default_factory=StftConfig)
    recon_cfg: ReconConfig = field(default_factory=lambda: ReconConfig(trace=False))

    def __post_init__(self) -> None:
        for method in self.methods:
            if method not in METHOD_NEEDS:
                raise ValueError(f"unknown method {method!r}")


@dataclass
class ResultTable:
    """Ordered rows of one experiment run."""

    columns: list[str]
    rows: list[dict]


def _spectra(
    noisy: Waveform, clean: Waveform | None, noise: Waveform | None, stft_cfg: StftConfig
) -> tuple[Spectrogram, dict[str, np.ndarray]]:
    """The noisy STFT and the read-only polar spectra ``mag_mix``, ``phase_mix``, ...

    ``mag_speech``/``phase_speech`` and ``mag_noise``/``phase_noise`` are
    present only when ``clean`` and ``noise`` are given.
    """
    noisy_spec = stft(noisy, stft_cfg)
    spectra = {}
    spectra["mag_mix"], spectra["phase_mix"] = decompose(noisy_spec)
    if clean is not None:
        spectra["mag_speech"], spectra["phase_speech"] = decompose(stft(clean, stft_cfg))
    if noise is not None:
        spectra["mag_noise"], spectra["phase_noise"] = decompose(stft(noise, stft_cfg))
    for array in spectra.values():
        array.setflags(write=False)
    return noisy_spec, spectra


def _estimates(
    method: str,
    spectra: dict[str, np.ndarray],
    pair: tuple[EstimateProvider, EstimateProvider],
    mixture_seed: int,
    supplied: dict | None = None,
) -> Estimates:
    """The estimates ``enhance`` consumes for ``method``, from one mixture's spectra.

    The pair's first provider supplies ``mag_speech``, its second the noise
    quantities; ``sign`` also gets the oracle sign field of the supplied
    magnitudes. ``passthrough`` takes a speech magnitude when the spectra hold
    one. ``supplied`` caches each (provider, quantity) estimate of the mixture
    as a read-only array.
    """
    supplied = {} if supplied is None else supplied
    needs = METHOD_NEEDS[method]
    if method == "passthrough" and "mag_speech" in spectra:
        needs = ("mag_speech",)
    estimates = Estimates()
    for quantity in needs:
        provider = pair[0] if quantity == "mag_speech" else pair[1]
        key = (provider, quantity)
        if key not in supplied:
            supplied[key] = _provided(provider, quantity, spectra, mixture_seed)
            supplied[key].setflags(write=False)
        setattr(estimates, quantity, supplied[key])
    if method == "sign":
        cand = cosine_phase_candidates(
            spectra["mag_mix"], spectra["phase_mix"], estimates.mag_speech, estimates.mag_noise
        )
        estimates.sign = oracle_sign(cand, spectra["phase_speech"])
    return estimates


@dataclass
class _MixtureContext:
    """One mixture's spectra, computed once and shared by all of its cells.

    ``spectra`` holds the read-only magnitude and phase of the noisy, clean
    and noise STFTs (``mag_mix``, ``phase_mix``, ``mag_speech``, ...).
    ``supplied`` caches each provider's estimate of each quantity.
    """

    spec: MixtureSpec
    triple: MixtureTriple
    noisy_spec: Spectrogram
    spectra: dict[str, np.ndarray]
    si_snr_noisy: float
    cos_sim_noisy: float
    supplied: dict[tuple[EstimateProvider, str], np.ndarray] = field(default_factory=dict)


def _mixture_context(spec: MixtureSpec, stft_cfg: StftConfig) -> _MixtureContext:
    triple = synthesize_mixture(spec.kind, spec.snr_db, spec.duration_s, spec.sample_rate, spec.seed)
    noisy_spec, spectra = _spectra(triple.noisy, triple.clean, triple.noise, stft_cfg)
    return _MixtureContext(
        spec=spec,
        triple=triple,
        noisy_spec=noisy_spec,
        spectra=spectra,
        si_snr_noisy=si_snr(triple.noisy, triple.clean),
        cos_sim_noisy=phase_cos_sim(spectra["phase_mix"], spectra["phase_speech"]),
    )


def _run_cell(
    ctx: _MixtureContext,
    method: str,
    pair: tuple[EstimateProvider, EstimateProvider] | None,
    recon_cfg: ReconConfig,
) -> dict:
    if pair is None:
        speech_label = noise_label = "-"
        estimates = Estimates()
    else:
        speech_label, noise_label = pair[0].label(), pair[1].label()
        estimates = _estimates(method, ctx.spectra, pair, ctx.spec.seed, ctx.supplied)

    enhanced, report = enhance(ctx.noisy_spec, method, estimates, recon_cfg)
    return {
        "row_kind": "cell",
        "method": method,
        "speech_provider": speech_label,
        "noise_provider": noise_label,
        "mixture_kind": ctx.spec.kind,
        "mixture_seed": ctx.spec.seed,
        "snr_db": ctx.spec.snr_db,
        "si_snr_db": si_snr(enhanced, ctx.triple.clean),
        "snr_db_plain": plain_snr(enhanced, ctx.triple.clean),
        "phase_cos_sim": phase_cos_sim(report.final_phase, ctx.spectra["phase_speech"]),
        "inconsistency": report.final_inconsistency,
        "si_snr_noisy_db": ctx.si_snr_noisy,
        "phase_cos_sim_noisy": ctx.cos_sim_noisy,
    }


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ResultTable:
    """Run every (method x provider pair x mixture) cell and append means.

    Cells run mixture by mixture: one mixture's spectra are computed once,
    shared by all of its cells and dropped before the next mixture. With
    ``jobs > 1`` a thread pool splits the mixtures, not the cells.

    Rows are grouped by method, then provider pair (exact-first order), then
    mixture, and the ordering is independent of ``jobs``. Mean rows, one per
    (method, provider pair), follow the cell rows. Rows carry no
    ``fingerprint``; ``audio_io.persist_run`` stamps the run's into that column.
    """
    cells = [
        (method, pair)
        for method in spec.methods
        for pair in (spec.provider_pairs if METHOD_NEEDS[method] else [None])
    ]

    def mixture_rows(mixture: MixtureSpec) -> list[dict]:
        ctx = _mixture_context(mixture, spec.stft_cfg)
        return [_run_cell(ctx, method, pair, spec.recon_cfg) for method, pair in cells]

    log.info(
        "running %d experiment cells over %d mixture(s) with %d worker(s)",
        len(cells) * len(spec.mixtures),
        len(spec.mixtures),
        jobs,
    )
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_mixture = list(pool.map(mixture_rows, spec.mixtures))
    else:
        per_mixture = [mixture_rows(mixture) for mixture in spec.mixtures]
    # Back to method -> pair -> mixture order: cell i of every mixture in turn.
    rows = [row for cell_rows in zip(*per_mixture) for row in cell_rows]

    groups: dict[tuple[str, str, str], list[dict]] = {}
    for row in rows:
        key = (row["method"], row["speech_provider"], row["noise_provider"])
        groups.setdefault(key, []).append(row)
    aggregates: list[dict] = []
    for (method, speech_label, noise_label), group in groups.items():
        aggregate = {
            "row_kind": "mean",
            "method": method,
            "speech_provider": speech_label,
            "noise_provider": noise_label,
            "mixture_kind": "",
            "mixture_seed": "",
            "snr_db": "",
        }
        for column in _MEAN_COLUMNS:
            aggregate[column] = float(np.mean([r[column] for r in group]))
        aggregates.append(aggregate)
    return ResultTable(columns=list(RESULT_COLUMNS), rows=rows + aggregates)
