"""Multi-source Griffin-Lim phase reconstruction for speech in additive noise.

The package splits into small, composable layers:

* :mod:`msgla.spectral` -- STFT/iSTFT and the consistency projection;
* :mod:`msgla.geometry` -- closed-form phase candidates and sign fields;
* :mod:`msgla.reconstruct` -- GLA and the two multi-source loops;
* :mod:`msgla.metrics` -- SI-SNR, phase cosine similarity, inconsistency;
* :mod:`msgla.harness` -- synthetic mixtures and oracle experiments;
* :mod:`msgla.audio_io` -- WAV files and deterministic run artifacts;
* :mod:`msgla.cli` -- the ``msgla`` command-line tool.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: E402
    DEFAULT_SAMPLE_RATE,
    Spectrogram,
    StftConfig,
    Waveform,
    angular_distance,
    decompose,
    istft,
    recompose,
    stft,
    wrap_phase,
)
from .geometry import (  # noqa: E402
    CosineCandidates,
    SignField,
    SineCandidates,
    apply_sign_field,
    cosine_phase_candidates,
    nearest_candidate_distance,
    oracle_sign,
    sine_phase_candidates,
)
from .metrics import (  # noqa: E402
    MetricRow,
    inconsistency,
    phase_cos_sim,
    phase_error_map,
    si_snr,
)
from .reconstruct import (  # noqa: E402
    Estimates,
    ReconConfig,
    ReconReport,
    enhance,
    gla,
    nm_msgla,
    np_msgla,
)
from .harness import (  # noqa: E402
    EstimateProvider,
    ExperimentSpec,
    MixtureSpec,
    MixtureTriple,
    provide_estimates,
    run_experiment,
    synthesize_mixture,
)
from .audio_io import RunArtifact, persist_run, read_wav, write_wav  # noqa: E402

__all__ = [
    "__version__",
    "DEFAULT_SAMPLE_RATE",
    "StftConfig",
    "Waveform",
    "Spectrogram",
    "stft",
    "istft",
    "decompose",
    "recompose",
    "wrap_phase",
    "angular_distance",
    "CosineCandidates",
    "SineCandidates",
    "SignField",
    "cosine_phase_candidates",
    "sine_phase_candidates",
    "apply_sign_field",
    "oracle_sign",
    "nearest_candidate_distance",
    "MetricRow",
    "si_snr",
    "phase_cos_sim",
    "inconsistency",
    "phase_error_map",
    "ReconConfig",
    "ReconReport",
    "Estimates",
    "gla",
    "nm_msgla",
    "np_msgla",
    "enhance",
    "MixtureTriple",
    "MixtureSpec",
    "EstimateProvider",
    "ExperimentSpec",
    "synthesize_mixture",
    "provide_estimates",
    "run_experiment",
    "RunArtifact",
    "read_wav",
    "write_wav",
    "persist_run",
]
