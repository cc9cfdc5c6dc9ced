"""Short-time Fourier analysis, least-squares synthesis, and the consistency projection.

Every reconstruction loop in this package is built from three operations:
analysis (``stft``), synthesis (``istft``), and their composition
``stft(istft(.))`` which maps an arbitrary complex array onto the set of
spectrograms that belong to a real time signal ("consistent" spectrograms).

The synthesis implemented here is the exact least-squares inverse of the
analysis pipeline, including the reflect padding used for centered frames.
That makes the composition an orthogonal projection, which several
monotonicity guarantees in :mod:`msgla.reconstruct` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "DEFAULT_SAMPLE_RATE",
    "StftConfig",
    "Waveform",
    "Spectrogram",
    "wrap_phase",
    "angular_distance",
    "stft",
    "istft",
    "decompose",
    "recompose",
    "project_values",
    "canonical_length",
]

DEFAULT_SAMPLE_RATE = 16000

# Minimum summed squared-window power accepted during inversion.
COLA_FLOOR = 1e-12

# Distinct (config, frame count, origin length) triples whose overlap-added
# window power is kept; one entry is a float per output sample. The fold
# indices of synthesis are kept for as many signal geometries.
DENOMINATOR_CACHE_SIZE = 64

_TWO_PI = 2.0 * np.pi


def wrap_phase(angles) -> np.ndarray:
    """Map angles into the principal interval [-pi, pi).

    The result is ``np.mod(angles + pi, 2*pi) - pi`` bit for bit, except that
    a tiny negative ``angles + pi``, which ``np.mod`` rounds up to exactly
    2*pi, maps to -pi rather than +pi.
    """
    shifted = np.asarray(angles, dtype=np.float64) + np.pi
    if shifted.size and shifted.min() >= -_TWO_PI and shifted.max() < 2.0 * _TWO_PI:
        # np.mod by one turn, piecewise: each add or subtract of 2*pi rounds
        # exactly as np.mod does, and the subtraction also catches a negative
        # value that the addition rounded up to 2*pi.
        shifted += _TWO_PI * (shifted < 0.0)
        shifted -= _TWO_PI * (shifted >= _TWO_PI)
    else:
        shifted = np.mod(shifted, _TWO_PI)
        shifted = np.where(shifted == _TWO_PI, 0.0, shifted)
    return shifted - np.pi


def angular_distance(a, b) -> np.ndarray:
    """Absolute wrapped difference between two angles, in [0, pi]."""
    return np.abs(wrap_phase(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)))


@dataclass(frozen=True)
class StftConfig:
    """Transform configuration shared by analysis, synthesis and projection.

    Frames are centered (reflect padding) and windowed with a periodic Hann
    window. The defaults (512-sample window, 256-sample hop) match the experiments.
    """

    window_length: int = 512
    hop_length: int = 256
    fft_length: int | None = None

    def __post_init__(self) -> None:
        if self.fft_length is None:
            object.__setattr__(self, "fft_length", int(self.window_length))
        for name in ("window_length", "hop_length", "fft_length"):
            value = getattr(self, name)
            if int(value) != value or int(value) <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.hop_length > self.window_length:
            raise ValueError(
                f"hop_length ({self.hop_length}) must not exceed window_length ({self.window_length})"
            )
        if self.fft_length < self.window_length:
            raise ValueError(
                f"fft_length ({self.fft_length}) must be at least window_length ({self.window_length})"
            )

    @property
    def n_bins(self) -> int:
        return self.fft_length // 2 + 1

    def window(self) -> np.ndarray:
        """The analysis window; one shared read-only array per length."""
        return _window(self.window_length)


@lru_cache(maxsize=16)
def _window(length: int) -> np.ndarray:
    # Periodic Hann: the variant whose shifted squares overlap-add
    # to a strictly positive sum for hop <= window/2.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    window.setflags(write=False)
    return window


@dataclass
class Waveform:
    """Mono time-domain signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be one-dimensional, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate!r}")
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class Spectrogram:
    """Complex T-F array together with the transform that produced it.

    ``origin_length`` remembers the length of the time signal the array
    represents so that inversion restores the exact sample count.
    """

    values: np.ndarray
    config: StftConfig
    origin_length: int
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError(f"spectrogram must be two-dimensional, got shape {self.values.shape}")
        if self.values.shape[1] != self.config.n_bins:
            raise ValueError(
                f"spectrogram has {self.values.shape[1]} bins but config implies {self.config.n_bins}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrogram contains non-finite values")
        self.origin_length = int(self.origin_length)
        if self.origin_length < 0:
            raise ValueError("origin_length must be non-negative")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def frame_count(n_samples: int, cfg: StftConfig) -> int:
    """Number of analysis frames produced for a signal of ``n_samples``."""
    return _ceil_div(n_samples, cfg.hop_length) + 1


def canonical_length(n_frames: int, cfg: StftConfig) -> int:
    """Longest signal length analyzed into exactly ``n_frames`` frames."""
    if n_frames < 1:
        raise ValueError("a spectrogram needs at least one frame")
    return (n_frames - 1) * cfg.hop_length


def _analyze(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    n = x.shape[0]
    w, hop = cfg.window_length, cfg.hop_length
    frames = frame_count(n, cfg)
    pad = w // 2
    if n < pad + 1:
        raise ValueError(
            f"signal of length {n} is too short for centered analysis with window {w}"
        )
    # One buffer holds the reflect padding, the signal and the zero tail that
    # fills the last frame; (frames - 1) * hop + w >= n + 2 * pad always.
    padded = np.zeros((frames - 1) * hop + w)
    padded[pad : pad + n] = x
    padded[:pad] = x[pad:0:-1]
    padded[pad + n : n + 2 * pad] = x[::-1][1 : pad + 1]
    step = padded.strides[0]
    segments = as_strided(padded, (frames, w), (hop * step, step), writeable=False) * cfg.window()
    return np.fft.rfft(segments, n=cfg.fft_length, axis=1)


def _overlap_add(segments: np.ndarray, hop: int) -> np.ndarray:
    """Sum frame ``m`` of ``segments`` into samples ``m*hop ...``.

    One vectorized add per hop-sized offset within the window. Offsets run
    from last to first, so every sample sums its frames in frame order, as a
    frame-by-frame loop would.
    """
    frames, w = segments.shape
    offsets = _ceil_div(w, hop)
    acc = np.zeros((frames + offsets - 1, hop))
    for k in reversed(range(offsets)):
        lo = k * hop
        width = min(hop, w - lo)
        acc[k : k + frames, :width] += segments[:, lo : lo + width]
    return acc.reshape(-1)[: (frames - 1) * hop + w]


@lru_cache(maxsize=DENOMINATOR_CACHE_SIZE)
def _fold_indices(pad: int, length: int, total: int) -> tuple[np.ndarray, ...]:
    """Source samples and the buffer positions whose reflections land on them, read-only."""
    t_left = np.arange(1, min(pad, length - 1) + 1)
    q = np.arange(pad)
    t_right = length - 2 - q
    p_right = pad + length + q
    keep = (t_right >= 0) & (p_right < total)
    indices = (t_left, pad - t_left, t_right[keep], p_right[keep])
    for index in indices:
        index.setflags(write=False)
    return indices


def _fold(buffer: np.ndarray, cfg: StftConfig, length: int) -> np.ndarray:
    """Map an overlap-added buffer onto the ``length`` source samples."""
    pad = cfg.window_length // 2
    total = buffer.shape[0]
    out = np.zeros(length)
    covered = min(length, max(total - pad, 0))
    out[:covered] = buffer[pad : pad + covered]
    if length > 1:
        # Fold the windowed energy that landed on reflected padding back onto
        # the source samples; with this, synthesis is the exact least-squares
        # inverse of the centered analysis operator.
        t_left, p_left, t_right, p_right = _fold_indices(pad, length, total)
        out[t_left] += buffer[p_left]
        out[t_right] += buffer[p_right]
    return out[:covered]


def _check_invertible(cfg: StftConfig) -> None:
    """Raise ``ValueError`` when ``cfg`` cannot invert a long signal.

    Away from the signal's ends the overlap-added window power repeats with
    the hop: offset ``j`` within a hop sums the squared window at ``j``,
    ``j + hop``, ``j + 2 * hop``, ... ``_denominator`` checks the ends of
    each signal as it is synthesized.
    """
    power = np.bincount(np.arange(cfg.window_length) % cfg.hop_length, weights=cfg.window() ** 2)
    if power.min() < COLA_FLOOR:
        raise ValueError(
            f"overlap-added window power {power.min():.3g} at offset {int(power.argmin())} of the hop "
            f"is below {COLA_FLOOR}; a Hann window of {cfg.window_length} samples "
            f"with hop {cfg.hop_length} is not invertible"
        )


@lru_cache(maxsize=DENOMINATOR_CACHE_SIZE)
def _denominator(cfg: StftConfig, frames: int, length: int) -> np.ndarray:
    """Folded overlap-added window power of the covered samples, read-only.

    Raises ``ValueError`` when it falls below ``COLA_FLOOR`` anywhere.
    """
    window = cfg.window()
    wsq = np.broadcast_to(window * window, (frames, cfg.window_length))
    core = _fold(_overlap_add(wsq, cfg.hop_length), cfg, length)
    if np.any(core < COLA_FLOOR):
        t = int(np.argmax(core < COLA_FLOOR))
        raise ValueError(
            f"overlap-added window power {core[t]:.3g} at sample {t} is below {COLA_FLOOR}; "
            "this window/hop combination is not invertible"
        )
    core.setflags(write=False)
    return core


def _synthesize(values: np.ndarray, cfg: StftConfig, origin_length: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2 or values.shape[1] != cfg.n_bins:
        raise ValueError(
            f"expected a (frames, {cfg.n_bins}) array for this config, got shape {values.shape}"
        )
    length = int(origin_length)
    core = _denominator(cfg, values.shape[0], length)
    w = cfg.window_length
    segments = np.fft.irfft(values, n=cfg.fft_length, axis=1)[:, :w]
    segments *= cfg.window()
    folded = _fold(_overlap_add(segments, cfg.hop_length), cfg, length)
    folded /= core
    out = np.zeros(length)
    out[: core.shape[0]] = folded
    return out


def stft(x: Waveform, cfg: StftConfig | None = None) -> Spectrogram:
    """One-sided complex spectrogram of ``x``.

    Frames are centered on multiples of the hop size: the signal is reflect
    padded by half a window at each end, and the tail is zero-padded to fill
    the last frame.
    """
    cfg = cfg if cfg is not None else StftConfig()
    if len(x) == 0:
        raise ValueError("cannot analyze an empty signal")
    return Spectrogram(_analyze(x.samples, cfg), cfg, len(x), x.sample_rate)


def istft(s: Spectrogram) -> Waveform:
    """Least-squares overlap-add inversion, trimmed to ``s.origin_length``.

    Raises ``ValueError`` when the summed squared window falls below
    ``COLA_FLOOR`` at any sample the output depends on.
    """
    return Waveform(_synthesize(s.values, s.config, s.origin_length), s.sample_rate)


def decompose(s) -> tuple[np.ndarray, np.ndarray]:
    """Split a spectrogram (or complex array) into magnitude and phase.

    The phase of an exactly zero entry is defined as 0, and all phases are
    wrapped to [-pi, pi).
    """
    values = s.values if isinstance(s, Spectrogram) else np.asarray(s, dtype=np.complex128)
    return np.abs(values), wrap_phase(np.angle(values))


def _expj(phase: np.ndarray) -> np.ndarray:
    """``exp(1j * phase)`` written as one cosine and one sine, cheaper than the complex exp."""
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def recompose(mag, phase) -> np.ndarray:
    """Complex array ``mag * exp(j * phase)``."""
    mag = np.asarray(mag, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    if mag.shape != phase.shape:
        raise ValueError(f"magnitude shape {mag.shape} does not match phase shape {phase.shape}")
    return mag * _expj(phase)


def project_values(values, cfg: StftConfig, origin_length: int | None = None) -> np.ndarray:
    """Nearest consistent spectrogram to ``values``: ``stft(istft(values))``.

    ``origin_length`` fixes the length of the intermediate time signal; it
    defaults to the canonical length for the given frame count. Passing the
    true origin length makes consistent inputs exact fixed points.
    """
    values = np.asarray(values, dtype=np.complex128)
    if origin_length is None:
        origin_length = canonical_length(values.shape[0], cfg)
    return _analyze(_synthesize(values, cfg, origin_length), cfg)
