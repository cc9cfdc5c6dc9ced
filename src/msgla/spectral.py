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

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
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

# Arrays of at least this many elements have their per-row kernels split
# across two threads (``_halves``); below it one call on one thread is faster.
# Five nm iterations broke even between 95 and 126 frames of 257 bins.
_SPLIT_MIN = 1 << 15


def _start_helper() -> None:
    # The helper runs the first half of the rows of each split call
    # (``_halves``); its thread starts with the first split call. A forked
    # child inherits no thread of its parent, so it gets a helper of its own.
    global _helper
    _helper = ThreadPoolExecutor(1, thread_name_prefix="msgla-halves")


_start_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_helper)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _halves(fn, rows: int, size: int) -> None:
    """Run ``fn(lo, hi)`` over rows ``0:rows``, split in two halves run at once.

    The helper thread runs ``fn(0, rows // 2)`` while the caller runs
    ``fn(rows // 2, rows)``; if the helper has not started its half when the
    caller's is done (it is busy with another caller's, or slow to wake),
    the caller takes that half back and runs it too. ``fn`` writes its rows
    into outputs allocated beforehand and reads nothing the other half
    writes; every kernel split this way computes each row the same whatever
    rows share its call, so a split result is bit-identical to
    ``fn(0, rows)``. That one call is made instead when the array has fewer
    than ``_SPLIT_MIN`` elements (``size``) or when fewer than two CPUs are
    usable. The helper runs ``fn`` in a copy of the caller's context, so
    numpy's ``errstate`` applies there too, and an error it raises is raised
    in the caller. ``fn`` must call numpy and private helpers only.
    """
    if size < _SPLIT_MIN or rows < 2 or _usable_cpus() < 2:
        fn(0, rows)
        return
    half = rows // 2
    # The helper reaches fn through this list, emptied before the call
    # returns: a work item the caller took back stays queued until the helper
    # reaches it, and must not keep the call's arrays until then.
    held = [fn]
    top = _helper.submit(contextvars.copy_context().run, lambda: held[0](0, half))
    try:
        fn(half, rows)
        if top.cancel():
            fn(0, half)
        else:
            top.result()
    finally:
        # After an error, take the helper's half back unrun or wait until it is done.
        if not top.cancel():
            top.exception()
        held.clear()


def _elementwise(fn, *arrays, dtype=None) -> np.ndarray:
    """``fn(*arrays, out=out)`` over arrays of one shape, in halves of their elements.

    ``fn`` is an elementwise ufunc, or a private function of flat slices that
    writes its ``out``. ``out`` is a new array of the arrays' shape and of
    ``dtype``, by default numpy's promotion of the arrays; for 0-d arrays it
    is a numpy scalar, as numpy's own ufuncs return.
    """
    out = np.empty(np.shape(arrays[0]), dtype=np.result_type(*arrays) if dtype is None else dtype)
    if out.size < _SPLIT_MIN:
        # _halves would make this one call too, after flattening every array.
        fn(*arrays, out=out)
    else:
        flats, out_flat = [a.reshape(-1) for a in arrays], out.reshape(-1)

        def part(lo, hi):
            fn(*(a[lo:hi] for a in flats), out=out_flat[lo:hi])

        _halves(part, out.size, out.size)
    return out if out.ndim else out[()]


def _turn(shifted: np.ndarray, out: np.ndarray) -> None:
    # np.mod by one turn of values in [-2*pi, 4*pi), piecewise: each add or
    # subtract of 2*pi rounds exactly as np.mod does, and the subtraction also
    # catches a negative value that the addition rounded up to 2*pi. ``out``
    # holds each turn (2*pi or 0) until it takes the result, minus pi;
    # ``shifted``, a temporary of wrap_phase, is changed in place.
    np.less(shifted, 0.0, out=out)
    shifted += np.multiply(out, _TWO_PI, out=out)
    np.greater_equal(shifted, _TWO_PI, out=out)
    shifted -= np.multiply(out, _TWO_PI, out=out)
    np.subtract(shifted, np.pi, out=out)


def wrap_phase(angles) -> np.ndarray:
    """Map angles into the principal interval [-pi, pi).

    The result is ``np.mod(angles + pi, 2*pi) - pi`` bit for bit, except that
    a tiny negative ``angles + pi``, which ``np.mod`` rounds up to exactly
    2*pi, maps to -pi rather than +pi.
    """
    shifted = _real("angles", angles) + np.pi
    if not (shifted.size and shifted.min() >= -_TWO_PI and shifted.max() < 2.0 * _TWO_PI):
        # into [0, 2*pi]: a 2*pi that np.mod rounded up to, _turn takes to -pi
        shifted = np.mod(shifted, _TWO_PI)
    return _elementwise(_turn, shifted)


def angular_distance(a, b) -> np.ndarray:
    """Absolute wrapped difference between two angles, in [0, pi]."""
    return np.abs(wrap_phase(_real("a", a) - _real("b", b)))


def _whole_number(name: str, value, positive: bool) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is a whole
    number, and positive or non-negative as ``positive`` says."""
    try:
        whole = int(value) == value and value >= int(positive)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a {'positive' if positive else 'non-negative'} integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> np.ndarray:
    """``value`` as a float64 array; ``ValueError`` naming ``name`` if it is complex,
    whose imaginary part a cast would drop with only a warning."""
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real, got complex values")
    return np.asarray(value, dtype=np.float64)


def _estimate(name: str, value, shape, *, nonnegative: bool = True) -> np.ndarray:
    """``value`` as a float64 array; ``ValueError`` naming ``name`` unless it has
    the mixture's ``shape`` and finite values, non-negative as ``nonnegative`` says.

    Every public function checks each estimate it takes here, before any work.
    """
    arr = _real(name, value)
    if arr.shape != shape:
        raise ValueError(f"{name} shape {arr.shape} does not match the mixture's shape {shape}")
    # The least and greatest values are NaN if any value is, and infinite if any is.
    low, high = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError(f"{name} contains non-finite values")
    if nonnegative and low < 0:
        raise ValueError(f"{name} contains negative values")
    return arr


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
            object.__setattr__(self, "fft_length", self.window_length)
        for name in ("window_length", "hop_length", "fft_length"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name), positive=True))
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
        self.sample_rate = _whole_number("sample_rate", self.sample_rate, positive=True)

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
        self.values, self.origin_length = _grid(self.values, self.config, self.origin_length)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrogram contains non-finite values")
        self.sample_rate = _whole_number("sample_rate", self.sample_rate, positive=True)


def _grid(values, cfg: StftConfig, origin_length) -> tuple[np.ndarray, int]:
    """``values`` as a complex128 array and ``origin_length`` as an int, on one STFT grid.

    ``ValueError`` naming the field unless ``values`` is 2-D with ``cfg.n_bins``
    bins and ``origin_length`` is a whole number of samples that ``cfg`` can
    analyze (``_check_analyzable``) into as many frames as ``values`` has: the
    grids ``stft`` produces. Every inversion holds this rule before its first FFT.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2 or values.shape[1] != cfg.n_bins:
        raise ValueError(f"values must be a (frames, {cfg.n_bins}) array for this config, got shape {values.shape}")
    length = _whole_number("origin_length", origin_length, positive=False)
    _check_analyzable(f"origin_length {length}", length, cfg)
    frames = frame_count(length, cfg)
    if frames != values.shape[0]:
        raise ValueError(
            f"origin_length {length} is analyzed into {frames} frames, but the spectrogram has {values.shape[0]}"
        )
    return values, length


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def frame_count(n_samples: int, cfg: StftConfig) -> int:
    """Number of analysis frames produced for a signal of ``n_samples``."""
    return _ceil_div(n_samples, cfg.hop_length) + 1


def canonical_length(n_frames: int, cfg: StftConfig) -> int:
    """Longest signal length analyzed into exactly ``n_frames`` frames; ``ValueError``
    naming ``n_frames`` unless it is a positive whole number and some signal
    that ``cfg`` can analyze has that many frames."""
    n_frames = _whole_number("n_frames", n_frames, positive=True)
    length = (n_frames - 1) * cfg.hop_length
    _check_analyzable(f"n_frames {n_frames} ({length} samples)", length, cfg)
    return length


def _check_analyzable(subject: str, length: int, cfg: StftConfig) -> None:
    """``ValueError`` naming ``subject`` unless ``cfg`` can analyze ``length`` samples: centered
    frames mirror half a window of samples past each end, so one sample more is the least."""
    shortest = cfg.window_length // 2 + 1
    if length < shortest:
        raise ValueError(
            f"{subject} is too short for centered analysis with window {cfg.window_length}, "
            f"which needs at least {shortest} samples"
        )


def _analyze(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    n = x.shape[0]
    _check_analyzable(f"signal of length {n}", n, cfg)
    w, hop = cfg.window_length, cfg.hop_length
    frames = frame_count(n, cfg)
    pad = w // 2
    # One buffer holds the reflect padding, the signal and the zero tail that
    # fills the last frame; (frames - 1) * hop + w >= n + 2 * pad always.
    padded = np.zeros((frames - 1) * hop + w)
    padded[pad : pad + n] = x
    padded[:pad] = x[pad:0:-1]
    padded[pad + n : n + 2 * pad] = x[-2 : -pad - 2 : -1]
    step = padded.strides[0]
    segments = as_strided(padded, (frames, w), (hop * step, step), writeable=False)
    windowed = np.empty((frames, w))
    out = np.empty((frames, cfg.n_bins), dtype=np.complex128)
    window = cfg.window()

    def rows(lo, hi):
        np.multiply(segments[lo:hi], window, out=windowed[lo:hi])
        np.fft.rfft(windowed[lo:hi], n=cfg.fft_length, axis=1, out=out[lo:hi])

    _halves(rows, frames, out.size)
    return out


def _overlap_add(segments: np.ndarray, hop: int) -> np.ndarray:
    """Sum frame ``m`` of ``segments`` into samples ``m*hop ...``.

    The output is ``hop`` samples a row, and row ``r`` sums, per hop-sized
    offset ``k`` within the window, that part of frame ``r - k``: one
    vectorized add per offset. Offsets run from last to first, so every
    sample sums its frames in frame order, as a frame-by-frame loop would.
    """
    frames, w = segments.shape
    offsets = _ceil_div(w, hop)
    acc = np.zeros((frames + offsets - 1, hop))
    for k in reversed(range(offsets)):
        start = k * hop
        width = min(hop, w - start)
        acc[k : k + frames, :width] += segments[:, start : start + width]
    return acc.reshape(-1)[: (frames - 1) * hop + w]


@lru_cache(maxsize=DENOMINATOR_CACHE_SIZE)
def _fold_indices(pad: int, length: int) -> tuple[np.ndarray, ...]:
    """Source samples and the buffer positions whose reflections land on them, read-only;
    a signal that can be analyzed (``length > pad``) reflects each padding sample once."""
    q = np.arange(pad)
    indices = (q + 1, pad - 1 - q, length - 2 - q, pad + length + q)
    for index in indices:
        index.setflags(write=False)
    return indices


def _fold(buffer: np.ndarray, cfg: StftConfig, length: int) -> np.ndarray:
    """Map the overlap-added buffer of a signal's frames onto its ``length`` samples.

    On the STFT grid (``_grid``) the buffer covers every sample and its reflections.
    """
    pad = cfg.window_length // 2
    out = buffer[pad : pad + length].copy()
    # Fold the windowed energy that landed on reflected padding back onto
    # the source samples; with this, synthesis is the exact least-squares
    # inverse of the centered analysis operator.
    t_left, p_left, t_right, p_right = _fold_indices(pad, length)
    out[t_left] += buffer[p_left]
    out[t_right] += buffer[p_right]
    return out


def _check_invertible(cfg: StftConfig) -> None:
    """Raise ``ValueError`` when ``cfg`` cannot invert a long signal.

    A signal of two windows already holds every hop offset of the
    overlap-added window power away from its ends, where the power repeats
    with the hop. ``_denominator`` checks the ends of each signal as it is
    synthesized.
    """
    _denominator(cfg, frame_count(2 * cfg.window_length, cfg), 2 * cfg.window_length)


@lru_cache(maxsize=DENOMINATOR_CACHE_SIZE)
def _denominator(cfg: StftConfig, frames: int, length: int) -> np.ndarray:
    """Folded overlap-added window power of the ``length`` samples, read-only.

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
    values, length = _grid(values, cfg, origin_length)
    frames = values.shape[0]
    core = _denominator(cfg, frames, length)
    w = cfg.window_length
    segments = np.empty((frames, cfg.fft_length))
    window = cfg.window()

    def rows(lo, hi):
        np.fft.irfft(values[lo:hi], n=cfg.fft_length, axis=1, out=segments[lo:hi])
        segments[lo:hi, :w] *= window

    _halves(rows, frames, segments.size)
    out = _fold(_overlap_add(segments[:, :w], cfg.hop_length), cfg, length)
    out /= core
    return out


def stft(x: Waveform, cfg: StftConfig | None = None) -> Spectrogram:
    """One-sided complex spectrogram of ``x``.

    Frames are centered on multiples of the hop size: the signal is reflect
    padded by half a window at each end, and the tail is zero-padded to fill
    the last frame.
    """
    cfg = cfg if cfg is not None else StftConfig()
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
    return _elementwise(np.abs, values, dtype=np.float64), wrap_phase(_angle(values))


def _angle(values: np.ndarray) -> np.ndarray:
    """``np.angle(values)`` of a complex array, which is this arctan2."""
    return _elementwise(np.arctan2, values.imag, values.real)


def _cis(phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _expj(phase: np.ndarray) -> np.ndarray:
    """``exp(1j * phase)`` written as one cosine and one sine, cheaper than the complex exp."""
    return _elementwise(_cis, phase, dtype=np.complex128)


def recompose(mag, phase) -> np.ndarray:
    """Complex array ``mag * exp(j * phase)``."""
    mag, phase = _real("mag", mag), _real("phase", phase)
    if mag.shape != phase.shape:
        raise ValueError(f"magnitude shape {mag.shape} does not match phase shape {phase.shape}")
    return _elementwise(np.multiply, mag, _expj(phase))


def project_values(values, cfg: StftConfig, origin_length: int) -> np.ndarray:
    """Nearest consistent spectrogram to ``values``: ``stft(istft(values))``.

    ``origin_length`` is the length of the intermediate time signal, and must
    analyze into as many frames as ``values`` has.
    """
    return _analyze(_synthesize(values, cfg, origin_length), cfg)
