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
import queue
import threading
from dataclasses import dataclass
from functools import lru_cache, partial

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

# Held while a caller uses the helper thread; a second caller runs serially.
_helper_free = threading.Lock()
# The helper thread's task queue, once the thread is started.
_helper: queue.SimpleQueue | None = None


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        tasks.get()()


def _forget_helper() -> None:
    # A forked child has no helper thread and may inherit the lock held.
    global _helper, _helper_free
    _helper, _helper_free = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _TopHalf:
    """Rows ``0:rows`` of one split call, run by whichever thread claims them first.

    The helper claims them when it starts; the caller tries once its own half
    is done, so a helper that has not started by then costs the caller no wait.
    """

    def __init__(self, fn, rows: int) -> None:
        self.fn, self.rows = fn, rows
        self.claimed = threading.Lock()
        # Held until the rows are done; released by the thread that ran them.
        self.done = threading.Lock()
        self.done.acquire()
        self.error: BaseException | None = None

    def run(self) -> bool:
        """Run the rows unless the other thread claimed them first; False if it did."""
        if not self.claimed.acquire(blocking=False):
            return False
        try:
            self.fn(0, self.rows)
        except BaseException as exc:  # raised again by the caller
            self.error = exc
        finally:
            # Let go of the call's arrays before the caller goes on, so that
            # they are freed where a serial run frees them.
            self.fn = None
            self.done.release()
        return True

    def finish(self) -> None:
        """The caller's part: run the rows or wait for the helper's run; raise its error."""
        if not self.run():
            self.done.acquire()
        if self.error is not None:
            raise self.error

    def cancel(self) -> None:
        """The caller's part after its own half failed: claim the rows unrun, or wait."""
        if not self.claimed.acquire(blocking=False):
            self.done.acquire()


def _halves(fn, rows: int, size: int) -> None:
    """Run ``fn(lo, hi)`` over rows ``0:rows``, split in two halves run at once.

    The helper thread runs ``fn(0, rows // 2)`` while the caller runs
    ``fn(rows // 2, rows)``; if the helper has not started its half when the
    caller's is done, the caller runs that half too. ``fn`` writes its rows
    into outputs allocated beforehand and reads nothing the other half
    writes; every kernel split this way computes each row the same whatever
    rows share its call, so a split result is bit-identical to
    ``fn(0, rows)``. That one call is made instead when the array has fewer
    than ``_SPLIT_MIN`` elements (``size``), when fewer than two CPUs are
    usable, or when another caller holds the helper. The helper runs ``fn``
    in a copy of the caller's context, so numpy's ``errstate`` applies there
    too. ``fn`` must call numpy and private helpers only.
    """
    global _helper
    if size < _SPLIT_MIN or rows < 2 or _usable_cpus() < 2 or not _helper_free.acquire(blocking=False):
        fn(0, rows)
        return
    try:
        if _helper is None:
            _helper = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_helper,), name="msgla-halves", daemon=True).start()
        top = _TopHalf(fn, rows // 2)
        _helper.put(partial(contextvars.copy_context().run, top.run))
        try:
            fn(rows // 2, rows)
        except BaseException:
            top.cancel()
            raise
        top.finish()
    finally:
        _helper_free.release()


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


def wrap_phase(angles) -> np.ndarray:
    """Map angles into the principal interval [-pi, pi).

    The result is ``np.mod(angles + pi, 2*pi) - pi`` bit for bit, except that
    a tiny negative ``angles + pi``, which ``np.mod`` rounds up to exactly
    2*pi, maps to -pi rather than +pi.
    """
    angles = np.asarray(angles, dtype=np.float64)
    # One dimension also for a 0-d input, so that the halves below can slice it.
    shifted = angles.reshape(-1) + np.pi
    wrapped = np.empty(shifted.shape)
    if shifted.size and shifted.min() >= -_TWO_PI and shifted.max() < 2.0 * _TWO_PI:

        def turn(lo, hi):
            # np.mod by one turn, piecewise: each add or subtract of 2*pi rounds
            # exactly as np.mod does, and the subtraction also catches a negative
            # value that the addition rounded up to 2*pi. The output rows hold
            # each turn (2*pi or 0) until they take the result.
            part, turns = shifted[lo:hi], wrapped[lo:hi]
            np.less(part, 0.0, out=turns)
            part += np.multiply(turns, _TWO_PI, out=turns)
            np.greater_equal(part, _TWO_PI, out=turns)
            part -= np.multiply(turns, _TWO_PI, out=turns)
            np.subtract(part, np.pi, out=turns)

        _halves(turn, shifted.size, shifted.size)
    else:
        shifted = np.mod(shifted, _TWO_PI)
        np.subtract(np.where(shifted == _TWO_PI, 0.0, shifted), np.pi, out=wrapped)
    wrapped = wrapped.reshape(angles.shape)
    return wrapped if wrapped.ndim else wrapped[()]


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
    vectorized add per offset over a band of rows. Offsets run from last to
    first, so every sample sums its frames in frame order, as a
    frame-by-frame loop would, however the rows are banded.
    """
    frames, w = segments.shape
    offsets = _ceil_div(w, hop)
    acc = np.zeros((frames + offsets - 1, hop))

    def rows(lo, hi):
        for k in reversed(range(offsets)):
            first, last = max(lo - k, 0), min(hi - k, frames)
            if first < last:
                start = k * hop
                width = min(hop, w - start)
                acc[first + k : last + k, :width] += segments[first:last, start : start + width]

    _halves(rows, acc.shape[0], acc.size)
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


def _fold(buffer: np.ndarray, cfg: StftConfig, length: int) -> tuple[np.ndarray, int]:
    """Map an overlap-added buffer onto the ``length`` source samples.

    Returns them with the count the buffer covers; the samples past it are 0.
    """
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
    out[covered:] = 0.0
    return out, covered


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
    folded, covered = _fold(_overlap_add(wsq, cfg.hop_length), cfg, length)
    core = folded[:covered]
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
    frames = values.shape[0]
    core = _denominator(cfg, frames, length)
    w = cfg.window_length
    segments = np.empty((frames, cfg.fft_length))
    window = cfg.window()

    def rows(lo, hi):
        np.fft.irfft(values[lo:hi], n=cfg.fft_length, axis=1, out=segments[lo:hi])
        segments[lo:hi, :w] *= window

    _halves(rows, frames, segments.size)
    out, covered = _fold(_overlap_add(segments[:, :w], cfg.hop_length), cfg, length)
    out[:covered] /= core
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
    mag = np.asarray(mag, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    if mag.shape != phase.shape:
        raise ValueError(f"magnitude shape {mag.shape} does not match phase shape {phase.shape}")
    return _elementwise(np.multiply, mag, _expj(phase))


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
