"""The per-row kernels split across two threads give bit-identical results.

``spectral._halves`` runs half of a kernel's rows on a helper thread. These
tests force the helper off (the size gate at its maximum) and on (the gate
low, two usable CPUs) and require the same bytes either way: per kernel on
hypothesis inputs, and end to end through ``enhance`` on a 10 s mixture.
They also pin the rules around the helper: the caller's numpy ``errstate``
holds there, a busy helper or a single CPU means a serial run, and no
function the benchmark's tracer wraps runs off the main thread. The paper's
loops written literally, in angles and ``exp``, are the reference of the
phasor loops.
"""

import ast
import itertools
import os
import signal
import sys
import threading
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgla import metrics, reconstruct, spectral
from msgla.geometry import cosine_phase_candidates, oracle_sign
from msgla.harness import synthesize_mixture
from msgla.metrics import inconsistency, phase_cos_sim
from msgla.reconstruct import METHODS, Estimates, ReconConfig, enhance, nm_msgla, np_msgla
from msgla.spectral import (
    Spectrogram,
    StftConfig,
    angular_distance,
    decompose,
    istft,
    project_values,
    recompose,
    stft,
    wrap_phase,
)

CFG = StftConfig()
SMALL_CFG = StftConfig(window_length=32, hop_length=16)
HELPER_THREAD = "msgla-halves"


@contextmanager
def _helper(on: bool, gate: int = 0):
    """Force the helper on (arrays of at least ``gate`` elements split) or off.

    Yields the names of the threads that ran a part of a split call.
    """
    threads = []
    halves = spectral._halves

    def recording(fn, rows, size):
        started = threading.Event()

        def part(lo, hi):
            name = threading.current_thread().name
            threads.append(name)
            if name == HELPER_THREAD:
                started.set()
            elif lo > 0:
                # The caller's half of a split call waits for the helper to
                # start its half, which a fast caller would otherwise take over.
                started.wait(timeout=10)
            return fn(lo, hi)

        return halves(part, rows, size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_SPLIT_MIN", gate if on else sys.maxsize)
        patch.setattr(spectral, "_usable_cpus", lambda: 2)
        patch.setattr(spectral, "_halves", recording)
        yield threads


def _bits(value):
    """Everything that two bit-identical results share."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


def _off_and_on(kernel, gate):
    with _helper(False):
        serial = kernel()
    with _helper(True, gate) as threads:
        split = kernel()
    return serial, split, threads


# Magnitudes down to the smallest subnormal, and angles on and just past the
# ends of [-pi, pi), sprinkled over ordinary values.
_MAGS = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-12, 1.0, 1e3])
_ANGLES = np.array([np.pi, -np.pi, np.nextafter(-np.pi, -np.inf), np.nextafter(np.pi, 0.0), 0.0, -0.0, -0.5])


class _Case:
    """Arrays of one ``(rows, width)`` shape, and a signal of ``rows`` frames of ``SMALL_CFG``."""

    def __init__(self, mag, angle, other_angle, signal):
        self.mag, self.angle, self.other_angle, self.signal = mag, angle, other_angle, signal
        with _helper(False):
            self.values = recompose(mag, angle)
            self.unit = spectral._expj(other_angle)
        self.length = spectral.canonical_length(len(mag), SMALL_CFG)

    @classmethod
    def drawn(cls, rows: int, seed: int, width: int = SMALL_CFG.n_bins):
        rng = np.random.default_rng(seed)
        shape = (rows, width)

        def sprinkle(values, special):
            hit = rng.random(shape) < 0.25
            values[hit] = rng.choice(special, hit.sum())
            return values

        return cls(
            sprinkle(rng.exponential(size=shape), _MAGS),
            sprinkle(rng.uniform(-np.pi, np.pi, shape), _ANGLES),
            sprinkle(rng.uniform(-np.pi, np.pi, shape), _ANGLES),
            rng.standard_normal(max(spectral.canonical_length(rows, SMALL_CFG), SMALL_CFG.window_length)),
        )


def _plain_phasor(z, values):
    # The normalisation of the loops as one serial pass: z where |values| is 0.
    out, mag = z.copy(), np.abs(values)
    nonzero = mag != 0
    np.divide(values.real, mag, out=out.real, where=nonzero)
    np.divide(values.imag, mag, out=out.imag, where=nonzero)
    return out


def _plain_wrap(angle):
    # wrap_phase on angles in [-2*pi, 2*pi] as one serial pass of temporaries.
    shifted = angle + np.pi
    shifted += 2.0 * np.pi * (shifted < 0.0)
    shifted -= 2.0 * np.pi * (shifted >= 2.0 * np.pi)
    return shifted - np.pi


def _plain_expj(angle):
    out = np.empty(angle.shape, dtype=np.complex128)
    out.real, out.imag = np.cos(angle), np.sin(angle)
    return out


# Each kernel, and the plain numpy form it must equal where it has one.
KERNELS = {
    "expj": (lambda c: spectral._expj(c.angle), lambda c: _plain_expj(c.angle)),
    "recompose": (lambda c: recompose(c.mag, c.angle), lambda c: c.mag * np.exp(1j * c.angle)),
    "decompose": (
        lambda c: decompose(c.values),
        lambda c: (np.abs(c.values), wrap_phase(np.angle(c.values))),
    ),
    "angle": (lambda c: spectral._angle(c.values), lambda c: np.angle(c.values)),
    "wrap_phase": (lambda c: wrap_phase(c.angle + c.other_angle), lambda c: _plain_wrap(c.angle + c.other_angle)),
    "wrap_phase_far": (lambda c: wrap_phase(40.0 * c.angle), None),
    "product": (lambda c: spectral._elementwise(np.multiply, c.mag, c.unit), lambda c: c.mag * c.unit),
    "difference": (lambda c: spectral._elementwise(np.subtract, c.values, c.unit), lambda c: c.values - c.unit),
    "phasor": (lambda c: reconstruct._phasor(c.unit, c.values), lambda c: _plain_phasor(c.unit, c.values)),
    "residual": (
        lambda c: reconstruct._residual(c.values, c.mag, c.unit),
        lambda c: c.values - c.mag * c.unit,
    ),
    "phase_cos_sim": (
        lambda c: phase_cos_sim(c.angle, c.other_angle),
        lambda c: float(np.cos(c.angle - c.other_angle).mean()),
    ),
    # These need rows of SMALL_CFG.n_bins bins.
    "analyze": (lambda c: spectral._analyze(c.signal, SMALL_CFG), None),
    "synthesize": (lambda c: spectral._synthesize(c.values, SMALL_CFG, c.length), None),
    "project_values": (lambda c: project_values(c.values, SMALL_CFG, c.length), None),
    "start": (
        lambda c: reconstruct._start(ReconConfig(), Spectrogram(c.values, SMALL_CFG, c.length)),
        lambda c: (decompose(c.values)[1], _plain_phasor(np.ones(c.values.shape, dtype=np.complex128), c.values)),
    ),
    "inconsistency": (lambda c: inconsistency(c.mag, c.angle, SMALL_CFG, c.length), None),
}
_SPECTRAL = ("analyze", "synthesize", "project_values", "start", "inconsistency")


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(3, 24),
    seed=st.integers(0, 2**32 - 1),
    gate=st.sampled_from([0, 64, 200]),
    width=st.sampled_from([1, SMALL_CFG.n_bins]),
)
def test_a_split_kernel_equals_its_serial_run(name, rows, seed, gate, width):
    # With a gate of 200 elements, shapes of up to 11 rows of 17 bins stay
    # serial. A width of 1 splits 3 elements into halves of 1 and 2.
    if name in _SPECTRAL:
        width = SMALL_CFG.n_bins
    case = _Case.drawn(rows, seed, width)
    kernel, plain = KERNELS[name]
    serial, split, threads = _off_and_on(lambda: kernel(case), gate)
    assert _bits(split) == _bits(serial)
    if plain is not None:
        assert _bits(serial) == _bits(plain(case))
    if rows * width >= gate and name != "wrap_phase_far":
        assert HELPER_THREAD in threads


@pytest.mark.parametrize("name", [k for k, (_, plain) in KERNELS.items() if plain and k not in _SPECTRAL])
def test_halves_of_one_element_equal_the_plain_form(name):
    # Every special magnitude under every special angle, alone in the
    # helper's half. Such halves took other paths in numpy: an in-place
    # product of one element rounded a subnormal product's zero imaginary
    # part to +0 where the plain product gives -0.
    kernel, plain = KERNELS[name]
    for mag, angle in itertools.product(_MAGS, _ANGLES):
        case = _Case(
            np.array([[mag], [1.0], [2.0]]),
            np.array([[angle], [0.25], [-3.0]]),
            np.array([[-angle], [angle], [1.0]]),
            np.zeros(SMALL_CFG.window_length),
        )
        serial, split, threads = _off_and_on(lambda: kernel(case), 0)
        assert _bits(split) == _bits(serial) == _bits(plain(case)), (mag, angle)
        assert HELPER_THREAD in threads


def test_overlap_add_sums_every_sample_in_frame_order_however_rows_are_split():
    rng = np.random.default_rng(3)
    for frames, w, hop in ((40, 32, 16), (41, 30, 7), (9, 512, 256), (2, 5, 5)):
        segments = rng.standard_normal((frames, w))
        serial, split, threads = _off_and_on(lambda: spectral._overlap_add(segments, hop), 0)
        assert _bits(split) == _bits(serial)
        assert HELPER_THREAD in threads
        expected = np.zeros((frames - 1) * hop + w)
        for m in range(frames):
            expected[m * hop : m * hop + w] += segments[m]
        assert _bits(serial) == _bits(expected)


def test_the_helper_runs_in_the_callers_numpy_errstate():
    # Only the helper's half, the first rows, divides by zero.
    num, den = np.ones(64), np.ones(64)
    den[0] = 0.0
    with _helper(True) as threads:
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                spectral._elementwise(np.divide, num, den)
        with np.errstate(divide="ignore"):
            quotient = spectral._elementwise(np.divide, num, den)
    assert quotient[0] == np.inf and np.all(quotient[1:] == 1.0)
    assert threads.count(HELPER_THREAD) == 2


def test_a_busy_helper_or_a_single_cpu_means_a_serial_run():
    case = _Case.drawn(20, 5)
    with _helper(False):
        expected = reconstruct._phasor(case.unit, case.values)
    with _helper(True) as threads:
        assert spectral._helper_free.acquire(timeout=10)
        try:
            busy = reconstruct._phasor(case.unit, case.values)
        finally:
            spectral._helper_free.release()
        assert HELPER_THREAD not in threads
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_usable_cpus", lambda: 1)
            single = reconstruct._phasor(case.unit, case.values)
        assert HELPER_THREAD not in threads
    assert _bits(busy) == _bits(expected) == _bits(single)


def test_the_caller_runs_the_helpers_half_if_the_helper_has_not_started():
    case = _Case.drawn(20, 6)
    with _helper(False):
        expected = reconstruct._phasor(case.unit, case.values)
    release, ran = threading.Event(), []
    halves = spectral._halves

    def recording(fn, rows, size):
        def part(lo, hi):
            ran.append((lo, threading.current_thread().name))
            return fn(lo, hi)

        return halves(part, rows, size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_SPLIT_MIN", 0)
        patch.setattr(spectral, "_usable_cpus", lambda: 2)
        spectral._elementwise(np.negative, np.ones(64))  # the helper thread exists
        spectral._helper.put(lambda: release.wait(timeout=30))  # and is held up
        patch.setattr(spectral, "_halves", recording)
        try:
            late = reconstruct._phasor(case.unit, case.values)
        finally:
            release.set()
    main = threading.main_thread().name
    assert ran == [(case.values.size // 2, main), (0, main)]
    with _helper(True) as threads:
        again = reconstruct._phasor(case.unit, case.values)
    assert _bits(late) == _bits(expected) == _bits(again)
    assert HELPER_THREAD in threads


def test_the_helper_keeps_no_array_of_a_finished_call():
    # When a split call returns, the helper holds nothing of it, so its
    # arrays are freed where a serial run frees them.
    values = np.ones(4096)
    before = sys.getrefcount(values)
    with _helper(True) as threads:
        result = spectral._elementwise(np.negative, values)
        held = sys.getrefcount(values) - before
    assert HELPER_THREAD in threads and np.all(result == -1.0)
    assert held == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper():
    # The child inherits no helper thread; without a fresh one its first
    # split call would wait forever (the alarm ends such a child).
    with _helper(True) as threads:
        spectral._elementwise(np.negative, np.ones(64))
        assert HELPER_THREAD in threads
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)
                threads.clear()
                if np.all(spectral._elementwise(np.negative, np.ones(64)) == -1.0) and HELPER_THREAD in threads:
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_the_helper_cpu_check_reads_the_affinity_set(monkeypatch):
    monkeypatch.setattr(spectral.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert spectral._usable_cpus() == 1
    monkeypatch.delattr(spectral.os, "sched_getaffinity", raising=False)
    assert spectral._usable_cpus() == 8


def test_callers_sharing_the_helper_neither_queue_nor_deadlock():
    # More threads than cores, each splitting large arrays, with a short
    # switch interval: every run completes and matches the serial one.
    noisy, est, _ = _ten_second_mixture()
    cfg = ReconConfig(iterations=2, trace=False)
    with _helper(False):
        expected = [enhance(noisy, m, est, cfg)[0].samples for m in ("nm", "np", "gla")]
    results, errors = {}, []

    def work(i):
        try:
            results[i] = enhance(noisy, ("nm", "np", "gla")[i % 3], est, cfg)[0].samples
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    with _helper(True, spectral._SPLIT_MIN) as threads:
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert all(_bits(results[i]) == _bits(expected[i % 3]) for i in range(6))
    assert HELPER_THREAD in threads


@lru_cache(maxsize=1)
def _ten_second_mixture():
    """A 10 s speech-shaped mixture at 0 dB (626 frames) with oracle estimates for every method."""
    tri = synthesize_mixture("speech_shaped", 0.0, 10.0, 16000, 4)
    with _helper(False):
        noisy = stft(tri.noisy, CFG)
        mag_speech, phase_speech = decompose(stft(tri.clean, CFG))
        mag_noise, phase_noise = decompose(stft(tri.noise, CFG))
        mag_mix, phase_mix = decompose(noisy)
        sign = oracle_sign(cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise), phase_speech)
    for array in (mag_speech, phase_speech, mag_noise, phase_noise):
        array.setflags(write=False)
    est = Estimates(mag_speech=mag_speech, mag_noise=mag_noise, phase_noise=phase_noise, sign=sign)
    return noisy, est, phase_speech


def _tracer_layers() -> dict:
    # Parsed, not imported, so that no bytecode is written under benchmarks/.
    source = (Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/tracer.py assigns no LAYERS")


def _enhance_every_method(noisy, est, ref_phase):
    """Each method's outputs and the metrics the benchmark's ``long_clip`` op takes of them."""
    out = []
    for method in METHODS:
        wave, report = enhance(noisy, method, est, ReconConfig(), ref_phase=ref_phase)
        measured = [
            report.final_inconsistency,
            metrics.phase_cos_sim(report.final_phase, ref_phase),
            metrics.inconsistency(est.mag_speech, report.final_phase, CFG, noisy.origin_length),
        ]
        traced = [(s.inconsistency, s.phase_cos_sim) for s in report.per_iteration]
        out.append((wave.samples, report.final_phase, np.array(measured), np.array(traced)))
    return out


@lru_cache(maxsize=1)
def _ten_second_runs():
    """Every method, traced with ``ref_phase``, helper off and on (the real
    gate); on the second run every function of the tracer's LAYERS records
    the thread it ran on, wherever a module binds it."""
    mixture = _ten_second_mixture()
    with _helper(False):
        serial = _enhance_every_method(*mixture)
    layer_threads = {}

    def recording(key, fn):
        def wrapper(*args, **kwargs):
            layer_threads.setdefault(key, set()).add(threading.current_thread().name)
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n == "msgla" or n.startswith("msgla.")]
    with _helper(True, spectral._SPLIT_MIN) as threads, pytest.MonkeyPatch.context() as patch:
        for layer, names in _tracer_layers().items():
            for name in names:
                original = getattr(sys.modules[f"msgla.{layer}"], name)
                wrapper = recording(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patch.setattr(module, attr, wrapper)
        split = _enhance_every_method(*mixture)
    return serial, split, layer_threads, threads


def test_enhance_on_a_ten_second_mixture_is_bit_identical_with_the_helper_on():
    noisy, _, _ = _ten_second_mixture()
    assert noisy.values.size >= spectral._SPLIT_MIN
    serial, split, _, threads = _ten_second_runs()
    assert _bits(tuple(map(tuple, split))) == _bits(tuple(map(tuple, serial)))
    assert threads.count(HELPER_THREAD) > 100


def test_no_traced_layer_runs_off_the_main_thread():
    _, _, layer_threads, threads = _ten_second_runs()
    main = threading.main_thread().name
    assert HELPER_THREAD in threads
    assert {"spectral.project_values", "spectral.decompose", "metrics.phase_cos_sim"} <= set(layer_threads)
    assert {key: names for key, names in layer_threads.items() if names != {main}} == {}


def _literal(noisy: Spectrogram, mag_speech, noise, iterations: int, law: str):
    """The paper's nm (``noise`` a magnitude) or np (``noise`` a phase) loop,
    in angles and ``exp``, with P = stft(istft(.)), from the mixture phase.

    Returns the speech phase and, per bin, the smallest modulus whose angle
    the loop took, relative to the mixture's largest.
    """
    x, cfg, length = noisy.values, noisy.config, noisy.origin_length
    scale = np.abs(x).max()
    floor = np.full(x.shape, np.inf)

    def project(values):
        return stft(istft(Spectrogram(values, cfg, length)), cfg).values

    def angle(values):
        np.minimum(floor, np.abs(values) / scale, out=floor)
        return np.angle(values)

    phase = angle(x)
    for _ in range(iterations):
        speech_phase = angle(project(mag_speech * np.exp(1j * phase)))
        noise_estimate = project(x - mag_speech * np.exp(1j * speech_phase))
        if law == "nm":
            phase = angle(x - noise * np.exp(1j * angle(noise_estimate)))
        else:
            phase = angle(x - np.abs(noise_estimate) * np.exp(1j * noise))
    return phase, floor


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["harmonic", "speech_shaped"]),
    snr_db=st.sampled_from([-6.0, 0.0, 6.0]),
    seed=st.integers(0, 2**16),
    spread=st.sampled_from([0.0, 0.3]),
    iterations=st.integers(1, 8),
)
def test_the_phasor_loops_follow_the_papers_literal_loops(kind, snr_db, seed, spread, iterations):
    # Bins where a modulus whose angle the literal loop took fell below 1e-4 of
    # the mixture's largest are degenerate: the phasor loops keep the phase at
    # exact zeros, and near them rounding decides the angle. Elsewhere the two
    # agree to 7.7e-12 rad over 72 cases of up to 20 iterations (measured).
    tri = synthesize_mixture(kind, snr_db, 0.25, 16000, seed)
    noisy = stft(tri.noisy, CFG)
    mag_speech, _ = decompose(stft(tri.clean, CFG))
    mag_noise, phase_noise = decompose(stft(tri.noise, CFG))
    rng = np.random.default_rng(seed)
    mag_speech = mag_speech * rng.lognormal(0.0, spread, mag_speech.shape)
    mag_noise = mag_noise * rng.lognormal(0.0, spread, mag_noise.shape)
    cfg = ReconConfig(iterations=iterations, trace=False)
    with _helper(True) as threads:
        loops = {
            "nm": (mag_noise, nm_msgla(noisy, mag_speech, mag_noise, cfg)),
            "np": (phase_noise, np_msgla(noisy, mag_speech, phase_noise, cfg)),
        }
    assert HELPER_THREAD in threads
    for law, (noise, report) in loops.items():
        phase, floor = _literal(noisy, mag_speech, noise, iterations, law)
        kept = floor > 1e-4
        assert kept.mean() > 0.1
        assert np.max(angular_distance(report.final_phase, phase)[kept]) <= 1e-9, law
