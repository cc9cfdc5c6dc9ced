from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msgla.spectral import (
    COLA_FLOOR,
    Spectrogram,
    StftConfig,
    Waveform,
    canonical_length,
    decompose,
    istft,
    project_values,
    recompose,
    _analyze,
    _check_invertible,
    _denominator,
    _fold_indices,
    _synthesize,
    frame_count,
    stft,
    wrap_phase,
)
from msgla.metrics import bin_weights, inconsistency


def _naive_dft(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """Independent oracle: direct-summation DFT of one frame."""
    n = np.arange(frame.shape[0])
    k = np.arange(n_fft // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(k, n) / n_fft)
    return basis @ frame


def test_config_defaults_and_validation():
    cfg = StftConfig()
    assert cfg.window_length == 512
    assert cfg.hop_length == 256
    assert cfg.fft_length == 512
    assert cfg.n_bins == 257
    # One geometry: centered frames, periodic Hann window.
    assert [f.name for f in fields(StftConfig)] == ["window_length", "hop_length", "fft_length"]
    n = np.arange(512)
    assert np.array_equal(cfg.window(), 0.5 - 0.5 * np.cos(2.0 * np.pi * n / 512))
    with pytest.raises(ValueError):
        StftConfig(window_length=256, hop_length=512)
    with pytest.raises(ValueError):
        StftConfig(fft_length=256)
    with pytest.raises(ValueError):
        StftConfig(hop_length=0)


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([1.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.zeros((2, 2)), 16000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 0)


def test_wrap_phase_range():
    angles = np.array([-np.pi, np.pi, 3.5 * np.pi, -7.25 * np.pi, 0.0])
    wrapped = wrap_phase(angles)
    assert np.all(wrapped >= -np.pi)
    assert np.all(wrapped < np.pi)
    assert np.allclose(np.exp(1j * wrapped), np.exp(1j * angles), atol=1e-12)


_PI_NEIGHBOURS = [
    float(np.nextafter(k * np.pi, direction))
    for k in (-3, -1, 1, 3)
    for direction in (-np.inf, np.inf)
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_PI_NEIGHBOURS)))
@example(_PI_NEIGHBOURS[2])  # just below -pi, where np.mod rounds up to 2*pi
def test_wrap_phase_range_and_congruence(angle):
    wrapped = wrap_phase(angle)
    assert -np.pi <= wrapped < np.pi
    turns = np.round((angle - wrapped) / (2 * np.pi))
    assert abs(angle - wrapped - turns * 2 * np.pi) < 1e-11


def test_stft_zero_signal_is_zero():
    x = Waveform(np.zeros(4000), 16000)
    s = stft(x)
    assert np.all(s.values == 0)
    assert s.origin_length == 4000


def test_stft_sinusoid_concentrates_in_bin():
    cfg = StftConfig()
    fs = 16000
    k = 40  # bin-centered frequency k*fs/fft_length
    t = np.arange(8192) / fs
    x = np.sin(2 * np.pi * (k * fs / cfg.fft_length) * t)
    s = stft(Waveform(x, fs), cfg)
    mags = np.abs(s.values)
    interior = mags[2:-2]
    # energy concentrated at bin k in every interior frame; the Hann main
    # lobe spans bins k-1..k+1, anything further is leakage-free
    assert np.all(np.argmax(interior, axis=1) == k)
    peak = interior[:, k]
    others = interior.copy()
    others[:, k - 1 : k + 2] = 0.0
    assert np.all(peak > 50 * others.max(axis=1))
    # cross-check one interior frame against the direct-summation oracle
    m = 8
    start = m * cfg.hop_length - cfg.window_length // 2
    frame = x[start : start + cfg.window_length] * cfg.window()
    assert np.allclose(s.values[m], _naive_dft(frame, cfg.fft_length), atol=1e-9)


def test_stft_frame_against_naive_dft():
    # Frame m is centered on sample 16 m, so frames 1..7 lie inside the signal.
    cfg = StftConfig(window_length=32, hop_length=16)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(128)
    s = stft(Waveform(x, 8000), cfg)
    window = cfg.window()
    for m in (1, 3, 7):
        frame = x[m * 16 - 16 : m * 16 + 16] * window
        assert np.allclose(s.values[m], _naive_dft(frame, cfg.fft_length), atol=1e-10)


@pytest.mark.parametrize("hop", [256, 128, 64])
@pytest.mark.parametrize("length", [8000, 8001, 7937])
def test_round_trip_exact(hop, length):
    cfg = StftConfig(hop_length=hop)
    rng = np.random.default_rng(hop + length)
    x = rng.standard_normal(length)
    y = istft(stft(Waveform(x, 16000), cfg))
    assert len(y) == length
    assert np.max(np.abs(y.samples - x)) < 1e-10 * np.max(np.abs(x))


def test_round_trip_with_fft_padding():
    cfg = StftConfig(window_length=512, hop_length=128, fft_length=1024)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(6000)
    y = istft(stft(Waveform(x, 16000), cfg))
    assert np.max(np.abs(y.samples - x)) < 1e-10


def test_istft_zero_spectrogram():
    cfg = StftConfig()
    s = Spectrogram(np.zeros((9, cfg.n_bins)), cfg, 2048, 16000)
    y = istft(s)
    assert np.all(y.samples == 0)
    assert len(y) == 2048


def test_istft_cola_violation_raises():
    # With the hop equal to the window, the Hann window's zeros line up
    # at every multiple of the hop: those samples have zero window power.
    cfg = StftConfig(hop_length=512)
    s = Spectrogram(np.ones((4, cfg.n_bins)), cfg, 1280, 16000)
    with pytest.raises(ValueError, match="overlap-added window power"):
        istft(s)


def test_stft_errors():
    with pytest.raises(ValueError, match="empty"):
        stft(Waveform(np.zeros(0), 16000))
    with pytest.raises(ValueError, match="too short"):
        stft(Waveform(np.zeros(10), 16000), StftConfig())


def test_linearity():
    cfg = StftConfig()
    rng = np.random.default_rng(23)
    x = rng.standard_normal(4000)
    y = rng.standard_normal(4000)
    a, b = 0.7, -1.3
    lhs = stft(Waveform(a * x + b * y, 16000), cfg).values
    rhs = a * stft(Waveform(x, 16000), cfg).values + b * stft(Waveform(y, 16000), cfg).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_decompose_trivials():
    cfg = StftConfig(window_length=4, hop_length=2)
    values = np.array([[1 + 0j, 1j, 0j]])
    mag, phase = decompose(Spectrogram(values, cfg, 4, 16000))
    assert np.allclose(mag, [[1.0, 1.0, 0.0]])
    assert np.allclose(phase, [[0.0, np.pi / 2, 0.0]])


def test_decompose_phase_range_and_zero_convention():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((20, 30)) + 1j * rng.standard_normal((20, 30))
    values[0, 0] = 0.0
    values[3, 4] = -1.0  # angle +pi wraps to -pi
    mag, phase = decompose(values)
    assert np.all(phase >= -np.pi)
    assert np.all(phase < np.pi)
    assert phase[0, 0] == 0.0
    assert phase[3, 4] == -np.pi
    assert np.allclose(recompose(mag, phase), values, atol=1e-12)


def test_recompose_trivials_and_round_trip():
    assert np.allclose(recompose([[2.0]], [[np.pi / 2]]), [[2j]], atol=1e-12)
    with pytest.raises(ValueError, match="shape"):
        recompose(np.zeros((2, 3)), np.zeros((3, 2)))
    rng = np.random.default_rng(9)
    mag = rng.uniform(0.1, 2.0, size=(8, 12))
    phase = rng.uniform(-4 * np.pi, 4 * np.pi, size=(8, 12))
    mag2, phase2 = decompose(recompose(mag, phase))
    assert np.allclose(mag2, mag, atol=1e-12)
    assert np.allclose(phase2, wrap_phase(phase), atol=1e-9)


def test_consistency_project_fixed_point():
    cfg = StftConfig()
    rng = np.random.default_rng(17)
    x = rng.standard_normal(5000)
    s = stft(Waveform(x, 16000), cfg)
    mag, phase = decompose(s)
    projected = project_values(recompose(mag, phase), cfg, s.origin_length)
    assert np.max(np.abs(projected - s.values)) < 1e-10


def test_consistency_project_zero_magnitude():
    cfg = StftConfig()
    projected = project_values(recompose(np.zeros((9, cfg.n_bins)), np.zeros((9, cfg.n_bins))), cfg)
    assert np.all(projected == 0)


def test_consistency_project_idempotent():
    cfg = StftConfig()
    rng = np.random.default_rng(29)
    values = rng.standard_normal((12, cfg.n_bins)) + 1j * rng.standard_normal((12, cfg.n_bins))
    once = project_values(values, cfg)
    twice = project_values(once, cfg)
    assert np.max(np.abs(twice - once)) < 1e-10 * max(np.max(np.abs(once)), 1.0)


def test_projection_beats_arbitrary_phase():
    # Phase taken from the projection pairs better with the magnitude than an
    # unrelated random phase does.
    cfg = StftConfig()
    rng = np.random.default_rng(31)
    mag = rng.uniform(0.0, 1.0, size=(10, cfg.n_bins))
    phase = rng.uniform(-np.pi, np.pi, size=(10, cfg.n_bins))
    projected = project_values(recompose(mag, phase), cfg)
    _, adapted_phase = decompose(projected)
    other_phase = rng.uniform(-np.pi, np.pi, size=mag.shape)
    assert inconsistency(mag, adapted_phase, cfg) < inconsistency(mag, other_phase, cfg)


def test_canonical_length_round_trip():
    cfg = StftConfig()
    for frames in (1, 5, 33):
        n = canonical_length(frames, cfg)
        if n == 0:
            continue
        x = np.random.default_rng(frames).standard_normal(n)
        assert stft(Waveform(x, 16000), cfg).values.shape[0] == frames


def _reference_synthesize(values, cfg, origin_length):
    """Frame-by-frame overlap-add: the plain form of the least-squares inverse."""
    frames = values.shape[0]
    w, hop = cfg.window_length, cfg.hop_length
    length = int(origin_length)
    window = cfg.window()
    segments = np.fft.irfft(values, n=cfg.fft_length, axis=1)[:, :w] * window
    total = (frames - 1) * hop + w
    num = np.zeros(total)
    den = np.zeros(total)
    wsq = window * window
    for m in range(frames):
        num[m * hop : m * hop + w] += segments[m]
        den[m * hop : m * hop + w] += wsq
    pad = w // 2
    out_num = np.zeros(length)
    out_den = np.zeros(length)
    covered = min(length, max(total - pad, 0))
    out_num[:covered] = num[pad : pad + covered]
    out_den[:covered] = den[pad : pad + covered]
    if length > 1:
        t_left = np.arange(1, min(pad, length - 1) + 1)
        out_num[t_left] += num[pad - t_left]
        out_den[t_left] += den[pad - t_left]
        q = np.arange(pad)
        t_right = length - 2 - q
        p_right = pad + length + q
        keep = (t_right >= 0) & (p_right < total)
        out_num[t_right[keep]] += num[p_right[keep]]
        out_den[t_right[keep]] += den[p_right[keep]]
    core = out_den[:covered]
    if np.any(core < COLA_FLOOR):
        t = int(np.argmax(core < COLA_FLOOR))
        raise ValueError(
            f"overlap-added window power {core[t]:.3g} at sample {t} is below {COLA_FLOOR}; "
            "this window/hop combination is not invertible"
        )
    out = np.zeros(length)
    out[:covered] = out_num[:covered] / core
    return out


def _reference_analyze(x, cfg):
    """Frame-by-frame slicing of the padded signal."""
    w, hop = cfg.window_length, cfg.hop_length
    frames = frame_count(x.shape[0], cfg)
    padded = np.pad(x, (w // 2, w // 2), mode="reflect")
    padded = np.pad(padded, (0, max((frames - 1) * hop + w - padded.shape[0], 0)))
    segments = np.stack([padded[m * hop : m * hop + w] for m in range(frames)])
    return np.fft.rfft(segments * cfg.window(), n=cfg.fft_length, axis=1)


@st.composite
def _configs(draw):
    w = draw(st.integers(2, 40))
    return StftConfig(
        window_length=w,
        hop_length=draw(st.integers(1, w)),
        fft_length=w + draw(st.integers(0, 5)),
    )


@settings(max_examples=200, deadline=None)
@given(_configs(), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_analyze_matches_frame_by_frame_reference(cfg, n, seed):
    n = max(n, cfg.window_length // 2 + 1)
    x = np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(_analyze(x, cfg), _reference_analyze(x, cfg))


@st.composite
def _synthesis_cases(draw):
    cfg = draw(_configs())
    frames = draw(st.integers(1, 9))
    length = draw(st.integers(0, (frames + 1) * cfg.hop_length + cfg.window_length))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (frames, cfg.n_bins)
    return cfg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), length


@settings(max_examples=300, deadline=None)
@given(_synthesis_cases())
def test_synthesize_matches_frame_by_frame_reference(case):
    cfg, values, length = case
    try:
        expected = _reference_synthesize(values, cfg, length)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            _synthesize(values, cfg, length)
        assert str(raised.value) == str(err)
        return
    assert np.array_equal(_synthesize(values, cfg, length), expected)


@settings(max_examples=200, deadline=None)
@given(_configs(), st.integers(2, 6), st.integers(0, 40))
def test_invertibility_check_agrees_with_synthesis_of_long_signals(cfg, windows, extra):
    # Centered analysis of a signal of at least two windows reaches the part
    # where the window power repeats with the hop, and its reflections cover the ends.
    n = windows * cfg.window_length + extra
    try:
        _check_invertible(cfg)
    except ValueError:
        with pytest.raises(ValueError, match="not invertible"):
            _denominator(cfg, frame_count(n, cfg), n)
    else:
        _denominator(cfg, frame_count(n, cfg), n)


def test_cached_window_and_denominator_are_read_only():
    window = StftConfig().window()
    assert window is StftConfig().window()
    with pytest.raises(ValueError, match="read-only"):
        window[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        _denominator(StftConfig(), 9, 2048)[0] = 1.0


@st.composite
def _projection_cases(draw):
    """An invertible config, a signal length and two random spectrograms."""
    w = draw(st.integers(4, 48))
    cfg = StftConfig(
        window_length=w,
        hop_length=draw(st.integers(1, w // 2)),
        fft_length=w + draw(st.integers(0, 3)),
    )
    length = draw(st.integers(w // 2 + 1, 6 * w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (frame_count(length, cfg), cfg.n_bins)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    return cfg, length, a, b


@settings(max_examples=150, deadline=None)
@given(_projection_cases())
def test_projection_is_idempotent(case):
    cfg, length, a, _ = case
    once = project_values(a, cfg, length)
    twice = project_values(once, cfg, length)
    assert np.max(np.abs(twice - once)) < 1e-10 * max(np.max(np.abs(once)), 1.0)


@settings(max_examples=150, deadline=None)
@given(_projection_cases())
def test_projection_is_self_adjoint_under_bin_weights(case):
    # Re<u, v>_w sums Re(conj(u) v) over the full conjugate-symmetric spectrum.
    cfg, length, a, b = case
    weights = bin_weights(cfg)

    def inner(u, v):
        return float(np.sum(weights * (np.conj(u) * v).real))

    left = inner(project_values(a, cfg, length), b)
    right = inner(a, project_values(b, cfg, length))
    scale = np.sqrt(inner(a, a) * inner(b, b))
    assert abs(left - right) <= 1e-12 * scale


def _wrap_phase_reference(angles):
    """The np.mod formula, with its one fix: just below -pi maps to -pi."""
    shifted = np.mod(np.asarray(angles, dtype=np.float64) + np.pi, 2.0 * np.pi)
    return np.where(shifted == 2.0 * np.pi, 0.0, shifted) - np.pi


_WRAP_EDGES = [
    float(np.nextafter(k * np.pi, direction))
    for k in (0, -1, 1, -2, 2, -3, 3, -5, 5)
    for direction in (-np.inf, np.inf)
] + [k * np.pi for k in (-5, -3, -2, -1, 0, 1, 2, 3, 5)] + [-0.0]
_WRAP_ANGLES = st.one_of(
    st.floats(-3 * np.pi, 3 * np.pi),
    st.floats(-1e3, 1e3),
    st.sampled_from(_WRAP_EDGES),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_WRAP_ANGLES, st.lists(_WRAP_ANGLES, min_size=1, max_size=12)))
@example(_WRAP_EDGES)
def test_wrap_phase_matches_np_mod_formula_bit_for_bit(angles):
    # Lists mix angles inside and outside the range where wrap_phase skips np.mod.
    got = np.asarray(wrap_phase(angles), dtype=np.float64)
    want = np.asarray(_wrap_phase_reference(angles), dtype=np.float64)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_cached_fold_indices_are_read_only():
    cfg = StftConfig()
    pad, length = cfg.window_length // 2, 2048
    total = (frame_count(length, cfg) - 1) * cfg.hop_length + cfg.window_length
    indices = _fold_indices(pad, length, total)
    assert indices is _fold_indices(pad, length, total)
    assert all(index.size for index in indices)
    for index in indices:
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 64).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=st.floats(0.0, 1e300) | st.sampled_from([0.0, 5e-324])),
            arrays(np.float64, n, elements=_FINITE | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
        )
    )
)
def test_recompose_matches_the_complex_exp_bit_for_bit(case):
    # recompose forms the phasor as cos + 1j*sin, cheaper than np.exp(1j * phase);
    # both round alike, and the product with mag erases the sign of a zero
    # imaginary part, where sin(-0.0) and the complex exp differ.
    mag, phase = case
    assert np.array_equal(recompose(mag, phase).view(np.int64), (mag * np.exp(1j * phase)).view(np.int64))
