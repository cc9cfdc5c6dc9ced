"""One rule for every public function that takes an estimate.

Each estimate, and each mixture array the candidate laws take, must have the
mixture's shape and finite real values; magnitudes must be non-negative and sign
fields lie in [-1, 1]. A bad one is a ``ValueError`` that names the argument,
raised before any analysis or synthesis runs.
"""

import numpy as np
import pytest

from msgla import geometry, reconstruct, spectral
from msgla.harness import synthesize_mixture
from msgla.reconstruct import METHOD_NEEDS, METHODS, Estimates, ReconConfig
from msgla.spectral import StftConfig, decompose, stft

CFG = StftConfig()
# The reference phase is checked whether or not the run traces.
UNTRACED = ReconConfig(iterations=1, trace=False)


def _arguments() -> dict:
    """A mixture's arrays, keyed by the parameter names of the functions below."""
    tri = synthesize_mixture("harmonic", 0.0, 0.25, 16000, 0)
    noisy = stft(tri.noisy, CFG)
    mag_mix, phase_mix = decompose(noisy)
    mag_speech, phase_speech = decompose(stft(tri.clean, CFG))
    mag_noise, phase_noise = decompose(stft(tri.noise, CFG))
    cand = geometry.cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    return dict(
        noisy=noisy,
        mag_mix=mag_mix,
        phase_mix=phase_mix,
        mag_speech=mag_speech,
        mag_noise=mag_noise,
        phase_noise=phase_noise,
        ref_phase=phase_speech,
        phase_ref=phase_speech,
        phase=phase_speech,
        candidates=cand,
        abs_delta=cand.abs_delta,
        sign=geometry.oracle_sign(cand, phase_speech),
    )


ARGUMENTS = _arguments()
MAG, PHASE, SIGN = "magnitude", "phase", "sign"
# The mixture's own arrays set the shape that the other arguments must match,
# so they are checked for their values only.
MIX_MAG, MIX_PHASE = "mixture magnitude", "mixture phase"
DEFECTS = {
    MAG: ("nan", "inf", "-inf", "shape", "negative", "complex"),
    PHASE: ("nan", "inf", "-inf", "shape", "complex"),
    SIGN: ("nan", "inf", "-inf", "shape", "above one", "below minus one", "complex"),
    MIX_MAG: ("nan", "inf", "-inf", "negative", "complex"),
    MIX_PHASE: ("nan", "inf", "-inf", "complex"),
}


def _loop(fn, *names):
    return lambda a: fn(a["noisy"], *(a[name] for name in names), UNTRACED, ref_phase=a["ref_phase"])


def _enhance(method):
    def call(a):
        estimates = Estimates(**{name: a[name] for name in _enhance_kinds(method) if name != "ref_phase"})
        return reconstruct.enhance(a["noisy"], method, estimates, UNTRACED, ref_phase=a["ref_phase"])

    return call


def _enhance_kinds(method) -> dict:
    # passthrough takes an optional speech magnitude
    kinds = {name: PHASE if name.startswith("phase") else MAG for name in METHOD_NEEDS[method] or ("mag_speech",)}
    return {**kinds, **({"sign": SIGN} if method == "sign" else {}), "ref_phase": PHASE}


# entry point: (call on ARGUMENTS, the kind of each argument it checks)
ENTRY_POINTS = {
    "gla": (_loop(reconstruct.gla, "mag_speech"), {"mag_speech": MAG, "ref_phase": PHASE}),
    "nm_msgla": (
        _loop(reconstruct.nm_msgla, "mag_speech", "mag_noise"),
        {"mag_speech": MAG, "mag_noise": MAG, "ref_phase": PHASE},
    ),
    "np_msgla": (
        _loop(reconstruct.np_msgla, "mag_speech", "phase_noise"),
        {"mag_speech": MAG, "phase_noise": PHASE, "ref_phase": PHASE},
    ),
    **{f"enhance-{method}": (_enhance(method), _enhance_kinds(method)) for method in METHODS},
    "cosine_phase_candidates": (
        lambda a: geometry.cosine_phase_candidates(a["mag_mix"], a["phase_mix"], a["mag_speech"], a["mag_noise"]),
        {"mag_mix": MIX_MAG, "phase_mix": PHASE, "mag_speech": MAG, "mag_noise": MAG},
    ),
    "sine_phase_candidates": (
        lambda a: geometry.sine_phase_candidates(a["mag_mix"], a["phase_mix"], a["mag_speech"], a["phase_noise"]),
        {"mag_mix": MIX_MAG, "phase_mix": PHASE, "mag_speech": MAG, "phase_noise": PHASE},
    ),
    "apply_sign_field": (
        lambda a: geometry.apply_sign_field(a["phase_mix"], a["abs_delta"], a["sign"]),
        {"phase_mix": MIX_PHASE, "abs_delta": MAG, "sign": SIGN},
    ),
    "oracle_sign": (lambda a: geometry.oracle_sign(a["candidates"], a["phase_ref"]), {"phase_ref": PHASE}),
    "nearest_candidate_distance": (
        lambda a: geometry.nearest_candidate_distance(a["phase"], a["candidates"]),
        {"phase": PHASE},
    ),
}
CASES = [
    (entry, name, defect)
    for entry, (_, kinds) in ENTRY_POINTS.items()
    for name, kind in kinds.items()
    for defect in DEFECTS[kind]
]


def _spoiled(value: np.ndarray, defect: str) -> np.ndarray:
    if defect == "shape":
        return value[:1]  # one frame: it would broadcast against the mixture's
    if defect == "complex":
        return value * (1 + 1j)  # a float64 cast would keep the real part and warn only
    value = np.array(value)
    value[2, 3] = {
        "nan": np.nan,
        "inf": np.inf,
        "-inf": -np.inf,
        "negative": -1.0,
        "above one": 1.5,
        "below minus one": -1.5,
    }[defect]
    return value


@pytest.fixture
def no_stft(monkeypatch):
    """Fail any test that reaches an analysis or a synthesis."""

    def refuse(*args, **kwargs):
        raise AssertionError("an STFT ran before the arguments were checked")

    for module in (spectral, reconstruct):
        for name in ("_analyze", "_synthesize"):
            monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("entry, name, defect", CASES)
def test_a_bad_argument_is_rejected_by_name_before_any_stft(no_stft, entry, name, defect):
    call, _ = ENTRY_POINTS[entry]
    values = dict(ARGUMENTS)
    values[name] = _spoiled(values[name], defect)
    with pytest.raises(ValueError, match=f"^{name} "):
        call(values)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_accepts_its_unspoiled_arguments(entry):
    call, _ = ENTRY_POINTS[entry]
    call(dict(ARGUMENTS))
