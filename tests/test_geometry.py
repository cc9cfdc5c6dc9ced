import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msgla import geometry
from msgla.geometry import (
    apply_sign_field,
    cosine_phase_candidates,
    nearest_candidate_distance,
    oracle_sign,
    sine_phase_candidates,
)
from msgla.spectral import angular_distance, wrap_phase


def _exact_triple(seed: int, shape=(40, 65)):
    """Random complex speech/noise pair and their exact sum."""
    rng = np.random.default_rng(seed)
    h_speech = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h_noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h_mix = h_speech + h_noise
    return h_speech, h_noise, h_mix


def test_cosine_zero_noise_collapses_to_mixture_phase():
    mag = np.full((3, 4), 0.8)
    phase = np.linspace(-3, 3, 12).reshape(3, 4)
    cand = cosine_phase_candidates(mag, phase, mag, np.zeros_like(mag))
    assert np.allclose(cand.abs_delta, 0.0, atol=1e-7)
    assert np.allclose(cand.plus_candidate, wrap_phase(phase), atol=1e-7)
    assert np.allclose(cand.minus_candidate, wrap_phase(phase), atol=1e-7)


def test_cosine_single_bin_example():
    # speech = exp(j0), noise = exp(j pi/2): mixture magnitude sqrt(2) at pi/4
    h_speech = np.array([[np.exp(0j)]])
    h_noise = np.array([[np.exp(1j * np.pi / 2)]])
    h_mix = h_speech + h_noise
    cand = cosine_phase_candidates(
        np.abs(h_mix), np.angle(h_mix), np.abs(h_speech), np.abs(h_noise)
    )
    assert np.allclose(cand.abs_delta, np.pi / 4, atol=1e-12)
    assert np.allclose(cand.plus_candidate, np.pi / 2, atol=1e-12)
    assert np.allclose(cand.minus_candidate, 0.0, atol=1e-12)
    assert cand.validity_mask.all()
    # the true speech phase (0) is the minus candidate
    sign = oracle_sign(cand, np.zeros((1, 1)))
    assert sign[0, 0] == -1.0


def test_cosine_triangle_violation_is_clamped():
    mag_mix = np.array([[1.0]])
    phase_mix = np.array([[0.3]])
    mag_speech = np.array([[1.0]])
    mag_noise = np.array([[5.0]])  # noise > speech + mixture: impossible triangle
    cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    assert np.isfinite(cand.abs_delta).all()
    assert np.allclose(cand.abs_delta, np.pi)
    assert not cand.validity_mask.any()


def test_cosine_floor_passes_mixture_phase_through():
    cand = cosine_phase_candidates(
        np.array([[0.0]]), np.array([[1.2]]), np.array([[0.0]]), np.array([[0.5]])
    )
    assert cand.abs_delta[0, 0] == 0.0
    assert cand.plus_candidate[0, 0] == pytest.approx(1.2)
    assert not cand.validity_mask[0, 0]


def test_a_product_at_the_cosine_floor_is_nondegenerate(monkeypatch):
    # Speech and mixture magnitudes of 0.5 make a product of exactly the floor.
    monkeypatch.setattr(geometry, "DEFAULT_FLOOR", 0.25)
    half = np.array([[0.5]])
    cand = cosine_phase_candidates(half, np.array([[0.3]]), half, half)
    assert cand.validity_mask[0, 0]
    assert cand.abs_delta[0, 0] == np.arccos(0.5)


def test_the_floor_sits_between_half_and_twice_1e_12():
    # Products of 2e-12 and 0.5e-12 (speech and mixture magnitudes alike) for the
    # cosine law, speech magnitudes of as much for the sine law.
    above, below = np.array([[np.sqrt(2e-12)]]), np.array([[np.sqrt(0.5e-12)]])
    phase = np.array([[0.3]])
    for mag, valid in ((above, True), (below, False)):
        assert cosine_phase_candidates(mag, phase, mag, mag).validity_mask[0, 0] == valid
        assert sine_phase_candidates(mag**2, phase, mag**2, phase).validity_mask[0, 0] == valid


def test_a_collinear_triangle_is_valid_for_both_laws():
    # Unit speech on the mixture with no noise: the cosine argument is exactly 1.
    one, phase = np.array([[1.0]]), np.array([[0.3]])
    cand = cosine_phase_candidates(one, phase, one, np.zeros((1, 1)))
    assert cand.validity_mask[0, 0] and cand.abs_delta[0, 0] == 0.0
    # Noise a quarter turn from the mixture, speech as long as it: the sine argument is exactly 1.
    sine = sine_phase_candidates(2 * one, np.array([[np.pi / 2]]), 2 * one, np.zeros((1, 1)))
    assert sine.validity_mask[0, 0] and sine.primary_candidate[0, 0] == np.pi / 2


def test_cosine_candidates_exact_on_random_triples():
    for seed in range(5):
        h_speech, h_noise, h_mix = _exact_triple(seed)
        phase_speech = wrap_phase(np.angle(h_speech))
        cand = cosine_phase_candidates(
            np.abs(h_mix), wrap_phase(np.angle(h_mix)), np.abs(h_speech), np.abs(h_noise)
        )
        keep = (np.abs(h_speech) > 1e-6) & (np.abs(h_mix) > 1e-6)
        dist = nearest_candidate_distance(phase_speech, cand)
        assert dist[keep].max() < 1e-9


def test_sine_single_bin_example():
    # same triple as the cosine example: ratio hits the arcsine branch point
    h_speech = np.array([[np.exp(0j)]])
    h_noise = np.array([[np.exp(1j * np.pi / 2)]])
    h_mix = h_speech + h_noise
    cand = sine_phase_candidates(
        np.abs(h_mix), np.angle(h_mix), np.abs(h_speech), np.angle(h_noise)
    )
    # both branches land on the true speech phase 0 (branch-point sensitivity
    # makes this a ~1e-8 comparison, not 1e-12)
    assert np.allclose(cand.primary_candidate, 0.0, atol=1e-6)
    assert np.allclose(cand.reflected_candidate, 0.0, atol=1e-6)


def test_sine_equal_phases_gives_zero_ratio():
    mag_mix = np.array([[2.0, 0.3]])
    phase = np.array([[0.7, -2.1]])
    cand = sine_phase_candidates(mag_mix, phase, np.array([[1.0, 1.0]]), phase)
    assert np.allclose(cand.primary_candidate, phase, atol=1e-12)
    assert np.allclose(cand.reflected_candidate, wrap_phase(np.pi + phase), atol=1e-12)
    assert cand.validity_mask.all()


def test_sine_floor_passes_mixture_phase_through():
    cand = sine_phase_candidates(
        np.array([[1.0]]), np.array([[0.4]]), np.array([[0.0]]), np.array([[2.0]])
    )
    assert cand.primary_candidate[0, 0] == pytest.approx(0.4)
    assert cand.reflected_candidate[0, 0] == pytest.approx(0.4)
    assert not cand.validity_mask[0, 0]


def test_a_speech_magnitude_at_the_sine_floor_is_nondegenerate(monkeypatch):
    monkeypatch.setattr(geometry, "DEFAULT_FLOOR", 0.5)
    half, phase = np.array([[0.5]]), np.array([[0.4]])
    cand = sine_phase_candidates(half, phase, half, phase)
    assert cand.validity_mask[0, 0]
    assert cand.reflected_candidate[0, 0] == wrap_phase(np.pi + 0.4)


def test_sine_candidates_exact_on_random_triples():
    for seed in range(5):
        h_speech, h_noise, h_mix = _exact_triple(seed + 100)
        phase_speech = wrap_phase(np.angle(h_speech))
        cand = sine_phase_candidates(
            np.abs(h_mix),
            wrap_phase(np.angle(h_mix)),
            np.abs(h_speech),
            wrap_phase(np.angle(h_noise)),
        )
        keep = (np.abs(h_speech) > 1e-6) & (np.abs(h_mix) > 1e-6)
        dist = nearest_candidate_distance(phase_speech, cand)
        assert dist[keep].max() < 1e-9


def test_candidates_are_wrapped_and_delta_in_range():
    rng = np.random.default_rng(42)
    shape = (30, 50)
    mag_mix = rng.uniform(0, 2, shape)
    phase_mix = rng.uniform(-np.pi, np.pi, shape)
    mag_speech = rng.uniform(0, 2, shape)
    mag_noise = rng.uniform(0, 4, shape)  # frequent triangle violations
    cand = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    assert np.all(cand.abs_delta >= 0) and np.all(cand.abs_delta <= np.pi)
    for arr in (cand.plus_candidate, cand.minus_candidate):
        assert np.all(arr >= -np.pi) and np.all(arr < np.pi)
        assert np.isfinite(arr).all()
    scand = sine_phase_candidates(mag_mix, phase_mix, mag_speech, phase_mix + 0.3)
    for arr in (scand.primary_candidate, scand.reflected_candidate):
        assert np.all(arr >= -np.pi) and np.all(arr < np.pi)
        assert np.isfinite(arr).all()


def test_apply_sign_field_trivials():
    phase = np.array([[np.pi / 4]])
    delta = np.array([[np.pi / 4]])
    assert apply_sign_field(phase, delta, np.array([[0.0]]))[0, 0] == pytest.approx(np.pi / 4)
    assert apply_sign_field(phase, delta, np.array([[1.0]]))[0, 0] == pytest.approx(np.pi / 2)
    assert apply_sign_field(phase, delta, np.array([[-1.0]]))[0, 0] == pytest.approx(0.0)


def test_apply_sign_field_validates():
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        apply_sign_field(np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), 1.5))
    with pytest.raises(ValueError, match="shape"):
        apply_sign_field(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


def test_sign_symmetry_about_mixture_phase():
    rng = np.random.default_rng(8)
    phase_mix = rng.uniform(-np.pi, np.pi, (10, 10))
    delta = rng.uniform(0, np.pi, (10, 10))
    s = rng.uniform(-1, 1, (10, 10))
    up = apply_sign_field(phase_mix, delta, s)
    down = apply_sign_field(phase_mix, delta, -s)
    assert np.allclose(
        angular_distance(up, phase_mix), angular_distance(down, phase_mix), atol=1e-12
    )


def test_oracle_sign_selects_nearer_candidate():
    for seed in range(3):
        h_speech, h_noise, h_mix = _exact_triple(seed + 50, shape=(20, 33))
        phase_mix = wrap_phase(np.angle(h_mix))
        phase_speech = wrap_phase(np.angle(h_speech))
        cand = cosine_phase_candidates(
            np.abs(h_mix), phase_mix, np.abs(h_speech), np.abs(h_noise)
        )
        sign = oracle_sign(cand, phase_speech)
        assert set(np.unique(sign)) <= {-1.0, 1.0}
        resolved = apply_sign_field(phase_mix, cand.abs_delta, sign)
        best = nearest_candidate_distance(phase_speech, cand)
        assert np.allclose(angular_distance(resolved, phase_speech), best, atol=1e-9)


def test_oracle_sign_trivial_directions():
    rng = np.random.default_rng(4)
    phase_mix = rng.uniform(-np.pi, np.pi, (6, 6))
    cand = cosine_phase_candidates(
        np.ones((6, 6)), phase_mix, np.ones((6, 6)), np.ones((6, 6))
    )
    plus = oracle_sign(cand, cand.plus_candidate)
    assert np.all(plus == 1.0)
    minus = oracle_sign(cand, cand.minus_candidate)
    assert np.all(minus[cand.abs_delta > 1e-9] == -1.0)


def test_oracle_sign_resolves_ties_to_plus_one():
    # Where |delta| is exactly zero the two candidates coincide, so every
    # reference phase is equally near both: the sign reads +1.
    rng = np.random.default_rng(6)
    mag = rng.uniform(0.1, 2.0, (5, 7))
    mag_speech = np.where(rng.random((5, 7)) < 0.3, 0.0, mag)  # below the floor, or
    mag_noise = np.zeros((5, 7))  # a noiseless bin: arccos(1) = 0
    cand = cosine_phase_candidates(mag, rng.uniform(-np.pi, np.pi, (5, 7)), mag_speech, mag_noise)
    assert np.all(cand.abs_delta == 0.0)
    sign = oracle_sign(cand, rng.uniform(-np.pi, np.pi, (5, 7)))
    assert np.all(sign == 1.0)


# --- both laws are exact on random triangles ---------------------------------

_MAG = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)
_PHASE = st.floats(-np.pi, np.pi)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_MAG, _MAG, _PHASE, _PHASE), min_size=1, max_size=40))
def test_both_laws_are_exact_on_random_triangles(bins):
    mag_speech, mag_noise, phase_speech, phase_noise = (np.array(v) for v in zip(*bins))
    mixture = mag_speech * np.exp(1j * phase_speech) + mag_noise * np.exp(1j * phase_noise)
    mag_mix, phase_mix = np.abs(mixture), np.angle(mixture)
    # each side within two decades of the speech side, so that forming the
    # mixture does not cancel away the triangle it is checked against
    sides = np.ones(len(bins), dtype=bool)
    for other in (mag_mix, mag_noise):
        sides &= (other >= 1e-2 * mag_speech) & (other <= 1e2 * mag_speech)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_arg = (mag_mix**2 + mag_speech**2 - mag_noise**2) / (2 * mag_speech * mag_mix)
    sin_arg = mag_mix / mag_speech * np.sin(phase_mix - phase_noise)

    cos = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    sin = sine_phase_candidates(mag_mix, phase_mix, mag_speech, phase_noise)
    for cand, arg in ((cos, cos_arg), (sin, sin_arg)):
        checked = sides & (np.abs(arg) <= 1 - 1e-6)
        assert np.all(nearest_candidate_distance(phase_speech, cand)[checked] <= 1e-8)
        assert cand.validity_mask[checked].all()


def _violating_cosine(mags, scale):
    """Magnitudes where one side exceeds the sum of the other two by ``scale``."""
    a, b, which = mags
    third = (a + b) * (1.0 + scale)
    return [(third, a, b), (a, third, b), (a, b, third)][which]


@settings(max_examples=300, deadline=None)
@example([((1.0, 1.0, 0), 1.0, np.pi, 0.0)])  # degenerate sine bin at phase_mix = +pi
@given(
    st.lists(
        st.tuples(
            st.tuples(_MAG, _MAG, st.integers(0, 2)),
            st.floats(1e-6, 10.0),
            _PHASE,
            _PHASE,
        ),
        min_size=1,
        max_size=40,
    )
)
def test_both_laws_clamp_triangle_violations(bins):
    mags = np.array([_violating_cosine(m, s) for m, s, _, _ in bins])
    mag_mix, mag_speech, mag_noise = mags.T
    phase_mix = np.array([b[2] for b in bins])
    phase_noise = np.array([b[3] for b in bins])
    # the sine law is violated when the speech side cannot reach the noise line
    reach = mag_mix * np.abs(np.sin(phase_mix - phase_noise))
    shrink = np.array([s for _, s, _, _ in bins]) / 11.0
    sin_speech = reach * (1.0 - shrink)

    cos = cosine_phase_candidates(mag_mix, phase_mix, mag_speech, mag_noise)
    sin = sine_phase_candidates(mag_mix, phase_mix, sin_speech, phase_noise)
    for cand in (cos, sin):
        for values in cand.candidate_pair():
            assert np.isfinite(values).all()
            assert np.all((values >= -np.pi) & (values < np.pi))
        assert not cand.validity_mask.any()
