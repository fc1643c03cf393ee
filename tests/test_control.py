import math
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from chaosctl import (
    Constant,
    ControlChannel,
    InvalidControl,
    NoiseDist,
    Point2,
    RngState,
    Stochastic,
    control_pairs,
    fixed_point,
    henon,
    map_step,
    next_rand,
    noise_pairs,
    scramble,
    stream_for_trial,
    vmtoc_step,
)
from chaosctl import control, verify
from chaosctl.control import (
    _chunk_sizes,
    _coefficients,
    bernoulli_pm1,
    control_at_step,
    sample_noise,
    uniform_m1p1,
)

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_splitmix(s: int, n: int) -> list[int]:
    """Independent evaluation of the generator recurrence."""
    out = []
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) & M64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def test_splitmix_reference_sequence():
    state = RngState(0)
    got = []
    for _ in range(5):
        state, z = next_rand(state)
        got.append(z)
    assert got == reference_splitmix(0, 5)
    assert got[0] == 0xE220A8397B1DCDAF
    assert got[1] == 0x6E789E6AA1B965F4
    assert got[2] == 0x06C45D188009454F


def test_uniform_sample_range():
    state = RngState(12345)
    for _ in range(10_000):
        state, z = next_rand(state)
        u = uniform_m1p1(z)
        assert -1.0 <= u < 1.0


def test_bernoulli_sample_values_and_mean():
    state = RngState(99)
    total = 0.0
    n = 1_000_000
    for _ in range(n):
        state, z = next_rand(state)
        v = bernoulli_pm1(z)
        assert v in (-1.0, 1.0)
        total += v
    assert abs(total / n) < 4.0 / math.sqrt(n)


def test_scramble_is_one_output_step():
    for v in (0, 1, 0xDEADBEEF, M64):
        assert scramble(v) == next_rand(RngState(v))[1]


def test_trial_streams_match_contract_and_differ():
    seed = 42
    for k in (0, 1, 7, 1000):
        v = (seed ^ ((0xD1B54A32D192ED03 + k * 0x9E3779B97F4A7C15) & M64)) & M64
        assert stream_for_trial(seed, k).s == scramble(v)
    states = {stream_for_trial(seed, k).s for k in range(100)}
    assert len(states) == 100


# Start states whose Weyl sequence reaches 2^64 - 1 within one cap-sized chunk.
_near_wrap = st.integers(0, 2048).map(lambda k: (M64 - k * GOLDEN) & M64)


@settings(deadline=None)
@given(
    s=st.one_of(st.integers(0, M64), _near_wrap),
    dist1=st.sampled_from(list(NoiseDist)),
    dist2=st.sampled_from(list(NoiseDist)),
)
def test_noise_pairs_flatten_to_next_rand_sequence(s, dist1, dist2):
    # 3100 pairs cross every chunk boundary (chunks of 32, 64, ..., 512 pairs,
    # then 1024 a chunk) and fill two chunks at the cap.  Pair by pair: a
    # failing assert on two long reprs makes every shrink step diff them.
    state = RngState(s)
    for i, pair in enumerate(islice(noise_pairs(s, dist1, dist2), 3100)):
        state, z1 = next_rand(state)
        state, z2 = next_rand(state)
        assert repr(pair) == repr((sample_noise(dist1, z1), sample_noise(dist2, z2))), i


_intensity = st.floats(0.0, 1.0, exclude_max=True)
# Edges of the decision to draw a channel: signed zeros, whose sums differ
# only in the sign of zero, and amplitudes below half an ulp of most alphas.
_channel = st.builds(
    ControlChannel,
    st.one_of(st.sampled_from([0.0, -0.0]), _intensity),
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300]), st.floats(0.0, 1.0)),
    st.sampled_from(list(NoiseDist)),
)
_schedule = st.one_of(
    st.builds(Constant, _intensity, _intensity),
    st.builds(Stochastic, _channel, _channel),
)


@settings(deadline=None)
@given(s=st.one_of(st.integers(0, M64), _near_wrap), schedule=_schedule)
def test_control_pairs_match_control_at_step(s, schedule):
    # 3100 pairs cover every chunk size and two capped chunks; compared pair
    # by pair, as in the noise_pairs test above.
    rng = RngState(s)
    for n, pair in enumerate(islice(control_pairs(schedule, s), 3100)):
        rng, d1, d2 = control_at_step(schedule, rng)
        assert repr(pair) == repr((d1, d2)), n


def test_channel_validation():
    with pytest.raises(InvalidControl):
        ControlChannel(1.0, 0.0)
    with pytest.raises(InvalidControl):
        ControlChannel(-0.1, 0.0)
    with pytest.raises(InvalidControl):
        ControlChannel(0.5, -0.2)
    assert ControlChannel(0.5, 0.3).admissible
    assert not ControlChannel(0.9, 0.55).admissible  # over-driven but accepted
    assert not ControlChannel(0.0, 0.0).admissible


def test_schedule_validation():
    with pytest.raises(InvalidControl, match=r"channel mean must lie in \[0, 1\), got 1.2"):
        Constant(1.2, 0.0)
    with pytest.raises(InvalidControl, match="channel mean"):
        Constant(0.5, -0.1)


@pytest.mark.parametrize("d1, d2", [(0.6, 0.0), (0.0, 0.3), (0.25, 0.75)])
def test_constant_is_a_pair_of_constant_channels(d1, d2):
    sch = Constant(d1, d2)
    assert sch == Stochastic(ControlChannel(d1), ControlChannel(d2))
    assert (sch.ch1.constant_value, sch.ch2.constant_value) == (d1, d2)
    assert Constant(d1) == Stochastic(ControlChannel(d1), ControlChannel(0.0))


def test_constant_controls_draw_two_words_a_step():
    rng = RngState(0)
    sch = Constant(0.6, 0.0)
    for n in range(1, 4):
        rng, d1, d2 = control_at_step(sch, rng)
        assert repr((d1, d2)) == repr((0.6, 0.0))
        assert rng.s == 2 * n * GOLDEN & M64  # the stream moves as under noise


def test_negative_zero_constant_follows_the_draw():
    # -0.0 + 0.0 * chi is -0.0 at chi = -1 and 0.0 at chi = +1: not constant.
    sch = Constant(-0.0, 0.5)
    assert sch.ch1.constant_value is None and sch.ch2.constant_value == 0.5
    rng = RngState(7)
    for pair in islice(control_pairs(sch, 7), 200):
        state, z1 = next_rand(rng)
        rng, _ = next_rand(state)
        assert repr(pair) == repr((0.0 if bernoulli_pm1(z1) > 0 else -0.0, 0.5))


def test_stochastic_realized_values():
    sch = Stochastic(ControlChannel(0.44, 0.3), ControlChannel(0.0))
    rng = stream_for_trial(0, 0)
    seen = set()
    for _ in range(200):
        rng, d1, d2 = control_at_step(sch, rng)
        assert d1 in (pytest.approx(0.14), pytest.approx(0.74))
        assert d2 == 0.0
        seen.add(round(d1, 2))
    assert seen == {0.14, 0.74}


def test_zero_amplitude_is_constant():
    sch = Stochastic(ControlChannel(0.37, 0.0), ControlChannel(0.21, 0.0))
    rng = stream_for_trial(3, 0)
    for _ in range(50):
        rng, d1, d2 = control_at_step(sch, rng)
        assert (d1, d2) == (0.37, 0.21)


def test_two_draws_consumed_even_with_zero_amplitude():
    # Changing the channel-2 amplitude must not shift channel 1's noise.
    a = Stochastic(ControlChannel(0.44, 0.3), ControlChannel(0.5, 0.0))
    b = Stochastic(ControlChannel(0.44, 0.3), ControlChannel(0.5, 0.3))
    rng_a = rng_b = stream_for_trial(17, 0)
    for _ in range(500):
        rng_a, d1a, _ = control_at_step(a, rng_a)
        rng_b, d1b, _ = control_at_step(b, rng_b)
        assert d1a == d1b
    assert rng_a.s == rng_b.s


def test_admissible_channels_keep_controls_inside_unit_interval():
    sch = Stochastic(
        ControlChannel(0.44, 0.3), ControlChannel(0.3, 0.2, NoiseDist.UNIFORM_M1P1)
    )
    assert sch.ch1.admissible and sch.ch2.admissible
    rng = stream_for_trial(0, 0)
    for _ in range(5000):
        rng, d1, d2 = control_at_step(sch, rng)
        assert 0.0 < d1 < 1.0
        assert 0.0 < d2 < 1.0


def test_reproducibility_bit_identical():
    sch = Stochastic(
        ControlChannel(0.3, 0.2, NoiseDist.UNIFORM_M1P1),
        ControlChannel(0.6, 0.1),
    )

    def run():
        rng = stream_for_trial(5, 2)
        out = []
        for _ in range(1000):
            rng, d1, d2 = control_at_step(sch, rng)
            out.append((d1, d2))
        return out

    assert run() == run()


def test_vmtoc_target_invariance(henon_std, plus):
    target = fixed_point(henon_std, plus)
    for i in range(20):
        for j in range(20):
            p = vmtoc_step(henon_std, target, i / 20.0, j / 20.0, target)
            assert max(abs(p.x - target.x), abs(p.y - target.y)) < 1e-14


def test_vmtoc_zero_control_is_plain_step(henon_std, plus):
    target = fixed_point(henon_std, plus)
    p = Point2(0.2, -0.4)
    assert vmtoc_step(henon_std, target, 0.0, 0.0, p) == map_step(henon_std, p)


def test_vmtoc_direct_evaluation(henon_std):
    # oracle: componentwise weighted average of target and the map image
    target = Point2(0.631354, 0.189406)
    p = Point2(0.3, 0.1)
    fx = 0.1 + 1.0 - 1.4 * 0.09
    want_x = 0.6 * 0.631354 + 0.4 * fx
    got = vmtoc_step(henon_std, target, 0.6, 0.0, p)
    assert got.x == pytest.approx(want_x, abs=1e-15)
    assert got.x == pytest.approx(0.7684124, abs=1e-7)
    assert got.y == pytest.approx(0.09, abs=1e-15)


def test_vmtoc_difference_identity(henon_std, plus):
    # X' - X* equals (I - U)(F(X) - X*) up to rounding
    target = fixed_point(henon_std, plus)
    rng = RngState(31)
    for _ in range(10_000):
        rng, z1 = next_rand(rng)
        rng, z2 = next_rand(rng)
        rng, z3 = next_rand(rng)
        rng, z4 = next_rand(rng)
        p = Point2(2.0 * uniform_m1p1(z1), 2.0 * uniform_m1p1(z2))
        d1 = 0.5 * (uniform_m1p1(z3) + 1.0)
        d2 = 0.5 * (uniform_m1p1(z4) + 1.0)
        stepped = vmtoc_step(henon_std, target, d1, d2, p)
        f = map_step(henon_std, p)
        assert stepped.x - target.x == pytest.approx(
            (1.0 - d1) * (f.x - target.x), abs=1e-12
        )
        assert stepped.y - target.y == pytest.approx(
            (1.0 - d2) * (f.y - target.y), abs=1e-12
        )


# Schedules whose chunks take each gather path of the sampler: one Bernoulli
# channel drawn, both drawn, and one uniform channel.
_BOUNDARY_SCHEDULES = {
    "bernoulli-one": Stochastic(ControlChannel(0.3, 0.2861), ControlChannel(0.8)),
    "bernoulli-two": Stochastic(ControlChannel(0.27, 0.2), ControlChannel(0.9, 0.55)),
    "uniform-one": Stochastic(ControlChannel(0.2, 0.2, NoiseDist.UNIFORM_M1P1), ControlChannel(0.9)),
}
_CHUNK_SIZES = {32 << k for k in range(6)}  # 32, 64, ..., 1024


@pytest.mark.parametrize("steps", [1, 31, 32, 33, 95, 96, 97, 700, 2000])
@pytest.mark.parametrize("name", sorted(_BOUNDARY_SCHEDULES))
@pytest.mark.parametrize("target", [None, Point2(0.63, 0.19)], ids=["pairs", "coefficients"])
def test_control_pairs_with_steps_match_control_at_step(name, steps, target):
    schedule = _BOUNDARY_SCHEDULES[name]
    s = stream_for_trial(5, steps).s
    got = list(control_pairs(schedule, s, target, steps))
    # the stream ends with the chunk that holds step steps - 1
    assert len(got) == sum(_chunk_sizes(steps)) >= steps
    rng = RngState(s)
    for n, value in enumerate(got):
        rng, d1, d2 = control_at_step(schedule, rng)
        want = (d1, d2) if target is None else _coefficients(d1, d2, target)
        assert repr(value) == repr(want), n


@pytest.mark.parametrize("steps", [1, 31, 32, 33, 95, 96, 97, 700, 2000, 3100, None])
def test_chunk_sizes_cover_the_steps_without_a_new_size(steps):
    sizes = list(islice(_chunk_sizes(steps), 40))
    assert set(sizes) <= _CHUNK_SIZES
    if steps is None:
        assert sizes[:6] == sorted(_CHUNK_SIZES) and set(sizes[6:]) == {1024}
    else:
        # the last chunk is the least size that covers the steps left
        left = steps - sum(sizes[:-1])
        assert 0 < left <= sizes[-1]
        assert sizes[-1] == min(size for size in _CHUNK_SIZES if size >= left)
    assert sum(_chunk_sizes(700)) == 736


def test_verify_caches_lanes_of_chunk_sizes_only(monkeypatch):
    # an exact cut to `steps` would cache a lane set per run length
    keys = set()
    lanes = control._lanes

    def recording(pairs, width):
        keys.add((pairs, width))
        return lanes(pairs, width)

    monkeypatch.setattr(control, "_lanes", recording)
    verify.run_all()
    assert keys
    assert {pairs for pairs, _ in keys} <= _CHUNK_SIZES
    assert {width for _, width in keys} <= {1, 2}
