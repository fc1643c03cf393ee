"""Diagonal target-oriented control: the schedule, noise source, controlled step.

A control schedule is one `Stochastic` pair of channels, d_i = alpha_i +
ell_i * chi_i; deterministic control is ell_1 = ell_2 = 0, which `Constant`
builds.  Whether a channel is constant is decided by one rule,
`ControlChannel.constant_value`, which the sampler and the trajectory
engine both read.

The noise source is SplitMix64, specified bit-exactly so that any
implementation of this package (in any language) reproduces identical
trajectories from the same seed:

    s <- s + 0x9E3779B97F4A7C15                         (mod 2^64)
    z <- s
    z <- (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9           (mod 2^64)
    z <- (z ^ (z >> 27)) * 0x94D049BB133111EB           (mod 2^64)
    z <- z ^ (z >> 31)

Derived samples: uniform on [-1, 1) is 2 * ((z >> 11) * 2^-53) - 1; the
+/-1 Bernoulli sample is +1 when the top bit of z is set, else -1.

Monte Carlo work uses one independent stream per trial:

    s0(trial k) = scramble(seed XOR (0xD1B54A32D192ED03
                                     + k * 0x9E3779B97F4A7C15  mod 2^64))

where scramble(v) is the output of a single SplitMix64 step applied to v.
RNG state is a value passed explicitly; there is no shared mutable state.

That contract is all a consumer sees.  `noise_pairs`, the sampler of
(chi_1, chi_2), `control_pairs`, the realized control pairs of a schedule
or, for the trajectory engine, their step coefficients (d1 * tx, 1 - d1,
d2 * ty, 1 - d2), and `step_values`, which both read, take two draws per
step and generate them word-parallel in `_noise_chunks`: a chunk of them
is one int with a 128-bit lane per draw, and each step of the recurrence
above runs once on the whole chunk.  Only draws whose value can be read are
computed.  A channel whose realized values at chi = -1 and +1 are one
double is constant and never drawn; when neither channel is drawn the
stream is one repeated value.  When the drawn channels are Bernoulli, a
step's value is one of four, and a whole chunk of them is gathered in C by
one `operator.itemgetter` call over the two sign bits of each step, folded
into one byte.  A consumer that knows how many steps it reads passes
`steps`, and no pair past the run's last step is drawn: chunk sizes double
from 32 up to 1024 pairs, but each is at most the least 32 * 2^k that
covers the steps left.  The one-word-at-a-time `_sm64_next` (with
`next_rand`, `sample_noise` and `control_at_step`) is the scalar reference
the tests hold them to.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, partial
from itertools import chain, repeat
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Optional

from .maps import MapParams, Point2, map_step

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM = 0xD1B54A32D192ED03
_U53 = 2.0**-53


class InvalidControl(ValueError):
    """A control intensity lies outside its allowed range."""


@dataclass(frozen=True)
class RngState:
    """SplitMix64 state; identical seeds give identical sample sequences."""

    s: int

    def __post_init__(self) -> None:
        if not 0 <= self.s <= _M64:
            raise InvalidControl(f"rng state must be a 64-bit unsigned value, got {self.s}")


def _sm64_next(s: int) -> tuple[int, int]:
    # Raw-integer core shared by every consumer; keep in sync with the
    # module docstring, which is the wire contract.
    s = (s + _GOLDEN) & _M64
    z = s
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return s, z ^ (z >> 31)


def next_rand(state: RngState) -> tuple[RngState, int]:
    """Advance the generator one step; returns (new state, 64-bit output)."""
    s, z = _sm64_next(state.s)
    return RngState(s), z


def uniform_m1p1(z: int) -> float:
    """Map a 64-bit word to the uniform sample on [-1, 1)."""
    return 2.0 * ((z >> 11) * _U53) - 1.0


def bernoulli_pm1(z: int) -> float:
    """Map a 64-bit word to a +/-1 sample with equal probabilities."""
    return 1.0 if (z >> 63) else -1.0


def scramble(v: int) -> int:
    """One SplitMix64 output step applied to a raw 64-bit value."""
    return _sm64_next(v & _M64)[1]


def stream_for_trial(seed: int, trial: int) -> RngState:
    """Independent, deterministic stream for Monte Carlo trial `trial`."""
    v = (seed ^ ((_STREAM + trial * _GOLDEN) & _M64)) & _M64
    return RngState(scramble(v))


class NoiseDist(Enum):
    """Bounded noise distributions (every sample has |chi| <= 1)."""

    BERNOULLI_PM1 = "bernoulli"
    UNIFORM_M1P1 = "uniform"


def sample_noise(dist: NoiseDist, z: int) -> float:
    if dist is NoiseDist.BERNOULLI_PM1:
        return bernoulli_pm1(z)
    return uniform_m1p1(z)


def noise_pairs(s: int, dist1: NoiseDist, dist2: NoiseDist) -> Iterator[tuple[float, float]]:
    """Endless (chi_1, chi_2) samples from the raw SplitMix64 state s.

    This is the draw discipline of every stochastic consumer: two draws per
    step or sample, channel 1 first.  The draws are computed a chunk at a time
    by `_noise_chunks` and the pairs come out of C-level iterators, so a
    per-step consumer pays no generator resumption and no calls.  Every value
    equals the one `control_at_step` derives from `_sm64_next`, `bernoulli_pm1`
    and `uniform_m1p1`, the scalar reference.
    """
    return step_values(s, _UNIT[dist1], _UNIT[dist2])


def step_values(
    s: int,
    ch1: ControlChannel,
    ch2: ControlChannel,
    value: Optional[Callable[[float, float], object]] = None,
    target: Optional[Point2] = None,
    steps: Optional[int] = None,
) -> Iterator:
    """Values of steps 0, 1, 2, ... of two channels drawn from state s.

    Step k realizes d_i = alpha_i + ell_i * chi_i from draws 2 k and 2 k + 1
    and yields value(d1, d2), or the pair (d1, d2) when value is None.  When
    the drawn channels are Bernoulli, value is called only to build a table
    of the four possible steps, so it must depend on its arguments alone.
    With a target (tx, ty), value is not read and step k yields the
    engine's coefficients (d1 * tx, 1.0 - d1, d2 * ty, 1.0 - d2) instead,
    with no Python call per step.  The stream is endless, unless `steps`
    says how many values the caller reads: then it ends with the chunk that
    holds step steps - 1 (see `_chunk_sizes`), and no later pair is drawn.
    """
    return chain.from_iterable(_noise_chunks(s, ch1, ch2, value, target, steps))


def _coefficients(d1: float, d2: float, target: Point2) -> tuple[float, float, float, float]:
    """(d1 * tx, 1.0 - d1, d2 * ty, 1.0 - d2) for the target (tx, ty).

    With them the controlled step `vmtoc_step`, x' = d1 * tx + (1.0 - d1) *
    F1, is x' = c1 + g1 * F1: the same operations in the same order, so the
    same bits.
    """
    return (d1 * target.x, 1.0 - d1, d2 * target.y, 1.0 - d2)


# Chunk sizes in pairs: the first chunk, doubled up to the cap, so a run that
# stops early has drawn at most about twice the pairs it used.
_FIRST_CHUNK = 32
_CHUNK_CAP = 1024


def _chunk_sizes(steps: Optional[int]) -> Iterator[int]:
    """Pairs in each successive chunk of a stream that `steps` values are read from.

    The sizes double from _FIRST_CHUNK up to _CHUNK_CAP, endlessly when
    steps is None.  Otherwise each is at most the least _FIRST_CHUNK * 2^k
    that covers the steps left, and the sizes end once they cover steps:
    no pair past the run's last step is drawn, and every size stays one of
    the few that `_lanes` caches.  A 700-step run draws 32 + 64 + 128 +
    256 + 256 = 736 pairs, not 992.  Every size is at least 2, so an
    `itemgetter` of a chunk's indices returns a tuple, not a bare item.
    """
    pairs = _FIRST_CHUNK
    while steps is None or steps > 0:
        if steps is not None:
            pairs = min(pairs, _FIRST_CHUNK << ((steps - 1) // _FIRST_CHUNK).bit_length())
            steps -= pairs
        yield pairs
        pairs = min(2 * pairs, _CHUNK_CAP)


# Indexed by the top byte of an output word z, i.e. by bit 63 of z.
_ONE_OR_TWO = (2.0,) * 128 + (1.0,) * 128


def _same(a: float, b: float) -> bool:
    """Whether two finite doubles are equal bit for bit.

    `==` equates -0.0 and 0.0 and no other two distinct finite doubles.
    """
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@cache
def _lanes(pairs: int, width: int) -> tuple[int, int, int, int, int]:
    """Lane constants for a chunk of `pairs` steps, `width` 128-bit lanes a step.

    Returns (ones, ramp, low, mantissa, exponent): every lane 1; lane
    width * j + i holds (2 j + i + 1) * GOLDEN, the Weyl offset of draw
    2 j + i; every lane 2^64 - 1; every lane 2^52 - 1; every lane the
    exponent bits of 1.0.  Built once per chunk size and width (about 340 KB
    in all at width 2, 170 KB at width 1).
    """

    def lanes(words) -> int:
        return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")

    n = width * pairs
    return (
        lanes([1] * n),
        lanes(2 * j + i + 1 for j in range(pairs) for i in range(width)) * _GOLDEN,
        lanes([_M64] * n),
        lanes([(1 << 52) - 1] * n),
        lanes([0x3FF << 52] * n),
    )


def _noise_chunks(
    s: int,
    ch1: ControlChannel,
    ch2: ControlChannel,
    value: Optional[Callable[[float, float], object]],
    target: Optional[Point2],
    steps: Optional[int],
) -> Iterator[Iterable]:
    """Successive chunks of step values, as `step_values` describes them.

    SplitMix64's state is a Weyl sequence, so draw m of a chunk that starts
    from state s has state s + (m + 1) * GOLDEN: a whole chunk is one int
    with a draw in each 128-bit lane, and each operation of the output step
    runs once on the whole int.  Every lane is masked back to 64 bits before
    each multiply, so a 64 x 64-bit product fits its lane.  Whatever the
    draws used, the state advances two draws per step, channel 1 first.
    The chunks have the sizes of `_chunk_sizes(steps)`: with steps given,
    the last chunk holds step steps - 1 and no pair past it is drawn.

    Only draws whose value can be read are computed.  A channel is constant
    when alpha + ell * -1.0 and alpha + ell * 1.0 are one double, the sign of
    zero included (`ControlChannel.constant_value`), and it is read as
    `repeat` of that double.  Every chi in [-1, 1], under both noise laws,
    realizes it: ell * chi and alpha + ell * chi round monotonically in chi,
    so the value lies between the two equal ends, and a sum is -0.0 only
    when both terms are, which with alpha = -0.0 makes the ends differ.
    This is the whole draw rule: channel i is drawn exactly when it is not
    constant, and with neither drawn the stream is `repeat` of the held pair
    or of its value, and no table is built.

    When every channel that is not constant is Bernoulli, a step's pair
    (d1, d2) depends only on the two sign bits b_i (bit 63 of draw i, chi_i =
    2 b_i - 1), so it is one of four, and so is its value: table[b1 + 2 b2].
    The chunk's indices are one bytes object, and `itemgetter(*indices)`
    of the table gathers the chunk's values into a tuple in C, with no
    Python-level call per step.
    Flipping b_i changes a pair only when channel i's two ends differ, that
    is when it is drawn.  The last xor-shift, z ^= z >> 31, cannot change
    bit 63 of a 64-bit lane, and bits 64 and up of the last product are
    never read, so both are skipped.
    With both channels drawn, t = (z >> 63) & ones holds b in bit 0 of each
    lane, and t | t >> 127 moves b2 beside b1, so byte 32 j of it is the
    index of step j; the mask keeps bits of the next lane out of that byte.
    With one channel i drawn, each step has one lane, drawn at state
    s + (2 j + i + 1) * GOLDEN, and its top byte indexes a 256-entry table.

    Otherwise each drawn channel has its own lane and is read apart, as a
    table of its two values gathered by the top byte (Bernoulli) or through
    the uniform sample: for w = z >> 11, uniform_m1p1(z) = w * 2^-52 - 1 =
    f - 2 + (w >> 52), where f = 1 + (w mod 2^52) * 2^-52 in [1, 2) is the
    double with the exponent bits of 1.0 and mantissa w mod 2^52; f - 1 and
    f - 2 are exact (Sterbenz), so the sample is the reference value bit for
    bit.  The f are read as native doubles, so their bytes are laid out in
    host order, and on a big-endian host the view is reversed to put lane 0's
    low word first.  A uniform channel with alpha = 0 and ell = 1 is chi
    itself, which is never -0.0, so its affine map is skipped.  With a
    target, a drawn channel's values of the chunk are kept in a list, and
    map(mul) and map(sub) over it give d * t and 1.0 - d; a constant channel
    gives `repeat` of its two coefficients.
    """
    channels = (ch1, ch2)
    held = tuple(ch.constant_value for ch in channels)
    drawn = [h is None for h in held]
    if target is not None:
        value = partial(_coefficients, target=target)
        goals = (target.x, target.y)
    if not any(drawn):
        yield repeat(held if value is None else value(*held))
        return

    def at(chi1: float, chi2: float) -> tuple[float, float]:
        return (ch1.alpha + ch1.ell * chi1, ch2.alpha + ch2.ell * chi2)

    table = None
    if all(not d or ch.dist is NoiseDist.BERNOULLI_PM1 for d, ch in zip(drawn, channels)):
        table = (at(-1.0, -1.0), at(1.0, -1.0), at(-1.0, 1.0), at(1.0, 1.0))
        if value is not None:
            table = tuple(value(*d) for d in table)
        if not all(drawn):
            bit = 1 if drawn[0] else 2
            table = (table[0],) * 128 + (table[bit],) * 128
    else:
        sides = [
            (ch.alpha + ch.ell * -1.0,) * 128 + (ch.alpha + ch.ell * 1.0,) * 128 for ch in channels
        ]
    width = sum(drawn)  # lanes a step
    first = drawn.index(True)  # step j's first lane is draw 2 j + first
    for pairs in _chunk_sizes(steps):
        ones, ramp, low, mantissa, exponent = _lanes(pairs, width)
        z = ((s + first * _GOLDEN) * ones + ramp) & low
        z = ((z ^ (z >> 30)) & low) * _MIX1 & low
        z = ((z ^ (z >> 27)) & low) * _MIX2
        if table is not None and width == 2:
            t = (z >> 63) & ones
            yield itemgetter(*(t | t >> 127).to_bytes(32 * pairs, "little")[::32])(table)
        elif table is not None:
            yield itemgetter(*z.to_bytes(16 * pairs, "little")[7::16])(table)
        else:
            z &= low
            z ^= z >> 31
            size = 16 * width * pairs
            raw = z.to_bytes(size, "little")
            f_bits = ((z >> 11) & mantissa) | exponent
            f = memoryview(f_bits.to_bytes(size, sys.byteorder)).cast("d")
            if sys.byteorder == "big":
                f = f[::-1]  # lane 0 last, each lane's low word second
            cols = []  # one iterator per value of a step
            for i, (ch, h) in enumerate(zip(channels, held)):
                if h is not None:
                    cols += [repeat(h)] if target is None else [repeat(h * goals[i]), repeat(1.0 - h)]
                    continue
                lane = i if width == 2 else 0
                top = raw[16 * lane + 7 :: 16 * width]
                if ch.dist is NoiseDist.BERNOULLI_PM1:
                    d = itemgetter(*top)(sides[i])
                else:
                    d = map(sub, f[2 * lane :: 2 * width], itemgetter(*top)(_ONE_OR_TWO))
                    if ch.alpha != 0.0 or ch.ell != 1.0:
                        d = map(add, repeat(ch.alpha), map(mul, repeat(ch.ell), d))
                if target is None:
                    cols.append(d)
                else:
                    d = list(d)
                    cols += [map(mul, d, repeat(goals[i])), map(sub, repeat(1.0), d)]
            yield zip(*cols) if value is None or target is not None else map(value, *cols)
        s = (s + 2 * pairs * _GOLDEN) & _M64


@dataclass(frozen=True)
class ControlChannel:
    """One diagonal control channel: realized intensity d = alpha + ell*chi.

    When ell < min(alpha, 1 - alpha) every realized d stays inside (0, 1)
    (see `admissible`).  Larger amplitudes are accepted -- the controlled map
    extends continuously to d outside [0, 1) and such over-driven channels
    are exercised deliberately in the stochastic experiments -- but they void
    the worst-case contraction guarantees.
    """

    alpha: float
    ell: float = 0.0
    dist: NoiseDist = NoiseDist.BERNOULLI_PM1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha < 1.0):
            raise InvalidControl(f"channel mean must lie in [0, 1), got {self.alpha}")
        if not (math.isfinite(self.ell) and self.ell >= 0.0):
            raise InvalidControl(f"noise amplitude must be >= 0, got {self.ell}")

    @property
    def constant_value(self) -> Optional[float]:
        """The intensity every draw realizes, or None when draws can differ.

        The channel is constant when alpha + ell * -1.0 and alpha + ell * 1.0
        are one double, the sign of zero included; see `_noise_chunks`.  This
        is the one rule of constancy: the sampler draws a channel exactly when
        it is None, and the engine runs a schedule as a constant pair exactly
        when both channels' values are not None.
        """
        lo, hi = self.alpha + self.ell * -1.0, self.alpha + self.ell * 1.0
        return lo if _same(lo, hi) else None

    @property
    def admissible(self) -> bool:
        """True when every realized intensity is guaranteed inside (0, 1)."""
        return 0.0 < self.alpha < 1.0 and self.ell < min(self.alpha, 1.0 - self.alpha)


@dataclass(frozen=True)
class Stochastic:
    """The control schedule: channels d_i = alpha_i + ell_i * chi_i.

    Deterministic control is the case ell_1 = ell_2 = 0; see `Constant`.
    """

    ch1: ControlChannel
    ch2: ControlChannel = field(default_factory=lambda: ControlChannel(0.0))


def Constant(d1: float, d2: float = 0.0) -> Stochastic:
    """The schedule that applies the control pair (d1, d2) at every step."""
    return Stochastic(ControlChannel(d1), ControlChannel(d2))


# Unit channels: d = chi, so `noise_pairs` is `_noise_chunks` read raw.
_UNIT = {dist: ControlChannel(0.0, 1.0, dist) for dist in NoiseDist}


def control_pairs(
    schedule: Stochastic, s: int, target: Optional[Point2] = None, steps: Optional[int] = None
) -> Iterator[tuple[float, ...]]:
    """Realized (d1, d2) pairs of steps 0, 1, 2, ... of `schedule`.

    s is the raw SplitMix64 state of the schedule's noise stream.  The pairs
    are `step_values` of the schedule's two channels: every pair equals the
    one `control_at_step` realizes, the scalar reference, and the stream
    advances two draws per step even where a channel is constant and its
    draws are not computed.  With a target (tx, ty), each step yields
    instead the coefficients (d1 * tx, 1.0 - d1, d2 * ty, 1.0 - d2) of its
    pair.  The stream is endless, or with `steps` drawn only as far as the
    chunk that holds step steps - 1, as in `step_values`.
    """
    return step_values(s, schedule.ch1, schedule.ch2, target=target, steps=steps)


def control_at_step(schedule: Stochastic, rng: RngState) -> tuple[RngState, float, float]:
    """The realized control pair of the step that draws from `rng`, and the next state.

    Every step consumes exactly two noise draws, channel 1 first, even when
    a channel is constant: changing ell must not shift the underlying noise
    stream, so runs differing only in amplitude see the same noise
    realizations.
    """
    s, z1 = _sm64_next(rng.s)
    s, z2 = _sm64_next(s)
    c1, c2 = schedule.ch1, schedule.ch2
    d1 = c1.alpha + c1.ell * sample_noise(c1.dist, z1)
    d2 = c2.alpha + c2.ell * sample_noise(c2.dist, z2)
    return RngState(s), d1, d2


def vmtoc_step(
    params: MapParams, target: Point2, d1: float, d2: float, p: Point2
) -> Point2:
    """One controlled iteration: X' = U X* + (I - U) F(X), U = diag(d1, d2).

    Componentwise x' = d1*x* + (1-d1)*F1(p), y' = d2*y* + (1-d2)*F2(p).
    When the target is a fixed point this is X' - X* = (I-U)(F(X) - X*), so
    the target is invariant for any control pair.
    """
    f = map_step(params, p)
    return Point2(d1 * target.x + (1.0 - d1) * f.x, d2 * target.y + (1.0 - d2) * f.y)
