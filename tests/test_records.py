"""Record semantics: immutable named tuples, outcomes equal only their own kind."""

import math
import re
from array import array

import pytest

from chaosctl import (
    Bounded,
    ControlChannel,
    Converged,
    DomainError,
    Escaped,
    InvalidControl,
    MapKind,
    MapParams,
    Matrix2,
    MonteCarloReport,
    NoiseDist,
    NuModel,
    Periodic,
    Point2,
    PointSet,
    RngState,
    SimConfig,
    Stochastic,
    SweepResult,
    Trajectory,
)
from chaosctl.verify import CheckRow

RECORDS = [
    Point2(0.1, 0.2),
    Matrix2(1.0, 2.0, 3.0, 4.0),
    MapParams(MapKind.HENON, 1.4, 0.3),
    RngState(1),
    ControlChannel(0.5, 0.1),
    Stochastic(ControlChannel(0.5)),
    SimConfig(Point2(0.0, 0.0), 10),
    Converged(5),
    Periodic(2),
    Bounded(),
    Escaped(3),
    Trajectory([(0.0, 0.0)], [], Bounded(), 0),
    MonteCarloReport(4, 2, 0.5, 0.1, 0.9),
    PointSet((Point2(0.0, 0.0),)),
    SweepResult((0.1, 0.2), [None, array("d", [0.3])]),
    NuModel(1.0, 0.1, 0.2, NoiseDist.BERNOULLI_PM1, NoiseDist.UNIFORM_M1P1, True),
    CheckRow("x", True, "ok"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    # no __dict__: a record holds its fields and nothing else
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_outcomes_equal_only_their_own_kind():
    assert Converged(5) != Escaped(5) and Escaped(5) != Converged(5)
    assert Periodic(1) != Converged(1) and Converged(1) != Periodic(1)
    assert not Converged(5) == Escaped(5)
    assert Converged(5) != (5,) and Bounded() != ()
    assert Converged(5) == Converged(5) and Bounded() == Bounded()
    assert not Periodic(2) != Periodic(2)
    assert hash(Escaped(7)) == hash(Escaped(7))
    assert len({Converged(1), Escaped(1), Periodic(1), Bounded(), Bounded()}) == 4


def test_outcomes_are_truthy_with_unchanged_text():
    outcomes = [Converged(12), Periodic(3), Bounded(), Escaped(4)]
    assert all(outcomes)
    assert [str(o) for o in outcomes] == ["converged@12", "periodic(3)", "bounded", "escaped@4"]
    assert [repr(o) for o in outcomes] == [
        "Converged(at_step=12)", "Periodic(period=3)", "Bounded()", "Escaped(at_step=4)",
    ]


def test_point_repr_and_default_channel():
    assert repr(Point2(0.1, 0.2)) == "Point2(x=0.1, y=0.2)"
    ch1 = ControlChannel(0.3, 0.1)
    assert Stochastic(ch1).ch2 == ControlChannel(0.0)
    assert ControlChannel(0.4) == ControlChannel(0.4, 0.0, NoiseDist.BERNOULLI_PM1)
    assert SimConfig(Point2(0.0, 0.0), 5).seed == 0


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: MapParams(MapKind.HENON, -1.0, 0.3), DomainError,
         "map coefficient a must be finite and > 0, got -1.0"),
        (lambda: MapParams(MapKind.LOZI, 1.4, math.inf), DomainError,
         "map coefficient b must be finite and > 0, got inf"),
        (lambda: MapParams(kind=MapKind.LOZI, a=1.4, b=0.0), DomainError,
         "map coefficient b must be finite and > 0, got 0.0"),
        (lambda: RngState(-1), InvalidControl,
         "rng state must be a 64-bit unsigned value, got -1"),
        (lambda: RngState(1 << 64), InvalidControl,
         f"rng state must be a 64-bit unsigned value, got {1 << 64}"),
        (lambda: ControlChannel(1.0), InvalidControl,
         "channel mean must lie in [0, 1), got 1.0"),
        (lambda: ControlChannel(math.nan), InvalidControl,
         "channel mean must lie in [0, 1), got nan"),
        (lambda: ControlChannel(0.5, -0.1), InvalidControl,
         "noise amplitude must be >= 0, got -0.1"),
        (lambda: ControlChannel(alpha=0.5, ell=math.inf), InvalidControl,
         "noise amplitude must be >= 0, got inf"),
        (lambda: SimConfig(Point2(0.0, 0.0), 0), ValueError,
         "steps must be positive, got 0"),
        (lambda: SimConfig(initial=Point2(0.0, 0.0), steps=-3, seed=1), ValueError,
         "steps must be positive, got -3"),
        (lambda: PointSet(()), ValueError, "initial point set must be non-empty"),
    ],
)
def test_validated_records_keep_their_errors(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        make()
    assert type(exc.value) is error
