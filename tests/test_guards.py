"""Guards that refuse operands of the wrong kind, with their exact messages.

Every correct computation passes these checks by, so only a deliberately bad
call reaches them: a class over another ring, a map between other spaces, a
generator kind a type does not hold, or a CLI expression mixing homology and
cohomology generators.
"""

import contextlib
import io

import pytest

from loopalg.cli import run
from loopalg.homology import (
    OrientedSpace,
    RingMap,
    cap,
    diagonal_pushforward,
    dual,
    gysin,
    pairing,
    pd,
    pd_inverse,
)
from loopalg.loops import LoopClass
from loopalg.ring import Generator, Ring, RingMismatchError, TensorRing, cross
from loopalg.spaces import SpaceParams, generator_degree

RING = Ring([Generator("a", 2, 3), Generator("u", 1, 2)])
OTHER = Ring([Generator("a", 2, 3), Generator("u", 3, 2)])
SPACE = OrientedSpace(RING)
IDENTITY = RingMap(RING, RING, {"a": RING.gen("a"), "u": RING.gen("u")})
CP2 = SpaceParams.from_token("cp", 2)


def _point(ring):
    """The dual of the unit monomial, a homology class over ``ring``."""
    return dual(ring, ring.monomial())


class _CliExit(Exception):
    """A CLI run's exit code and what it wrote to stderr, raised as one value."""


def _cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(list(argv))
    raise _CliExit(f"exit {code}: {err.getvalue()}")


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        (
            lambda: pairing(OTHER.one(), _point(RING)),
            RingMismatchError,
            "pairing of classes over different rings",
        ),
        (
            lambda: cap(OTHER.one(), _point(RING)),
            RingMismatchError,
            "cap of classes over different rings",
        ),
        (
            lambda: pd(SPACE, OTHER.one()),
            RingMismatchError,
            "class does not live over the space's ring",
        ),
        (
            lambda: pd_inverse(SPACE, _point(OTHER)),
            RingMismatchError,
            "class does not live over the space's ring",
        ),
        (
            lambda: RingMap(RING, RING, {"a": OTHER.gen("a"), "u": RING.gen("u")}),
            RingMismatchError,
            "image of 'a' lives over the wrong ring",
        ),
        (
            lambda: IDENTITY(OTHER.one()),
            RingMismatchError,
            "element does not live over the map's source",
        ),
        (
            lambda: gysin(IDENTITY, OrientedSpace(OTHER), SPACE, _point(OTHER)),
            RingMismatchError,
            "pullback does not connect the given spaces",
        ),
        (
            lambda: gysin(IDENTITY, SPACE, SPACE, _point(OTHER)),
            RingMismatchError,
            "class does not live over the source space",
        ),
        (
            lambda: diagonal_pushforward(_point(RING), TensorRing(OTHER, OTHER)),
            RingMismatchError,
            "tensor ring is not the square of the class's ring",
        ),
        (
            lambda: cross(RING.one(), _point(RING), TensorRing(RING, RING)),
            TypeError,
            "cross of RingElement and HomologyElement",
        ),
        (
            lambda: cross(RING.one(), OTHER.one(), TensorRing(RING, RING)),
            RingMismatchError,
            "cross factors do not match the tensor ring",
        ),
        (
            lambda: _cli("--space", "cp", "--n", "2", "coproduct", "A[1,0] x s[1,0]"),
            _CliExit,
            "exit 2: loopalg: error: cannot mix homology and cohomology generators "
            "(at position 0)\n",
        ),
        (
            lambda: LoopClass(CP2, {("s", 1, 0): 1}),
            ValueError,
            "unexpected generator kind 's'",
        ),
        (
            lambda: generator_degree(CP2, "C", 1, 0),
            ValueError,
            "unknown generator kind 'C'",
        ),
    ],
    ids=[
        "pairing",
        "cap",
        "pd",
        "pd_inverse",
        "RingMap-image",
        "RingMap-call",
        "gysin-spaces",
        "gysin-class",
        "diagonal_pushforward",
        "cross-type",
        "cross-ring",
        "cli-mixed-tensor-term",
        "LoopClass-kind",
        "generator_degree-kind",
    ],
)
def test_guard_refuses_with_its_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
