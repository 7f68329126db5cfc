"""The value types keep a frozen dataclass's contract, and the package resolves its names lazily.

``SpaceParams``, ``Generator`` and ``PresMonomial`` are compared against
reference frozen dataclasses with the same fields, built here: the same
``repr``, ``==`` and ``hash``.  An instance never equals a plain tuple,
assigning or deleting a field raises ``AttributeError``, copies and pickles
round-trip, and every validation message stays as it was.
"""

import copy
import dataclasses
import importlib
import pickle

import pytest

import loopalg
from loopalg.loops import PresMonomial
from loopalg.ring import Generator
from loopalg.spaces import SpaceParams

CASES = [
    (SpaceParams, ("family", "n"), [("complex", 2), ("quaternionic", 3), ("complex", 1)]),
    (Generator, ("name", "degree", "truncation"), [("a", 2, 3), ("b", 5, 2), ("xi", 3, 2)]),
    (
        PresMonomial,
        ("omega", "alphas", "betas"),
        [(1, (0, 1), (0, 1, 0)), (0, (), (2,)), (3, (1,), (0, 0))],
    ),
]


def _reference(cls, fields):
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize("cls, fields, rows", CASES, ids=[case[0].__name__ for case in CASES])
def test_repr_eq_and_hash_match_a_frozen_dataclass(cls, fields, rows):
    ref = _reference(cls, fields)
    for row in rows:
        value = cls(*row)
        assert repr(value) == repr(ref(*row))
        assert hash(value) == hash(ref(*row)) == hash(row)
        assert value == cls(*row) and not value != cls(*row)
        assert value == cls(**dict(zip(fields, row)))
        assert value != row and row != value
        assert value != ref(*row)
    values = [cls(*row) for row in rows]
    assert len(set(values)) == len(rows)
    assert [a == b for a in values for b in values] == [a == b for a in rows for b in rows]


@pytest.mark.parametrize("cls, fields, rows", CASES, ids=[case[0].__name__ for case in CASES])
def test_fields_cannot_be_assigned_or_deleted(cls, fields, rows):
    value = cls(*rows[0])
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == rows[0]


@pytest.mark.parametrize("cls, fields, rows", CASES, ids=[case[0].__name__ for case in CASES])
def test_copy_and_pickle_round_trip(cls, fields, rows):
    for row in rows:
        value = cls(*row)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value


def test_repr_form_is_pinned():
    assert repr(SpaceParams("complex", 2)) == "SpaceParams(family='complex', n=2)"
    assert repr(Generator("a", 2, 3)) == "Generator(name='a', degree=2, truncation=3)"


def test_presentation_counts_stay_out_of_the_contract():
    p = PresMonomial(2, (1, 0), (0, 0, 1))
    assert (p.factor_count, p.sub_index, p.beta_count) == (4, 3, 1)
    assert repr(p) == "PresMonomial(omega=2, alphas=(1, 0), betas=(0, 0, 1))"
    with pytest.raises(AttributeError):
        p.factor_count = 5


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SpaceParams("real", 2), "unknown family 'real'"),
        (lambda: SpaceParams("complex", 0), "n must be at least 1"),
        (lambda: SpaceParams.from_token("rp", 2), "unknown space token 'rp'"),
        (lambda: Generator("g", -1, 2), "generator 'g': degree must be non-negative"),
        (lambda: Generator("g", 2, 1), "generator 'g': truncation must be at least 2"),
        (lambda: Generator("g", 3, 3), "generator 'g': odd degree forces truncation 2"),
        (lambda: PresMonomial(-1, (0,), (0, 0)), "exponents must be non-negative"),
        (lambda: PresMonomial(1, (0,), (-1, 0)), "exponents must be non-negative"),
        (
            lambda: PresMonomial(0, (0,), (0, 0)),
            "the constant monomial is not in the presentation ring",
        ),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_a_valid_generator_formats_no_refusal():
    # The degree and truncation refusals name the generator by its repr;
    # a generator that passes must not build their text.
    class Counted(str):
        calls = 0

        def __repr__(self):
            Counted.calls += 1
            return super().__repr__()

    name = Counted("g")
    for degree, truncation in ((2, 3), (1, 2), (4, 2)):
        Generator(name, degree, truncation)
    assert Counted.calls == 0
    with pytest.raises(TypeError) as err:
        Generator(name, 2, 3.0)
    assert str(err.value) == "generator 'g': truncation must be an int, not 3.0"
    assert Counted.calls > 0


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from loopalg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == loopalg.__all__
    for name in loopalg.__all__:
        assert namespace[name] is getattr(loopalg, name)


def test_each_public_name_comes_from_the_module_that_defines_it():
    for name in loopalg.__all__:
        value = getattr(loopalg, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value


def test_dir_lists_every_public_name():
    assert set(loopalg.__all__) <= set(dir(loopalg))
    assert "__version__" in dir(loopalg)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        loopalg.no_such_name
    assert not hasattr(loopalg, "no_such_name")
    with pytest.raises(ImportError):
        exec("from loopalg import no_such_name", {})
