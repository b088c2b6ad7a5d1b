"""The package's errors survive pickling, as a pooled sweep's worker sends them."""

import inspect
import pickle

import pytest

from factorwitness import errors

# Constructor arguments of the errors that take their own; every other
# error takes a message.
ARGUMENTS = {
    errors.ProofViolationError: ("3 < 2",),
    errors.CounterexampleFoundError: ([(20, 3), (20, 4)],),
    errors.AnomalyFoundError: ([(8, 3)],),
    errors.GoldbachCounterexampleError: (10, "no odd prime left", {"factors": (3, 7)}),
    errors.SweepInterrupted: ("sweep.ckpt", 3),
}
CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.EngineError) and cls.__module__ == errors.__name__
]


def test_every_error_is_covered():
    assert len(CLASSES) >= 12
    assert set(ARGUMENTS) <= set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    exc = cls(*ARGUMENTS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
