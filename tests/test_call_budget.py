"""How many Python function calls each scalar library call makes.

The scalar-calls benchmark times rounds of nine library calls whose cost
is per-call overhead rather than arithmetic, so a change that adds a
Python-level hop shows here as a count, without timing noise.  A count
that drops is a change to record, as is one that rises: update the pin
and say why.
"""

import sys

import pytest

import hopfrot
from hopfrot import AxisAngle, ComplexPair, Quaternion

AA = AxisAngle(0.7, (0.48, 0.6, 0.64))
POINT = [0.6, 0.0, 0.8]
UNIT_PAIR = ComplexPair(0.6 + 0j, 0.0 + 0.8j)
STATE = ComplexPair(0.3 + 0.4j, 1.2 - 0.5j)

# the nine calls of one scalar-calls round (bench/workloads.py), with the
# Python calls each makes, itself included
BUDGET = {
    "rotate": ((AA, POINT), 13),
    "gq": ((AA,), 4),
    "gb": ((AA,), 6),
    "quat_hopf": ((Quaternion(0.5, 0.5, 0.5, 0.5),), 6),
    "bloch": ((STATE,), 12),
    "hopf_classic": ((UNIT_PAIR,), 19),
    "lift_bloch": ((POINT,), 15),
    "lift_quat_hopf": ((POINT,), 15),
    "rotate_via_bloch": ((AA, STATE), 21),
}


def python_calls(f, *args) -> int:
    """The Python-level `call` events of f(*args), after one call that
    finishes any lazy set-up."""
    f(*args)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name", list(BUDGET))
def test_scalar_call_budget(name):
    args, budget = BUDGET[name]
    assert python_calls(getattr(hopfrot, name), *args) == budget
