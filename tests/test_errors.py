"""errors.require_number: the one rule that reads an outside number."""

import math

import numpy as np
import pytest

from canard.errors import DomainError, require_number


@pytest.mark.parametrize("value", [True, False, "abc", None, [1.0]])
def test_non_numbers_rejected(value):
    # float(True) is 1.0: a bool must not pass as a number
    with pytest.raises(DomainError) as info:
        require_number("setting 'x'", value)
    assert str(info.value) == f"setting 'x' is not a number: {value!r}"


def test_int_past_the_float_range_is_infinite():
    assert require_number("x", 10 ** 400) == math.inf
    assert require_number("x", -10 ** 400) == -math.inf


@pytest.mark.parametrize("value, want", [
    (np.float64(0.1), 0.1), (np.float32(0.5), 0.5), (np.int64(3), 3.0), (7, 7.0),
    ("2.5", 2.5), ("1e400", math.inf)])
def test_numbers_read_as_floats(value, want):
    got = require_number("x", value)
    assert type(got) is float and got == want


def test_finiteness_is_left_to_the_caller():
    assert math.isnan(require_number("x", float("nan")))
