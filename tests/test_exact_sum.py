"""The contract of `exact._fsum`, the package's one exact sum over an array: the float
that `math.fsum(values.tolist())` returns, bit for bit with the sign of zero, and the
exception it raises where it raises one.  The test names no property of the helper's
body, so any correctly rounded body must pass it as it stands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depevap.exact import _fsum

CHUNK = 1 << 16  # entries per list the helper builds today; lengths cross it


def _outcome(total, values):
    """("ok", the bits of the sum) or ("raises", the exception type)."""
    try:
        result = total(values)
    except (OverflowError, ValueError) as exc:
        return "raises", type(exc)
    assert isinstance(result, float)
    return "ok", result.hex()


def _check(values):
    values = np.asarray(values, dtype=np.float64)
    want = _outcome(lambda v: math.fsum(v.tolist()), values)
    assert _outcome(_fsum, values) == want


# a sign, a 53-bit mantissa in [1/2, 1) and an exponent from -1070 to 1000, so that
# the entries reach from subnormals to 2^1000; plus signed zeros and the extremes
ENTRIES = st.one_of(
    st.builds(lambda negative, m, e: math.ldexp(-m if negative else m, e),
              st.booleans(), st.floats(0.5, 1.0, exclude_max=True), st.integers(-1070, 1000)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]))


@st.composite
def vectors(draw):
    """Entries, then none, some or all of them again negated (cancellation, down to
    an exact 0), in a drawn order."""
    values = draw(st.lists(ENTRIES, max_size=40))
    cancel = draw(st.sampled_from(["none", "some", "all"]))
    if cancel == "all":
        values += [-v for v in values]
    elif cancel == "some" and values:
        values += [-v for v in draw(st.lists(st.sampled_from(values), max_size=len(values)))]
    return draw(st.permutations(values))


@pytest.mark.parametrize("values", [
    [], [0.0], [-0.0], [-0.0] * 3, [-0.0] * (CHUNK + 1), [0.0, -0.0],
    [5e-324], [-5e-324, -5e-324], [5e-324] * (CHUNK + 3), [2.0 ** -1070, -(2.0 ** -1071)],
    [1.0, 1e100, 1.0, -1e100], [1e308, -1e308, 1e-308], [2.0 ** 1000, -(2.0 ** 1000)],
    [0.1] * 10, [1e16, 1.0, -1e16], [1.0, 2.0 ** -53, 2.0 ** -106],
    [math.inf], [math.inf, 1.0], [-math.inf, -math.inf], [math.nan], [1.0, math.nan],
], ids=lambda v: repr(v) if len(v) < 8 else f"{v[0]!r}x{len(v)}")
def test_named_vectors(values):
    _check(values)


@pytest.mark.parametrize("values, error", [
    ([1e308, 1e308], OverflowError),
    ([1.7976931348623157e308, 1.7976931348623157e308, -1.0], OverflowError),
    ([math.inf, -math.inf], ValueError),
    ([1.0, -math.inf, 2.0, math.inf], ValueError),
])
def test_raises_where_fsum_raises(values, error):
    with pytest.raises(error):
        math.fsum(values)
    _check(values)


@settings(max_examples=300, deadline=None)
@given(values=vectors())
def test_equals_fsum_bit_for_bit(values):
    _check(values)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       length=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
       exponents=st.sampled_from([(-1070, 1000), (-60, 60), (-2, 2)]),
       cancel=st.booleans())
def test_long_vectors_equal_fsum(seed, length, exponents, cancel):
    """Lengths past one chunk, with wide or narrow exponents, and an exact cancellation
    of every entry against a shuffled negated copy."""
    rng = np.random.default_rng(seed)
    values = np.ldexp(rng.uniform(-1.0, 1.0, length), rng.integers(*exponents, length))
    if cancel:
        values = np.concatenate([values, -rng.permutation(values)])
    _check(values)
