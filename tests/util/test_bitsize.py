"""Tests for repro.util.bitsize."""

import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitsize import bits_for_int, payload_bits


class TestBitsForInt:
    def test_zero_costs_one_bit(self):
        assert bits_for_int(0) == 1

    def test_small_values(self):
        assert bits_for_int(1) == 1
        assert bits_for_int(2) == 2
        assert bits_for_int(255) == 8
        assert bits_for_int(256) == 9

    def test_negative_costs_sign_bit(self):
        assert bits_for_int(-1) == bits_for_int(1) + 1

    @given(st.integers(min_value=1, max_value=2**62))
    def test_monotone_in_magnitude(self, value):
        assert bits_for_int(value) <= bits_for_int(2 * value)


class TestPayloadBits:
    def test_none_is_one_bit(self):
        assert payload_bits(None) == 1

    def test_bool_is_one_bit(self):
        assert payload_bits(True) == 1

    def test_float_is_64_bits(self):
        assert payload_bits(1.5) == 64

    def test_string_costs_eight_bits_per_char(self):
        assert payload_bits("abc") == 24

    def test_tuple_sums_fields_plus_overhead(self):
        flat = payload_bits((1, 2))
        assert flat == bits_for_int(1) + bits_for_int(2) + 2 * 2

    def test_nested_tuples(self):
        assert payload_bits(((1,),)) > payload_bits((1,))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            payload_bits({"a": 1})

    def test_empty_containers_are_not_free(self):
        # Regression: sum() over an empty tuple/list charged 0 bits — a
        # zero-cost signaling channel below the 1-bit minimum every other
        # payload pays.
        assert payload_bits(()) >= 1
        assert payload_bits([]) >= 1
        assert payload_bits(((),)) > payload_bits(())

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=8))
    def test_list_size_grows_with_content(self, values):
        assert payload_bits(values) >= max(1, len(values))


def _reference_bits_for_int(value: int) -> int:
    """The sign-and-magnitude formula ``bits_for_int`` had before it was
    respelled to match the inline copies in ``payload_bits``."""
    return max(1, abs(value).bit_length()) + (1 if value < 0 else 0)


def _reference_payload_bits(payload: object) -> int:
    """The recursive sizing ``payload_bits`` had before its exact-type fast
    paths: the oracle they must agree with."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return _reference_bits_for_int(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * max(1, len(payload))
    if isinstance(payload, (tuple, list)):
        if not payload:
            return 2
        return sum(_reference_payload_bits(item) + 2 for item in payload)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class _Tag(enum.IntEnum):
    ACK = 0
    DATA = 5
    FAR = -(2**70)


_LEAVES = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.sampled_from(list(_Tag)),
    st.floats(),
    st.text(max_size=6),
)

_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=4).map(tuple) | st.lists(children, max_size=4)
    ),
    max_leaves=24,
)


class TestPayloadBitsOracle:
    @given(
        st.one_of(
            st.integers(),
            st.integers(min_value=2**64, max_value=2**200),
            st.integers(min_value=-(2**200), max_value=-(2**64)),
            st.sampled_from([*_Tag, True, False]),
        )
    )
    def test_bits_for_int_matches_the_reference(self, value):
        bits = bits_for_int(value)
        assert bits == _reference_bits_for_int(value)
        assert type(bits) is int

    @given(_PAYLOADS)
    def test_matches_the_recursive_reference(self, payload):
        bits = payload_bits(payload)
        assert bits == _reference_payload_bits(payload)
        assert type(bits) is int

    @given(
        st.lists(_PAYLOADS, max_size=3),
        st.sampled_from([{}, {"a": 1}, frozenset(), frozenset({1, 2})]),
        st.lists(_PAYLOADS, max_size=3),
        st.booleans(),
    )
    def test_type_error_parity_for_unsizable_fields(self, before, bad, after, nest):
        field = (bad,) if nest else bad
        payload = (*before, field, *after)
        with pytest.raises(TypeError) as expected:
            _reference_payload_bits(payload)
        with pytest.raises(TypeError) as got:
            payload_bits(payload)
        assert str(got.value) == str(expected.value)
