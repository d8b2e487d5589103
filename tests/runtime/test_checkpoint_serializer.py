"""Unit tests for canonical checkpoint serialization."""

import pytest

from repro.errors import StateError
from repro.runtime.checkpoint import dumps, loads


class TestRoundtrip:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -5, 2**62, 3.25, "text", b"\x00\xffbytes",
        [1, 2, 3], (1, 2), {"a": 1}, {}, [], (),
    ])
    def test_scalar_and_container_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_tuple_preserved_as_tuple(self):
        assert isinstance(loads(dumps((1, 2))), tuple)
        assert isinstance(loads(dumps([1, 2])), list)

    def test_nested_structures(self):
        value = {"cells": {"m": {"k": [1, (2, 3), b"x"]}},
                 "pending": [(0, 100, "p")]}
        assert loads(dumps(value)) == value

    def test_int_keys_preserved(self):
        value = {1: "a", 2: "b"}
        restored = loads(dumps(value))
        assert restored == value
        assert all(isinstance(k, int) for k in restored)

    def test_tuple_keys_preserved(self):
        value = {(1, "x"): 5}
        assert loads(dumps(value)) == value

    def test_mixed_key_types(self):
        value = {1: "int", "1": "str"}
        assert loads(dumps(value)) == value


class TestCanonical:
    def test_dict_order_does_not_matter(self):
        a = dumps({"x": 1, "y": 2})
        b = dumps({"y": 2, "x": 1})
        assert a == b

    def test_identical_states_identical_bytes(self):
        state = {"counts": {"w1": 3, "w2": 1}, "vt": 233_000}
        assert dumps(state) == dumps(dict(state))

    def test_different_states_differ(self):
        assert dumps({"a": 1}) != dumps({"a": 2})


class TestErrors:
    def test_unserializable_value_rejected(self):
        with pytest.raises(StateError):
            dumps({"bad": object()})

    def test_unserializable_key_rejected(self):
        with pytest.raises(StateError):
            dumps({object(): 1})

    def test_set_rejected(self):
        with pytest.raises(StateError):
            dumps({1, 2, 3})


class TestPlainDictFastPath:
    """Str-keyed dicts skip the tagged ``{"__t__": "d"}`` wrapper (the
    serializer hot path); tagging is reserved for ambiguous shapes."""

    def test_plain_str_dict_stays_plain_on_the_wire(self):
        blob = dumps({"b": 2, "a": 1})
        assert blob == b'{"a":1,"b":2}'  # no wrapper, keys sorted

    def test_plain_dict_is_canonical_across_insertion_order(self):
        forward = {"x": 1, "y": {"n": [1, 2]}, "z": 3}
        backward = dict(reversed(list(forward.items())))
        assert dumps(forward) == dumps(backward)
        assert loads(dumps(forward)) == forward

    def test_tag_key_collision_takes_the_wrapped_path(self):
        # A user dict that *contains* the tag key must not be mistaken
        # for serializer framing when decoded.
        tricky = {"__t__": "d", "v": [1, 2]}
        blob = dumps(tricky)
        assert loads(blob) == tricky

    def test_bool_keys_are_not_str_keys(self):
        # bool is an int subclass, and type(True) is not str: both take
        # the tagged path and survive with their types intact.
        restored = loads(dumps({True: "t"}))
        assert restored == {True: "t"}
        assert type(list(restored)[0]) is bool

    def test_legacy_tagged_str_dict_still_decodes(self):
        # Blobs written before the fast path wrapped *every* dict; the
        # decoder must keep reading them (old checkpoints, old peers).
        legacy = b'{"__t__":"d","v":[["a",1],["b",2]]}'
        assert loads(legacy) == {"a": 1, "b": 2}

    def test_nested_mixed_shapes(self):
        value = {
            "plain": {"k": (1, b"\x00\xff")},
            "tagged": {0: "int-keyed", ("t", 1): "tuple-keyed"},
        }
        assert loads(dumps(value)) == value
