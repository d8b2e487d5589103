"""Property tests: checkpoint serializer is a lossless canonical codec."""

import json
from base64 import b64encode

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StateError
from repro.runtime.checkpoint import dumps, loads

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

dict_keys = st.one_of(
    st.text(max_size=8),
    st.integers(-1000, 1000),
    st.tuples(st.integers(0, 9), st.text(max_size=4)),
)

trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(dict_keys, children, max_size=4),
    ),
    max_leaves=25,
)


@given(trees)
def test_roundtrip_identity(value):
    assert loads(dumps(value)) == value


@given(trees)
def test_roundtrip_preserves_types(value):
    restored = loads(dumps(value))

    def same_shape(a, b):
        if isinstance(a, tuple):
            return isinstance(b, tuple) and all(
                same_shape(x, y) for x, y in zip(a, b))
        if isinstance(a, list):
            return isinstance(b, list) and all(
                same_shape(x, y) for x, y in zip(a, b))
        if isinstance(a, dict):
            return isinstance(b, dict) and all(
                same_shape(a[k], b[k]) for k in a)
        if isinstance(a, bool):
            return isinstance(b, bool)
        return type(a) is type(b) or a == b

    assert same_shape(value, restored)


@given(st.dictionaries(st.text(max_size=6), scalars, max_size=6))
def test_canonical_bytes_independent_of_insertion_order(mapping):
    items = list(mapping.items())
    forward = dict(items)
    backward = dict(reversed(items))
    assert dumps(forward) == dumps(backward)


@given(trees, trees)
def test_equal_bytes_imply_equal_values(a, b):
    # Injectivity: the canonical encoding never conflates two values.
    # (The converse does not hold: Python says False == 0.0, but the
    # encoding is deliberately type-preserving and distinguishes them.)
    if dumps(a) == dumps(b):
        assert a == b
        assert loads(dumps(a)) == loads(dumps(b))


@given(trees)
def test_same_value_same_bytes(a):
    import copy

    assert dumps(a) == dumps(copy.deepcopy(a))


# ----------------------------------------------------------------------
# The bytes are pinned: checkpoints, ``.replay`` bundles and every digest
# test were written by the encoder below (one Python call per value, an
# ``isinstance`` chain, ``json.dumps`` rebuilt per call).  It is kept
# here as the oracle for the one-pass encoder that replaced it.
# ----------------------------------------------------------------------

_TAG = "__t__"


def _reference_encode(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {_TAG: "b", "v": b64encode(obj).decode("ascii")}
    if isinstance(obj, tuple):
        return {_TAG: "t", "v": [_reference_encode(x) for x in obj]}
    if isinstance(obj, list):
        return [_reference_encode(x) for x in obj]
    if isinstance(obj, dict):
        if _TAG not in obj and all(type(k) is str for k in obj):
            return {k: _reference_encode(v) for k, v in obj.items()}
        items = []
        for key, value in obj.items():
            items.append([_reference_encode_key(key),
                          _reference_encode(value)])
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {_TAG: "d", "v": items}
    raise StateError(f"unserializable value of type {type(obj).__name__}")


def _reference_encode_key(key):
    if isinstance(key, (str, int, bool)) or key is None:
        return _reference_encode(key)
    if isinstance(key, (tuple, bytes)):
        return _reference_encode(key)
    raise StateError(f"unserializable dict key of type {type(key).__name__}")


def reference_dumps(obj):
    return json.dumps(_reference_encode(obj), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


oracle_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.integers(-5, 5).map(_Int),
    st.text(max_size=4).map(_Str),
    st.just(_TAG),
)

oracle_keys = st.one_of(
    st.text(max_size=6),
    st.just(_TAG),
    st.text(max_size=4).map(_Str),
    st.integers(-50, 50),
    st.booleans(),
    st.none(),
    st.binary(max_size=4),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
    st.tuples(st.tuples(st.integers(0, 3)), st.booleans()),
)

oracle_trees = st.recursive(
    oracle_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(_List),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(_Tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(oracle_keys, children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=3).map(_Dict),
        # The hot shape: tuples inside lists inside str-keyed dicts.
        st.dictionaries(
            st.text(max_size=5),
            st.lists(st.lists(children, max_size=3).map(tuple), max_size=3),
            max_size=3),
    ),
    max_leaves=30,
)


def _exactly(a, b):
    """Equal values of the same builtin types all the way down (so
    ``True`` is not ``1``, a tuple is not a list, ``-0.0`` is not ``0``).
    A subclass instance comes back as its builtin base."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a is b
    if isinstance(a, float):
        return type(b) is float and repr(float(a)) == repr(b)
    if a is None:
        return b is None
    for base in (int, str, bytes):
        if isinstance(a, base):
            return type(b) is base and base(a) == b
    if isinstance(a, (list, tuple)):
        base = tuple if isinstance(a, tuple) else list
        return (type(b) is base and len(a) == len(b)
                and all(_exactly(x, y) for x, y in zip(a, b)))
    assert isinstance(a, dict)
    if type(b) is not dict or len(a) != len(b):
        return False
    # Python conflates the keys True/1 and False/0 in one dict already,
    # so lookups by the original key are exact enough here.
    return all(k in b and _exactly(v, b[k]) for k, v in a.items())


@given(oracle_trees)
def test_dumps_matches_the_reference_encoder_byte_for_byte(value):
    assert dumps(value) == reference_dumps(value)


@given(oracle_trees)
def test_loads_restores_exact_types(value):
    assert _exactly(value, loads(dumps(value)))


@given(st.binary(max_size=40))
def test_loads_of_arbitrary_bytes_raises_only_state_error(blob):
    try:
        loads(blob)
    except StateError:
        pass
