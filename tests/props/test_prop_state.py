"""Property tests: incremental checkpointing equals full state.

The core invariant of paper II.F.2's incremental checkpoints: for ANY
sequence of mutations and checkpoint boundaries, folding (base full
snapshot + all deltas since) through :mod:`repro.runtime.state_merge` —
the fold promotion and the divergence auditor use — reconstructs the
live state exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import MapCell, StateRegistry, ValueCell
from repro.runtime.state_merge import merge_cell, merge_component_snapshots

from tests.helpers import cells_snapshot

keys = st.sampled_from(["a", "b", "c", "d", "e"])
values = st.one_of(st.integers(), st.text(max_size=5),
                   st.lists(st.integers(), max_size=3))

map_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), keys, values),
        st.tuples(st.just("del"), keys, st.none()),
        st.tuples(st.just("checkpoint"), st.none(), st.none()),
    ),
    max_size=60,
)


@given(map_ops)
def test_map_cell_base_plus_deltas_equals_live(ops):
    live = MapCell("m")
    shadow = live.full_snapshot()
    live.mark_clean()
    for op, key, value in ops:
        if op == "set":
            live[key] = value
        elif op == "del":
            if key in live:
                del live[key]
        else:  # checkpoint boundary: ship the delta, clean the live cell
            shadow = merge_cell(shadow, live.delta_snapshot())
            live.mark_clean()
    shadow = merge_cell(shadow, live.delta_snapshot())
    assert shadow == live.full_snapshot()


value_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), values),
        st.tuples(st.just("checkpoint"), st.none()),
    ),
    max_size=40,
)


@given(value_ops)
def test_value_cell_base_plus_deltas_equals_live(ops):
    live = ValueCell("v", 0)
    shadow = live.full_snapshot()
    live.mark_clean()
    for op, value in ops:
        if op == "set":
            live.set(value)
        else:
            shadow = merge_cell(shadow, live.delta_snapshot())
            live.mark_clean()
    shadow = merge_cell(shadow, live.delta_snapshot())
    assert shadow == live.get()


registry_ops = st.lists(
    st.one_of(
        st.tuples(st.just("map_set"), keys, values),
        st.tuples(st.just("map_del"), keys, st.none()),
        st.tuples(st.just("value_set"), st.none(), values),
        st.tuples(st.just("checkpoint"), st.none(), st.none()),
    ),
    max_size=60,
)


@given(registry_ops)
def test_registry_level_incremental_checkpointing(ops):
    def build():
        reg = StateRegistry("c")
        return reg, reg.map("m"), reg.value("v", 0)

    live_reg, live_map, live_val = build()
    shadow = cells_snapshot(live_reg.full_snapshot(), incremental=False)
    live_reg.mark_clean()

    def ship(shadow):
        delta = cells_snapshot(live_reg.delta_snapshot(), incremental=True)
        return merge_component_snapshots(shadow, delta)

    for op, key, value in ops:
        if op == "map_set":
            live_map[key] = value
        elif op == "map_del":
            if key in live_map:
                del live_map[key]
        elif op == "value_set":
            live_val.set(value)
        else:
            shadow = ship(shadow)
            live_reg.mark_clean()
    assert ship(shadow)["cells"] == live_reg.full_snapshot()
