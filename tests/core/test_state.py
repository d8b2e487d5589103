"""Unit tests for checkpointable state cells.

Deltas are folded through :mod:`repro.runtime.state_merge`, the fold
that promotion and the divergence auditor use.
"""

import pytest

from repro.core.state import MapCell, StateRegistry, ValueCell
from repro.errors import RecoveryError, StateError
from repro.runtime.state_merge import merge_cell, merge_component_snapshots

from tests.helpers import cells_snapshot


class TestValueCell:
    def test_get_set(self):
        cell = ValueCell("x", 1)
        assert cell.get() == 1
        cell.set(5)
        assert cell.get() == 5

    def test_full_snapshot_is_deep_copy(self):
        cell = ValueCell("x", {"a": [1, 2]})
        snap = cell.full_snapshot()
        cell.get()["a"].append(3)
        assert snap == {"a": [1, 2]}

    def test_delta_tracks_dirtiness(self):
        cell = ValueCell("x", 1)
        assert cell.delta_snapshot() == (True, 1)  # initial value is dirty
        cell.mark_clean()
        assert cell.delta_snapshot() == (False, None)
        cell.set(2)
        assert cell.delta_snapshot() == (True, 2)

    def test_restore_full(self):
        cell = ValueCell("x")
        cell.restore_full(42)
        assert cell.get() == 42
        assert cell.delta_snapshot() == (False, None)

    def test_apply_delta(self):
        cell = ValueCell("x", 0)
        base = cell.full_snapshot()
        cell.mark_clean()
        assert merge_cell(base, cell.delta_snapshot()) == 0
        cell.set(9)
        assert merge_cell(base, cell.delta_snapshot()) == 9


class TestMapCell:
    def test_dict_interface(self):
        cell = MapCell("m")
        cell["a"] = 1
        cell["b"] = 2
        assert cell["a"] == 1
        assert cell.get("zz", "dflt") == "dflt"
        assert "b" in cell
        assert len(cell) == 2
        assert sorted(cell) == ["a", "b"]
        assert sorted(cell.items()) == [("a", 1), ("b", 2)]
        assert sorted(cell.keys()) == ["a", "b"]
        assert sorted(cell.values()) == [1, 2]
        del cell["a"]
        assert "a" not in cell

    def test_initial_content_is_dirty(self):
        cell = MapCell("m", {"a": 1})
        assert cell.delta_snapshot() == {"a": 1}

    def test_delta_contains_only_changes(self):
        cell = MapCell("m", {"a": 1, "b": 2})
        cell.mark_clean()
        cell["b"] = 20
        cell["c"] = 3
        delta = cell.delta_snapshot()
        assert delta == {"b": 20, "c": 3}
        assert cell.dirty_count() == 2

    def test_delta_encodes_deletions(self):
        cell = MapCell("m", {"a": 1, "b": 2})
        cell.mark_clean()
        del cell["a"]
        delta = cell.delta_snapshot()
        assert merge_cell({"a": 1, "b": 2}, delta) == {"b": 2}

    def test_set_after_delete_is_not_a_deletion(self):
        cell = MapCell("m", {"a": 1})
        cell.mark_clean()
        del cell["a"]
        cell["a"] = 5
        assert merge_cell({"a": 1}, cell.delta_snapshot()) == {"a": 5}

    def test_clear(self):
        cell = MapCell("m", {"a": 1, "b": 2})
        cell.mark_clean()
        cell.clear()
        assert len(cell) == 0
        assert merge_cell({"a": 1, "b": 2}, cell.delta_snapshot()) == {}

    def test_incremental_equals_full_after_mutations(self):
        # Property at the heart of incremental checkpointing: base + delta
        # always equals the live map.
        cell = MapCell("m")
        base = cell.full_snapshot()
        cell.mark_clean()
        for i in range(30):
            cell[f"k{i % 7}"] = i
            if i % 5 == 0 and f"k{(i + 1) % 7}" in cell:
                del cell[f"k{(i + 1) % 7}"]
        assert merge_cell(base, cell.delta_snapshot()) == cell.full_snapshot()

    def test_full_snapshot_is_deep(self):
        cell = MapCell("m", {"a": [1]})
        snap = cell.full_snapshot()
        cell["a"].append(2)  # mutation without marking dirty (aliasing)
        assert snap == {"a": [1]}

    def test_restore_full_resets_dirtiness(self):
        cell = MapCell("m", {"x": 1})
        cell.restore_full({"y": 2})
        assert cell.full_snapshot() == {"y": 2}
        assert cell.delta_snapshot() == {}


class TestStateRegistry:
    def test_declare_and_snapshot(self):
        reg = StateRegistry("comp")
        v = reg.value("v", 10)
        m = reg.map("m", {"k": 1})
        assert reg.full_snapshot() == {"v": 10, "m": {"k": 1}}
        v.set(11)
        m["k"] = 2
        assert reg.full_snapshot() == {"v": 11, "m": {"k": 2}}

    def test_duplicate_cell_rejected(self):
        reg = StateRegistry("comp")
        reg.value("x")
        with pytest.raises(StateError):
            reg.map("x")

    def test_sealed_registry_rejects_new_cells(self):
        reg = StateRegistry("comp")
        reg.seal()
        with pytest.raises(StateError):
            reg.value("late")

    def test_restore_full_requires_all_cells(self):
        reg = StateRegistry("comp")
        reg.value("a")
        reg.value("b")
        with pytest.raises(StateError):
            reg.restore_full({"a": 1})

    def test_apply_delta_unknown_cell_rejected(self):
        reg = StateRegistry("comp")
        reg.value("a")
        base = cells_snapshot(reg.full_snapshot(), incremental=False)
        delta = cells_snapshot({"zz": (True, 1)}, incremental=True)
        with pytest.raises(RecoveryError, match="unknown cell 'zz'"):
            merge_component_snapshots(base, delta)

    def test_delta_roundtrip_through_registry(self):
        reg = StateRegistry("comp")
        v = reg.value("v", 0)
        m = reg.map("m")
        base = reg.full_snapshot()
        reg.mark_clean()
        v.set(5)
        m["x"] = 1
        delta = reg.delta_snapshot()

        merged = merge_component_snapshots(
            cells_snapshot(base, incremental=False),
            cells_snapshot(delta, incremental=True))
        assert merged["cells"] == reg.full_snapshot()

    def test_mark_clean_applies_to_all_cells(self):
        reg = StateRegistry("comp")
        v = reg.value("v", 1)
        m = reg.map("m", {"a": 1})
        reg.mark_clean()
        assert reg.delta_snapshot() == {"v": (False, None), "m": {}}
