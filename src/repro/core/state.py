"""Checkpointable component state cells.

The paper's transparency story: "State need not be stored in special
objects, but instead in ordinary instance variables", with the deployment
step *transforming* the class to add checkpoint capture.  Python has no
bytecode-transformation step in this reproduction, so the same product is
reached through a thin declaration API: a component declares its state as
cells on ``self.state`` and then uses them like ordinary values.

Two cell kinds mirror the paper's section II.F.2:

* :class:`ValueCell` — a scalar copied whole into every checkpoint.
* :class:`MapCell` — a dict with *incremental* checkpointing: "For large
  structures like hash tables needing incremental checkpointing, updates
  since the last checkpoint are stored in an auxiliary structure."  Only
  dirty keys (and deletions) since the previous checkpoint travel in a
  delta checkpoint.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterator, Optional, Set, Tuple

from repro.errors import StateError

#: Sentinel marking a deleted key inside a delta snapshot.
_DELETED = "__tart_deleted__"


class ValueCell:
    """A single checkpointed value."""

    def __init__(self, name: str, initial: Any = None):
        self.name = name
        self._value = initial
        self._dirty = True

    def get(self) -> Any:
        """Current value."""
        return self._value

    def set(self, value: Any) -> None:
        """Replace the value (marks the cell dirty)."""
        self._value = value
        self._dirty = True

    # -- checkpoint protocol ------------------------------------------
    def full_snapshot(self) -> Any:
        """Deep copy of the value."""
        return copy.deepcopy(self._value)

    def delta_snapshot(self) -> Tuple[bool, Any]:
        """``(changed, value)`` since the last :meth:`mark_clean`."""
        if self._dirty:
            return True, copy.deepcopy(self._value)
        return False, None

    def mark_clean(self) -> None:
        """Forget dirtiness (called after a checkpoint is captured)."""
        self._dirty = False

    def restore_full(self, snap: Any) -> None:
        """Load state from a full snapshot."""
        self._value = copy.deepcopy(snap)
        self._dirty = False

    def __repr__(self) -> str:
        return f"ValueCell({self.name}={self._value!r})"


class MapCell:
    """A dict-like cell with incremental checkpoint capture.

    Mutations go through this wrapper so the dirty-key set stays exact.
    Iteration order is insertion order (plain dict semantics); checkpoint
    encodings sort keys so the serialized form is canonical.
    """

    def __init__(self, name: str, initial: Optional[Dict] = None):
        self.name = name
        self._data: Dict = dict(initial or {})
        # Everything present initially is dirty until the first checkpoint.
        self._dirty_keys: Set = set(self._data)
        self._deleted_keys: Set = set()

    # -- dict-like interface ------------------------------------------
    def get(self, key, default=None):
        """dict.get."""
        return self._data.get(key, default)

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        self._data[key] = value
        self._dirty_keys.add(key)
        self._deleted_keys.discard(key)

    def __delitem__(self, key) -> None:
        del self._data[key]
        self._dirty_keys.discard(key)
        self._deleted_keys.add(key)

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def items(self):
        """dict.items."""
        return self._data.items()

    def keys(self):
        """dict.keys."""
        return self._data.keys()

    def values(self):
        """dict.values."""
        return self._data.values()

    def clear(self) -> None:
        """Remove every key (all become deletions for the next delta)."""
        for key in list(self._data):
            del self[key]

    # -- checkpoint protocol ------------------------------------------
    def full_snapshot(self) -> Dict:
        """Deep copy of the whole map."""
        return copy.deepcopy(self._data)

    def delta_snapshot(self) -> Dict:
        """Dirty entries and deletions since the last :meth:`mark_clean`.

        Deletions are encoded with the :data:`_DELETED` sentinel, so a
        delta is a single flat dict — compact to serialize.
        """
        delta: Dict = {k: copy.deepcopy(self._data[k]) for k in self._dirty_keys}
        for k in self._deleted_keys:
            delta[k] = _DELETED
        return delta

    def mark_clean(self) -> None:
        """Reset the auxiliary dirty structures after a checkpoint."""
        self._dirty_keys.clear()
        self._deleted_keys.clear()

    def restore_full(self, snap: Dict) -> None:
        """Load state from a full snapshot."""
        self._data = copy.deepcopy(snap)
        self.mark_clean()

    def dirty_count(self) -> int:
        """Number of entries the next delta checkpoint will carry."""
        return len(self._dirty_keys) + len(self._deleted_keys)

    def __repr__(self) -> str:
        return f"MapCell({self.name}, n={len(self._data)}, dirty={self.dirty_count()})"


class StateRegistry:
    """All checkpointable state of one component.

    Components obtain cells via :meth:`value` and :meth:`map` during
    ``setup()``; the engine drives the checkpoint protocol across every
    cell.  Declaring two cells with one name, or declaring cells after
    setup has finished, is an error — the cell set must be identical on
    the active engine and on the replica.
    """

    def __init__(self, component_name: str):
        self.component_name = component_name
        self._cells: Dict[str, Any] = {}
        self._sealed = False

    def value(self, name: str, initial: Any = None) -> ValueCell:
        """Declare (or on a replica: re-declare) a scalar cell."""
        return self._add(name, ValueCell(name, initial))

    def map(self, name: str, initial: Optional[Dict] = None) -> MapCell:
        """Declare a dict cell with incremental checkpointing."""
        return self._add(name, MapCell(name, initial))

    def _add(self, name: str, cell):
        if self._sealed:
            raise StateError(
                f"{self.component_name}: state cell '{name}' declared after setup"
            )
        if name in self._cells:
            raise StateError(
                f"{self.component_name}: duplicate state cell '{name}'"
            )
        self._cells[name] = cell
        return cell

    def seal(self) -> None:
        """Freeze the cell set (called by the engine after ``setup()``)."""
        self._sealed = True

    def cells(self) -> Dict[str, Any]:
        """Mapping of cell name to cell, insertion-ordered."""
        return dict(self._cells)

    # -- checkpoint protocol ------------------------------------------
    def full_snapshot(self) -> Dict[str, Any]:
        """Full snapshots of every cell, keyed by name."""
        return {name: cell.full_snapshot() for name, cell in self._cells.items()}

    def delta_snapshot(self) -> Dict[str, Any]:
        """Delta snapshots of every cell, keyed by name."""
        return {name: cell.delta_snapshot() for name, cell in self._cells.items()}

    def mark_clean(self) -> None:
        """Mark every cell clean after checkpoint capture."""
        for cell in self._cells.values():
            cell.mark_clean()

    def restore_full(self, snap: Dict[str, Any]) -> None:
        """Restore every cell from a full snapshot."""
        for name, cell in self._cells.items():
            if name not in snap:
                raise StateError(
                    f"{self.component_name}: checkpoint missing cell '{name}'"
                )
            cell.restore_full(snap[name])
