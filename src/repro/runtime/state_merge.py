"""Merging incremental checkpoints into full snapshots.

A component runtime snapshot contains the state cells plus runtime
metadata (virtual time, tick-stream positions, pending queues).  An
incremental snapshot is a delta against the previous capture of the
same runtime (see :meth:`repro.core.scheduler.ComponentRuntime.snapshot`),
and merging it onto the full snapshot of that capture:

* merges each cell's delta into the base cell snapshot —
  :class:`~repro.core.state.ValueCell` deltas are ``(changed, value)``
  tuples, :class:`~repro.core.state.MapCell` deltas are flat dicts with
  the deletion sentinel;
* takes the scalars (``component_vt``, ``max_arrived_vt``,
  ``next_call_id``) from the delta;
* replaces the receivers, reply receivers and pending queues of the
  wires the delta names, and the silence map if the delta has one —
  a delta leaves out what did not change;
* folds each sender entry the delta names with :func:`merge_sender`.

The result is byte-identical (under :mod:`repro.runtime.checkpoint`) to
a full snapshot taken at the delta's instant; the auditor checks exactly
that on every audited capture.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.core.state import _DELETED
from repro.errors import RecoveryError

#: Scalar snapshot fields every delta carries.
_SCALAR_FIELDS = ("component_vt", "max_arrived_vt", "next_call_id")
#: Per-wire snapshot fields a delta carries only the changed wires of.
_WIRE_FIELDS = ("receivers", "reply_receivers", "pending")
#: Every metadata field of a full snapshot.
_METADATA_FIELDS = _SCALAR_FIELDS + _WIRE_FIELDS + ("senders", "silence")
#: Sender fields a sender delta replaces.
_SENDER_SCALARS = ("next_seq", "last_data_vt", "silence_promised", "floor_vt")


def merge_cell(base: Any, delta: Any) -> Any:
    """Merge one cell's delta snapshot into its base full snapshot."""
    if isinstance(delta, tuple):
        # ValueCell: (changed, value)
        if len(delta) != 2:
            raise RecoveryError(f"malformed value-cell delta: {delta!r}")
        changed, value = delta
        return value if changed else base
    if isinstance(delta, dict):
        # MapCell: dirty entries + deletion tombstones.
        if not isinstance(base, dict):
            raise RecoveryError(
                f"map-cell delta applied to non-map base {type(base).__name__}"
            )
        merged = dict(base)
        for key, value in delta.items():
            if isinstance(value, str) and value == _DELETED:
                merged.pop(key, None)
            else:
                merged[key] = value
        return merged
    raise RecoveryError(f"unknown cell delta shape: {type(delta).__name__}")


def merge_sender(base: Dict, delta: Dict) -> Dict:
    """Fold one sender delta (see
    :meth:`repro.vt.ticks.TickStreamSender.delta_snapshot`) onto the
    sender's full entry; a delta holding a whole entry replaces it.

    Retained messages below the delta's trim floor were released by
    downstream stability and are dropped; the messages emitted since
    the base are appended.
    """
    if "retained" in delta:
        return delta
    try:
        floor = delta["trim_floor"]
        merged = dict(base)
        merged["retained"] = ([m for m in base["retained"]
                               if m["seq"] >= floor] + delta["appended"])
        for key in _SENDER_SCALARS:
            merged[key] = delta[key]
        if "recent_len" in delta:
            old, new = base["recent_vts"], delta["recent_vts"]
            keep = delta["recent_len"] - len(new)
            merged["recent_vts"] = (old[len(old) - keep:] if keep > 0
                                    else []) + new
    except (KeyError, TypeError) as exc:
        raise RecoveryError(f"malformed sender delta: {exc!r}") from exc
    return merged


def merge_component_snapshots(base: Dict, delta: Dict) -> Dict:
    """Merge a delta component snapshot onto a full one."""
    if not delta.get("cells_incremental", False):
        # The "delta" is actually a newer full snapshot; it wins outright.
        return dict(delta)
    merged = dict(base)
    merged_cells = dict(base["cells"])
    for name, cell_delta in delta["cells"].items():
        if name not in merged_cells:
            raise RecoveryError(f"delta for unknown cell {name!r}")
        merged_cells[name] = merge_cell(merged_cells[name], cell_delta)
    merged["cells"] = merged_cells
    merged["cells_incremental"] = False
    for field in _SCALAR_FIELDS:
        merged[field] = delta[field]
    for field in _WIRE_FIELDS:
        changed = delta.get(field)
        if changed:
            merged[field] = {**base[field], **changed}
    if "silence" in delta:
        merged["silence"] = delta["silence"]
    senders = delta.get("senders")
    if senders:
        merged_senders = dict(base["senders"])
        for wire_id, entry in senders.items():
            if wire_id not in merged_senders:
                raise RecoveryError(f"delta for unknown sender {wire_id!r}")
            merged_senders[wire_id] = merge_sender(merged_senders[wire_id],
                                                   entry)
        merged["senders"] = merged_senders
    return merged


def fold_chain(base: Dict[str, Dict],
               deltas: Iterable[Dict[str, Dict]]) -> Dict[str, Dict]:
    """Fold delta component maps onto a base component map in order.

    ``base`` maps component name to full snapshot; each element of
    ``deltas`` maps component name to a delta (or newer full) snapshot.
    This is the single chain-materialization rule shared by the passive
    replica (at promotion) and the divergence auditor (continuously).
    """
    merged = dict(base)
    for delta in deltas:
        for name, snap in delta.items():
            if name not in merged:
                raise RecoveryError(f"delta for unknown component {name!r}")
            merged[name] = merge_component_snapshots(merged[name], snap)
    return merged
