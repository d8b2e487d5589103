"""``python -m repro.tools.timetravel``: step, inspect, and query a
recorded ``.replay`` bundle.

Determinism makes any recorded run a *steppable artifact*: re-executing
the bundle's spec against its recorded inputs (seeded workload or
external message logs, plus the chaos schedule when present) reproduces
every intermediate state byte-for-byte.  On top of that this tool
offers:

* ``info``   — bundle manifest and recording stats.
* ``seek``   — re-execute to a target VT and show per-component digests
  (seeking to the recorded horizon verifies byte identity against the
  bundle's audit snapshot).
* ``dump``   — component state cells at a VT.
* ``diff``   — state delta between two VTs.
* ``why``    — the transitive causal closure of messages that could
  have influenced a component's state at a VT, walked over the recorded
  RepCl-annotated event stream.

Seeks are forward-only on a live simulator; backward seeks rebuild and
re-execute from VT 0.  Visited states are cached by VT and replayed
seeks are *skipped* (the edda activity-cache idiom: completed work is
answered from the cache, only new work executes) — ``stats`` reports
the skip/execute split.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import WiringError
from repro.net.topology import simulated_twin
from repro.runtime import checkpoint as cpser
from repro.runtime.flightrec import BundleError, ReplayBundle, capture_state
from repro.vt.repcl import RepCl, merge_all
from repro.vt.time import format_vt


class TimeTravelSession:
    """Re-execution session over one bundle, with a seek cache."""

    def __init__(self, bundle: ReplayBundle):
        self.bundle = bundle
        self._dep = None
        self._cache: Dict[int, Dict] = {}
        self.stats = {"executed": 0, "skipped": 0, "rebuilds": 0}

    def _rebuild(self) -> None:
        try:
            self._dep = simulated_twin(self.bundle.spec,
                                       self.bundle.schedule,
                                       self.bundle.external)
        except WiringError as exc:
            raise BundleError(f"{self.bundle.path}: {exc}") from exc
        self.stats["rebuilds"] += 1

    def seek(self, vt: int) -> Dict:
        """State document at ``vt`` (see ``flightrec.capture_state``)."""
        if vt < 0:
            raise BundleError(f"cannot seek to negative vt {vt}")
        cached = self._cache.get(vt)
        if cached is not None:
            self.stats["skipped"] += 1
            return cached
        if self._dep is None or self._dep.sim.now > vt:
            self._rebuild()
        self._dep.run(until=vt)
        self.stats["executed"] += 1
        doc = capture_state(self._dep)
        self._cache[vt] = doc
        return doc

    def state_bytes_at(self, vt: int) -> bytes:
        return cpser.dumps(self.seek(vt))

    def verify_final(self) -> bool:
        """Byte-identity of the re-executed horizon state vs the bundle."""
        return (self.state_bytes_at(self.bundle.ran_until)
                == self.bundle.state_bytes)


# ----------------------------------------------------------------------
# Causal queries
# ----------------------------------------------------------------------

def causal_closure(events: List[Dict], component: str,
                   vt: int) -> List[Dict]:
    """Messages that could have influenced ``component``'s state at ``vt``.

    Exact transitive closure over the recorded event stream: every
    message the component dispatched at or before ``vt``, plus —
    recursively, through each message's recorded ``send`` event — every
    message its sender had dispatched before emitting it.  Messages with
    no recorded send are external roots.  Re-executed dispatches after a
    failover reference the same ``(wire, seq)`` identity and are
    deduplicated.  Each entry carries the receiver's RepCl at dispatch,
    so the closure speaks the same vocabulary as ``explain_hold``.
    """
    dispatches: Dict[str, List[Dict]] = {}
    sends: Dict[Tuple[int, int], Dict] = {}
    for event in events:
        if event["kind"] == "dispatch":
            dispatches.setdefault(event["component"], []).append(event)
        elif event["kind"] == "send":
            sends.setdefault((event["wire"], event["seq"]), event)

    closure: Dict[Tuple[int, int], Dict] = {}
    expanded: Dict[str, int] = {}
    work = deque()

    def add(event: Dict) -> None:
        key = (event["wire"], event["seq"])
        send = sends.get(key)
        if key not in closure:
            closure[key] = {
                "wire": event["wire"],
                "seq": event["seq"],
                "vt": event["vt"],
                "to": event["component"],
                "from": send["component"] if send else "external",
                "repcl": event["repcl"],
            }
        if send is not None:
            work.append((send["component"], send["index"]))

    for event in dispatches.get(component, []):
        if event["vt"] <= vt:
            add(event)
    while work:
        sender, bound = work.popleft()
        if expanded.get(sender, -1) >= bound:
            continue
        expanded[sender] = bound
        for event in dispatches.get(sender, []):
            if event["index"] >= bound:
                break
            add(event)
    return sorted(closure.values(),
                  key=lambda m: (m["vt"], m["wire"], m["seq"]))


def target_clock(events: List[Dict], component: str, vt: int) -> RepCl:
    """The component's merged RepCl over everything it did through ``vt``."""
    return merge_all(
        RepCl.decode(e["repcl"]) for e in events
        if e["component"] == component and e["kind"] == "dispatch"
        and e["vt"] <= vt
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _jsonable(obj):
    """JSON-safe view of a canonical-serializer value (tags tuples/bytes)."""
    return json.loads(cpser.dumps(obj).decode("utf-8"))


def _emit(doc: Dict, as_json: bool, lines: List[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_info(bundle: ReplayBundle, args) -> int:
    doc = dict(bundle.manifest)
    doc["path"] = str(bundle.path)
    lines = [f"bundle {bundle.path}"]
    for key in ("source", "seed", "scenario", "replay_mode", "ran_until",
                "event_count", "external_count", "engines", "components",
                "sinks"):
        lines.append(f"  {key}: {doc.get(key)}")
    lines.append(f"  ran_until: {format_vt(bundle.ran_until)}")
    _emit(doc, args.json, lines)
    return 0


def cmd_seek(bundle: ReplayBundle, args) -> int:
    session = TimeTravelSession(bundle)
    vt = bundle.ran_until if args.vt is None else args.vt
    doc = session.seek(vt)
    out = {
        "vt": vt,
        "components": {
            name: {"component_vt": entry["component_vt"],
                   "mid_call": entry["mid_call"]}
            for name, entry in doc["components"].items()
        },
        "digests": doc["digests"],
        "stats": session.stats,
    }
    lines = [f"seek {format_vt(vt)} "
             f"(executed={session.stats['executed']}, "
             f"skipped={session.stats['skipped']})"]
    for name in sorted(doc["components"]):
        entry = doc["components"][name]
        digest = doc["digests"].get(name, "<mid-call>")
        lines.append(f"  {name}: vt={entry['component_vt']} "
                     f"digest={digest[:16]}")
    identical: Optional[bool] = None
    if args.verify or vt == bundle.ran_until:
        identical = (cpser.dumps(doc) == bundle.state_bytes
                     if vt == bundle.ran_until
                     else None)
        if vt != bundle.ran_until:
            lines.append("  (verify skipped: target is not the recorded "
                         "horizon)")
        else:
            out["byte_identical"] = identical
            lines.append(f"  byte-identical to recorded snapshot: "
                         f"{identical}")
    _emit(out, args.json, lines)
    return 0 if identical in (None, True) else 1


def cmd_dump(bundle: ReplayBundle, args) -> int:
    session = TimeTravelSession(bundle)
    doc = session.seek(args.vt)
    names = [args.component] if args.component else sorted(doc["components"])
    out: Dict = {"vt": args.vt, "components": {}}
    lines = [f"state at {format_vt(args.vt)}"]
    for name in names:
        entry = doc["components"].get(name)
        if entry is None:
            raise BundleError(f"unknown component {name!r} "
                              f"(known: {sorted(doc['components'])})")
        out["components"][name] = _jsonable(entry)
        lines.append(f"  {name} (vt={entry['component_vt']}, "
                     f"mid_call={entry['mid_call']}):")
        for cell, value in sorted(entry.get("cells", {}).items()):
            lines.append(f"    {cell} = {value!r}")
    _emit(out, args.json, lines)
    return 0


def diff_states(before: Dict, after: Dict) -> Dict[str, Dict]:
    changed: Dict[str, Dict] = {}
    names = set(before["components"]) | set(after["components"])
    for name in sorted(names):
        b = before["components"].get(name, {})
        a = after["components"].get(name, {})
        cells_b = b.get("cells", {}) or {}
        cells_a = a.get("cells", {}) or {}
        delta = {}
        for cell in sorted(set(cells_b) | set(cells_a)):
            if cells_b.get(cell) != cells_a.get(cell):
                delta[cell] = {"before": cells_b.get(cell),
                               "after": cells_a.get(cell)}
        if delta or b.get("component_vt") != a.get("component_vt"):
            changed[name] = {
                "component_vt": [b.get("component_vt"),
                                 a.get("component_vt")],
                "cells": delta,
            }
    return changed


def cmd_diff(bundle: ReplayBundle, args) -> int:
    session = TimeTravelSession(bundle)
    lo, hi = sorted((args.vt, args.vt2))
    before, after = session.seek(lo), session.seek(hi)
    changed = diff_states(before, after)
    out = {"from_vt": lo, "to_vt": hi, "changed": _jsonable(changed),
           "stats": session.stats}
    lines = [f"diff {format_vt(lo)} -> {format_vt(hi)}: "
             f"{len(changed)} component(s) changed"]
    for name, entry in changed.items():
        vts = entry["component_vt"]
        lines.append(f"  {name}: vt {vts[0]} -> {vts[1]}")
        for cell, pair in entry["cells"].items():
            lines.append(f"    {cell}: {pair['before']!r} -> "
                         f"{pair['after']!r}")
    _emit(out, args.json, lines)
    return 0


def cmd_why(bundle: ReplayBundle, args) -> int:
    vt = bundle.ran_until if args.vt is None else args.vt
    if args.component not in bundle.manifest.get("components", []):
        raise BundleError(
            f"unknown component {args.component!r} "
            f"(known: {bundle.manifest.get('components')})")
    messages = causal_closure(bundle.events, args.component, vt)
    clock = target_clock(bundle.events, args.component, vt)
    dominated = sum(
        1 for m in messages if clock.dominates(RepCl.decode(m["repcl"]))
    )
    out = {
        "component": args.component,
        "vt": vt,
        "count": len(messages),
        "external_roots": sum(1 for m in messages
                              if m["from"] == "external"),
        "dominated_by_target": dominated,
        "target_repcl": clock.encode(),
        "messages": messages,
    }
    lines = [f"{len(messages)} message(s) could have influenced "
             f"{args.component} at {format_vt(vt)} "
             f"({out['external_roots']} external root(s))"]
    for m in messages:
        lines.append(f"  wire {m['wire']} seq {m['seq']} "
                     f"vt={m['vt']} {m['from']} -> {m['to']}")
    _emit(out, args.json, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.timetravel",
        description="Time-travel debugging over recorded .replay bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bundle", required=True,
                       help=".replay bundle directory")
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")

    p = sub.add_parser("info", help="show the bundle manifest")
    common(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("seek", help="re-execute to a target VT")
    common(p)
    p.add_argument("--vt", type=int, default=None,
                   help="target virtual time (default: recorded horizon)")
    p.add_argument("--verify", action="store_true",
                   help="byte-compare against the recorded snapshot "
                        "(automatic at the recorded horizon)")
    p.set_defaults(fn=cmd_seek)

    p = sub.add_parser("dump", help="dump component state at a VT")
    common(p)
    p.add_argument("--vt", type=int, required=True)
    p.add_argument("--component", default=None)
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("diff", help="diff state between two VTs")
    common(p)
    p.add_argument("--vt", type=int, required=True)
    p.add_argument("--vt2", type=int, required=True)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("why", help="causal closure for a component at a VT")
    common(p)
    p.add_argument("--component", required=True)
    p.add_argument("--vt", type=int, default=None,
                   help="target virtual time (default: recorded horizon)")
    p.set_defaults(fn=cmd_why)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bundle = ReplayBundle.load(args.bundle)
        return args.fn(bundle, args)
    except BundleError as exc:
        print(f"timetravel: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
