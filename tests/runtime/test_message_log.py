"""Unit tests for the stable external-message log."""

from collections import deque
from enum import IntEnum

import pytest

from repro.errors import RecoveryError, StateError
from repro.runtime.message_log import ExternalMessageLog


class TestAppend:
    def test_sequences_assigned_in_order(self):
        log = ExternalMessageLog(1)
        assert log.append(100, "a") == 0
        assert log.append(200, "b") == 1
        assert len(log) == 2
        assert log.last_vt == 200

    def test_equal_vts_allowed(self):
        log = ExternalMessageLog(1)
        log.append(100, "a")
        log.append(100, "b")  # two arrivals in the same tick

    def test_vt_regression_rejected(self):
        log = ExternalMessageLog(1)
        log.append(100, "a")
        with pytest.raises(RecoveryError):
            log.append(99, "b")

    @pytest.mark.parametrize("payload", [object(), IntEnum("E", "A").A,
                                         {"nested": [object()]}])
    def test_unencodable_payload_is_refused_whole(self, payload):
        log = ExternalMessageLog(3)
        log.append(100, "a")
        with pytest.raises(StateError, match=r"wire 3: .*type (object|E|dict)"):
            log.append(200, payload)
        # Nothing moved: the next append takes the refused one's place.
        assert len(log) == 1 and log.last_vt == 100
        assert log.append(150, "b") == 1
        assert log.live_entries() == [(0, 100, "a"), (1, 150, "b")]

    def test_payloads_are_held_as_appended(self):
        log = ExternalMessageLog(1)
        payload = {"b": 1, "a": (True, 2.5, None), "c": [1, 2]}
        log.append(10, payload)
        payload["c"].append(3)
        payload["d"] = 0
        (entry,) = log.entries_from(0)
        assert entry == (0, 10, {"b": 1, "a": (True, 2.5, None), "c": [1, 2]})
        # Types and insertion order round-trip exactly.
        assert list(entry[2]) == ["b", "a", "c"]
        assert entry[2]["a"][0] is True
        assert entry[2] is not log.entries_from(0)[0][2]


class TestReplay:
    def test_entries_from(self):
        log = ExternalMessageLog(1)
        for i in range(5):
            log.append(i * 10, f"p{i}")
        assert log.entries_from(2) == [(2, 20, "p2"), (3, 30, "p3"),
                                       (4, 40, "p4")]
        assert log.entries_from(0)[0] == (0, 0, "p0")
        assert log.entries_from(5) == []

    def test_negative_seq_rejected(self):
        log = ExternalMessageLog(1)
        with pytest.raises(RecoveryError):
            log.entries_from(-1)


class TestTruncation:
    def test_truncate_keeps_seq_numbers_stable(self):
        log = ExternalMessageLog(1)
        for i in range(5):
            log.append(i * 10, f"p{i}")
        assert log.truncate_through(1) == 2
        assert log.entries_from(2)[0] == (2, 20, "p2")

    def test_replaying_truncated_range_rejected(self):
        log = ExternalMessageLog(1)
        for i in range(5):
            log.append(i * 10, f"p{i}")
        log.truncate_through(2)
        with pytest.raises(RecoveryError):
            log.entries_from(1)

    def test_truncate_is_idempotent(self):
        log = ExternalMessageLog(1)
        for i in range(3):
            log.append(i, f"p{i}")
        log.truncate_through(0)
        assert log.truncate_through(0) == 0

    def test_append_after_truncation(self):
        log = ExternalMessageLog(1)
        log.append(10, "a")
        log.truncate_through(0)
        assert log.append(20, "b") == 1
        assert log.entries_from(1) == [(1, 20, "b")]


class TestCollectionCost:
    def test_second_truncation_visits_no_collected_entry(self):
        class CountingDeque(deque):
            visits = 0

            def popleft(self):
                CountingDeque.visits += 1
                return super().popleft()

            def __iter__(self):
                raise AssertionError("truncation must not scan the log")

            def __getitem__(self, index):
                raise AssertionError("truncation must not index the log")

        log = ExternalMessageLog(1)
        log._payloads = CountingDeque()
        for i in range(1000):
            log.append(i, f"p{i}")
        assert log.truncate_through(899) == 900
        visited = CountingDeque.visits
        assert log.truncate_through(904) == 5
        assert CountingDeque.visits - visited == 5
        assert log.truncate_through(904) == 0
        assert CountingDeque.visits - visited == 5

    def test_memory_is_the_unstable_window(self):
        log = ExternalMessageLog(1)
        for i in range(10_000):
            log.append(i, i)
            if i % 100 == 99:
                log.truncate_through(i - 10)
        assert len(log) == 10_000
        assert log.truncated_through == 9_989
        assert len(log.live_entries()) == 10
        assert log.entries_from(9_990)[0] == (9_990, 9_990, 9_990)

    def test_live_entries_and_mark_after_truncation(self):
        log = ExternalMessageLog(1)
        assert log.truncated_through == -1
        for i in range(4):
            log.append(i, f"p{i}")
        log.truncate_through(1)
        assert log.truncated_through == 1
        assert log.live_entries() == [(2, 2, "p2"), (3, 3, "p3")]
        # Truncating past the end collects what exists, nothing more.
        assert log.truncate_through(10) == 2
        assert log.truncated_through == 3
        assert log.append(9, "p4") == 4
        assert log.live_entries() == [(4, 9, "p4")]
