"""End-to-end gateway smoke: real clients, real sockets, replay oracle.

Scaled down (small fleets, ~1s of paced real time per run) so tier-1
stays quick; the CI gateway-smoke job runs the 800 msgs/s steady size,
and ``bench/`` (the ``gw_steady`` workload) measures the path.
"""

import json

import pytest

from repro.gateway.cluster import main


def test_gateway_run_matches_replay_reference():
    assert main([
        "--messages", "40",
        "--clients", "6",
        "--rate", "200",
        "--seed", "13",
        "--timeout", "60",
    ]) == 0


def test_kill_active_engine_keeps_clients_connected():
    assert main([
        "--messages", "60",
        "--clients", "8",
        "--rate", "200",
        "--seed", "13",
        "--kill-active",
        "--skip-clean",
        "--kill-fraction", "0.4",
        "--timeout", "90",
    ]) == 0


def test_overload_is_answered_not_dropped(capsys):
    # A synchronized burst of 4 submissions from each of 120 clients
    # against 32 in-flight slots and a 2-token bucket per client: the
    # gateway must both shed and rate-limit, and what it accepts must
    # still replay byte-identically with no exactly-once violation.
    assert main([
        "--clients", "120",
        "--messages", "480",
        "--rate", "0",
        "--max-inflight", "32",
        "--client-rate", "50",
        "--client-burst", "2",
        "--retry-ms", "25",
        "--seed", "7",
        "--json",
    ]) == 0
    (trial,) = json.loads(capsys.readouterr().out)["trials"].values()
    assert trial["gateway"]["shed"] > 0
    assert trial["gateway"]["rate_limited"] > 0
    assert trial["exactly_once_violations"] == 0


@pytest.mark.slow
def test_client_reset_mid_burst_recovers_exactly_once():
    assert main([
        "--messages", "48",
        "--clients", "12",
        "--rate", "150",
        "--seed", "13",
        "--client-reset", "3",
        "--skip-clean",
        "--timeout", "90",
    ]) == 0
