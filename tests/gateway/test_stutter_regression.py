"""Regression: gateway re-delivery after failover must not double-stamp.

The gateway's ingress stamp (``birth = vt``) happens *before* the log
append, so every replay path — an explicit ReplayRequest, or a full
engine failover replaying from the checkpoint horizon — re-delivers the
already-stamped payload byte for byte.  These tests pin that contract
in pure simulation: the consumer's effective stream and every stamped
``(seq, vt, birth)`` triple are identical with and without mid-run
re-delivery, and stutter is fully absorbed by the dedup layer.

The admitted-work record is captured shadow-log style at stamp time
(exactly as :class:`repro.gateway.server.GatewayServer` does) because
the live ingress log is garbage-collected behind checkpoint stability —
the shadow is the durable evidence that nothing was stamped twice.
"""

from repro.core.message import ReplayRequest
from repro.net.topology import ClusterSpec, build_deployment
from repro.sim.kernel import ms
from repro.gateway.server import _stamp_birth
from repro.tools.verify_determinism import streams_of

#: replicas=0 disables checkpointing, so the ingress log is never
#: truncated and can be inspected whole; failover tests use replicas=1.
STABLE_SPEC = ClusterSpec(workload={}, replicas=0)
FAILOVER_SPEC = ClusterSpec(workload={})
N_MESSAGES = 30
GAP = ms(2)


def payload(i):
    return {"device": f"dev{i % 4}", "fields": [i, i + 1]}


def offer_all(dep, shadow):
    """Schedule gateway-style stamped offers; record the shadow log."""
    ingress = dep.ingresses["readings"]

    def offer_one(i):
        def callback():
            holder = {}

            def stamp(vt, p):
                out = _stamp_birth(vt, p)
                holder["vt"], holder["stamped"] = vt, out
                return out

            seq = ingress.offer(payload(i), stamp=stamp)
            shadow.append((seq, holder["vt"], holder["stamped"]))

        return callback

    for i in range(N_MESSAGES):
        dep.sim.at((i + 1) * GAP, offer_one(i), label=f"gw-offer:{i}")
    return ingress


def run_spec(spec, fail_engine_of=None):
    dep = build_deployment(spec)
    shadow = []
    offer_all(dep, shadow)
    if fail_engine_of is not None:
        victim = dep.placement.engine_of(fail_engine_of)
        dep.sim.at(GAP * (N_MESSAGES // 2),
                   lambda: dep.recovery.engine_failed(victim),
                   label="kill-engine")
    dep.run(until=GAP * N_MESSAGES + ms(500))
    return dep, shadow


def test_stamp_embeds_vt_as_birth():
    dep, shadow = run_spec(STABLE_SPEC)
    assert len(shadow) == N_MESSAGES
    for seq, vt, stamped in shadow:
        assert stamped["birth"] == vt
    # The stamped entries are exactly what the log holds.
    assert dep.ingresses["readings"].log.entries_from(0) == shadow
    # And the stamps flow through to the consumer's payloads.
    assert all(p["birth"] > 0 for p in dep.consumers["sink"].payloads())


def test_replay_request_redelivers_stamped_bytes_without_restamp():
    dep, shadow = run_spec(STABLE_SPEC)
    ingress = dep.ingresses["readings"]
    before_stream = streams_of(dep)["sink"]

    # A full replay from seq 0, as a recovering engine would request.
    ingress.receive(ReplayRequest(ingress.spec.wire_id, 0))
    dep.run(until=dep.sim.now + ms(500))

    # Log untouched: re-delivery is a read, never a second append/stamp.
    assert ingress.log.entries_from(0) == shadow
    # Consumer stream byte-identical: the duplicate deliveries were
    # absorbed upstream, nothing was emitted twice.
    assert streams_of(dep)["sink"] == before_stream


def test_failover_replay_preserves_stream_and_stamps():
    ref, ref_shadow = run_spec(FAILOVER_SPEC)
    dep, shadow = run_spec(FAILOVER_SPEC, fail_engine_of="parser")

    victim = dep.placement.engine_of("parser")
    assert dep.recovery.failover_count(victim) == 1
    # Same (seq, vt, birth) triples: failover replay re-read the
    # stamped entries, it did not stamp again.
    assert [(s, v, p["birth"]) for s, v, p in shadow] \
        == [(s, v, p["birth"]) for s, v, p in ref_shadow]
    assert shadow == ref_shadow
    # Effective output identical to the undisturbed twin; re-delivery
    # surfaced only as counted stutter.
    assert streams_of(dep)["sink"] == streams_of(ref)["sink"]
    consumer = dep.consumers["sink"]
    assert consumer.deliveries \
        == len(consumer.effective_outputs) + consumer.stutter


def test_gateway_offer_after_failover_continues_vt_chain():
    dep, shadow = run_spec(FAILOVER_SPEC, fail_engine_of="parser")
    ingress = dep.ingresses["readings"]

    # A new admission after the failover keeps the strictly-increasing
    # vt contract on the same log.
    last_vt = ingress.log.last_vt
    holder = {}

    def stamp(vt, p):
        out = _stamp_birth(vt, p)
        holder["vt"], holder["stamped"] = vt, out
        return out

    seq = ingress.offer(payload(999), stamp=stamp)
    assert seq == N_MESSAGES
    assert holder["vt"] >= last_vt + 1
    assert holder["stamped"]["birth"] == holder["vt"]
    assert ingress.log.last_vt == holder["vt"]
