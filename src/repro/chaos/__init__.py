"""repro.chaos: a seeded fault plane for the live networked runtime.

The simulator's :class:`~repro.runtime.failure.FailureInjector` exercises
the paper's full failure model — fail-stop crashes plus link faults that
lose, re-order, or duplicate messages — but only against *simulated*
links.  This package points the same failure model at the real
multi-process runtime (:mod:`repro.net`):

* :mod:`repro.chaos.schedule` — seeded, scriptable fault schedules in a
  JSON format shared with the simulator, so one fault script runs both
  in-simulator (fast, deterministic ground truth) and against a live
  cluster;
* :mod:`repro.chaos.proxy` — a TCP fault proxy interposed on every
  inter-process link: added latency, bandwidth throttle, connection
  reset, blackhole/partition windows, half-open stalls, partition heal;
* :mod:`repro.chaos.runner` — a process chaos runner that delivers
  SIGKILL / SIGSTOP+SIGCONT to engines, replicas, and the schedule's
  other victims at seeded points, including double faults and
  crash-during-promotion;
* :mod:`repro.chaos.invariants` — the post-run judge: recovered consumer
  streams byte-identical to the simulated reference, exactly-once
  delivery, and one-incarnation-per-node convergence, with a structured
  :class:`~repro.errors.UnrecoverableClusterError` naming the lost state
  when a schedule is genuinely unsurvivable.

``python -m repro.chaos --seed S`` runs one seeded schedule end to end,
with the cluster CLI's layout and workload options (``--engines``,
``--replicas``, ``--messages``, ...).  See ``docs/chaos.md``.
"""

from repro.chaos.invariants import check_invariants
from repro.chaos.proxy import FaultProxy, LinkPolicy
from repro.chaos.schedule import ChaosEvent, ChaosSchedule, SCENARIOS

__all__ = [
    "ChaosEvent",
    "ChaosSchedule",
    "FaultProxy",
    "LinkPolicy",
    "SCENARIOS",
    "check_invariants",
]
