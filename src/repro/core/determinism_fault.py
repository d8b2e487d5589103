"""Determinism faults: synchronously logged estimator re-calibrations.

Paper II.G.4: "If the system consistently has virtual time out-of-sync
with real time ... it may be necessary to re-calibrate the estimators.
Since detecting and reacting to such a condition non-deterministically
affects virtual times, we must treat such a situation as an exception to
the determinism principle — a determinism fault.  In order for replay to
work correctly in the presence of determinism faults, we must log these
events synchronously."

The manager below:

* picks a safe effective virtual time — beyond everything the component
  has processed *and* beyond every silence promise its old estimator has
  produced, so no promised-silent tick can acquire data under the new
  estimator;
* appends the fault record to a stable log **before** applying it (if
  the append raises, the fault is not applied);
* applies it as a revision on the handler's
  :class:`~repro.core.estimators.SwitchableEstimator`;
* on recovery, replays the logged records into a freshly restored
  runtime so replayed messages see exactly the estimator that stamped
  them originally.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.estimators import ConstantEstimator, Estimator, LinearEstimator
from repro.core.message import DeterminismFaultRecord
from repro.errors import DeterminismFaultError

#: Marker used to encode a ConstantEstimator in a fault record.
_CONST_KEY = "__const__"


def estimator_to_fields(estimator: Estimator) -> Tuple[Tuple, int]:
    """Flatten an estimator into (coefficients, intercept) record fields."""
    if isinstance(estimator, ConstantEstimator):
        return ((_CONST_KEY, estimator.ticks),), 0
    if isinstance(estimator, LinearEstimator):
        coeffs = tuple(sorted(estimator.per_feature.items()))
        return coeffs, estimator.intercept
    raise DeterminismFaultError(
        f"cannot log estimator of type {type(estimator).__name__}"
    )


def fields_to_estimator(coefficients: Tuple, intercept: int) -> Estimator:
    """Rebuild an estimator from record fields."""
    coeffs = [tuple(item) for item in coefficients]
    if len(coeffs) == 1 and coeffs[0][0] == _CONST_KEY:
        return ConstantEstimator(coeffs[0][1])
    return LinearEstimator(dict(coeffs), intercept)


class DeterminismFaultManager:
    """Logs and applies estimator revisions for one engine.

    ``stable_log`` is any object with ``append(record)`` and
    ``records()`` whose contents survive the engine's failure (in this
    reproduction, an object owned by the stable side of the deployment,
    like the external message log).
    """

    def __init__(self, stable_log):
        self._log = stable_log

    def recalibrate(self, runtime, input_name: str,
                    new_estimator: Estimator) -> DeterminismFaultRecord:
        """Synchronously log and then apply a re-calibration.

        The effective virtual time is chosen so the switch cannot
        invalidate any promise already made with the old estimator: it
        exceeds the component's current virtual time and every out-wire's
        promised-silence horizon.
        """
        handler_spec = self._handler_spec(runtime, input_name)
        floor = runtime.component_vt
        for sender in runtime.out_senders.values():
            floor = max(floor, sender.silence_promised, sender.floor_vt)
        effective_vt = floor + 1

        coefficients, intercept = estimator_to_fields(new_estimator)
        record = DeterminismFaultRecord(
            component=runtime.component.name,
            handler=input_name,
            effective_vt=effective_vt,
            coefficients=coefficients,
            intercept=intercept,
        )
        # Log synchronously; only a successful append may change behaviour.
        self._log.append(record)
        handler_spec.cost.estimator.revise(effective_vt, new_estimator)
        runtime.services.metrics.count("determinism_faults")
        return record

    def replay_into(self, runtime) -> int:
        """Re-apply logged revisions to a restored runtime.

        Returns the number of records applied.  Called during failover,
        after the component instance (and therefore a fresh copy of its
        declared cost models) has been created but before any message is
        replayed.
        """
        applied = 0
        for record in self._log.records():
            if not isinstance(record, DeterminismFaultRecord):
                continue
            if record.component != runtime.component.name:
                continue
            spec = self._handler_spec(runtime, record.handler)
            estimator = fields_to_estimator(record.coefficients, record.intercept)
            spec.cost.estimator.revise(record.effective_vt, estimator)
            applied += 1
        return applied

    @staticmethod
    def _handler_spec(runtime, input_name: str):
        for wire in runtime.in_wires.values():
            if wire.spec.dst_input == input_name:
                return wire.handler_spec
        raise DeterminismFaultError(
            f"{runtime.component.name}: no wired handler for '{input_name}'"
        )


class ListFaultLog:
    """A trivially stable in-memory fault log (survives engine objects).

    Deployments hold one per engine *outside* the engine, mirroring the
    paper's stable storage.  Appends are synchronous.
    """

    def __init__(self):
        self._records: List[DeterminismFaultRecord] = []

    def append(self, record: DeterminismFaultRecord) -> None:
        """Persist one record."""
        self._records.append(record)

    def records(self) -> List[DeterminismFaultRecord]:
        """All records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)
