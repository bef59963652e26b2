"""The paper-figure task grid for the engine.

:func:`experiment_grid` is everything the paper figures need for one
suite.  It prewarms an ``ExperimentSuite`` before ``experiment all``,
and the ``paper-grid`` benchmark workload draws its cells from it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.schemes import Scheme
from repro.models import list_models
from repro.runner.tasks import ExperimentTask
from repro.sim.faults import FaultPlan

__all__ = ["experiment_grid"]

_HEADLINE_SCHEMES = (Scheme.BASELINE, Scheme.NNV12, Scheme.PASK, Scheme.IDEAL)
_ABLATION_SCHEMES = (Scheme.PASK_I, Scheme.PASK_R)
_DEVICES = ("MI100", "A100", "6900XT")


def experiment_grid(device: str = "MI100",
                    models: Optional[Sequence[str]] = None,
                    faults: Optional[FaultPlan] = None,
                    batches: Sequence[int] = (1, 4, 16, 64, 128),
                    fig1a_devices: Sequence[str] = _DEVICES
                    ) -> List[ExperimentTask]:
    """Every cell the paper figures/tables consume.

    Covers the scheme grid (including the PaSK-I/PaSK-R ablations) at
    batch 1, the Table II batch sweep for the headline schemes, the hot
    runs, and the Fig. 1(a) baseline+hot cells on the other devices.
    """
    models = list(models) if models is not None else list_models()
    tasks: List[ExperimentTask] = []
    for model in models:
        for scheme in _HEADLINE_SCHEMES + _ABLATION_SCHEMES:
            for batch in (batches if scheme in _HEADLINE_SCHEMES else (1,)):
                tasks.append(ExperimentTask(
                    kind="cold", device=device, model=model,
                    scheme=scheme.value, batch=batch, faults=faults))
        tasks.append(ExperimentTask(kind="hot", device=device, model=model,
                                    faults=faults))
    for other in fig1a_devices:
        if other == device:
            continue
        for model in models:
            tasks.append(ExperimentTask(
                kind="cold", device=other, model=model,
                scheme=Scheme.BASELINE.value, faults=faults))
            tasks.append(ExperimentTask(kind="hot", device=other, model=model,
                                        faults=faults))
    return tasks
