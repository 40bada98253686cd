"""repro.api — the declarative scenario layer.

One serializable spec, one runner, one report for every simulation mode::

    from repro import api

    spec = api.TrainingScenario(workload="dlrm", topology="2D-SW_SW")
    report = api.run(spec)                      # -> RunReport
    spec.save("my_run.json")                    # lossless JSON round trip
    same = api.load_spec("my_run.json")
    assert same == spec

    grid = api.sweep(spec, {"scheduler": ["baseline", "themis"]})
    print(grid.render())

Components (topologies, workloads, collective types, schedulers,
intra-dimension policies, fairness and placement policies, collective
algorithms, network backends) are named by key in one unified registry —
see :func:`register` for the plugin surface.
"""

from ..cluster.jobs import JobMix
from ..cluster.placement import register_placement
from .registry import (
    COLLECTIVE_KEYS,
    SCHEDULER_KINDS,
    register,
    registry_keys,
    registry_kinds,
    resolve,
    validate_key,
)
from .report import RunReport, SweepPoint, SweepResult
from .runner import run, scheduler_label, sweep
from .spec import (
    SCHEMA_VERSION,
    SCENARIO_TYPES,
    ClusterScenario,
    CollectiveScenario,
    FaultSpec,
    OpenLoopTrace,
    PoissonTrace,
    ProvisioningScenario,
    ScenarioJob,
    ScenarioSpec,
    TrainingScenario,
    load_spec,
    parse_cli_value,
    resolve_topology,
    resolve_workload,
    save_spec,
    spec_from_dict,
)

__all__ = [
    # registry
    "register",
    "register_placement",
    "resolve",
    "registry_keys",
    "registry_kinds",
    "validate_key",
    "SCHEDULER_KINDS",
    "COLLECTIVE_KEYS",
    # specs
    "SCHEMA_VERSION",
    "SCENARIO_TYPES",
    "ScenarioSpec",
    "CollectiveScenario",
    "TrainingScenario",
    "ClusterScenario",
    "ProvisioningScenario",
    "ScenarioJob",
    "PoissonTrace",
    "JobMix",
    "FaultSpec",
    "OpenLoopTrace",
    "spec_from_dict",
    "load_spec",
    "save_spec",
    "parse_cli_value",
    "resolve_topology",
    "resolve_workload",
    # runner / reports
    "run",
    "sweep",
    "scheduler_label",
    "RunReport",
    "SweepPoint",
    "SweepResult",
]
