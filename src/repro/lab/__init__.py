"""repro.lab — parallel experiment orchestration with result caching.

The tool flow of the paper is a batch workload: "the topology synthesis
tool builds several topologies with different switch counts and
architectural parameters" (Section 6), and every evaluation figure is a
sweep.  This subsystem turns any such sweep into declarative, content-
addressed :class:`Job` specs, run in this process or — in parallel —
by supervised child processes, with:

* :mod:`repro.lab.cache` — an on-disk cache keyed by the content hash
  of (job kind, parameters, seed, runner version, library version), so
  re-running a sweep only computes new or changed points;
* :mod:`repro.lab.store` — a persistent JSONL result store with
  query/aggregation helpers (Pareto fronts, load curves, provenance);
* :mod:`repro.lab.executor` — the :func:`run_jobs` engine with
  observable hit/compute accounting: serial in-process, or ``workers``
  children through :func:`repro.resilience.supervise.run_supervised`
  (retries, deadlines, quarantine records);
* :mod:`repro.lab.sweeps` — builders that express the existing sweeps
  (synthesis exploration, load curves, saturation searches) as jobs and
  reassemble the classic result objects afterwards.

Entry points elsewhere in the stack delegate here:
``DesignSpaceExplorer.explore(parallel=True)`` and the ``repro batch``
CLI subcommand.
"""

from repro.lab.cache import NullCache, ResultCache
from repro.lab.executor import BatchResult, run_jobs
from repro.lab.hashing import (
    CODE_SALT,
    canonical_json,
    derive_seed,
    stable_hash,
    to_jsonable,
)
from repro.lab.jobs import (
    Job,
    JobCancelled,
    JobObserver,
    current_observer,
    registered_kinds,
    run_job,
    runner,
    runner_version,
)
from repro.lab.records import (
    design_point_from_dict,
    design_point_to_dict,
    floorplan_from_dict,
    floorplan_to_dict,
    load_point_from_dict,
    load_point_to_dict,
    noc_parameters_from_dict,
    noc_parameters_to_dict,
)
from repro.lab.store import ResultStore
from repro.lab.sweeps import (
    default_switch_counts,
    fault_campaign_jobs,
    fault_summary_from_batch,
    load_curve_from_batch,
    load_curve_jobs,
    run_synthesis_sweep,
    saturation_job,
    sweep_result_from_batch,
    sweep_result_from_store,
    synthesis_sweep_jobs,
    utilization_curve_from_batch,
)

__all__ = [
    "BatchResult",
    "CODE_SALT",
    "Job",
    "JobCancelled",
    "JobObserver",
    "NullCache",
    "ResultCache",
    "ResultStore",
    "canonical_json",
    "current_observer",
    "default_switch_counts",
    "derive_seed",
    "design_point_from_dict",
    "fault_campaign_jobs",
    "fault_summary_from_batch",
    "design_point_to_dict",
    "floorplan_from_dict",
    "floorplan_to_dict",
    "load_curve_from_batch",
    "load_curve_jobs",
    "load_point_from_dict",
    "load_point_to_dict",
    "noc_parameters_from_dict",
    "noc_parameters_to_dict",
    "registered_kinds",
    "run_job",
    "run_jobs",
    "run_synthesis_sweep",
    "runner",
    "runner_version",
    "saturation_job",
    "stable_hash",
    "sweep_result_from_batch",
    "sweep_result_from_store",
    "synthesis_sweep_jobs",
    "to_jsonable",
    "utilization_curve_from_batch",
]
