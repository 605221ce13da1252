"""Scenario sweep subsystem: declarative experiments at scale.

The paper's headline results are claims about *distributions over
scenarios*; this package turns one spec template into hundreds of
concrete scenarios, executes them (serially or across a worker pool),
and reduces the results to per-cell summary statistics plus CSV/JSON
artifacts.

The orchestration layer (``spec.shard_grid`` + ``artifacts``) scales
this across machines and failures: every cell is named by a content
key (hash of its frozen spec), runs append completed cells to a
durable ``cells.jsonl`` store, ``SweepRunner(resume_dir=...)`` skips
cells a prior run already recorded, and ``merge_artifacts`` joins
shard stores into one artifact set.  Artifacts are byte-deterministic,
so a sharded+merged or killed+resumed sweep is indistinguishable from
a single serial run (see docs/architecture.md § 8).

Typical use::

    from repro.experiments import (
        SweepRunner, default_sweep, shard_grid, summarize,
        write_artifacts, merge_artifacts,
    )

    sweep = default_sweep()
    shard = shard_grid(sweep.scenarios, 0, 4)          # this machine's quarter
    runner = SweepRunner(shard, workers=4, allow_empty=True)
    results = runner.run(store_dir="out/shard0")       # resumable store
    summaries = summarize(results, group_by=sweep.group_by)
    write_artifacts(results, summaries, "out/shard0", name=sweep.name)
    # later, on one machine:
    merge_artifacts(["out/shard0", ...], "out/merged", name=sweep.name)
"""

from .aggregate import (
    CellSummary,
    SummaryStats,
    summarize,
    write_artifacts,
    write_cells_jsonl,
    write_results_csv,
    write_summary_csv,
    write_sweep_json,
)
from .artifacts import (
    CELLS_FILENAME,
    CellStore,
    MergeReport,
    canonical_results,
    load_artifact_results,
    merge_artifacts,
)
from .deviations import (
    deviation_table,
    make_runner,
    routing_distributed_mechanism,
)
from .runner import (
    ScenarioResult,
    SweepRunner,
    run_scenario,
    run_scenario_traced,
    run_sweep,
)
from .spec import (
    PROBES,
    TOPOLOGY_FAMILIES,
    TRAFFIC_MODELS,
    ScenarioSpec,
    SweepSpec,
    default_sweep,
    expand_grid,
    parse_sweep,
    shard_grid,
    validate_group_by,
)

__all__ = [
    "CELLS_FILENAME",
    "CellStore",
    "CellSummary",
    "MergeReport",
    "PROBES",
    "ScenarioResult",
    "ScenarioSpec",
    "SummaryStats",
    "SweepRunner",
    "SweepSpec",
    "TOPOLOGY_FAMILIES",
    "TRAFFIC_MODELS",
    "canonical_results",
    "default_sweep",
    "deviation_table",
    "expand_grid",
    "load_artifact_results",
    "make_runner",
    "merge_artifacts",
    "parse_sweep",
    "routing_distributed_mechanism",
    "run_scenario",
    "run_scenario_traced",
    "run_sweep",
    "shard_grid",
    "summarize",
    "validate_group_by",
    "write_artifacts",
    "write_cells_jsonl",
    "write_results_csv",
    "write_summary_csv",
    "write_sweep_json",
]
