"""Experiment registry and runner.

Maps stable experiment identifiers to the ``run(config)`` functions of the
per-experiment modules.  The identifiers follow the paper's artefact names
(``table1``, ``figure3`` ...), plus ``ablation_*`` for the additional studies
described in DESIGN.md.
"""

from __future__ import annotations

from collections.abc import Callable

import inspect

from repro.experiments import (
    ablation_bs_vs_rs,
    ablation_m_sensitivity,
    ablation_memory,
    ablation_register_width,
    figure2_ccdf,
    figure3_runtime,
    figure4_scatter,
    figure5_rse,
    figure6_spreaders_time,
    table1_datasets,
    table2_spreaders,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import Table

ExperimentFunction = Callable[..., Table]

#: Registry of every reproducible artefact, keyed by experiment id.
EXPERIMENTS: dict[str, ExperimentFunction] = {
    "table1": table1_datasets.run,
    "figure2": figure2_ccdf.run,
    "figure3": figure3_runtime.run,
    "figure4": figure4_scatter.run,
    "figure5": figure5_rse.run,
    "figure6": figure6_spreaders_time.run,
    "table2": table2_spreaders.run,
    "ablation_m_sensitivity": ablation_m_sensitivity.run,
    "ablation_bs_vs_rs": ablation_bs_vs_rs.run,
    "ablation_memory": ablation_memory.run,
    "ablation_register_width": ablation_register_width.run,
}

#: Short human-readable description per experiment id (shown by the CLI).
DESCRIPTIONS: dict[str, str] = {
    "table1": "Table I — dataset summary statistics",
    "figure2": "Figure 2 — CCDF of user cardinalities",
    "figure3": "Figure 3 — per-update runtime vs m",
    "figure4": "Figure 4 — estimated vs actual cardinality (Orkut)",
    "figure5": "Figure 5 — RSE vs cardinality on every dataset",
    "figure6": "Figure 6 — super-spreader detection over time (sanjose)",
    "table2": "Table II — super-spreader detection on every dataset",
    "ablation_m_sensitivity": "Ablation — CSE/vHLL sensitivity to m",
    "ablation_bs_vs_rs": "Ablation — FreeBS vs FreeRS cross-over",
    "ablation_memory": "Ablation — accuracy vs memory budget",
    "ablation_register_width": "Ablation — FreeRS register width under fixed memory",
}


def list_experiments() -> list[str]:
    """Return the identifiers of all registered experiments."""
    return list(EXPERIMENTS)


def run_experiment(name: str, config: ExperimentConfig | None = None, **kwargs) -> Table:
    """Run one experiment by identifier and return its result table.

    Keyword arguments are validated against the experiment function's
    signature *before* the run starts, so a typo fails immediately with the
    accepted names instead of exploding minutes into a sweep.
    """
    try:
        function = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}") from None
    parameters = inspect.signature(function).parameters
    accepts_any = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD for parameter in parameters.values()
    )
    if not accepts_any:
        accepted = list(parameters)[1:]  # first parameter is the config
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise TypeError(
                f"experiment {name!r} got unexpected keyword arguments {unknown}; "
                f"accepted keywords: {accepted}"
            )
    return function(config, **kwargs)
