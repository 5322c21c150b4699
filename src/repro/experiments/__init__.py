"""Experiment harness: configs, the runner, report rendering, and the
paper exhibits as data with the one runner that executes them."""

from .config import DATASTORE_KINDS, SERVER_KINDS, ExperimentConfig, ExperimentResult
from .figures import EXHIBITS, Exhibit, ExhibitResult, run_exhibits
from .parallel import resolve_jobs, run_experiments
from .report import normalize, render_series, render_table
from .runner import PERCENTILES, build_params, run_experiment

__all__ = [
    "DATASTORE_KINDS", "SERVER_KINDS", "ExperimentConfig",
    "ExperimentResult", "EXHIBITS", "Exhibit", "ExhibitResult",
    "run_exhibits",
    "normalize", "render_series", "render_table", "PERCENTILES",
    "build_params", "run_experiment", "run_experiments", "resolve_jobs",
]
