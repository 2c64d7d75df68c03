"""The benchmark's workloads.

Every cohort comes from ``mvtrace generate`` with planted ground truth; the
cohort seed is the benchmark's ``--seed``, while the fold plan and the fit
seeds stay fixed, so a seed changes the data and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

CV_SEED = 0

@dataclass
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    command: str                       # "run" or "sweep"
    cohort: dict                       # mvtrace generate fields
    config: dict                       # mvtrace run fields
    grid: list[dict] = field(default_factory=list)
    r2_floor: float | None = None      # on the best grid point's out-of-fold R²
    f1_floor: float | None = None      # on the support F1 of mean |beta| rows
    reference_point: dict | None = None  # grid point re-run for the solver check

    @property
    def labels(self) -> list[str]:
        return [p["label"] for p in self.grid] if self.grid else [self.config["arch"]]

    @property
    def folds(self) -> int:
        return self.config["cv"]["folds"]

    @property
    def operations(self) -> int:
        """Folds of every grid point: the operations one command attempts."""
        return len(self.labels) * self.folds


def _point(alpha: float, eta: float) -> dict:
    return {"label": f"alpha={alpha:g},eta={eta:g}", "alpha": alpha, "eta": eta}


WORKLOADS = {
    "mdae_cv": Workload(
        command="run",
        cohort={"n_subjects": 40, "mesh": "icosphere-2"},
        config={"arch": "mdae", "enc": 10, "hidden_dims": [140, 120],
                "hidden_activation": "relu", "epochs": 2, "learning_rate": 3e-3,
                "alpha": 24, "eta": 60, "cv": {"folds": 10, "seed": CV_SEED}},
        r2_floor=0.02, f1_floor=0.25,
    ),
    "concat_alpha_sweep": Workload(
        command="sweep",
        cohort={"n_subjects": 40, "mesh": "icosphere-2"},
        config={"arch": "concat-ae", "enc": 10, "hidden_dims": [200, 130],
                "hidden_activation": "relu", "epochs": 2, "learning_rate": 3e-3,
                "cv": {"folds": 4, "seed": CV_SEED}},
        grid=[_point(24, 60), _point(12, 40), _point(8, 20)],
        r2_floor=0.02,
    ),
    "raw_alpha_path": Workload(
        command="sweep",
        cohort={"n_subjects": 60, "mesh": "icosphere-3"},
        config={"arch": "raw", "cv": {"folds": 2, "seed": CV_SEED}},
        grid=[_point(60, 60), _point(24, 60), _point(8, 20)],
        r2_floor=0.02, f1_floor=0.15,
        reference_point=_point(24, 60),
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload on a 12-subject icosphere-1 cohort, for the self-test.
    Quality floors do not apply at this size."""
    config = {**workload.config, "cv": {"folds": 3, "seed": CV_SEED}}
    if "hidden_dims" in config:
        config.update(hidden_dims=[16, 12], epochs=2)
    return replace(workload, cohort={"n_subjects": 12, "mesh": "icosphere-1",
                                     "cluster_size": 4},
                   config=config, r2_floor=None, f1_floor=None)
