"""Command-line entry point orchestrating the full pipeline.

Subcommands over JSON config files:

* ``generate`` — write a synthetic dataset directory,
* ``run``      — cross-validated representation + trace regression,
* ``sweep``    — run a grid of configs sharing one fold plan,
* ``map``      — recompute the significance map from stored fold betas,
* ``inspect``  — print MVRL file headers.

Each config has one schema: ``synth.GeneratorConfig``'s fields (plus
``out``) for ``generate``, ``RUN_DEFAULTS`` (plus ``dataset``, ``out`` and a
sweep's ``grid``) for ``run`` and ``sweep``.  A command-line flag names the
config field it sets (``--batch`` sets ``batch_size``); a flag left out
leaves the config as it is.  ``run`` is a ``sweep`` over the one point
``{}``, labelled by ``arch``.  Unknown or misplaced fields are a
``ConfigError`` before any work starts.

Every command writes a ``manifest.json`` with the fully resolved config;
passing a manifest back through ``--config`` reproduces the output
bit-for-bit.  Errors leave a machine-readable JSON object on stderr and a
nonzero exit code.  ``MVTRACE_LOG`` in {error, info, debug} controls logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, evaluation, io, synth
from .autoencoders import (
    DEFAULT_HIDDEN,
    ArchitectureConfig,
    AutoencoderSpec,
    PcaSpec,
    RawSpec,
    check_training,
)
from .data import load_dataset
from .mesh import build_laplacian
from .trace_regression import FistaConfig, RegularizationConfig, export_beta

logger = logging.getLogger(__name__)

ARCH_CHOICES = ("mdae", "concat-ae", "monomodal-task", "monomodal-rest", "pca", "raw")


class ConfigError(ValueError):
    pass


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - single CLI failure boundary
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        logger.debug("command failed", exc_info=True)
        return 1


def _setup_logging() -> None:
    level_name = os.environ.get("MVTRACE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level_name, logging.ERROR))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvtrace", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mvtrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag's dest is the config field it sets; a flag left out is absent
    # from the parsed namespace, so it overrides nothing
    p_gen = sub.add_parser("generate", help="write a synthetic dataset directory",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out")
    p_gen.add_argument("--seed", type=int)
    p_gen.set_defaults(handler=cmd_generate)

    for name, help_text in (("run", "cross-validated pipeline on a dataset"),
                            ("sweep", "grid of run configs on one fold plan")):
        p_run = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        _add_run_flags(p_run)
        p_run.set_defaults(handler=cmd_run)

    p_map = sub.add_parser("map", help="recompute significance map from fold betas")
    p_map.add_argument("--results", required=True)
    p_map.add_argument("--t-crit", type=float, default=evaluation.T_CRIT)
    p_map.set_defaults(handler=cmd_map)

    p_inspect = sub.add_parser("inspect", help="print MVRL matrix file headers")
    p_inspect.add_argument("paths", nargs="+")
    p_inspect.set_defaults(handler=cmd_inspect)
    return parser


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--arch", choices=ARCH_CHOICES)
    parser.add_argument("--enc", type=int)
    parser.add_argument("--enc-split", dest="enc_split", metavar="T,R")
    parser.add_argument("--hidden-act", dest="hidden_activation", choices=("linear", "relu"))
    parser.add_argument("--output-act", dest="output_activation", choices=("linear", "sigmoid"))
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch", dest="batch_size", type=int)
    parser.add_argument("--lr", dest="learning_rate", type=float)


def _flags(args) -> dict:
    """The config fields set on the command line, by field name."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "handler")}
    if "enc_split" in flags:
        try:
            t, r = (int(v) for v in flags["enc_split"].split(","))
        except ValueError:
            raise ConfigError(f"--enc-split expects 'T,R', got {flags['enc_split']!r}")
        flags["enc_split"] = [t, r]
    return flags


def _load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    # manifests are valid configs: unwrap the resolved config they embed
    if "config" in cfg and "command" in cfg:
        cfg = cfg["config"]
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config field: {key}")
    return cfg[key]


def _write_manifest(out_dir: Path, command: str, cfg: dict) -> None:
    manifest = {"command": command, "package_version": __version__, "config": cfg}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- generate ----------------------------------------------------------------

GENERATE_FIELDS = {f.name for f in fields(synth.GeneratorConfig)} | {"out"}


def cmd_generate(args) -> int:
    cfg = {**_load_config(args.config), **_flags(args)}
    out = Path(_require(cfg, "out"))
    _check_fields(cfg, GENERATE_FIELDS, "generate config")
    try:
        gen_cfg = synth.GeneratorConfig(**{k: v for k, v in cfg.items() if k != "out"})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid generate config: {exc}") from exc
    subjects, mesh, ground_truth = synth.generate(gen_cfg)
    synth.write_dataset(out, subjects, mesh, ground_truth)
    _write_manifest(out, "generate", {**asdict(gen_cfg), "out": cfg["out"]})
    print(f"wrote {len(subjects)} subjects on {mesh.vertex_count} vertices to {out}")
    return 0


# --- run ---------------------------------------------------------------------

RUN_DEFAULTS = {
    "arch": "mdae",
    "enc": 10,
    "enc_split": None,
    "hidden_dims": None,
    "hidden_activation": "linear",
    "output_activation": "linear",
    "epochs": 300,
    "batch_size": 500,
    "learning_rate": 1e-3,
    "alpha": 5e-4,
    "eta": 1e-3,
    "fista": {},
    "cv": {},
    "jobs": 1,
    "seed": 0,
}


def _build_spec(cfg: dict):
    arch = cfg["arch"]
    if arch not in ARCH_CHOICES:
        raise ConfigError(f"arch must be one of {ARCH_CHOICES}, got {arch!r}")
    training = {"epochs": cfg["epochs"], "batch_size": cfg["batch_size"],
                "learning_rate": float(cfg["learning_rate"])}
    try:
        # every arch's training fields are range-checked, also where no fit reads them
        check_training(**training)
        if arch == "pca":
            return PcaSpec(enc=cfg["enc"])
        if arch == "raw":
            return RawSpec()
        hidden = cfg.get("hidden_dims")
        if hidden is None:
            hidden = DEFAULT_HIDDEN[arch]
        config = ArchitectureConfig(
            kind=arch,
            enc=cfg["enc"],
            hidden_dims=tuple(hidden),
            enc_split=tuple(cfg["enc_split"]) if cfg.get("enc_split") else None,
            hidden_activation=cfg["hidden_activation"],
            output_activation=cfg["output_activation"],
        )
        return AutoencoderSpec(config=config, **training)
    except ValueError as exc:
        raise ConfigError(f"invalid autoencoder config: {exc}") from exc


def _build_reg_fista(cfg: dict):
    try:
        reg = RegularizationConfig(alpha=cfg["alpha"], eta=cfg["eta"])
        fista = FistaConfig(**cfg["fista"])
    except ValueError as exc:  # _check_numbers has checked every type
        raise ConfigError(f"invalid regularization/fista config: {exc}") from exc
    return reg, fista


# every field a run or sweep config may set; a grid point may also set
# "label", but not the sweep-wide "out" and "grid"
RUN_FIELDS = set(RUN_DEFAULTS) | {"dataset", "out", "grid"}
POINT_FIELDS = (RUN_FIELDS - {"out", "grid"}) | {"label"}
CV_FIELDS = {"folds", "seed"}
FISTA_FIELDS = {f.name for f in fields(FistaConfig)}


def _check_numbers(cfg: dict) -> None:
    """A ConfigError naming the first typed field of the wrong type.
    ``cv`` and ``fista`` must be objects of their own fields.  Integer
    fields and the entries of ``hidden_dims`` and ``enc_split`` must be an
    int, and ``learning_rate``, ``alpha``, ``eta`` and ``fista.rel_tolerance``
    a finite int or float, never a bool; nothing is cast, so nothing is
    truncated or read as true.  ``cv.folds``, the seeds and ``jobs`` are
    range-checked here; the config objects check the other ranges."""
    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    for name, allowed in (("cv", CV_FIELDS), ("fista", FISTA_FIELDS)):
        if not isinstance(cfg[name], dict):
            raise ConfigError(f"{name} must be an object")
        _check_fields(cfg[name], allowed, name)
    integers = {name: cfg[name] for name in ("enc", "epochs", "batch_size", "seed")}
    integers["cv.folds"] = cfg["cv"].get("folds", 10)
    integers["cv.seed"] = cfg["cv"].get("seed", cfg["seed"])
    integers["fista.max_iters"] = cfg["fista"].get("max_iters", FistaConfig.max_iters)
    for name, value in integers.items():
        if not is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in ("hidden_dims", "enc_split"):
        value = cfg[name]
        if value is not None and not (isinstance(value, list) and all(map(is_int, value))):
            raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    numbers = {name: cfg[name] for name in ("learning_rate", "alpha", "eta")}
    numbers["fista.rel_tolerance"] = cfg["fista"].get("rel_tolerance",
                                                      FistaConfig.rel_tolerance)
    for name, value in numbers.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    if integers["cv.folds"] < 2:
        raise ConfigError(f"cv.folds must be at least 2, got {integers['cv.folds']}")
    for name in ("seed", "cv.seed"):
        if integers[name] < 0:
            raise ConfigError(f"{name} must be >= 0, got {integers[name]}")
    jobs = cfg["jobs"]
    if not is_int(jobs) or jobs < 1:
        raise ConfigError(f"jobs must be an integer of at least 1, got {jobs!r}")


def _check_fields(cfg: dict, allowed: set, where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {sorted(unknown)}")


def _resolve_run_config(args) -> tuple[dict, list[dict], list[str]]:
    """The resolved config, its grid of overrides and their labels; a run's
    grid is the one point ``{}``, labelled by ``arch``."""
    cfg = {**RUN_DEFAULTS, **_load_config(args.config)}
    _check_fields(cfg, RUN_FIELDS, "run config")
    cfg.update(_flags(args))
    _require(cfg, "dataset")
    _require(cfg, "out")
    if args.command == "run":
        if "grid" in cfg:
            raise ConfigError("a run config has no 'grid'; use mvtrace sweep")
        return cfg, [{}], [cfg["arch"]]
    grid = cfg.get("grid")
    if not grid or not isinstance(grid, list):
        raise ConfigError("sweep config needs a nonempty 'grid' list of override objects")
    for i, overrides in enumerate(grid):
        if not isinstance(overrides, dict):
            raise ConfigError(f"grid[{i}] must be an object of config overrides")
        _check_fields(overrides, POINT_FIELDS, f"grid[{i}]")
    labels = [overrides.get("label") or _grid_label(overrides, i)
              for i, overrides in enumerate(grid)]
    duplicates = sorted({label for label in labels if labels.count(label) > 1}, key=str)
    if duplicates:
        raise ConfigError(f"duplicate grid label(s): {duplicates}")
    return cfg, grid, labels


def _run_points(cfg: dict, grid: list[dict], labels: list[str]):
    """Cross-validate each grid point's overrides of ``cfg``; returns
    (SweepPoint, CvResult) pairs in grid order.

    Every config is checked before any work starts.  Points that agree in
    what a fold's fit reads (the built spec, the dataset, ``cv``, ``seed``
    and ``jobs``) form one group, and each group makes one
    ``evaluation.run_cv`` call with the group's penalties in grid order,
    which fits each fold's representation once for all of them; each
    dataset is loaded once.
    """
    configs, points, penalties, groups = [], [], [], {}
    for i, overrides in enumerate(grid):
        merged = {**cfg, **overrides}
        _check_numbers(merged)
        configs.append(merged)
        points.append(evaluation.SweepPoint(labels[i], _build_spec(merged)))
        penalties.append(_build_reg_fista(merged))
        # a dataclass repr spells every field, so equal reprs fit alike
        shared = {"spec": repr(points[-1].spec),
                  **{k: merged[k] for k in ("dataset", "cv", "seed", "jobs")}}
        groups.setdefault(json.dumps(shared, sort_keys=True), []).append(i)
    datasets = {}
    entries = [None] * len(grid)
    for indices in groups.values():
        base = configs[indices[0]]
        if base["dataset"] not in datasets:
            subjects, mesh, _ = load_dataset(base["dataset"])
            datasets[base["dataset"]] = subjects, build_laplacian(mesh)
        subjects, laplacian = datasets[base["dataset"]]
        cv_cfg = base["cv"]
        plan = evaluation.make_folds(
            len(subjects), cv_cfg.get("folds", 10), cv_cfg.get("seed", base["seed"])
        )
        results = evaluation.run_cv(
            subjects, laplacian, points[indices[0]].spec,
            [penalties[i] for i in indices], plan, seed=base["seed"], jobs=base["jobs"],
        )
        for i, result in zip(indices, results):
            entries[i] = (points[i], result)
    return entries


def _write_run_outputs(out: Path, entries) -> None:
    out.mkdir(parents=True, exist_ok=True)
    evaluation.write_fold_csv(out / "folds.csv", entries)
    evaluation.write_summary_csv(out / "summary.csv", entries)
    # per-fold artifacts only for single runs
    if len(entries) == 1:
        _, result = entries[0]
        for fold in result.folds:
            export_beta(out / f"beta_fold{fold.fold_id}.mvrl", fold.beta, tol=1e-12)
        with open(out / "convergence.csv", "w", newline="") as fh:
            fh.write("fold,iteration,objective\n")
            for fold in result.folds:
                for i, val in enumerate(fold.objectives):
                    fh.write(f"{fold.fold_id},{i},{format(float(val), '.12g')}\n")
        _write_significance(out, result.betas)


def _write_significance(out: Path, betas, **options):
    """significance.csv and significance_t.mvrl of ``significance_map(betas,
    **options)``; returns the map."""
    sig = evaluation.significance_map(betas, **options)
    evaluation.write_significance_csv(out / "significance.csv", sig)
    io.write_matrix(out / "significance_t.mvrl", sig.t)
    return sig


def _r2_text(value) -> str:
    return "undefined" if value is None else f"{value:.6g}"


def _report_unconverged(entries) -> None:
    """One stderr line, whatever MVTRACE_LOG says, if any fit hit max_iters."""
    folds = [fold for _, result in entries for fold in result.folds]
    stalled = sum(not fold.converged for fold in folds)
    if stalled:
        print(
            f"warning: {stalled} of {len(folds)} regression fits stopped at "
            "fista.max_iters without meeting fista.rel_tolerance",
            file=sys.stderr,
        )


def cmd_run(args) -> int:
    """``run`` and ``sweep``: cross-validate every grid point, write the
    tables and the manifest, print one line per point."""
    cfg, grid, labels = _resolve_run_config(args)
    out = Path(cfg["out"])
    entries = _run_points(cfg, grid, labels)
    _write_run_outputs(out, entries)
    _write_manifest(out, args.command, cfg)
    for point, result in entries:
        spread = f" (+/- {result.stderr_mse:.2g})" if args.command == "run" else ""
        print(f"{point.label}: mean MSE {result.mean_mse:.6g}{spread}, "
              f"mean R2 {_r2_text(result.mean_r2)}")
    _report_unconverged(entries)
    return 0


def _grid_label(overrides: dict, index: int) -> str:
    keys = [k for k in overrides if k != "label"]
    if not keys:
        return f"point{index}"
    parts = []
    for k in sorted(keys):
        v = overrides[k]
        if isinstance(v, (list, tuple)):
            v = "-".join(str(x) for x in v)
        elif isinstance(v, dict):
            v = json.dumps(v, sort_keys=True, separators=(",", ":"))
        parts.append(f"{k}={v}")
    return ",".join(parts)


def cmd_map(args) -> int:
    results = Path(args.results)
    beta_files = sorted(results.glob("beta_fold*.mvrl"),  # fold order: 2 before 10
                        key=lambda p: int(p.stem.removeprefix("beta_fold")))
    if len(beta_files) < 2:
        raise FileNotFoundError(
            f"{results}: need at least 2 beta_fold*.mvrl files, found {len(beta_files)}"
        )
    betas = [io.read_matrix(p) for p in beta_files]
    sig = _write_significance(results, betas, t_crit=args.t_crit)
    print(
        f"significance map over {len(betas)} folds: "
        f"{int(sig.mask.sum())} vertices with t > {args.t_crit}"
    )
    return 0


def cmd_inspect(args) -> int:
    for path in args.paths:
        info = io.read_matrix_header(path)
        print(f"{path}: {json.dumps(info, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
