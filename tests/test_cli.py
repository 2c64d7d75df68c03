import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from conftest import assert_near_tight_solve, recorded_solves
import mvtrace
from mvtrace import evaluation, io, synth
from mvtrace.autoencoders import AutoencoderSpec, PcaSpec
from mvtrace.cli import RUN_DEFAULTS, main
from mvtrace.data import load_dataset

SMALL_GENERATE = {
    "n_subjects": 12,
    "mesh": "icosphere-1",
    "d_task": 6,
    "d_rest": 5,
    "latent_dim_true": 3,
    "n_clusters": 2,
    "cluster_size": 4,
    "seed": 7,
}

SMALL_RUN = {
    "arch": "pca",
    "enc": 3,
    "alpha": 2.0,
    "eta": 5.0,
    "fista": {"max_iters": 400, "rel_tolerance": 1e-7},
    "cv": {"folds": 4, "seed": 7},
    "seed": 7,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def tree_bytes(directory, skip=()):
    """Relative path -> bytes of every file under ``directory``."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file() and p.name not in skip}


@pytest.fixture
def folds_run(monkeypatch):
    """The arguments of every evaluation.run_fold call, which make no fit."""
    calls = []
    monkeypatch.setattr(evaluation, "run_fold", lambda *a, **k: calls.append(a))
    return calls


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-data")
    cfg = write_config(tmp_path, "gen.json", {**SMALL_GENERATE, "out": str(tmp_path / "ds")})
    assert main(["generate", "--config", str(cfg)]) == 0
    return tmp_path / "ds"


# scipy modules that generate and a relu/linear run never call; they load
# scipy.sparse only
UNUSED_SCIPY = ("scipy.linalg", "scipy.special", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def test_run_imports_no_unused_scipy(tmp_path):
    gen = write_config(tmp_path, "gen.json", {**SMALL_GENERATE, "out": str(tmp_path / "ds")})
    cfg = write_config(
        tmp_path, "run.json",
        {**SMALL_RUN, "arch": "mdae", "enc": 4, "hidden_dims": [6],
         "hidden_activation": "relu", "epochs": 2, "batch_size": 64,
         "dataset": str(tmp_path / "ds"), "out": str(tmp_path / "o")},
    )
    script = (
        "import json, sys\n"
        "import mvtrace.cli\n"
        "def scipy_modules(): return [m for m in sys.modules if m.startswith('scipy')]\n"
        "loaded = [scipy_modules()]\n"
        "codes = [mvtrace.cli.main(['generate', '--config', sys.argv[1]])]\n"
        "loaded.append(scipy_modules())\n"
        "codes.append(mvtrace.cli.main(['run', '--config', sys.argv[2]]))\n"
        "print(json.dumps([codes, loaded + [scipy_modules()]]))\n"
    )
    src = os.path.dirname(os.path.dirname(mvtrace.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script, str(gen), str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, (after_import, after_generate, after_run) = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0] and (tmp_path / "o" / "summary.csv").exists()
    assert "scipy.sparse" in after_import
    for name in UNUSED_SCIPY:
        for loaded in (after_import, after_generate, after_run):
            assert name not in loaded, name


class TestGenerate:
    def test_dataset_contract(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert {"mesh.off", "subjects.csv", "manifest.json", "ground_truth"} <= names
        subjects, mesh, gt = load_dataset(dataset_dir)
        assert len(subjects) == 12
        assert mesh.vertex_count == 42
        assert gt is not None and len(gt["support"]) == 8

    def test_missing_out_dir_created(self, tmp_path):
        cfg = write_config(
            tmp_path, "gen.json",
            {**SMALL_GENERATE, "n_subjects": 2, "out": str(tmp_path / "a" / "b" / "ds")},
        )
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "a" / "b" / "ds" / "mesh.off").exists()

    def test_invalid_mesh_spec_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "gen.json",
            {**SMALL_GENERATE, "mesh": "cube-3", "out": str(tmp_path / "ds")},
        )
        assert main(["generate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "mesh" in err["message"]

    def test_unknown_field_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "gen.json",
            {**SMALL_GENERATE, "n_subject": 4, "out": str(tmp_path / "ds")},
        )
        assert main(["generate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": "unknown generate config field(s): ['n_subject']"}
        assert not (tmp_path / "ds").exists()

    def test_every_generator_field_accepted(self, tmp_path):
        # criterion 7's cohort (rest-view nuisance, per-view noise and
        # loadings) with a non-default coherence, seeded by the --seed flag
        fields = {"loading_weights": [1.0, 0.35], "view_noise_sigma": [0.5, 1.0],
                  "rest_nuisance_dim": 3, "rest_nuisance_scale": 3.5,
                  "cluster_coherence": 0.9}
        cfg = write_config(tmp_path, "gen.json", {**fields, "out": str(tmp_path / "cli")})
        assert main(["generate", "--config", str(cfg), "--seed", "1"]) == 0
        synth.write_dataset(tmp_path / "direct", *synth.generate(synth.GeneratorConfig(
            seed=1, loading_weights=(1.0, 0.35), view_noise_sigma=(0.5, 1.0),
            rest_nuisance_dim=3, rest_nuisance_scale=3.5, cluster_coherence=0.9,
        )))
        written = tree_bytes(tmp_path / "cli", skip=("manifest.json",))
        assert written == tree_bytes(tmp_path / "direct")
        assert len(written) == 2 * 40 + 4  # two views per subject, mesh, scores, truth

    @pytest.mark.parametrize("field,value,shown", [
        ("noise_sigma", float("nan"), "nan"),
        ("view_noise_sigma", float("inf"), "(inf, inf)"),
        ("loading_weights", [1.0, float("nan")], "(1.0, nan)"),
        ("smoothing", float("-inf"), "-inf"),
        ("rest_nuisance_scale", float("nan"), "nan"),
    ])
    def test_non_finite_field_is_config_error(self, tmp_path, capsys, field, value, shown):
        out = tmp_path / "ds"
        cfg = write_config(tmp_path, "gen.json",
                           {**SMALL_GENERATE, field: value, "out": str(out)})
        assert main(["generate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": f"invalid generate config: {field} must be finite, got {shown}"}
        assert not out.exists()

    def test_negative_smoothing_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        cfg = write_config(tmp_path, "gen.json", {**SMALL_GENERATE, "smoothing": -1, "out": str(out)})
        assert main(["generate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": "invalid generate config: smoothing must be >= 0, got -1"}
        assert not out.exists()

    def test_manifest_records_resolved_config(self, dataset_dir, tmp_path):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        resolved = asdict(synth.GeneratorConfig(**SMALL_GENERATE))
        assert manifest["config"] == json.loads(json.dumps(
            {**resolved, "out": str(dataset_dir)}))
        assert manifest["config"]["view_noise_sigma"] == [0.4, 0.4]
        again = tmp_path / "again"
        assert main(["generate", "--config", str(dataset_dir / "manifest.json"),
                     "--out", str(again)]) == 0
        assert tree_bytes(again, skip=("manifest.json",)) == tree_bytes(
            dataset_dir, skip=("manifest.json",))


class TestRun:
    def test_outputs_and_manifest(self, dataset_dir, tmp_path):
        out = tmp_path / "results"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"folds.csv", "summary.csv", "significance.csv", "significance_t.mvrl",
                "convergence.csv", "manifest.json"} <= names
        assert len(list(out.glob("beta_fold*.mvrl"))) == 4
        assert len(list(out.glob("beta_fold*_support.txt"))) == 4
        with open(out / "folds.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["config"]["arch"] == "pca"

    def test_rerun_bit_identical(self, dataset_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path, f"{name}.json",
                {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(out)},
            )
            assert main(["run", "--config", str(cfg)]) == 0
            outs.append(out)
        assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
        assert (outs[0] / "folds.csv").read_bytes() == (outs[1] / "folds.csv").read_bytes()

    def test_rerun_from_manifest(self, dataset_dir, tmp_path):
        out = tmp_path / "orig"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        replay = tmp_path / "replay"
        assert main(["run", "--config", str(out / "manifest.json"), "--out", str(replay)]) == 0
        assert (out / "summary.csv").read_bytes() == (replay / "summary.csv").read_bytes()

    def test_flags_override_config(self, dataset_dir, tmp_path):
        out = tmp_path / "flagged"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main([
            "run", "--config", str(cfg), "--arch", "mdae", "--enc", "4",
            "--enc-split", "3,1", "--epochs", "2", "--batch", "64", "--lr", "0.001",
            "--hidden-act", "relu", "--output-act", "linear",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["arch"] == "mdae"
        assert manifest["config"]["enc_split"] == [3, 1]

    def test_run_leaves_dataset_untouched(self, dataset_dir, tmp_path):
        before = {
            p.name: p.read_bytes() for p in dataset_dir.rglob("*") if p.is_file()
        }
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(tmp_path / "o")},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        after = {
            p.name: p.read_bytes() for p in dataset_dir.rglob("*") if p.is_file()
        }
        assert before == after

    def test_mdae_split_ten_folds(self, tmp_path):
        # relu/linear mdae with enc 10 split (8, 2) over a 10-fold plan
        dataset = tmp_path / "ds40"
        gen = write_config(tmp_path, "gen40.json", {"out": str(dataset), "seed": 5})
        assert main(["generate", "--config", str(gen)]) == 0
        out = tmp_path / "mdae10"
        cfg = write_config(
            tmp_path, "run10.json",
            {
                "dataset": str(dataset), "out": str(out),
                "arch": "mdae", "enc": 10, "enc_split": [8, 2],
                "hidden_dims": [], "hidden_activation": "relu",
                "output_activation": "linear", "epochs": 2,
                "alpha": 8.0, "eta": 20.0,
                "fista": {"max_iters": 400}, "cv": {"folds": 10, "seed": 5},
            },
        )
        assert main(["run", "--config", str(cfg)]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][1:4] == ["10", "8", "2"]
        with open(out / "folds.csv") as fh:
            fold_rows = list(csv.reader(fh))[1:]
        assert len(fold_rows) == 10

    def test_mdae_arch_runs(self, dataset_dir, tmp_path):
        out = tmp_path / "mdae-out"
        cfg = write_config(
            tmp_path, "run.json",
            {
                **SMALL_RUN, "arch": "mdae", "enc": 4, "enc_split": [2, 2],
                "hidden_dims": [], "epochs": 2, "batch_size": 256,
                "dataset": str(dataset_dir), "out": str(out),
            },
        )
        assert main(["run", "--config", str(cfg)]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "mdae"
        assert rows[1][1] == "4"

    def test_missing_dataset_error_json(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "dataset": str(tmp_path / "nope"), "out": str(tmp_path / "o")},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]

    def test_misspelled_field_is_config_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "alhpa": 24, "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "alhpa" in err["message"]
        assert not out.exists()

    def test_misspelled_cv_field_is_config_error(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "cv": {"fold": 4}, "dataset": str(dataset_dir),
             "out": str(tmp_path / "o")},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "fold" in err["message"]

    def test_removed_step_policy_is_config_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "fista": {"max_iters": 400, "step_policy": "backtracking"},
             "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "step_policy" in err["message"]
        assert not out.exists()

    def test_removed_raw_truncate_is_config_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "arch": "raw", "raw_truncate": True,
             "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": "unknown run config field(s): ['raw_truncate']"}
        assert not out.exists()

    def test_non_finite_input_rejected_before_any_fold(self, dataset_dir, tmp_path,
                                                       capsys, folds_run):
        bad = tmp_path / "bad"
        shutil.copytree(dataset_dir, bad)
        sid = load_dataset(dataset_dir)[0][5].subject_id
        values = io.read_matrix(bad / f"task_{sid}.mvrl")
        values[3, 2] = np.nan
        io.write_matrix(bad / f"task_{sid}.mvrl", values)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "run.json",
                           {**SMALL_RUN, "dataset": str(bad), "out": str(out)})
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"subject {sid} has non-finite task values"}
        assert folds_run == [] and not out.exists()

    def test_leave_one_out(self, dataset_dir, tmp_path):
        # one subject per test fold: R² is undefined there, its cells blank
        out = tmp_path / "loo"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "cv": {"folds": 12, "seed": 7},
             "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        with open(out / "folds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert all(r["r2"] == "" and float(r["mse"]) >= 0 for r in rows)
        with open(out / "summary.csv") as fh:
            (summary,) = list(csv.DictReader(fh))
        assert summary["mean_r2"] == "" and summary["stderr_r2"] == ""
        assert float(summary["mean_mse"]) > 0
        assert len(list(out.glob("beta_fold*.mvrl"))) == 12

    @pytest.mark.parametrize("folds", [4, 12])
    def test_summary_pooled_r2(self, dataset_dir, tmp_path, folds):
        # R² of all out-of-fold predictions together: 1 - SSE / SS_tot over
        # the cohort, each subject scored once, by the fold that held it out
        out = tmp_path / "pooled"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "cv": {"folds": folds, "seed": 7},
             "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        subjects, _, _ = load_dataset(dataset_dir)
        scores = np.array([s.score for s in subjects])
        plan = evaluation.make_folds(len(subjects), folds, 7)
        with open(out / "folds.csv") as fh:
            sse = sum(float(r["mse"]) * len(plan.test_indices(int(r["fold"])))
                      for r in csv.DictReader(fh))
        with open(out / "summary.csv") as fh:
            (summary,) = list(csv.DictReader(fh))
        expect = 1.0 - sse / float(np.sum((scores - scores.mean()) ** 2))
        assert float(summary["pooled_r2"]) == pytest.approx(expect, rel=1e-9)
        assert summary["mean_r2"] != summary["pooled_r2"]

    def test_unconverged_fits_reported_once(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "fista": {"max_iters": 1}, "dataset": str(dataset_dir),
             "out": str(tmp_path / "o")},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "4 of 4 regression fits stopped at fista.max_iters" in err[0]

    def test_grid_in_run_config_rejected(self, dataset_dir, tmp_path, capsys, folds_run):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "grid": [{"alpha": 1.0}], "dataset": str(dataset_dir),
             "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": "a run config has no 'grid'; use mvtrace sweep"}
        assert folds_run == [] and not out.exists()

    @pytest.mark.parametrize("jobs", [0, -2, "two", 1.9, True])
    def test_jobs_not_a_positive_integer_rejected(self, dataset_dir, tmp_path, capsys,
                                                  folds_run, jobs):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "jobs": jobs, "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": f"jobs must be an integer of at least 1, got {jobs!r}"}
        assert folds_run == [] and not out.exists()

    @pytest.mark.parametrize("override,message", [
        ({"enc": "three"}, "enc must be an integer, got 'three'"),
        ({"enc": 3.9}, "enc must be an integer, got 3.9"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"learning_rate": "fast"}, "learning_rate must be a number, got 'fast'"),
        ({"cv": {"folds": 2.5}}, "cv.folds must be an integer, got 2.5"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"squared_rows": False}, "unknown run config field(s): ['squared_rows']"),
        ({"alpha": "2"}, "alpha must be a number, got '2'"),
        ({"eta": True}, "eta must be a number, got True"),
        ({"arch": "mdae", "hidden_dims": [6.7]},
         "hidden_dims must be a list of integers, got [6.7]"),
        ({"arch": "mdae", "enc": 4, "enc_split": [2.9, 2]},
         "enc_split must be a list of integers, got [2.9, 2]"),
        ({"arch": "mdae", "hidden_dims": [True]},
         "hidden_dims must be a list of integers, got [True]"),
        ({"fista": [400]}, "fista must be an object"),
        ({"fista": {"max_iters": 100.5}}, "fista.max_iters must be an integer, got 100.5"),
        ({"fista": {"max_iters": 1e3}}, "fista.max_iters must be an integer, got 1000.0"),
        ({"fista": {"max_iters": True}}, "fista.max_iters must be an integer, got True"),
        ({"fista": {"rel_tolerance": True}}, "fista.rel_tolerance must be a number, got True"),
        ({"fista": {"rel_tolerance": "1e-8"}},
         "fista.rel_tolerance must be a number, got '1e-8'"),
        # json.load reads NaN and Infinity; they must not reach a fold
        ({"alpha": float("nan")}, "alpha must be finite, got nan"),
        ({"alpha": float("-inf")}, "alpha must be finite, got -inf"),
        ({"eta": float("inf")}, "eta must be finite, got inf"),
        ({"arch": "mdae", "learning_rate": float("nan")}, "learning_rate must be finite, got nan"),
        ({"fista": {"rel_tolerance": float("inf")}},
         "fista.rel_tolerance must be finite, got inf"),
        # an autoencoder's training fields out of range
        ({"arch": "mdae", "epochs": 0}, "invalid autoencoder config: epochs must be >= 1, got 0"),
        ({"arch": "mdae", "epochs": -3},
         "invalid autoencoder config: epochs must be >= 1, got -3"),
        ({"arch": "mdae", "batch_size": 0},
         "invalid autoencoder config: batch_size must be >= 1, got 0"),
        ({"arch": "mdae", "learning_rate": 0},
         "invalid autoencoder config: learning_rate must be > 0, got 0.0"),
        ({"arch": "mdae", "learning_rate": -1.0},
         "invalid autoencoder config: learning_rate must be > 0, got -1.0"),
        # ... also for an arch that never reads them
        ({"learning_rate": -5.0},
         "invalid autoencoder config: learning_rate must be > 0, got -5.0"),
        ({"arch": "raw", "batch_size": 0},
         "invalid autoencoder config: batch_size must be >= 1, got 0"),
    ])
    def test_numeric_field_of_wrong_type_rejected(self, dataset_dir, tmp_path, capsys,
                                                  folds_run, override, message):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, **override, "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": message}
        assert folds_run == [] and not out.exists()

    def test_jobs_capped_at_fold_count(self, dataset_dir, tmp_path, monkeypatch):
        # a stand-in pool that records its size and starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
        outs = {}
        for jobs in (500, 1):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            cfg = write_config(
                tmp_path, f"jobs{jobs}.json",
                {**SMALL_RUN, "jobs": jobs, "dataset": str(dataset_dir),
                 "out": str(outs[jobs])},
            )
            assert main(["run", "--config", str(cfg)]) == 0
        assert sizes == [4]  # 4 folds; jobs=1 makes no pool
        for name in ("folds.csv", "summary.csv"):
            assert (outs[500] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_bad_enc_split_flag(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(tmp_path / "o")},
        )
        assert main(["run", "--config", str(cfg), "--enc-split", "4:1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "enc-split" in err["message"]


# each run/sweep flag, a value unlike the config's, and the field it sets
FLAGS = [
    ("--seed", "3", "seed", 3),
    ("--jobs", "2", "jobs", 2),
    ("--arch", "raw", "arch", "raw"),
    ("--enc", "2", "enc", 2),
    ("--enc-split", "2,1", "enc_split", [2, 1]),
    ("--hidden-act", "relu", "hidden_activation", "relu"),
    ("--output-act", "sigmoid", "output_activation", "sigmoid"),
    ("--epochs", "3", "epochs", 3),
    ("--batch", "64", "batch_size", 64),
    ("--lr", "0.01", "learning_rate", 0.01),
    ("--out", "flag-out", "out", "flag-out"),
]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag,value,field,recorded", FLAGS, ids=[f[0] for f in FLAGS])
def test_flag_lands_in_manifest(dataset_dir, tmp_path, monkeypatch, command,
                                flag, value, field, recorded):
    monkeypatch.chdir(tmp_path)
    payload = {**SMALL_RUN, "dataset": str(dataset_dir), "out": "config-out"}
    if command == "sweep":
        payload["grid"] = [{"alpha": 1.0}]
    assert {**RUN_DEFAULTS, **payload}[field] != recorded
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([command, "--config", str(cfg), flag, value]) == 0
    out = tmp_path / ("flag-out" if flag == "--out" else "config-out")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {**RUN_DEFAULTS, **payload, field: recorded}


class TestSweep:
    def test_grid_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(
            tmp_path, "sweep.json",
            {
                **SMALL_RUN,
                "dataset": str(dataset_dir),
                "out": str(out),
                "grid": [{"enc": 2}, {"enc": 3}, {"enc": 5}],
            },
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(out / "folds.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 * 4
        assert {r[1] for r in rows[1:]} == {"2", "3", "5"}

    def test_misspelled_grid_field_is_config_error(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "sweep.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(tmp_path / "s"),
             "grid": [{"alpha": 1.0}, {"alhpa": 24, "label": "typo"}]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "grid[1]" in err["message"] and "alhpa" in err["message"]

    @pytest.mark.parametrize("field,value", [
        ("out", "elsewhere"), ("grid", [{"eta": 1.0}]),
    ])
    def test_sweep_wide_field_in_point_rejected(self, dataset_dir, tmp_path, capsys,
                                                folds_run, field, value):
        out = tmp_path / "s"
        cfg = write_config(
            tmp_path, "sweep.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(out),
             "grid": [{"alpha": 1.0}, {"alpha": 2.0, field: value}]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": f"unknown grid[1] field(s): ['{field}']"}
        assert folds_run == [] and not out.exists()

    @pytest.mark.parametrize("override,message", [
        ({"alpha": "2"}, "alpha must be a number, got '2'"),
        ({"squared_rows": 1}, "unknown grid[1] field(s): ['squared_rows']"),
        ({"enc_split": [2, 1.0]}, "enc_split must be a list of integers, got [2, 1.0]"),
        ({"fista": {"max_iters": 100.5}}, "fista.max_iters must be an integer, got 100.5"),
        ({"fista": {"rel_tolerance": True}}, "fista.rel_tolerance must be a number, got True"),
        ({"eta": float("nan")}, "eta must be finite, got nan"),
        ({"epochs": 0}, "invalid autoencoder config: epochs must be >= 1, got 0"),
        ({"batch_size": 0}, "invalid autoencoder config: batch_size must be >= 1, got 0"),
        ({"learning_rate": -1.0},
         "invalid autoencoder config: learning_rate must be > 0, got -1.0"),
        ({"arch": "pca", "learning_rate": -5.0},
         "invalid autoencoder config: learning_rate must be > 0, got -5.0"),
        ({"arch": "pca", "batch_size": 0},
         "invalid autoencoder config: batch_size must be >= 1, got 0"),
    ])
    def test_typed_field_in_point_rejected(self, dataset_dir, tmp_path, capsys, folds_run,
                                           override, message):
        out = tmp_path / "s"
        cfg = write_config(
            tmp_path, "sweep.json",
            {**SMALL_RUN, "arch": "mdae", "dataset": str(dataset_dir), "out": str(out),
             "grid": [{"alpha": 1.0}, {"label": "bad", **override}]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": message}
        assert folds_run == [] and not out.exists()

    def test_empty_grid_is_config_error(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "sweep.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(tmp_path / "s"), "grid": []},
        )
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "grid" in err["message"]

    def test_object_override_label_is_json(self, dataset_dir, tmp_path):
        out = tmp_path / "s"
        cfg = write_config(
            tmp_path, "sweep.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(out),
             "grid": [{"fista": {"rel_tolerance": 1e-7, "max_iters": 300}},
                      {"enc": 2, "hidden_dims": [4, 3]}]},
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(out / "summary.csv") as fh:
            labels = [r["config"] for r in csv.DictReader(fh)]
        assert labels == ['fista={"max_iters":300,"rel_tolerance":1e-07}',
                          "enc=2,hidden_dims=4-3"]

    @pytest.mark.parametrize("grid", [
        [{"alpha": 1.0, "label": "a"}, {"alpha": 2.0, "label": "a"}],
        [{"alpha": 1.0}, {"alpha": 1.0}],
    ], ids=["given", "generated"])
    def test_duplicate_labels_are_config_error(self, dataset_dir, tmp_path, capsys, grid):
        out = tmp_path / "s"
        cfg = write_config(
            tmp_path, "sweep.json",
            {**SMALL_RUN, "dataset": str(dataset_dir), "out": str(out), "grid": grid},
        )
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "duplicate" in err["message"]
        assert not out.exists()


PENALTY_GRID = [
    {"alpha": 2.0, "eta": 5.0},
    {"alpha": 1.0, "eta": 2.0},
    {"alpha": 0.5, "eta": 1.0, "fista": {"max_iters": 200}},
]
AE_RUN = {**SMALL_RUN, "arch": "concat-ae", "enc": 3, "hidden_dims": [8],
          "epochs": 2, "batch_size": 64}


def fold_cells(out, label):
    """(fold, mse, r2) cells of one config's folds.csv rows, as written."""
    with open(out / "folds.csv") as fh:
        return [(r["fold"], r["mse"], r["r2"]) for r in csv.DictReader(fh)
                if r["config"] == label]


@pytest.fixture
def fitted_specs(monkeypatch):
    """Every AutoencoderSpec that fits a fold, in call order."""
    specs = []
    fit = AutoencoderSpec.fit

    def counted(spec, subjects, seed):
        specs.append(spec)
        return fit(spec, subjects, seed)

    monkeypatch.setattr(AutoencoderSpec, "fit", counted)
    return specs


class TestSweepReuse:
    """Grid points that differ only in penalties share each fold's fit."""

    def sweep(self, dataset_dir, tmp_path, name, grid=PENALTY_GRID, **extra):
        out = tmp_path / name
        cfg = write_config(
            tmp_path, f"{name}.json",
            {**AE_RUN, **extra, "dataset": str(dataset_dir), "out": str(out), "grid": grid},
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        return out

    def test_one_fit_per_fold(self, dataset_dir, tmp_path, fitted_specs):
        self.sweep(dataset_dir, tmp_path, "counted")
        assert len(fitted_specs) == 4  # 3 points x 4 folds, one fit per fold

    def test_enc_points_fit_separately(self, dataset_dir, tmp_path, fitted_specs):
        grid = [{"enc": 2}, {"enc": 3, "alpha": 1.0}, {"enc": 2, "eta": 1.0}]
        out = self.sweep(dataset_dir, tmp_path, "enc", grid=grid)
        assert sorted(s.config.enc for s in fitted_specs) == [2] * 4 + [3] * 4
        with open(out / "summary.csv") as fh:
            labels = [r["config"] for r in csv.DictReader(fh)]
        assert labels == ["enc=2", "alpha=1.0,enc=3", "enc=2,eta=1.0"]

    def test_cells_match_single_runs(self, dataset_dir, tmp_path, monkeypatch):
        solves = recorded_solves(monkeypatch)
        swept = self.sweep(dataset_dir, tmp_path, "swept")
        with open(swept / "summary.csv") as fh:
            labels = [r["config"] for r in csv.DictReader(fh)]
        # each fold solves the strongest alpha first, from zero, as a run does
        out = tmp_path / "run0"
        cfg = write_config(
            tmp_path, "run0.json",
            {**AE_RUN, **PENALTY_GRID[0], "dataset": str(dataset_dir), "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert fold_cells(swept, labels[0]) == fold_cells(out, "concat-ae")
        # the weaker points start from the previous point's beta
        warm = [s for s in solves[:12] if s[3] is not None]
        assert len(warm) == 8
        for dataset, reg, fista, _, fit in warm:
            assert_near_tight_solve(dataset, reg, fista, fit.beta)

    def test_reversed_grid_gives_same_cells(self, dataset_dir, tmp_path):
        labels = [f"p{i}" for i in range(len(PENALTY_GRID))]
        grid = [{**point, "label": label} for point, label in zip(PENALTY_GRID, labels)]
        forward = self.sweep(dataset_dir, tmp_path, "forward", grid=grid)
        backward = self.sweep(dataset_dir, tmp_path, "backward", grid=grid[::-1])
        for label in labels:
            assert fold_cells(forward, label) == fold_cells(backward, label)

    def test_points_share_the_fit_their_specs_agree_on(self, dataset_dir, tmp_path,
                                                       monkeypatch):
        # a pca fit reads no autoencoder training field
        fits = []
        fit = PcaSpec.fit
        monkeypatch.setattr(PcaSpec, "fit",
                            lambda spec, *args: fits.append(spec) or fit(spec, *args))
        self.sweep(dataset_dir, tmp_path, "pca", grid=[{"epochs": 1}, {"epochs": 2}],
                   arch="pca")
        assert len(fits) == 4  # 2 points x 4 folds, one fit per fold

    @pytest.mark.parametrize("arch", ["concat-ae", "mdae"])
    def test_parallel_folds_match_sequential(self, dataset_dir, tmp_path, two_cpus, arch):
        # jobs=2 fits in fold workers, serially; with jobs=1 an mdae fit runs
        # its blocks on two threads
        for grid in (PENALTY_GRID, PENALTY_GRID[:1]):
            seq = self.sweep(dataset_dir, tmp_path, f"seq{len(grid)}", grid, arch=arch, jobs=1)
            par = self.sweep(dataset_dir, tmp_path, f"par{len(grid)}", grid, arch=arch, jobs=2)
            assert tree_bytes(seq, skip=("manifest.json",)) == \
                tree_bytes(par, skip=("manifest.json",))
        assert len(list(seq.glob("beta_fold*.mvrl"))) == 4  # one point: the fold maps


class TestMapAndInspect:
    def test_map_recomputes_from_stored_betas(self, dataset_dir, tmp_path):
        # 12 folds: the map must read beta_fold10 and beta_fold11 after
        # beta_fold9, in the fold order the run summed them in
        out = tmp_path / "results"
        cfg = write_config(
            tmp_path, "run.json",
            {**SMALL_RUN, "cv": {"folds": 12, "seed": 7}, "dataset": str(dataset_dir),
             "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        names = ("significance.csv", "significance_t.mvrl")
        before = {name: (out / name).read_bytes() for name in names}
        for name in names:
            (out / name).unlink()
        assert main(["map", "--results", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_map_needs_fold_maps(self, tmp_path, capsys):
        assert main(["map", "--results", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "beta_fold" in err["message"]

    def test_inspect_prints_headers(self, dataset_dir, capsys):
        target = str(dataset_dir / "task_s000.mvrl")
        assert main(["inspect", target]) == 0
        out = capsys.readouterr().out
        assert "MVRL" in out and '"rows": 42' in out

    def test_inspect_bad_file_prints_json_error(self, dataset_dir, tmp_path, capsys):
        padded = tmp_path / "padded.mvrl"
        padded.write_bytes((dataset_dir / "task_s000.mvrl").read_bytes() + b"\x00")
        # a model file of the retired MVNN format: its magic and a version
        model = tmp_path / "model.mvnn"
        model.write_bytes(b"MVNN" + (2).to_bytes(4, "little"))
        for bad, expected in ((padded, "trailing"),
                              (model, "not an MVRL file (magic b'MVNN')")):
            assert main(["inspect", str(bad)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError" and expected in err["message"]

    def test_env_log_level(self, dataset_dir, monkeypatch, capsys):
        monkeypatch.setenv("MVTRACE_LOG", "debug")
        assert main(["inspect", str(dataset_dir / "task_s000.mvrl")]) == 0
