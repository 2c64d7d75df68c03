import numpy as np
import pytest

from mvtrace import io
from mvtrace.data import (
    SubjectRecord,
    load_dataset,
    save_dataset,
    scores_array,
)
from mvtrace.mesh import icosphere


def make_subjects(n, m, d_task, d_rest, seed=0):
    rng = np.random.default_rng(seed)
    return [
        SubjectRecord(
            f"s{i:03d}",
            rng.standard_normal((m, d_task)),
            rng.standard_normal((m, d_rest)),
            float(rng.standard_normal()),
        )
        for i in range(n)
    ]


def test_vertex_count_mismatch_rejected():
    with pytest.raises(ValueError, match="vertex count"):
        SubjectRecord("a", np.zeros((5, 3)), np.zeros((4, 2)), 0.0)


def test_view_without_columns_rejected():
    with pytest.raises(ValueError, match="no task column"):
        SubjectRecord("a", np.zeros((5, 0)), np.zeros((5, 2)), 0.0)
    with pytest.raises(ValueError, match="no rest column"):
        SubjectRecord("a", np.zeros((5, 3)), np.zeros((5, 0)), 0.0)


def test_dataset_roundtrip(tmp_path):
    mesh = icosphere(1)
    subjects = make_subjects(4, mesh.vertex_count, 3, 2, seed=5)
    beta = np.zeros((mesh.vertex_count, 2))
    beta[[5, 9]] = [[1.0, -0.5], [0.25, 2.0]]
    out = save_dataset(
        tmp_path / "ds", subjects, mesh,
        beta_true=beta, support=np.array([5, 9]), cluster_ids=np.array([0, 1]),
    )
    assert (out / "mesh.off").exists()
    assert (out / "subjects.csv").exists()
    loaded, loaded_mesh, gt = load_dataset(out)
    assert loaded_mesh.vertex_count == mesh.vertex_count
    assert [s.subject_id for s in loaded] == [s.subject_id for s in subjects]
    for a, b in zip(loaded, subjects):
        assert np.array_equal(a.x_task, b.x_task)
        assert np.array_equal(a.x_rest, b.x_rest)
        assert a.score == b.score
    assert np.array_equal(scores_array(loaded), [s.score for s in subjects])
    assert np.array_equal(gt["beta_true"], beta)
    assert gt["support"].tolist() == [5, 9]


def test_dataset_without_ground_truth(tmp_path):
    mesh = icosphere(0)
    subjects = make_subjects(2, mesh.vertex_count, 3, 2)
    save_dataset(tmp_path / "ds", subjects, mesh)
    _, _, gt = load_dataset(tmp_path / "ds")
    assert gt is None


def test_vertex_count_must_match_mesh(tmp_path):
    mesh = icosphere(0)
    subjects = make_subjects(1, 5, 3, 2)
    with pytest.raises(ValueError, match="vertices"):
        save_dataset(tmp_path / "ds", subjects, mesh)


def test_missing_subjects_csv(tmp_path):
    mesh = icosphere(0)
    save_dataset(tmp_path / "ds", make_subjects(1, 12, 2, 2), mesh)
    (tmp_path / "ds" / "subjects.csv").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "ds")


class TestLoadRejectsBadSubjects:
    """load_dataset names the subject a fold could not use."""

    @pytest.fixture
    def saved(self, tmp_path):
        mesh = icosphere(0)
        save_dataset(tmp_path / "ds", make_subjects(3, mesh.vertex_count, 3, 2), mesh)
        return tmp_path / "ds"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_view_value(self, saved, bad):
        values = io.read_matrix(saved / "rest_s001.mvrl")
        values[4, 1] = bad
        io.write_matrix(saved / "rest_s001.mvrl", values)
        with pytest.raises(ValueError, match="s001 has non-finite rest values"):
            load_dataset(saved)

    def test_non_finite_score(self, saved):
        text = (saved / "subjects.csv").read_text().splitlines()
        sid, _ = text[2].split(",")
        text[2] = f"{sid},nan"
        (saved / "subjects.csv").write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=f"{sid} has a non-finite score"):
            load_dataset(saved)

    def test_vertex_count_differs_from_mesh(self, saved):
        rng = np.random.default_rng(1)
        io.write_matrix(saved / "task_s002.mvrl", rng.standard_normal((11, 3)))
        io.write_matrix(saved / "rest_s002.mvrl", rng.standard_normal((11, 2)))
        with pytest.raises(ValueError, match="s002 has 11 vertices, mesh has 12"):
            load_dataset(saved)

    def test_view_width_differs_from_first_subject(self, saved):
        io.write_matrix(saved / "task_s001.mvrl", np.zeros((12, 4)))
        with pytest.raises(ValueError, match="s001 has 4 task and 2 rest columns, "
                                             "subject s000 has 3 and 2"):
            load_dataset(saved)
