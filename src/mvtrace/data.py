"""Subject records and the on-disk dataset contract.

A dataset directory contains::

    mesh.off                 ASCII OFF triangulated mesh (m vertices)
    subjects.csv             header 'subject_id,score', one row per subject
    task_<id>.mvrl           per-subject task-view matrix, m x d_task
    rest_<id>.mvrl           per-subject rest-view matrix, m x d_rest
    ground_truth/            optional, written by the synthetic generator:
        beta_true.mvrl       planted coefficient matrix, m x k_true
        support.csv          header 'vertex,cluster', planted support rows
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .mesh import Mesh, load_mesh, save_mesh


@dataclass
class SubjectRecord:
    """One subject: two per-vertex feature views plus a scalar score."""

    subject_id: str
    x_task: np.ndarray
    x_rest: np.ndarray
    score: float

    def __post_init__(self):
        self.x_task = np.asarray(self.x_task, dtype=np.float64)
        self.x_rest = np.asarray(self.x_rest, dtype=np.float64)
        if self.x_task.ndim != 2 or self.x_rest.ndim != 2:
            raise ValueError("view matrices must be 2-D (vertices x features)")
        if self.x_task.shape[0] != self.x_rest.shape[0]:
            raise ValueError(
                f"vertex count mismatch between views: "
                f"{self.x_task.shape[0]} vs {self.x_rest.shape[0]}"
            )
        for view, values in (("task", self.x_task), ("rest", self.x_rest)):
            if values.shape[1] < 1:
                raise ValueError(f"subject {self.subject_id} has no {view} column")
        self.score = float(self.score)

    @property
    def vertex_count(self) -> int:
        return self.x_task.shape[0]


def save_dataset(
    directory,
    subjects: list[SubjectRecord],
    mesh: Mesh,
    *,
    beta_true: np.ndarray | None = None,
    support: np.ndarray | None = None,
    cluster_ids: np.ndarray | None = None,
) -> Path:
    """Write the dataset directory contract; returns the directory path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for s in subjects:
        _check_vertex_count(s, mesh)
    save_mesh(directory / "mesh.off", mesh)
    with open(directory / "subjects.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "score"])
        for s in subjects:
            writer.writerow([s.subject_id, f"{s.score:.17g}"])
    for s in subjects:
        io.write_matrix(directory / f"task_{s.subject_id}.mvrl", s.x_task)
        io.write_matrix(directory / f"rest_{s.subject_id}.mvrl", s.x_rest)
    if beta_true is not None:
        gt_dir = directory / "ground_truth"
        gt_dir.mkdir(exist_ok=True)
        io.write_matrix(gt_dir / "beta_true.mvrl", beta_true)
        if support is None:
            support = np.nonzero(np.linalg.norm(beta_true, axis=1) > 0)[0]
        with open(gt_dir / "support.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex", "cluster"])
            for k, v in enumerate(np.asarray(support).ravel()):
                cid = int(cluster_ids[k]) if cluster_ids is not None else 0
                writer.writerow([int(v), cid])
    return directory


def _check_vertex_count(subject: SubjectRecord, mesh: Mesh) -> None:
    if subject.vertex_count != mesh.vertex_count:
        raise ValueError(
            f"subject {subject.subject_id} has {subject.vertex_count} vertices, "
            f"mesh has {mesh.vertex_count}"
        )


def _check_loaded_subject(subject: SubjectRecord, mesh: Mesh, first: SubjectRecord) -> None:
    """Reject a subject that no fold could use: wrong vertex count, view
    widths unlike the first subject's, or a non-finite value or score."""
    _check_vertex_count(subject, mesh)
    widths = (subject.x_task.shape[1], subject.x_rest.shape[1])
    first_widths = (first.x_task.shape[1], first.x_rest.shape[1])
    if widths != first_widths:
        raise ValueError(
            f"subject {subject.subject_id} has {widths[0]} task and {widths[1]} rest "
            f"columns, subject {first.subject_id} has {first_widths[0]} and "
            f"{first_widths[1]}"
        )
    for view, values in (("task", subject.x_task), ("rest", subject.x_rest)):
        if not np.isfinite(values).all():
            raise ValueError(f"subject {subject.subject_id} has non-finite {view} values")
    if not np.isfinite(subject.score):
        raise ValueError(f"subject {subject.subject_id} has a non-finite score")


def load_dataset(directory):
    """Read a dataset directory.

    Returns (subjects, mesh, ground_truth) where ground_truth is None or a
    dict with keys ``beta_true`` (ndarray) and ``support`` (index array).
    Raises ValueError for a subject whose vertex count differs from the
    mesh's, whose view widths differ from the first subject's, or that holds
    a non-finite value or score.
    """
    directory = Path(directory)
    mesh = load_mesh(directory / "mesh.off")
    subjects_file = directory / "subjects.csv"
    if not subjects_file.exists():
        raise FileNotFoundError(f"{subjects_file} missing from dataset directory")
    subjects = []
    with open(subjects_file, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "subject_id" not in reader.fieldnames:
            raise ValueError(f"{subjects_file}: expected header 'subject_id,score'")
        for row in reader:
            sid = row["subject_id"]
            subject = SubjectRecord(
                subject_id=sid,
                x_task=io.read_matrix(directory / f"task_{sid}.mvrl"),
                x_rest=io.read_matrix(directory / f"rest_{sid}.mvrl"),
                score=float(row["score"]),
            )
            _check_loaded_subject(subject, mesh, subjects[0] if subjects else subject)
            subjects.append(subject)
    ground_truth = None
    gt_dir = directory / "ground_truth"
    if (gt_dir / "beta_true.mvrl").exists():
        beta_true = io.read_matrix(gt_dir / "beta_true.mvrl")
        support = []
        if (gt_dir / "support.csv").exists():
            with open(gt_dir / "support.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    support.append(int(row["vertex"]))
        ground_truth = {"beta_true": beta_true, "support": np.array(support, dtype=int)}
    return subjects, mesh, ground_truth


def scores_array(subjects: list[SubjectRecord]) -> np.ndarray:
    return np.array([s.score for s in subjects], dtype=np.float64)
