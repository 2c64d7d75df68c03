import os

import numpy as np
import pytest

from mvtrace import evaluation
from mvtrace.mesh import Mesh, build_laplacian
from mvtrace.trace_regression import FistaConfig, fit_mfista, objective


@pytest.fixture
def triangle_mesh():
    """Smallest valid mesh: one triangle (complete graph K3)."""
    return Mesh(np.eye(3), [(0, 1, 2)])


@pytest.fixture
def path_mesh():
    """Two triangles sharing edge (1,2): edges {01,02,12,13,23}."""
    positions = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    return Mesh(positions, [(0, 1, 2), (1, 3, 2)])


@pytest.fixture
def triangle_laplacian(triangle_mesh):
    return build_laplacian(triangle_mesh)


def random_views(n, d_task, d_rest, seed, latent_dim=None):
    """Two view matrices sharing a low-dimensional latent when requested."""
    rng = np.random.default_rng(seed)
    if latent_dim is None:
        return rng.standard_normal((n, d_task)), rng.standard_normal((n, d_rest))
    h = rng.standard_normal((n, latent_dim))
    a_t = rng.standard_normal((latent_dim, d_task))
    a_r = rng.standard_normal((latent_dim, d_rest))
    x_t = h @ a_t + 0.1 * rng.standard_normal((n, d_task))
    x_r = h @ a_r + 0.1 * rng.standard_normal((n, d_rest))
    return x_t, x_r


def recorded_solves(monkeypatch) -> list:
    """(dataset, reg, fista, init, fit) of every regression fit run_fold makes."""
    solves = []
    solve = evaluation.fit_mfista

    def recording(dataset, reg, fista, init=None):
        fit = solve(dataset, reg, fista, init=init)
        solves.append((dataset, reg, fista, init, fit))
        return fit

    monkeypatch.setattr(evaluation, "fit_mfista", recording)
    return solves


# A sweep point after the strongest alpha of its fold starts from the previous
# point's beta, so it stops on the plateau rule at other bits than a cold fit.
# Measured above a 1e-13-tolerance solve, relative: converged warm fits at most
# 1.1e-7 on test_evaluation's sweep, 3.3e-7 on test_cli's (cold fits there:
# 1.5e-6) and 7.0e-7 on the benchmark's raw cohort (cold: 8.5e-7).
PATH_OBJECTIVE_RTOL = 1e-6


def assert_near_tight_solve(dataset, reg, fista, beta):
    """``beta`` is within PATH_OBJECTIVE_RTOL of a tight cold solve, or no
    farther from it than a cold fit with ``fista`` (which holds a fit cut
    short by max_iters to its cold twin)."""
    tight = fit_mfista(dataset, reg, FistaConfig(max_iters=100_000, rel_tolerance=1e-13))
    best = objective(tight.beta, dataset, reg)
    cold = objective(fit_mfista(dataset, reg, fista).beta, dataset, reg) - best
    assert objective(beta, dataset, reg) - best <= max(cold, PATH_OBJECTIVE_RTOL * abs(best))


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so an mdae fit outside a fold worker runs its two
    blocks on two threads whatever machine the tests run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
