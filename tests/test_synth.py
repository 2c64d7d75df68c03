import numpy as np
import pytest
from scipy import sparse

from mvtrace import synth
from mvtrace.data import scores_array
from mvtrace.mesh import GraphLaplacian, build_laplacian, quadratic_form


class TestMeshSpec:
    def test_icosphere_spec(self):
        assert synth.make_mesh("icosphere-1").vertex_count == 42

    def test_grid_spec(self):
        assert synth.make_mesh("grid-4x5").vertex_count == 20

    @pytest.mark.parametrize("spec", ["icosphere-x", "grid-4", "grid-ax5", "torus-3"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError, match="mesh spec"):
            synth.make_mesh(spec)


class TestConfigValidation:
    def test_latent_dim_bounded_by_views(self):
        with pytest.raises(ValueError, match="latent_dim_true"):
            synth.GeneratorConfig(d_task=3, d_rest=8, latent_dim_true=4)

    def test_clusters_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            synth.generate(synth.GeneratorConfig(mesh="icosphere-0", n_clusters=5, cluster_size=4))

    def test_coherence_range(self):
        with pytest.raises(ValueError, match="cluster_coherence"):
            synth.GeneratorConfig(cluster_coherence=1.0)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing must be >= 0, got -1"):
            synth.GeneratorConfig(smoothing=-1)
        assert synth.GeneratorConfig(smoothing=0.0).smoothing == 0.0

    def test_scalar_view_noise_broadcast(self):
        cfg = synth.GeneratorConfig(view_noise_sigma=0.7)
        assert cfg.view_noise_sigma == (0.7, 0.7)


class TestBlockSmoothing:
    """The block solve against scipy's per-column cg, the reference it replaces."""

    @pytest.mark.parametrize("spec,lam", [("icosphere-1", 1.0), ("grid-9x11", 4.0)])
    def test_matches_per_column_cg_bit_for_bit(self, spec, lam):
        from scipy.sparse.linalg import cg

        laplacian = build_laplacian(synth.make_mesh(spec))
        m = laplacian.dimension
        rng = np.random.default_rng(5)
        white = rng.standard_normal((m, 6)) * np.array([1e-150, 1e-6, 1.0, 1.0, 1e8, 1e150])
        # cg needs about one iteration per distinct Laplacian eigenvalue in b
        eigenvalues, modes = np.linalg.eigh(laplacian.matrix.toarray())
        distinct = modes[:, np.unique(eigenvalues.round(8), return_index=True)[1]]
        # a zero column, a constant one (the 0-eigenvector), mixes of 2 and 3
        # modes, and white ones over 300 decades of scale
        columns = np.column_stack([np.zeros(m), np.full(m, -2.5), distinct[:, 1:3].sum(1),
                                   1e3 * distinct[:, 2:5].sum(1), white])
        operator = sparse.identity(m, format="csr") + lam * laplacian.matrix

        block = synth._smooth_columns(laplacian, columns, lam)

        iterations = []
        for j in range(columns.shape[1]):
            count = []
            reference, info = cg(operator, columns[:, j], rtol=1e-8, atol=0.0,
                                 callback=count.append)
            assert info == 0
            assert block[:, j].tobytes() == reference.tobytes(), j
            iterations.append(len(count))
        # columns leave the block at several different iterations
        assert iterations[0] == 0 and len(set(iterations)) >= 4, iterations
        assert block.flags.c_contiguous and block.shape == columns.shape

    def test_unconverged_column_raises(self):
        # I - diag(0, 0, 1) is singular: a right-hand side with a third
        # entry has no solution, and cg stops at 10*m iterations
        laplacian = GraphLaplacian(sparse.csr_matrix(np.diag([0.0, 0.0, 1.0])),
                                   np.empty((0, 2)), np.zeros(3))
        columns = np.array([[2.0, 1.0], [-1.0, 1.0], [0.0, 1.0]])
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(RuntimeError, match="1 of 2 columns after 30 iterations"):
            synth._smooth_columns(laplacian, columns, -1.0)


@pytest.fixture(scope="module")
def default_run():
    return synth.generate(synth.GeneratorConfig(seed=0))


class TestGenerate:
    def test_default_desk_dimensions(self, default_run):
        subjects, mesh, gt = default_run
        assert len(subjects) == 40
        assert mesh.vertex_count == 162
        assert subjects[0].x_task.shape == (162, 24)
        assert subjects[0].x_rest.shape == (162, 30)
        assert [len(c) for c in gt.clusters] == [8, 8, 8]
        assert len(gt.support) == 24

    def test_deterministic(self):
        a, _, gta = synth.generate(synth.GeneratorConfig(seed=3))
        b, _, gtb = synth.generate(synth.GeneratorConfig(seed=3))
        assert all(
            np.array_equal(x.x_task, y.x_task)
            and np.array_equal(x.x_rest, y.x_rest)
            and x.score == y.score
            for x, y in zip(a, b)
        )
        assert np.array_equal(gta.beta_true, gtb.beta_true)

    def test_scores_standardized(self, default_run):
        subjects, _, _ = default_run
        y = scores_array(subjects)
        assert abs(y.mean()) < 1e-12
        assert abs(y.std() - 1.0) < 1e-12

    def test_beta_support_structure(self, default_run):
        _, _, gt = default_run
        norms = np.linalg.norm(gt.beta_true, axis=1)
        assert np.all(norms[gt.support] > 0)
        off = np.setdiff1d(np.arange(162), gt.support)
        assert np.all(norms[off] == 0.0)

    def test_clusters_are_contiguous(self, default_run):
        _, mesh, gt = default_run
        lap = build_laplacian(mesh)
        neighbors = {}
        for i, j in lap.edges:
            neighbors.setdefault(int(i), set()).add(int(j))
            neighbors.setdefault(int(j), set()).add(int(i))
        for cluster in gt.clusters:
            members = set(cluster.tolist())
            frontier = {cluster[0]}
            seen = set(frontier)
            while frontier:
                frontier = {
                    u for v in frontier for u in neighbors[v] if u in members
                } - seen
                seen |= frontier
            assert seen == members

    def test_score_reproducible_from_ground_truth(self, default_run):
        subjects, _, gt = default_run
        raw = np.array([np.sum(gt.beta_true * gt.latents[s.subject_id]) for s in subjects])
        # score noise was drawn per subject; z-scored scores match to noise level
        standardized = (raw - gt.score_mean) / gt.score_std
        y = scores_array(subjects)
        assert np.corrcoef(standardized, y)[0, 1] > 0.99

    def test_score_variance_decomposition(self):
        # raw score variance = unit signal variance + noise_sigma^2
        cfg = synth.GeneratorConfig(
            n_subjects=10_000, mesh="icosphere-1", noise_sigma=0.4,
            cluster_size=4, standardize_scores=False, seed=7,
        )
        subjects, _, _ = synth.generate(cfg)
        var = scores_array(subjects).var()
        assert abs(var - (1.0 + 0.16)) < 0.05 * (1.0 + 0.16)

    def test_latent_spatial_smoothness(self, default_run):
        subjects, mesh, gt = default_run
        lap = build_laplacian(mesh)
        rng = np.random.default_rng(0)
        for sid in list(gt.latents)[:5]:
            h = gt.latents[sid]
            white = rng.standard_normal(h.shape) * h.std()
            assert quadratic_form(lap, h) < quadratic_form(lap, white)

    def test_rest_nuisance_inflates_rest_view_only(self):
        base = synth.GeneratorConfig(seed=1)
        loud = synth.GeneratorConfig(seed=1, rest_nuisance_dim=3, rest_nuisance_scale=3.0)
        a, _, _ = synth.generate(base)
        b, _, _ = synth.generate(loud)
        assert np.var([s.x_rest for s in b]) > 2.0 * np.var([s.x_rest for s in a])


def test_write_dataset_contract(tmp_path):
    cfg = synth.GeneratorConfig(seed=2, n_subjects=3, mesh="icosphere-0", cluster_size=2)
    subjects, mesh, gt = synth.generate(cfg)
    out = synth.write_dataset(tmp_path / "ds", subjects, mesh, gt)
    names = {p.name for p in out.iterdir()}
    assert {"mesh.off", "subjects.csv", "task_s000.mvrl", "rest_s002.mvrl",
            "ground_truth"} <= names
    support_csv = (out / "ground_truth" / "support.csv").read_text().splitlines()
    assert support_csv[0] == "vertex,cluster"
    assert len(support_csv) == 1 + len(gt.support)
