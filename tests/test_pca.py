import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fit_autoencoder
from mvtrace import pca
from mvtrace.autoencoders import ArchitectureConfig
from mvtrace.pca import fit_pca, pca_decode, pca_encode, reconstruction_mse


class TestFit:
    def test_line_in_2d(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(500)
        direction = np.array([3.0, 4.0]) / 5.0
        data = np.outer(t, direction)
        with pytest.warns(UserWarning, match="rank-deficient"):
            model = fit_pca(data, 2)
        # first component parallel to the line, second variance ~ 0
        assert abs(abs(model.components[0] @ direction) - 1.0) < 1e-10
        assert model.explained_variance[1] < 1e-20

    def test_isotropic_gaussian_equal_variances(self):
        data = np.random.default_rng(1).standard_normal((10_000, 6))
        model = fit_pca(data, 6)
        ev = model.explained_variance
        assert (ev.max() - ev.min()) / ev.mean() < 0.10  # 5% per-side sampling slack
        assert np.all(np.diff(ev) <= 1e-12)

    def test_reconstruction_error_equals_discarded_eigenvalues(self):
        # eigendecomposition oracle on 50x10 data
        rng = np.random.default_rng(2)
        data = rng.standard_normal((50, 10)) @ rng.standard_normal((10, 10))
        enc = 4
        model = fit_pca(data, enc)
        centered = data - data.mean(axis=0)
        eigenvalues = np.sort(np.linalg.eigvalsh(centered.T @ centered / (50 - 1)))[::-1]
        discarded = eigenvalues[enc:].sum() * (50 - 1)
        recon = pca_decode(model, pca_encode(model, data))
        assert abs(np.sum((data - recon) ** 2) - discarded) < 1e-8 * discarded

    def test_orthonormal_components(self):
        data = np.random.default_rng(3).standard_normal((200, 8))
        model = fit_pca(data, 5)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_sign_convention(self):
        data = np.random.default_rng(4).standard_normal((100, 6))
        model = fit_pca(data, 4)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_enc_too_large(self):
        with pytest.raises(ValueError, match="enc"):
            fit_pca(np.zeros((5, 3)), 4)

    def test_rank_deficiency_warns(self):
        data = np.zeros((20, 4))
        data[:, 0] = np.arange(20.0)
        with pytest.warns(UserWarning, match="rank-deficient"):
            fit_pca(data, 3)

    def test_subsample_cap_deterministic(self, monkeypatch):
        data = np.random.default_rng(5).standard_normal((2000, 4))
        uncapped = fit_pca(data, 2, seed=11)
        monkeypatch.setattr(pca, "MAX_ROWS", 500)
        a = fit_pca(data, 2, seed=11)
        b = fit_pca(data, 2, seed=11)
        assert np.array_equal(a.components, b.components)
        assert not np.array_equal(a.components, uncapped.components)  # the cap took effect


class TestEncodeDecode:
    @pytest.fixture
    def model(self):
        data = np.random.default_rng(6).standard_normal((300, 7))
        return fit_pca(data, 3)

    def test_mean_maps_to_zero(self, model):
        assert np.abs(pca_encode(model, model.mean[None, :])).max() < 1e-12

    def test_component_direction_maps_to_unit_axis(self, model):
        z = pca_encode(model, model.mean + model.components[:1])
        assert np.abs(z - np.array([[1.0, 0.0, 0.0]])).max() < 1e-10

    def test_in_subspace_roundtrip_lossless(self, model):
        rng = np.random.default_rng(7)
        x = model.mean + rng.standard_normal((1, 3)) @ model.components
        recon = pca_decode(model, pca_encode(model, x))
        assert np.abs(recon - x).max() < 1e-10

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            pca_encode(model, np.zeros((1, 5)))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_encode_is_affine(self, a):
        data = np.random.default_rng(8).standard_normal((100, 5))
        model = fit_pca(data, 2)
        x, y = data[:1], data[1:2]
        lhs = pca_encode(model, a * x + (1 - a) * y)
        rhs = a * pca_encode(model, x) + (1 - a) * pca_encode(model, y)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_pca_lower_bounds_linear_autoencoder():
    # PCA-k is the optimal linear width-k reconstruction
    rng = np.random.default_rng(9)
    data = rng.standard_normal((600, 8)) @ rng.standard_normal((8, 8))
    k = 3
    cfg = ArchitectureConfig(kind="concat-ae", enc=k)
    model = fit_autoencoder(data[:, :4], data[:, 4:], cfg, seed=1, epochs=600,
                            batch_size=500, learning_rate=3e-3)
    # both in the autoencoder's standardized target space
    standardized = model.scalers[0].transform(data)  # one block over both views
    pca_mse = reconstruction_mse(fit_pca(standardized, k), standardized)
    ae_mse = model.reconstruction_mse(data[:, :4], data[:, 4:])
    assert ae_mse >= pca_mse - 1e-9
