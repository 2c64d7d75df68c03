import tracemalloc

import numpy as np
import pytest

from mvtrace import nn
from mvtrace.autoencoders import ArchitectureConfig, train_autoencoder

ACTIVATION_PAIRS = [
    ("linear", "linear"),
    ("linear", "sigmoid"),
    ("relu", "linear"),
    ("relu", "sigmoid"),
]


def finite_difference_grads(mlp, x, target, h=1e-5):
    """Central finite differences of mse_loss w.r.t. every parameter."""
    grads = []
    for p in mlp.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = nn.mse_loss(mlp.forward(x), target)
            p[idx] = orig - h
            down = nn.mse_loss(mlp.forward(x), target)
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def gradient_check_case(dims, hidden, output, seed, batch=7, kink_margin=1e-3):
    """Network + data with every relu pre-activation clear of the kink.

    Central differences are invalid within h of a relu kink, so draws whose
    pre-activations come that close are deterministically re-sampled.
    """
    rng = np.random.default_rng(seed)
    for _ in range(50):
        mlp = nn.MLP.from_dims(dims, hidden, output, rng)
        x = rng.standard_normal((batch, dims[0]))
        target = rng.standard_normal((batch, dims[-1]))
        if output == "sigmoid":
            target = 1.0 / (1.0 + np.exp(-target))
        cache = mlp.forward_cache(x, mlp.output_buffers(batch))  # inputs, then output
        clear = all(
            np.abs(a @ layer.weights + layer.bias).min() > kink_margin
            for layer, a in zip(mlp.layers, cache)
            if layer.activation == "relu"
        )
        if clear:
            return mlp, x, target
    raise AssertionError("could not find a kink-free gradient-check case")


class TestForward:
    def test_identity_linear_layer(self):
        mlp = nn.MLP([nn.DenseLayer(np.eye(3), np.zeros(3), "linear")])
        x = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(mlp.forward(x), x)

    def test_relu_definition(self):
        mlp = nn.MLP([nn.DenseLayer(np.eye(2), np.zeros(2), "relu")])
        assert mlp.forward(np.array([[-1.0, 2.0]])).tolist() == [[0.0, 2.0]]

    def test_sigmoid_at_zero(self):
        mlp = nn.MLP([nn.DenseLayer(np.eye(1), np.zeros(1), "sigmoid")])
        assert mlp.forward(np.array([[0.0]]))[0, 0] == 0.5

    def test_shape_mismatch(self):
        mlp = nn.MLP([nn.DenseLayer(np.eye(3), np.zeros(3), "linear")])
        with pytest.raises(ValueError):
            mlp.forward(np.zeros((4, 2)))

    def test_from_dims_layers(self):
        mlp = nn.MLP.from_dims([5, 4, 2], "relu", "sigmoid", np.random.default_rng(3))
        assert [l.activation for l in mlp.layers] == ["relu", "sigmoid"]
        assert [l.weights.shape for l in mlp.layers] == [(5, 4), (4, 2)]
        assert mlp.forward(np.zeros((6, 5))).shape == (6, 2)

    def test_chain_mismatch_rejected(self):
        a = nn.DenseLayer(np.zeros((3, 4)), np.zeros(4), "linear")
        b = nn.DenseLayer(np.zeros((5, 2)), np.zeros(2), "linear")
        with pytest.raises(ValueError, match="chain"):
            nn.MLP([a, b])


class TestMseLoss:
    def test_perfect_prediction(self):
        x = np.arange(6.0).reshape(2, 3)
        assert nn.mse_loss(x, x.copy()) == 0.0

    def test_constant_offset(self):
        x = np.arange(6.0).reshape(2, 3)
        assert nn.mse_loss(x + 1.0, x) == 1.0

    def test_hand_case(self):
        # (1 + 9) / 2
        assert nn.mse_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 3.0]])) == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestBackward:
    @pytest.mark.parametrize("hidden,output", ACTIVATION_PAIRS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, hidden, output, seed):
        mlp, x, target = gradient_check_case([6, 5, 4, 3], hidden, output, seed)
        analytic = [g for pair in nn.backward(mlp, x, target) for g in pair]
        numeric = finite_difference_grads(mlp, x, target)
        for a, b in zip(analytic, numeric):
            assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-8)) < 1e-5

    def test_zero_loss_gives_zero_gradients(self):
        mlp = nn.MLP([nn.DenseLayer(np.eye(3), np.zeros(3), "linear")])
        x = np.random.default_rng(0).standard_normal((5, 3))
        for gw, gb in nn.backward(mlp, x, x):
            assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_scalar_chain_rule_hand_case(self):
        # y = w x, one sample (x=2, t=0, w=1): d(wx-t)^2/dw = 2*(wx-t)*x = 8
        mlp = nn.MLP([nn.DenseLayer(np.array([[1.0]]), np.array([0.0]), "linear")])
        grads = nn.backward(mlp, np.array([[2.0]]), np.array([[0.0]]))
        assert grads[0][0][0, 0] == 8.0


    def test_relu_backward_allocates_no_iteration_buffer(self):
        # a bool operand of a float multiply makes numpy cast it through a new
        # np.getbufsize()-element buffer on every call (66 kB at this shape)
        rows, width = 500, 140
        rng = np.random.default_rng(0)
        a = np.maximum(rng.standard_normal((rows, width)), 0.0)
        grad = rng.standard_normal((rows, width))
        expected = (grad * (a > 0.0)).tobytes()
        scratch, mask = np.empty(rows * width), np.empty(rows * width, dtype=bool)
        nn.activation_backward("relu", grad.copy(), a, scratch, mask)
        tracemalloc.start()
        try:
            out = nn.activation_backward("relu", grad, a, scratch, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < np.getbufsize() * 8, peak
        assert out.tobytes() == expected  # the bits of the bool-mask product


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0, 3.0])
        state = nn.AdamState.for_parameters(params)
        nn.adam_step(state, params, np.zeros(3))
        assert params.tolist() == [1.0, -2.0, 3.0]
        assert state.timestep == 1

    @pytest.mark.parametrize("g", [3.7, -0.02, 1e4])
    def test_first_step_magnitude_is_learning_rate(self, g):
        # bias-corrected first step: |delta| = lr * |g| / (|g| + eps) ~ lr
        params = np.array([0.5])
        state = nn.AdamState.for_parameters(params, learning_rate=1e-3)
        nn.adam_step(state, params, np.array([g]))
        assert abs(abs(params[0] - 0.5) - 1e-3) < 1e-6

    def test_descends_quadratic(self):
        # f(w) = w^2 from w=1: |w| decreases monotonically for the first 50 steps
        params = np.array([1.0])
        state = nn.AdamState.for_parameters(params, learning_rate=1e-2)
        values = [1.0]
        for _ in range(50):
            nn.adam_step(state, params, 2.0 * params)
            values.append(abs(params[0]))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_flat_buffer_matches_separate_arrays(self):
        # Adam is elementwise, so one call on a flat buffer updates every
        # element with the same bits as one call on each separate array
        rng = np.random.default_rng(4)
        shapes = [(5, 3), (3,), (3, 2), (2,)]
        separate = [rng.standard_normal(shape) for shape in shapes]
        flat = np.concatenate([p.ravel() for p in separate])
        sep_states = [nn.AdamState.for_parameters(p, learning_rate=1e-2) for p in separate]
        flat_state = nn.AdamState.for_parameters(flat, learning_rate=1e-2)
        for _ in range(5):
            grads = [rng.standard_normal(shape) for shape in shapes]
            # adam_step overwrites the gradients: join them first
            flat_grads = np.concatenate([g.ravel() for g in grads])
            for state, p, g in zip(sep_states, separate, grads):
                nn.adam_step(state, p, g)
            nn.adam_step(flat_state, flat, flat_grads)
            assert np.array_equal(flat, np.concatenate([p.ravel() for p in separate]))
        for name in ("moment1", "moment2"):
            joined = np.concatenate([getattr(state, name).ravel() for state in sep_states])
            assert np.array_equal(getattr(flat_state, name), joined)

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = nn.AdamState.for_parameters(params)
        with pytest.raises(ValueError):
            nn.adam_step(state, params, np.zeros(4))


class TestSharedBuffers:
    def test_layers_become_views_with_values_kept(self):
        rng = np.random.default_rng(6)
        nets = [nn.MLP.from_dims([4, 3, 2], "relu", "linear", rng),
                nn.MLP.from_dims([2, 5], "linear", "sigmoid", rng)]
        before = [p.copy() for net in nets for p in net.parameters()]
        params, grads, views = nn.share_buffers(nets)
        after = [p for net in nets for p in net.parameters()]
        assert params.size == grads.size == sum(p.size for p in before)
        assert np.array_equal(params, np.concatenate([p.ravel() for p in before]))
        assert all(np.array_equal(a, b) and a.base is params for a, b in zip(after, before))
        # the gradient views sit where their parameters sit
        flat_views = [g for net_views in views for pair in net_views for g in pair]
        assert [g.shape for g in flat_views] == [p.shape for p in before]
        for g, p in zip(flat_views, after):
            g[...] = 7.0
            assert np.all(params[grads == 7.0] == p.ravel())
            g[...] = 0.0

    def test_backward_fills_given_gradients(self):
        mlp, x, target = gradient_check_case([6, 5, 4, 3], "relu", "sigmoid", 0)
        expected = nn.backward(mlp, x, target)
        _, grads, (views,) = nn.share_buffers([mlp])
        cache = mlp.forward_cache(x, mlp.output_buffers(len(x)))
        scratch = nn.backward_scratch([mlp], len(x))
        _, grad = nn.mse_loss_gradient(cache[-1], target, np.empty_like(target), scratch[0])
        assert mlp.backward_cache(cache, grad, views, scratch, input_grad=False) is None
        for (dw, db), (ew, eb) in zip(views, expected):
            assert np.array_equal(dw, ew) and np.array_equal(db, eb)


class TestTraining:
    """The one training loop, ``autoencoders.train_autoencoder``."""

    def test_deterministic_for_fixed_seed(self):
        def train_once():
            x = np.random.default_rng(1).standard_normal((64, 4))
            cfg = ArchitectureConfig(kind="concat-ae", enc=3, hidden_activation="relu")
            model = train_autoencoder((x[:, :2], x[:, 2:]), cfg, seed=7, epochs=25,
                                      batch_size=16, learning_rate=1e-3)
            return [p.copy() for net in model.encoders + model.decoders
                    for p in net.parameters()]

        first, second = train_once(), train_once()
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_linear_ae_nails_exact_subspace(self):
        # data in an exact 3-dim subspace, enc >= 3: near-zero reconstruction
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        data = rng.standard_normal((800, 3)) @ basis.T
        cfg = ArchitectureConfig(kind="concat-ae", enc=3)
        model = train_autoencoder((data[:, :5], data[:, 5:]), cfg, seed=0, epochs=800,
                                  batch_size=500, learning_rate=3e-3)
        # targets are standardized, so unit variance per feature
        assert model.reconstruction_mse(data[:, :5], data[:, 5:]) < 1e-3

    def test_loss_curve_length_and_decrease(self):
        x = np.random.default_rng(2).standard_normal((128, 6))
        cfg = ArchitectureConfig(kind="concat-ae", enc=4, hidden_activation="relu")
        model = train_autoencoder((x[:, :3], x[:, 3:]), cfg, seed=3, epochs=30,
                                  batch_size=32, learning_rate=1e-3)
        assert len(model.epoch_losses) == 30
        assert model.epoch_losses[-1][0] < model.epoch_losses[0][0]

    def test_empty_data_rejected(self):
        cfg = ArchitectureConfig(kind="concat-ae", enc=3)
        with pytest.raises(ValueError):
            train_autoencoder((np.zeros((0, 3)), np.zeros((0, 3))), cfg, seed=0,
                              epochs=1, batch_size=4, learning_rate=1e-3)

