"""Minimal dense feed-forward network engine.

Double-precision numpy throughout: dense layers with linear/relu/sigmoid
activations, mean-squared-error loss, exact backpropagation, and Adam.
Deliberately small — just enough to train the autoencoder stacks used by
this package, deterministically for a fixed seed.

A training step does little work beyond its GEMMs:

* a layer adds its bias and applies its activation in place on the GEMM
  output, so a pass keeps each layer's input and output, not its
  pre-activation;
* backpropagation skips the derivative product of linear layers, masks relu
  gradients by ``output > 0``, and can skip the input-gradient GEMM of the
  first layer (``input_grad=False``) when nobody reads it;
* ``mse_loss_gradient`` forms the loss and its gradient from one difference;
* ``share_buffers`` seats a set of networks' weights and biases in one flat
  parameter array with a matching flat gradient array, which the backward
  passes fill in place, so Adam updates every parameter in one call on one
  array (``AdamState`` holds its two moment arrays).

Each of these keeps every element's arithmetic as the plain formula has it,
so a fixed seed and BLAS thread count give the same bits.  ``scipy.special``
is imported only when a sigmoid layer runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("linear", "relu", "sigmoid")


def apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of ``z``, computed in place: ``z`` is overwritten and
    returned."""
    if name == "linear":
        return z
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        from scipy.special import expit  # only sigmoid models load scipy.special

        return expit(z, out=z)
    raise ValueError(f"unknown activation {name!r}")


def activation_backward(name: str, grad: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The gradient w.r.t. the pre-activation, from the gradient ``grad``
    w.r.t. the output ``a``; ``grad`` is overwritten and returned."""
    if name == "linear":
        return grad
    if name == "relu":
        return np.multiply(grad, a > 0.0, out=grad)
    if name == "sigmoid":
        slope = 1.0 - a
        slope *= a
        return np.multiply(grad, slope, out=grad)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    """Affine map plus pointwise activation: x -> act(x @ weights + bias)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D (fan_in, fan_out)")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError(
                f"bias shape {self.bias.shape} incompatible with weights "
                f"{self.weights.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


def glorot_layer(fan_in: int, fan_out: int, activation: str, rng: np.random.Generator) -> DenseLayer:
    """Glorot-uniform initialized layer with zero bias."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return DenseLayer(weights=weights, bias=np.zeros(fan_out), activation=activation)


class MLP:
    """Ordered stack of dense layers with chained shape consistency."""

    def __init__(self, layers: list[DenseLayer]):
        if not layers:
            raise ValueError("MLP needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ValueError(
                    f"layer chain mismatch: fan_out {prev.fan_out} -> fan_in {nxt.fan_in}"
                )
        self.layers = list(layers)

    @classmethod
    def from_dims(
        cls,
        dims: list[int],
        hidden_activation: str,
        output_activation: str,
        rng: np.random.Generator,
    ) -> "MLP":
        """Build a stack from a dimension list ``[in, h1, ..., out]``.

        All layers use ``hidden_activation`` except the last, which uses
        ``output_activation``.
        """
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        layers = []
        for k in range(len(dims) - 1):
            act = output_activation if k == len(dims) - 2 else hidden_activation
            layers.append(glorot_layer(dims[k], dims[k + 1], act, rng))
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...] (live arrays)."""
        params = []
        for layer in self.layers:
            params.append(layer.weights)
            params.append(layer.bias)
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_batch(x, self.input_dim)
        for layer in self.layers:
            x = _layer_forward(layer, x)
        return x

    def forward_cache(self, x: np.ndarray):
        """Forward pass keeping every layer's input, then the output."""
        a = _as_batch(x, self.input_dim)
        cache = [a]
        for layer in self.layers:
            a = _layer_forward(layer, a)
            cache.append(a)
        return a, cache

    def backward_cache(self, cache, grad_output: np.ndarray, grads=None, *,
                       input_grad: bool = True):
        """Backpropagate an output-side gradient through the cached pass.

        Returns (per-layer [(dW, db), ...], gradient w.r.t. the input batch).
        The gradients are written into ``grads`` when given (pairs of arrays
        shaped like each layer's weights and bias).  With ``input_grad=False``
        the first layer's input-gradient GEMM is skipped and None returned in
        its place.  ``grad_output`` is overwritten.
        """
        if grads is None:
            grads = [(np.empty_like(layer.weights), np.empty_like(layer.bias))
                     for layer in self.layers]
        g = grad_output
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            delta = activation_backward(layer.activation, g, cache[k + 1])
            dw, db = grads[k]
            np.matmul(cache[k].T, delta, out=dw)
            np.sum(delta, axis=0, out=db)
            g = delta @ layer.weights.T if k or input_grad else None
        return grads, g


def _layer_forward(layer: DenseLayer, a: np.ndarray) -> np.ndarray:
    z = a @ layer.weights
    z += layer.bias
    return apply_activation(layer.activation, z)


def _as_batch(x: np.ndarray, expected_dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != expected_dim:
        raise ValueError(f"input shape {x.shape} incompatible with fan_in {expected_dim}")
    return x


def mse_loss(prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean over all batch x k entries of the squared difference."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch {prediction.shape} vs {target.shape}")
    diff = prediction - target
    return float(np.mean(diff * diff))


def mse_loss_gradient(prediction: np.ndarray, target: np.ndarray):
    """(mse_loss, its gradient w.r.t. the prediction), both from one
    difference array."""
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch {prediction.shape} vs {target.shape}")
    diff = prediction - target
    loss = float(np.mean(diff * diff))
    diff *= 2.0
    diff /= diff.size
    return loss, diff


def backward(mlp: MLP, x: np.ndarray, target: np.ndarray):
    """Exact gradient of ``mse_loss(mlp.forward(x), target)`` for every layer.

    Returns a list of (dW, db) pairs aligned with ``mlp.layers``.
    """
    out, cache = mlp.forward_cache(x)
    target = _as_batch(target, mlp.output_dim)
    grads, _ = mlp.backward_cache(cache, mse_loss_gradient(out, target)[1])
    return grads


def share_buffers(nets: list[MLP]):
    """Seat the weights and biases of ``nets`` in one flat parameter array.

    Every layer's ``weights`` and ``bias`` become views into the array, with
    their values unchanged, in the order of ``nets`` and their layers.
    Returns (parameters, gradients, per net its [(dW, db), ...] views into
    the gradient array, laid out like the parameters).
    """
    layers = [layer for net in nets for layer in net.layers]
    size = sum(layer.weights.size + layer.bias.size for layer in layers)
    params, grads = np.empty(size), np.empty(size)
    offset = 0

    def seat(value):
        nonlocal offset
        end = offset + value.size
        view = params[offset:end].reshape(value.shape)
        view[...] = value
        grad = grads[offset:end].reshape(value.shape)
        offset = end
        return view, grad

    views = []
    for net in nets:
        pairs = []
        for layer in net.layers:
            layer.weights, dw = seat(layer.weights)
            layer.bias, db = seat(layer.bias)
            pairs.append((dw, db))
        views.append(pairs)
    return params, grads, views


@dataclass
class AdamState:
    """Adam accumulator state of one parameter array (a flat buffer from
    ``share_buffers`` holds every parameter of a model): the first and
    second moment arrays, shaped like the parameters."""

    moment1: np.ndarray
    moment2: np.ndarray
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    timestep: int = 0

    @classmethod
    def for_parameters(cls, params: np.ndarray, learning_rate: float = 1e-3) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params), learning_rate)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update, applied to ``params`` in place."""
    if params.shape != grads.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    state.timestep += 1
    t = state.timestep
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m, v = state.moment1, state.moment2
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g², and
    # p -= lr*(m/c1) / (sqrt(v/c2) + eps), through two scratch arrays
    scratch = np.multiply(grads, 1.0 - b1)
    m *= b1
    m += scratch
    np.multiply(grads, grads, out=scratch)
    scratch *= 1.0 - b2
    v *= b2
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.epsilon
    update = m / c1
    update *= state.learning_rate
    update /= scratch
    params -= update
    return params
