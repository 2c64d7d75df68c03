"""Minimal dense feed-forward network engine.

Double-precision numpy throughout: dense layers with linear/relu/sigmoid
activations, mean-squared-error loss, exact backpropagation, and Adam.
Deliberately small — just enough to train the autoencoder stacks used by
this package, deterministically for a fixed seed.

A training step allocates no batch-sized array and does little work beyond
its GEMMs:

* ``forward_cache`` writes each layer's GEMM into a caller's output buffer
  (``MLP.output_buffers``) with ``out=``, then adds the bias and applies the
  activation in place, so a pass keeps each layer's input and output, not
  its pre-activation;
* ``backward_cache`` writes the weight and bias gradients into the caller's
  arrays and the input gradients into two buffers that it alternates
  between (``backward_scratch``); it skips the derivative product of linear
  layers, masks relu gradients by ``output > 0`` through a bool buffer
  copied to 0.0/1.0 factors, and can skip the input-gradient GEMM of the
  first layer (``input_grad=False``) when nobody reads it;
* ``mse_loss_gradient`` forms the loss and its gradient from one difference,
  in a caller's buffer;
* ``share_buffers`` seats a set of networks' weights and biases in one flat
  parameter array with a matching flat gradient array, which the backward
  passes fill in place, so Adam updates every parameter in one call on one
  array; ``AdamState`` holds its two moment arrays and one scratch array,
  and ``adam_step`` uses the gradient array as its second scratch.

Each of these keeps every element's arithmetic as the plain formula has it,
so a fixed seed and BLAS thread count give the same bits.  ``scipy.special``
is imported only when a sigmoid layer runs.
"""

from __future__ import annotations

import math
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


def activation_backward(name: str, grad: np.ndarray, a: np.ndarray,
                        scratch: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The gradient w.r.t. the pre-activation, from the gradient ``grad``
    w.r.t. the output ``a``; ``grad`` is overwritten and returned.  A
    sigmoid's slope is formed in the flat float array ``scratch``; a relu's
    mask is formed in the flat bool array ``mask`` and copied to ``scratch``
    as 0.0/1.0 factors.  Each holds at least ``a.size`` elements."""
    if name == "linear":
        return grad
    if name == "relu":
        # the mask as 0.0/1.0 in ``scratch``: a bool operand would make numpy
        # cast it through a fresh np.getbufsize()-element buffer on every call
        factor = _view(scratch, a.shape)
        np.copyto(factor, np.greater(a, 0.0, out=_view(mask, a.shape)))
        return np.multiply(grad, factor, out=grad)
    if name == "sigmoid":
        slope = np.subtract(1.0, a, out=_view(scratch, a.shape))
        slope *= a
        return np.multiply(grad, slope, out=grad)
    raise ValueError(f"unknown activation {name!r}")


def _view(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of the flat array ``flat`` as a C-contiguous
    array of ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


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

    def output_buffers(self, rows: int) -> list[np.ndarray]:
        """One (rows, fan_out) array per layer, for ``forward_cache``; a
        batch of fewer rows uses their leading rows."""
        return [np.empty((rows, layer.fan_out)) for layer in self.layers]

    def forward_cache(self, x: np.ndarray, outputs: list[np.ndarray]) -> list[np.ndarray]:
        """Forward pass of the 2-D batch ``x`` that writes each layer's output
        into ``outputs`` (C-contiguous, one (rows, fan_out) array per layer).
        Returns the cache ``[x, *outputs]``: every layer's input, then the
        network's output."""
        cache = [x]
        for layer, out in zip(self.layers, outputs):
            _layer_forward(layer, cache[-1], out)
            cache.append(out)
        return cache

    def backward_cache(self, cache, grad_output: np.ndarray, grads, scratch, *,
                       input_grad: bool = True):
        """Backpropagate an output-side gradient through the cached pass.

        Writes each layer's gradients into ``grads`` (pairs of arrays shaped
        like its weights and bias) and returns the gradient w.r.t. the input
        batch, a view into ``scratch`` (see ``backward_scratch``) that the
        next pass over the same scratch overwrites.  With
        ``input_grad=False`` the first layer's input-gradient GEMM is skipped
        and None returned.  ``grad_output`` is overwritten and must not lie
        in ``scratch``.
        """
        buffers, mask = scratch[:2], scratch[2]
        g = grad_output
        last = len(self.layers) - 1
        for k in range(last, -1, -1):
            layer = self.layers[k]
            # g lies in the other buffer (or outside the scratch at k == last)
            free = buffers[(last - k) % 2]
            delta = activation_backward(layer.activation, g, cache[k + 1], free, mask)
            dw, db = grads[k]
            np.matmul(cache[k].T, delta, out=dw)
            np.sum(delta, axis=0, out=db)
            if not (k or input_grad):
                return None
            g = np.matmul(delta, layer.weights.T, out=_view(free, (len(delta), layer.fan_in)))
        return g


def backward_scratch(nets: list[MLP], rows: int):
    """The scratch of ``backward_cache`` passes through any of ``nets`` over
    batches of up to ``rows`` rows: two flat float arrays that the input
    gradients alternate between, and one flat bool array for relu masks,
    each with room for ``rows`` rows of the widest layer side."""
    size = rows * max(max(layer.fan_in, layer.fan_out) for net in nets for layer in net.layers)
    return np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _layer_forward(layer: DenseLayer, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    z = np.matmul(a, layer.weights, out=out)
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


def mse_loss_gradient(prediction: np.ndarray, target: np.ndarray, diff: np.ndarray,
                      scratch: np.ndarray):
    """(mse_loss, its gradient w.r.t. the prediction), both from one
    difference, formed in ``diff`` (shaped like the prediction); the squares
    are formed in the flat array ``scratch``."""
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch {prediction.shape} vs {target.shape}")
    np.subtract(prediction, target, out=diff)
    loss = float(np.mean(np.multiply(diff, diff, out=_view(scratch, diff.shape))))
    diff *= 2.0
    diff /= diff.size
    return loss, diff


def backward(mlp: MLP, x: np.ndarray, target: np.ndarray):
    """Exact gradient of ``mse_loss(mlp.forward(x), target)`` for every layer.

    Returns a list of (dW, db) pairs aligned with ``mlp.layers``.
    """
    x = _as_batch(x, mlp.input_dim)
    target = _as_batch(target, mlp.output_dim)
    cache = mlp.forward_cache(x, mlp.output_buffers(len(x)))
    scratch = backward_scratch([mlp], len(x))
    _, grad = mse_loss_gradient(cache[-1], target, np.empty_like(target), scratch[0])
    grads = [(np.empty_like(layer.weights), np.empty_like(layer.bias))
             for layer in mlp.layers]
    mlp.backward_cache(cache, grad, grads, scratch)
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
    second moment arrays, and a scratch array for ``adam_step``, each shaped
    like the parameters."""

    moment1: np.ndarray
    moment2: np.ndarray
    scratch: np.ndarray
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    timestep: int = 0

    @classmethod
    def for_parameters(cls, params: np.ndarray, learning_rate: float = 1e-3) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params), np.empty_like(params),
                   learning_rate)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update, applied to ``params`` in place.

    ``grads`` serves as scratch and is overwritten; a training loop forms
    every gradient anew before the next step."""
    if params.shape != grads.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    state.timestep += 1
    t = state.timestep
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m, v, scratch = state.moment1, state.moment2, state.scratch
    # v = b2*v + (1-b2)*g² while g is intact, then m = b1*m + (1-b1)*g and
    # p -= lr*(m/c1) / (sqrt(v/c2) + eps), with g's array as the second scratch
    np.multiply(grads, grads, out=scratch)
    scratch *= 1.0 - b2
    v *= b2
    v += scratch
    update = np.multiply(grads, 1.0 - b1, out=grads)
    m *= b1
    m += update
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.epsilon
    np.divide(m, c1, out=update)
    update *= state.learning_rate
    update /= scratch
    params -= update
    return params
