"""Multi-view representation models and their training loop.

Every autoencoder kind is one graph over the per-vertex feature pair
``(x_task, x_rest)``, read as the columns ``[task | rest]``:

* one encoder per column block, each ending in its share of the bottleneck;
* one latent code: the blocks' codes concatenated in block order;
* one decoder per block that reads the whole code and reconstructs that
  block's columns;
* a loss that is the unweighted sum of the per-decoder MSEs.

``monomodal-task`` and ``monomodal-rest`` have one block over one view,
``concat-ae`` one block over both views, and the dual-encoder multi-view
autoencoder ``mdae`` a task block and a rest block that split the code by
``enc_split``.

A PCA wrapper, a raw passthrough and a fixed-latent oracle expose the same
subject-encoding interface so the evaluation harness can swap them freely.
Inputs are standardized per feature on the training data; sigmoid-output
variants additionally min-max map the reconstruction targets to [0, 1].

``train_autoencoder`` keeps a step down to its GEMMs, with the bits of the
plain loop: every parameter lives in one flat buffer (``nn.share_buffers``)
that a single Adam call updates; each epoch gathers its shuffled rows once
into buffers allocated per fit, and a batch is a row slice of them; without
a min-max map the targets are the inputs, gathered once; and the gradient
w.r.t. the model's inputs is never formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import nn
from .data import SubjectRecord, stack_views
from .pca import PcaModel, fit_pca, pca_encode

KINDS = ("monomodal-task", "monomodal-rest", "concat-ae", "mdae")
HIDDEN_ACTIVATIONS = ("linear", "relu")
OUTPUT_ACTIVATIONS = ("linear", "sigmoid")

ENC_MIN, ENC_MAX = 2, 100

# Default hidden stacks (per side, encoder order); the three-layer variants
# performed best in the architecture sweep.
DEFAULT_HIDDEN = {
    "monomodal-task": (140, 120),
    "monomodal-rest": (140, 120),
    "concat-ae": (200, 130),
    "mdae": (140, 120),
}


@dataclass(frozen=True)
class ViewSpec:
    """Feature counts of the two views."""

    d_task: int
    d_rest: int

    def __post_init__(self):
        if self.d_task < 1 or self.d_rest < 1:
            raise ValueError("view dimensions must be >= 1")

    @property
    def d_concat(self) -> int:
        return self.d_task + self.d_rest


@dataclass
class ArchitectureConfig:
    """One autoencoder architecture.

    ``hidden_dims`` lists the encoder-side hidden widths before the
    bottleneck; the decoder mirrors them.  For ``mdae`` the widths apply to
    each per-view stack and ``enc_split = (enc_t, enc_r)`` divides the
    bottleneck between the task and rest encoders (balanced by default).
    """

    kind: str
    enc: int
    hidden_dims: tuple[int, ...] = ()
    enc_split: tuple[int, int] | None = None
    hidden_activation: str = "linear"
    output_activation: str = "linear"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (ENC_MIN <= self.enc <= ENC_MAX):
            raise ValueError(f"enc must be in [{ENC_MIN}, {ENC_MAX}], got {self.enc}")
        self.hidden_dims = tuple(self.hidden_dims)
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden_activation must be in {HIDDEN_ACTIVATIONS}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"output_activation must be in {OUTPUT_ACTIVATIONS}")
        if self.kind == "mdae":
            if self.enc_split is None:
                self.enc_split = (self.enc - self.enc // 2, self.enc // 2)
            enc_t, enc_r = self.enc_split
            if enc_t < 1 or enc_r < 1 or enc_t + enc_r != self.enc:
                raise ValueError(
                    f"enc_split {self.enc_split} must be two positive ints summing "
                    f"to enc={self.enc}"
                )
            self.enc_split = (enc_t, enc_r)
        elif self.enc_split is not None:
            raise ValueError("enc_split only applies to kind='mdae'")

    def blocks(self, view: ViewSpec) -> list[tuple[slice, int]]:
        """(columns of ``[task | rest]``, code width) of each encoder, in code
        order."""
        task, rest = slice(0, view.d_task), slice(view.d_task, view.d_concat)
        if self.kind == "mdae":
            return [(task, self.enc_split[0]), (rest, self.enc_split[1])]
        both = slice(0, view.d_concat)
        columns = {"monomodal-task": task, "monomodal-rest": rest, "concat-ae": both}
        return [(columns[self.kind], self.enc)]


@dataclass
class FeatureScaler:
    """Per-feature standardization fit on training data only.

    ``target(x)`` produces reconstruction targets: the standardized features,
    additionally min-max mapped to [0, 1] when the scaler was fit with
    ``minmax=True`` (sigmoid-output models).
    """

    mean: np.ndarray
    std: np.ndarray
    minmax_low: np.ndarray | None = None
    minmax_span: np.ndarray | None = None

    @classmethod
    def fit(cls, data: np.ndarray, *, minmax: bool = False) -> "FeatureScaler":
        data = np.asarray(data, dtype=np.float64)
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        scaler = cls(mean=mean, std=std)
        if minmax:
            standardized = (data - mean) / std
            low = standardized.min(axis=0)
            span = standardized.max(axis=0) - low
            scaler.minmax_low = low
            scaler.minmax_span = np.where(span < 1e-12, 1.0, span)
        return scaler

    def transform(self, data: np.ndarray) -> np.ndarray:
        return (np.asarray(data, dtype=np.float64) - self.mean) / self.std

    def target(self, data: np.ndarray) -> np.ndarray:
        standardized = self.transform(data)
        if self.minmax_low is None:
            return standardized
        return (standardized - self.minmax_low) / self.minmax_span


class _SubjectEncoderMixin:
    """Vertex-wise subject encoding shared by all view-based models."""

    def encode_subject(self, subject: SubjectRecord) -> np.ndarray:
        """The subject's (m, d) latent matrix: one row per vertex."""
        return self.encode_pair(subject.x_task, subject.x_rest)


def _columns(x_task: np.ndarray, x_rest: np.ndarray, cols: slice) -> np.ndarray:
    """Columns ``cols`` of ``[x_task | x_rest]``.

    A basic slice of one view, or a contiguous copy when ``cols`` spans both;
    never fancy indexing, whose F-ordered result changes the GEMM bits.
    """
    d_task = x_task.shape[-1]
    if cols.stop <= d_task:
        return x_task[..., cols]
    if cols.start >= d_task:
        return x_rest[..., cols.start - d_task:cols.stop - d_task]
    return np.concatenate(
        [x_task[..., cols.start:], x_rest[..., :cols.stop - d_task]], axis=-1
    )


class Autoencoder(_SubjectEncoderMixin):
    """Encoders over column blocks of ``[task | rest]``, their codes
    concatenated in block order, and one decoder per block that reads the
    whole code.

    ``scalers`` holds one FeatureScaler per block, fit on that block's
    columns alone.  ``epoch_losses`` holds, per epoch, the summed training
    MSE followed by each decoder's.
    """

    def __init__(self, config, view, scalers, encoders, decoders, epoch_losses):
        self.config = config
        self.view = view
        self.scalers = list(scalers)
        self.encoders = list(encoders)
        self.decoders = list(decoders)
        self.epoch_losses = epoch_losses
        self.blocks = [cols for cols, _ in config.blocks(view)]

    def encode_pair(self, x_task, x_rest) -> np.ndarray:
        """The (n, enc) codes of n rows of each view (2-D arrays)."""
        return np.concatenate(
            [
                encoder.forward(scaler.transform(_columns(x_task, x_rest, cols)))
                for encoder, scaler, cols in zip(self.encoders, self.scalers, self.blocks)
            ],
            axis=1,
        )

    def reconstruction_mse(self, x_task, x_rest) -> float:
        """Summed per-decoder reconstruction MSE in the (normalized) target
        space."""
        z = self.encode_pair(x_task, x_rest)
        return sum(
            nn.mse_loss(decoder.forward(z), scaler.target(_columns(x_task, x_rest, cols)))
            for decoder, scaler, cols in zip(self.decoders, self.scalers, self.blocks)
        )


def _sample_arrays(data) -> tuple[np.ndarray, np.ndarray]:
    """The (X_task, X_rest) pair of sample matrices."""
    x_task, x_rest = (np.asarray(v, dtype=np.float64) for v in data)
    if x_task.ndim != 2 or x_rest.ndim != 2:
        raise ValueError("training views must be 2-D (samples x features)")
    if x_task.shape[0] != x_rest.shape[0]:
        raise ValueError("views disagree on sample count")
    if x_task.shape[0] == 0:
        raise ValueError("empty training data")
    return x_task, x_rest


def train_autoencoder(
    data,
    config: ArchitectureConfig,
    seed: int,
    *,
    epochs: int,
    batch_size: int,
    learning_rate: float,
) -> Autoencoder:
    """Adam-train the autoencoder ``config`` on the sum of its per-decoder
    reconstruction MSEs.

    ``data`` is a pair of (N, d_task)/(N, d_rest) arrays.  Each block's
    scaler is fit on that block's columns alone.  ``default_rng(seed)`` draws
    the encoder layers in block order, then the decoder layers, then the
    seed of the per-epoch shuffle, so for a fixed BLAS thread count the
    result is a pure function of (data, config, seed, epochs, batch_size,
    learning_rate).
    """
    x_task, x_rest = _sample_arrays(data)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    view = ViewSpec(d_task=x_task.shape[1], d_rest=x_rest.shape[1])
    blocks = config.blocks(view)
    minmax = config.output_activation == "sigmoid"
    columns = [_columns(x_task, x_rest, cols) for cols, _ in blocks]
    scalers = [FeatureScaler.fit(x, minmax=minmax) for x in columns]
    inputs = [s.transform(x) for s, x in zip(scalers, columns)]
    # without a min-max map the targets are the inputs themselves
    targets = [s.target(x) for s, x in zip(scalers, columns)] if minmax else inputs
    del columns  # a block over both views holds a concatenated copy

    rng = np.random.default_rng(seed)
    hidden = list(config.hidden_dims)
    hid, out = config.hidden_activation, config.output_activation
    # Encoders end in the hidden activation (the bottleneck is a hidden
    # layer); decoders end in the output activation.
    encoders = [
        nn.MLP.from_dims([cols.stop - cols.start, *hidden, width], hid, hid, rng)
        for cols, width in blocks
    ]
    decoders = [
        nn.MLP.from_dims([config.enc, *reversed(hidden), cols.stop - cols.start], hid, out, rng)
        for cols, _ in blocks
    ]
    params, grads, net_grads = nn.share_buffers(encoders + decoders)
    state = nn.AdamState.for_parameters(params, learning_rate)
    ends = list(itertools.accumulate(width for _, width in blocks))
    code_cols = [slice(end - width, end) for (_, width), end in zip(blocks, ends)]
    n = x_task.shape[0]
    shuffle_rng = np.random.default_rng(int(rng.integers(2**31)))
    # each epoch gathers its shuffled rows once, into buffers allocated here
    # (one set when the targets are the inputs); batches are row slices
    sources = inputs + targets if minmax else inputs
    shuffled = [np.empty_like(x) for x in sources]
    shuffled_inputs, shuffled_targets = shuffled[:len(inputs)], shuffled[-len(inputs):]
    epoch_losses: list[tuple[float, ...]] = []
    for _ in range(epochs):
        order = shuffle_rng.permutation(n)
        for x, buffer in zip(sources, shuffled):
            # "clip" never clips a permutation, and unlike "raise" it writes
            # straight into the buffer
            np.take(x, order, axis=0, out=buffer, mode="clip")
        totals = [0.0] * (len(blocks) + 1)
        for start in range(0, n, batch_size):
            rows = slice(start, start + batch_size)
            losses = _step(encoders, decoders, code_cols,
                           [x[rows] for x in shuffled_inputs],
                           [t[rows] for t in shuffled_targets], net_grads)
            nn.adam_step(state, params, grads)
            size = min(batch_size, n - start)
            for i, loss in enumerate([sum(losses), *losses]):
                totals[i] += loss * size
        epoch_losses.append(tuple(total / n for total in totals))
    return Autoencoder(config, view, scalers, encoders, decoders, epoch_losses)


def _step(encoders, decoders, code_cols, inputs, targets, net_grads):
    """Forward and backward pass over one batch; writes the gradients into
    ``net_grads`` (per network, encoders then decoders) and returns each
    decoder's MSE.  The caches die with the call, before the next batch's
    are built."""
    codes, enc_caches = zip(*(e.forward_cache(x) for e, x in zip(encoders, inputs)))
    z = np.concatenate(codes, axis=1)
    recons, dec_caches = zip(*(d.forward_cache(z) for d in decoders))
    enc_grads, dec_grads = net_grads[:len(encoders)], net_grads[len(encoders):]
    losses, dzs = [], []
    for d, cache, r, t, grads in zip(decoders, dec_caches, recons, targets, dec_grads):
        loss, grad = nn.mse_loss_gradient(r, t)
        losses.append(loss)
        dzs.append(d.backward_cache(cache, grad, grads)[1])
    dz = sum(dzs[1:], dzs[0])  # the first decoder's, then the others in order
    # nothing reads the gradient w.r.t. the model's inputs
    for e, cache, cols, grads in zip(encoders, enc_caches, code_cols, enc_grads):
        e.backward_cache(cache, dz[:, cols], grads, input_grad=False)
    return losses


# --- non-autoencoder representations ----------------------------------------


class PcaRepresentation(_SubjectEncoderMixin):
    """PCA over the standardized concatenated views."""

    def __init__(self, scaler: FeatureScaler, model: PcaModel):
        self.scaler = scaler
        self.model = model

    def encode_pair(self, x_task, x_rest) -> np.ndarray:
        x = np.concatenate([x_task, x_rest], axis=1)
        return pca_encode(self.model, self.scaler.transform(x))


class RawRepresentation(_SubjectEncoderMixin):
    """Identity passthrough of the concatenated views."""

    def encode_pair(self, x_task, x_rest) -> np.ndarray:
        return np.concatenate([x_task, x_rest], axis=1)


class OracleRepresentation:
    """Fixed per-subject latents, looked up by subject id (test fixture)."""

    def __init__(self, latents: Mapping[str, np.ndarray]):
        self.latents = {k: np.asarray(v, dtype=np.float64) for k, v in latents.items()}
        dims = {v.shape[1] for v in self.latents.values()}
        if len(dims) != 1:
            raise ValueError("oracle latents disagree on latent dim")

    def encode_subject(self, subject: SubjectRecord) -> np.ndarray:
        if subject.subject_id not in self.latents:
            raise KeyError(f"no oracle latent for subject {subject.subject_id!r}")
        return self.latents[subject.subject_id]


# --- fit specs consumed by the evaluation harness ---------------------------


@dataclass
class AutoencoderSpec:
    """Recipe for fitting an autoencoder representation on training subjects."""

    config: ArchitectureConfig
    epochs: int = 300
    batch_size: int = 500
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")

    def fit(self, subjects: list[SubjectRecord], seed: int) -> Autoencoder:
        return train_autoencoder(
            stack_views(subjects), self.config, seed,
            epochs=self.epochs, batch_size=self.batch_size,
            learning_rate=self.learning_rate,
        )


@dataclass
class PcaSpec:
    """Recipe for the PCA baseline over standardized concatenated views."""

    enc: int

    def fit(self, subjects: list[SubjectRecord], seed: int) -> PcaRepresentation:
        x_task, x_rest = stack_views(subjects)
        x = np.concatenate([x_task, x_rest], axis=1)
        scaler = FeatureScaler.fit(x)
        model = fit_pca(scaler.transform(x), self.enc, seed=seed)
        return PcaRepresentation(scaler, model)


@dataclass
class RawSpec:
    """Identity representation: every concatenated view column."""

    def fit(self, subjects: list[SubjectRecord], seed: int) -> RawRepresentation:
        return RawRepresentation()


@dataclass
class OracleSpec:
    """Fixed known latents keyed by subject id (bypasses fitting)."""

    latents: Mapping[str, np.ndarray]

    def fit(self, subjects: list[SubjectRecord], seed: int) -> OracleRepresentation:
        return OracleRepresentation(self.latents)
