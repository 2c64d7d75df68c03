"""Multi-view representation models and their training loop.

Every autoencoder kind is one graph over the per-vertex views
``(x_task, x_rest)``:

* one encoder per block, each reading one view or both views (their columns
  concatenated in view order) and ending in its share of the bottleneck;
* one latent code: the blocks' codes concatenated in block order;
* one decoder per block that reads the whole code and reconstructs that
  block's input;
* a loss that is the unweighted sum of the per-decoder MSEs.

``monomodal-task`` and ``monomodal-rest`` have one block over one view,
``concat-ae`` one block over both views, and the dual-encoder multi-view
autoencoder ``mdae`` a task block and a rest block that split the code by
``enc_split``.

A spec fits, a model encodes: ``AutoencoderSpec.fit`` and ``PcaSpec.fit``
return a fitted model, while ``RawSpec`` and the fixed-latent ``OracleSpec``
need no fit and encode subjects themselves.  All of them expose
``encode_subject`` so the evaluation harness can swap them freely.  Inputs
are standardized per feature on the training data; sigmoid-output variants
additionally min-max map the reconstruction targets to [0, 1].

A fit holds its training samples once.  Each block's (N, width) input is
one C-contiguous array that the fit owns, filled straight from the
subjects' views and then standardized in place
(``FeatureScaler.standardize``); the subjects' arrays are never modified,
and no per-view stack or concatenated copy is made beside it.  A sigmoid
kind's min-max targets are one more array; otherwise the targets are the
inputs.  ``PcaSpec`` fills and standardizes its one matrix over both views
the same way.

``AutoencoderSpec.fit`` keeps a step down to its GEMMs, with the bits of the
plain loop: every parameter lives in one flat buffer (``nn.share_buffers``)
that a single Adam call updates; each batch gathers its rows of the epoch's
permutation from the block inputs (and targets) into batch-sized buffers;
and the gradient w.r.t. the model's inputs is never formed.

A step allocates no batch-sized array.  The calling thread allocates, before
the first epoch and for the largest batch, each block's batch buffers,
layer outputs, two input-gradient buffers and a relu mask, each decoder's
loss difference, the code and its gradient, and Adam's scratch; the short
last batch uses their leading rows.  The blocks meet only where their codes
are concatenated and where the decoders' code gradients are summed, so each
block's networks run on a thread of their own, in three fork/join phases
per step: gather and encoder forward; decoder forward, loss and backward;
encoder backward.  The caller forms the code and its gradient between the
phases, in block order, and runs Adam.  The caller runs the first block
itself and a thread pool the others, so a fit uses one thread per block, at
most one per usable CPU; the pool lives for one fit.  One block runs
inline, and so does a fold worker of a process pool, whose sibling
processes already fill the CPUs.  No element's arithmetic depends on the
threads.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import nn
from .data import SubjectRecord
from .pca import PcaModel, fit_pca, pca_encode

KINDS = ("monomodal-task", "monomodal-rest", "concat-ae", "mdae")
HIDDEN_ACTIVATIONS = ("linear", "relu")
OUTPUT_ACTIVATIONS = ("linear", "sigmoid")

ENC_MIN, ENC_MAX = 2, 100
BOTH_VIEWS = (0, 1)  # the views of a block over both, in column order

# Default hidden stacks (per side, encoder order); the three-layer variants
# performed best in the architecture sweep.
DEFAULT_HIDDEN = {
    "monomodal-task": (140, 120),
    "monomodal-rest": (140, 120),
    "concat-ae": (200, 130),
    "mdae": (140, 120),
}


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

    def blocks(self) -> list[tuple[tuple[int, ...], int]]:
        """(views read, in order: 0 task, 1 rest; code width) of each
        encoder, in code order."""
        if self.kind == "mdae":
            return [((0,), self.enc_split[0]), ((1,), self.enc_split[1])]
        views = {"monomodal-task": (0,), "monomodal-rest": (1,), "concat-ae": BOTH_VIEWS}
        return [(views[self.kind], self.enc)]


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
    def standardize(cls, data: np.ndarray, *,
                    minmax: bool = False) -> tuple["FeatureScaler", np.ndarray]:
        """Fit a scaler on ``data``, a 2-D float64 array that the caller owns,
        and standardize ``data`` in place, with the rounding of
        ``(data - mean) / std``.

        Returns ``(scaler, targets)``: the reconstruction targets are
        ``data`` itself, or with ``minmax`` one new array of the standardized
        features min-max mapped to [0, 1].  Beside ``data``, only the
        deviations that ``np.std`` forms are data-sized, and they are freed
        before the function returns.
        """
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        scaler = cls(mean=mean, std=std)
        np.subtract(data, mean, out=data)
        np.divide(data, std, out=data)
        if not minmax:
            return scaler, data
        low = data.min(axis=0)
        span = data.max(axis=0) - low
        scaler.minmax_low = low
        scaler.minmax_span = np.where(span < 1e-12, 1.0, span)
        targets = np.subtract(data, low)
        targets /= scaler.minmax_span
        return scaler, targets

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


def _block_input(pair, views, out=None) -> np.ndarray:
    """What a block over ``views`` reads from ``pair`` = (x_task, x_rest),
    2-D arrays of the same rows: the one view itself, or the views' columns
    concatenated in order (into ``out`` when given); never fancy indexing,
    whose F-ordered result changes the GEMM bits."""
    if out is None and len(views) == 1:
        return pair[views[0]]
    return np.concatenate([pair[v] for v in views], axis=1, out=out)


def _block_samples(pairs, blocks) -> list[np.ndarray]:
    """Each block's samples: what a block over the views of each entry of
    ``blocks`` reads from every (x_task, x_rest) pair of ``pairs``, stacked
    in order into one new C-contiguous (N, width) array per block.  Raises
    on N = 0."""
    n = sum(len(x_task) for x_task, _ in pairs)
    if n == 0:
        raise ValueError("empty training data")
    samples = [np.empty((n, sum(pairs[0][v].shape[1] for v in views))) for views in blocks]
    start = 0
    for pair in pairs:
        stop = start + len(pair[0])
        for x, views in zip(samples, blocks):
            _block_input(pair, views, out=x[start:stop])
        start = stop
    return samples


class Autoencoder(_SubjectEncoderMixin):
    """Encoders over blocks of the views, their codes concatenated in block
    order, and one decoder per block that reads the whole code.

    ``scalers`` holds one FeatureScaler per block, fit on that block's
    input alone.  ``epoch_losses`` holds, per epoch, the summed training
    MSE followed by each decoder's.
    """

    def __init__(self, config, scalers, encoders, decoders, epoch_losses):
        self.config = config
        self.scalers = list(scalers)
        self.encoders = list(encoders)
        self.decoders = list(decoders)
        self.epoch_losses = epoch_losses
        self.blocks = [views for views, _ in config.blocks()]

    def encode_pair(self, x_task, x_rest) -> np.ndarray:
        """The (n, enc) codes of n rows of each view (2-D arrays)."""
        return np.concatenate(
            [
                encoder.forward(scaler.transform(_block_input((x_task, x_rest), views)))
                for encoder, scaler, views in zip(self.encoders, self.scalers, self.blocks)
            ],
            axis=1,
        )

    def reconstruction_mse(self, x_task, x_rest) -> float:
        """Summed per-decoder reconstruction MSE in the (normalized) target
        space."""
        z = self.encode_pair(x_task, x_rest)
        return sum(
            nn.mse_loss(decoder.forward(z), scaler.target(_block_input((x_task, x_rest), views)))
            for decoder, scaler, views in zip(self.decoders, self.scalers, self.blocks)
        )


def _fit(pairs, config, seed, epochs, batch_size, learning_rate) -> Autoencoder:
    """Adam-train the autoencoder ``config`` on the sum of its per-decoder
    reconstruction MSEs, over the samples of every (x_task, x_rest) pair of
    ``pairs`` in turn: 2-D float64 arrays, never modified.

    Each block's input is copied once into an array the fit owns, and
    standardized there in place by a scaler fit on that block's input alone.
    Each batch gathers its rows of the epoch's permutation from those arrays
    into batch-sized buffers.  ``default_rng(seed)`` draws the encoder
    layers in block order, then the decoder layers, then the seed of the
    per-epoch shuffle, so for a fixed BLAS thread count the result is a pure
    function of (pairs, config, seed, epochs, batch_size, learning_rate).
    """
    blocks = config.blocks()
    minmax = config.output_activation == "sigmoid"
    inputs = _block_samples(pairs, [views for views, _ in blocks])
    # one block at a time, so one scaler's deviations exist at once; without
    # a min-max map the targets are the inputs themselves
    scalers, targets = zip(*(FeatureScaler.standardize(x, minmax=minmax) for x in inputs))

    rng = np.random.default_rng(seed)
    hidden = list(config.hidden_dims)
    hid, out = config.hidden_activation, config.output_activation
    # Encoders end in the hidden activation (the bottleneck is a hidden
    # layer); decoders end in the output activation.
    encoders = [
        nn.MLP.from_dims([x.shape[1], *hidden, width], hid, hid, rng)
        for x, (_, width) in zip(inputs, blocks)
    ]
    decoders = [nn.MLP.from_dims([config.enc, *reversed(hidden), x.shape[1]], hid, out, rng)
                for x in inputs]
    params, grads, net_grads = nn.share_buffers(encoders + decoders)
    state = nn.AdamState.for_parameters(params, learning_rate)
    ends = list(itertools.accumulate(width for _, width in blocks))
    n = len(inputs[0])
    rows = min(batch_size, n)
    # every buffer of a step is allocated here, by the calling thread, for
    # the largest batch; the short last batch uses their leading rows
    block_nets = [
        _BlockNets(encoder, decoder, slice(end - width, end), enc_grads, dec_grads,
                   x, target, rows)
        for encoder, decoder, (_, width), end, enc_grads, dec_grads, x, target in zip(
            encoders, decoders, blocks, ends, net_grads[:len(blocks)], net_grads[len(blocks):],
            inputs, targets)
    ]
    z, dz = np.empty((rows, config.enc)), np.empty((rows, config.enc))
    shuffle_rng = np.random.default_rng(int(rng.integers(2**31)))
    epoch_losses: list[tuple[float, ...]] = []
    threads = _block_threads(len(block_nets))
    # the calling thread runs the first block, the pool's threads the others
    pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="mvtrace-block") if threads > 1 else None
    try:
        for _ in range(epochs):
            order = shuffle_rng.permutation(n)
            totals = [0.0] * (len(blocks) + 1)
            for start in range(0, n, batch_size):
                batch = order[start:start + batch_size]
                size = len(batch)
                losses = _step(block_nets, pool, batch, z[:size], dz[:size])
                nn.adam_step(state, params, grads)
                for i, loss in enumerate([sum(losses), *losses]):
                    totals[i] += loss * size
            epoch_losses.append(tuple(total / n for total in totals))
    finally:
        if pool is not None:
            pool.shutdown()  # joins the threads, also after a failed step
    return Autoencoder(config, scalers, encoders, decoders, epoch_losses)


def _block_threads(blocks: int) -> int:
    """The threads that run the blocks of one fit, the calling thread
    included: one per block, at most one per usable CPU, and one in a
    process that a multiprocessing pool started (a fold worker), whose
    sibling processes already fill the CPUs."""
    if multiprocessing.parent_process() is not None:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(blocks, cpus or 1)


class _BlockNets:
    """One encoder block's encoder and decoder, their gradient views, its
    standardized ``inputs`` and reconstruction ``targets`` (the same array
    without a min-max map), and the batch buffers, output buffers and
    backward scratch of their passes over batches of up to ``rows`` rows.
    The blocks of a step share only the code and its gradient, which the
    caller forms, so each block's passes can run on a thread of their own."""

    def __init__(self, encoder, decoder, code_cols, enc_grads, dec_grads, inputs, targets,
                 rows):
        self.encoder, self.decoder = encoder, decoder
        self.code_cols = code_cols
        self.enc_grads, self.dec_grads = enc_grads, dec_grads
        self.inputs, self.targets = inputs, targets
        self.batch_inputs = np.empty((rows, inputs.shape[1]))
        self.batch_targets = (self.batch_inputs if targets is inputs
                              else np.empty((rows, targets.shape[1])))
        self.enc_outputs = encoder.output_buffers(rows)
        self.dec_outputs = decoder.output_buffers(rows)
        self.diff = np.empty((rows, decoder.output_dim))
        self.scratch = nn.backward_scratch([encoder, decoder], rows)
        self.enc_cache = None

    def encode(self, batch):
        """Gather the sample rows ``batch`` of the inputs (and of the targets,
        when they differ) into the batch buffers, and return their code; the
        encoder's cache stays for ``backward_encoder``."""
        # "clip" never clips a valid row, and unlike "raise" it writes
        # straight into the buffer
        x = np.take(self.inputs, batch, axis=0, out=self.batch_inputs[:len(batch)], mode="clip")
        if self.batch_targets is not self.batch_inputs:
            np.take(self.targets, batch, axis=0, out=self.batch_targets[:len(batch)],
                    mode="clip")
        self.enc_cache = self.encoder.forward_cache(x, [o[:len(x)] for o in self.enc_outputs])
        return self.enc_cache[-1]

    def decode(self, z):
        """(The decoder's MSE on the batch's targets, its gradient w.r.t. the
        code ``z``), with the decoder's gradients written; the code gradient
        lies in the scratch, which ``backward_encoder`` overwrites."""
        cache = self.decoder.forward_cache(z, [o[:len(z)] for o in self.dec_outputs])
        loss, grad = nn.mse_loss_gradient(cache[-1], self.batch_targets[:len(z)],
                                          self.diff[:len(z)], self.scratch[0])
        return loss, self.decoder.backward_cache(cache, grad, self.dec_grads, self.scratch)

    def backward_encoder(self, dz):
        """The encoder's gradients from the summed code gradient ``dz``;
        nothing reads the gradient w.r.t. the model's inputs."""
        self.encoder.backward_cache(self.enc_cache, dz[:, self.code_cols], self.enc_grads,
                                    self.scratch, input_grad=False)


def _fork_join(pool, fn, *iterables) -> list:
    """``fn`` over the blocks' arguments, the first block's call on this
    thread and the others on the pool's threads (all inline without a
    pool); returns their results in block order once every call is done,
    and raises a call's exception."""
    calls = list(zip(*iterables))
    if pool is None:
        return [fn(*args) for args in calls]
    futures = [pool.submit(fn, *args) for args in calls[1:]]
    return [fn(*calls[0]), *(future.result() for future in futures)]


def _step(blocks, pool, batch, z, dz):
    """Forward and backward pass over the sample rows ``batch`` in three
    fork/join phases over the blocks, each block gathering its own rows;
    writes every gradient and returns each decoder's MSE.  The code ``z``
    and its gradient ``dz`` are formed between the phases, in block order."""
    np.concatenate(_fork_join(pool, _BlockNets.encode, blocks, itertools.repeat(batch)),
                   axis=1, out=z)
    losses, dzs = zip(*_fork_join(pool, _BlockNets.decode, blocks, itertools.repeat(z)))
    np.copyto(dz, dzs[0])
    for grad in dzs[1:]:
        dz += grad  # the first decoder's, then the others in order
    _fork_join(pool, _BlockNets.backward_encoder, blocks, itertools.repeat(dz))
    return losses


# --- non-autoencoder representations ----------------------------------------


class PcaRepresentation(_SubjectEncoderMixin):
    """PCA over the standardized concatenated views."""

    def __init__(self, scaler: FeatureScaler, model: PcaModel):
        self.scaler = scaler
        self.model = model

    def encode_pair(self, x_task, x_rest) -> np.ndarray:
        x = _block_input((x_task, x_rest), BOTH_VIEWS)
        return pca_encode(self.model, self.scaler.transform(x))


# --- fit specs consumed by the evaluation harness ---------------------------


def _pairs(subjects: list[SubjectRecord]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each subject's (x_task, x_rest) pair; a ValueError for no subject."""
    if not subjects:
        raise ValueError("no subjects to fit on")
    return [(s.x_task, s.x_rest) for s in subjects]


def check_training(epochs: int, batch_size: int, learning_rate: float) -> None:
    """A ValueError naming the first training field out of range."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs!r}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
    if not learning_rate > 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate!r}")


@dataclass
class AutoencoderSpec:
    """Recipe for fitting an autoencoder representation on training subjects."""

    config: ArchitectureConfig
    epochs: int = 300
    batch_size: int = 500
    learning_rate: float = 1e-3

    def __post_init__(self):
        check_training(self.epochs, self.batch_size, self.learning_rate)

    def fit(self, subjects: list[SubjectRecord], seed: int) -> Autoencoder:
        return _fit(_pairs(subjects), self.config, seed,
                    self.epochs, self.batch_size, self.learning_rate)


@dataclass
class PcaSpec:
    """Recipe for the PCA baseline over standardized concatenated views."""

    enc: int

    def __post_init__(self):
        # an enc above the feature count needs the data: fit_pca checks it
        if self.enc < 1:
            raise ValueError(f"enc must be >= 1, got {self.enc!r}")

    def fit(self, subjects: list[SubjectRecord], seed: int) -> PcaRepresentation:
        # both views' columns, standardized in place
        x, = _block_samples(_pairs(subjects), [BOTH_VIEWS])
        scaler, _ = FeatureScaler.standardize(x)
        return PcaRepresentation(scaler, fit_pca(x, self.enc, seed=seed))


@dataclass
class RawSpec(_SubjectEncoderMixin):
    """Identity representation: every column of both views.  Nothing to fit,
    so the spec encodes subjects itself."""

    def fit(self, subjects: list[SubjectRecord], seed: int) -> "RawSpec":
        return self

    def encode_pair(self, x_task, x_rest) -> np.ndarray:
        return _block_input((x_task, x_rest), BOTH_VIEWS)


@dataclass
class OracleSpec:
    """Fixed known latents keyed by subject id (a test fixture).  Nothing to
    fit, so the spec encodes subjects itself."""

    latents: Mapping[str, np.ndarray]

    def __post_init__(self):
        self.latents = {k: np.asarray(v, dtype=np.float64) for k, v in self.latents.items()}
        if len({v.shape[1] for v in self.latents.values()}) != 1:
            raise ValueError("oracle latents disagree on latent dim")

    def fit(self, subjects: list[SubjectRecord], seed: int) -> "OracleSpec":
        return self

    def encode_subject(self, subject: SubjectRecord) -> np.ndarray:
        if subject.subject_id not in self.latents:
            raise KeyError(f"no oracle latent for subject {subject.subject_id!r}")
        return self.latents[subject.subject_id]
