import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import fit_autoencoder, random_views
from mvtrace import autoencoders, nn
from mvtrace.autoencoders import (
    KINDS,
    ArchitectureConfig,
    AutoencoderSpec,
    FeatureScaler,
    OracleSpec,
    PcaSpec,
    RawSpec,
)
from mvtrace.data import SubjectRecord
from mvtrace.pca import fit_pca, reconstruction_mse

D_TASK, D_REST = 24, 30


class TestConfigs:
    def test_blocks_name_their_views(self):
        # (views read: 0 task, 1 rest; code width) per encoder, in code order
        blocks = {kind: ArchitectureConfig(kind=kind, enc=5).blocks() for kind in KINDS}
        assert blocks == {
            "monomodal-task": [((0,), 5)],
            "monomodal-rest": [((1,), 5)],
            "concat-ae": [((0, 1), 5)],
            "mdae": [((0,), 3), ((1,), 2)],
        }

    @pytest.mark.parametrize("enc", [1, 0, 101, 150])
    def test_enc_range_enforced(self, enc):
        with pytest.raises(ValueError, match="enc"):
            ArchitectureConfig(kind="concat-ae", enc=enc)

    def test_mdae_split_must_sum(self):
        with pytest.raises(ValueError, match="enc_split"):
            ArchitectureConfig(kind="mdae", enc=10, enc_split=(8, 3))
        with pytest.raises(ValueError, match="enc_split"):
            ArchitectureConfig(kind="mdae", enc=10, enc_split=(10, 0))

    def test_mdae_default_split_balanced(self):
        cfg = ArchitectureConfig(kind="mdae", enc=9)
        assert cfg.enc_split == (5, 4)

    def test_split_rejected_for_single_stack(self):
        with pytest.raises(ValueError, match="enc_split"):
            ArchitectureConfig(kind="concat-ae", enc=10, enc_split=(5, 5))

    def test_bad_kind_and_activations(self):
        with pytest.raises(ValueError, match="kind"):
            ArchitectureConfig(kind="vae", enc=10)
        with pytest.raises(ValueError):
            ArchitectureConfig(kind="concat-ae", enc=10, hidden_activation="tanh")
        with pytest.raises(ValueError):
            ArchitectureConfig(kind="concat-ae", enc=10, output_activation="relu")

    def test_three_layer_concat_row(self):
        # the showcased stacking: [D_concat, 200, 130, enc, 130, 200, D_concat]
        cfg = ArchitectureConfig(kind="concat-ae", enc=10, hidden_dims=(200, 130))
        model = one_epoch_model(cfg)
        assert widths(model.encoders[0]) + widths(model.decoders[0])[1:] == [
            54, 200, 130, 10, 130, 200, 54
        ]

    def test_mdae_dims_per_view(self):
        cfg = ArchitectureConfig(kind="mdae", enc=10, enc_split=(8, 2), hidden_dims=(140, 120))
        model = one_epoch_model(cfg)
        assert [widths(e) for e in model.encoders] == [[24, 140, 120, 8], [30, 140, 120, 2]]
        assert [widths(d) for d in model.decoders] == [[10, 120, 140, 24], [10, 120, 140, 30]]


def one_epoch_model(config):
    """A model of ``config`` over D_TASK task and D_REST rest columns, after
    one epoch on four samples."""
    x_t, x_r = random_views(4, D_TASK, D_REST, seed=0)
    return fit_autoencoder(x_t, x_r, config, seed=0, epochs=1, batch_size=4,
                           learning_rate=1e-3)


def widths(mlp):
    return [mlp.layers[0].fan_in] + [layer.fan_out for layer in mlp.layers]


class TestScaler:
    def test_standardization(self):
        data = np.random.default_rng(0).standard_normal((100, 4)) * 3.0 + 5.0
        out = data.copy()
        scaler, targets = FeatureScaler.standardize(out)
        assert targets is out  # without a min-max map the targets are the inputs
        assert np.array_equal(out, scaler.transform(data))  # in place, same rounding
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-12

    def test_minmax_targets_in_unit_interval(self):
        data = np.random.default_rng(1).standard_normal((50, 3))
        scaler, targets = FeatureScaler.standardize(data.copy(), minmax=True)
        assert np.array_equal(targets, scaler.target(data))
        assert targets.min() >= 0.0 and targets.max() <= 1.0

    def test_constant_feature_passthrough(self):
        data = np.column_stack([np.ones(30), np.arange(30.0)])
        scaler, _ = FeatureScaler.standardize(data.copy())
        assert np.all(scaler.transform(data)[:, 0] == 0.0)


def make_subject(sid, m, seed, d_task=6, d_rest=4):
    rng = np.random.default_rng(seed)
    return SubjectRecord(
        sid, rng.standard_normal((m, d_task)), rng.standard_normal((m, d_rest)), 0.0
    )


class TestConcatTraining:
    def test_lossless_bottleneck(self):
        # enc = D_concat with linear maps can represent the identity
        x_t, x_r = random_views(400, 3, 3, seed=0)
        cfg = ArchitectureConfig(kind="concat-ae", enc=6, hidden_dims=())
        model = fit_autoencoder(x_t, x_r, cfg, seed=1, epochs=800,
                                batch_size=500, learning_rate=3e-3)
        # target space is standardized, so unit variance per feature
        assert model.reconstruction_mse(x_t, x_r) < 1e-4

    def test_subspace_data_matches_pca(self):
        rng = np.random.default_rng(3)
        basis = np.linalg.qr(rng.standard_normal((12, 5)))[0]
        data = rng.standard_normal((1200, 5)) @ basis.T * 2.0
        data += 0.1 * rng.standard_normal(data.shape)
        x_t, x_r = data[:, :7], data[:, 7:]
        cfg = ArchitectureConfig(kind="concat-ae", enc=5, hidden_dims=())
        model = fit_autoencoder(x_t, x_r, cfg, seed=2, epochs=1500,
                                batch_size=500, learning_rate=3e-3)
        standardized = model.scalers[0].transform(data)  # one block over both views
        pca_mse = reconstruction_mse(fit_pca(standardized, 5), standardized)
        assert model.reconstruction_mse(x_t, x_r) <= 1.05 * pca_mse

    def test_empty_data_rejected(self):
        cfg = ArchitectureConfig(kind="concat-ae", enc=2)
        with pytest.raises(ValueError, match="empty"):
            fit_autoencoder(np.zeros((0, 3)), np.zeros((0, 2)), cfg, seed=0,
                            epochs=1, batch_size=4, learning_rate=1e-3)

    def test_monomodal_never_reads_other_view(self):
        x_t, x_r = random_views(300, 5, 4, seed=4)
        cfg = ArchitectureConfig(kind="monomodal-task", enc=3, hidden_dims=())
        model = fit_autoencoder(x_t, x_r, cfg, seed=5, epochs=10,
                                batch_size=100, learning_rate=1e-3)
        shuffled_rest = x_r[np.random.default_rng(0).permutation(len(x_r))]
        assert np.array_equal(
            model.encode_pair(x_t, x_r), model.encode_pair(x_t, shuffled_rest)
        )

    def test_epoch_losses_logged(self):
        x_t, x_r = random_views(100, 4, 3, seed=6)
        cfg = ArchitectureConfig(kind="concat-ae", enc=3, hidden_dims=(8,))
        model = fit_autoencoder(x_t, x_r, cfg, seed=0, epochs=12,
                                batch_size=50, learning_rate=1e-3)
        assert len(model.epoch_losses) == 12
        assert model.epoch_losses[-1][0] < model.epoch_losses[0][0]


class TestMdaeTraining:
    def test_split_layout_task_first(self):
        x_t, x_r = random_views(200, 12, 5, seed=7)
        cfg = ArchitectureConfig(kind="mdae", enc=10, enc_split=(8, 2), hidden_dims=())
        model = fit_autoencoder(x_t, x_r, cfg, seed=1, epochs=5, batch_size=100,
                                learning_rate=1e-3)
        z = model.encode_pair(x_t[:1], x_r[:1])
        assert z.shape == (1, 10)
        scaler, _ = FeatureScaler.standardize(x_t.copy())
        z_task = model.encoders[0].forward(scaler.transform(x_t[:1]))
        assert np.array_equal(z[:, :8], z_task)

    def test_equal_views_converge_to_equal_losses(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((1500, 12))
        cfg = ArchitectureConfig(kind="mdae", enc=6, enc_split=(3, 3), hidden_dims=())
        model = fit_autoencoder(base, base.copy(), cfg, seed=1, epochs=300,
                                batch_size=500, learning_rate=3e-3)
        _, loss_t, loss_r = model.epoch_losses[-1]
        assert abs(loss_t - loss_r) / max(loss_t, loss_r) < 0.10

    def test_zero_variance_data_reaches_zero_loss(self):
        x_t = np.ones((200, 6))
        x_r = np.full((200, 4), 3.0)
        cfg = ArchitectureConfig(kind="mdae", enc=4, enc_split=(2, 2), hidden_dims=())
        model = fit_autoencoder(x_t, x_r, cfg, seed=0, epochs=300, batch_size=500,
                                learning_rate=1e-2)
        assert model.epoch_losses[-1][0] < 1e-6

    def test_catalog_mdae_losses_decrease(self):
        # epoch-mean loss after training < first epoch, every swept mdae stacking
        x_t, x_r = random_views(48, 24, 30, seed=8, latent_dim=4)
        stacks = [hidden for kind, hidden in SWEPT_STACKS if kind == "mdae"]
        assert len(stacks) == 4
        for hidden in stacks:
            config = ArchitectureConfig(kind="mdae", enc=5, hidden_dims=hidden,
                                        hidden_activation="relu")
            for seed in (0, 1, 2):
                model = fit_autoencoder(x_t, x_r, config, seed=seed, epochs=300,
                                        batch_size=500, learning_rate=1e-3)
                assert model.epoch_losses[-1][0] < model.epoch_losses[0][0]

    def test_catalog_single_stack_losses_decrease(self):
        x_t, x_r = random_views(48, 24, 30, seed=9, latent_dim=4)
        for kind, hidden in SWEPT_STACKS:
            if kind == "mdae":
                continue
            config = ArchitectureConfig(kind=kind, enc=5, hidden_dims=hidden,
                                        hidden_activation="relu")
            model = fit_autoencoder(x_t, x_r, config, seed=0, epochs=300,
                                    batch_size=500, learning_rate=1e-3)
            assert model.epoch_losses[-1][0] < model.epoch_losses[0][0]


def weights(model):
    return [p for net in model.encoders + model.decoders for p in net.parameters()]


class TestParallelStep:
    """An mdae fit runs its task and rest blocks on threads of their own,
    over buffers allocated once per fit; a fold worker fits serially."""

    @pytest.mark.parametrize("hidden,output", [
        ("relu", "linear"), ("linear", "sigmoid"), ("relu", "sigmoid"),
    ])
    def test_threaded_fit_matches_serial_fit(self, two_cpus, monkeypatch, hidden, output):
        x_t, x_r = random_views(203, 7, 5, seed=3)  # batch 50 leaves a short last batch
        cfg = ArchitectureConfig(kind="mdae", enc=4, hidden_dims=(9, 6),
                                 hidden_activation=hidden, output_activation=output)
        fit = dict(seed=5, epochs=3, batch_size=50, learning_rate=3e-3)
        # the serial path: a worker of a process pool, as a fold worker fits
        with ProcessPoolExecutor(1) as pool:
            assert pool.submit(autoencoders._block_threads, 2).result(timeout=60) == 1
            serial = pool.submit(fit_autoencoder, x_t, x_r, cfg, **fit).result(timeout=120)
        threads = set()
        forward = nn.MLP.forward_cache

        def recording(net, *args):
            threads.add(threading.get_ident())
            return forward(net, *args)

        monkeypatch.setattr(nn.MLP, "forward_cache", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a race would show in the bits
        try:
            threaded = fit_autoencoder(x_t, x_r, cfg, **fit)
        finally:
            sys.setswitchinterval(interval)
        # the calling thread runs the task block, a pool thread the rest block
        assert len(threads) == 2 and threading.get_ident() in threads
        assert all(np.array_equal(a, b) for a, b in zip(weights(threaded), weights(serial)))
        assert threaded.epoch_losses == serial.epoch_losses

    def test_no_thread_outlives_a_fit(self, two_cpus, monkeypatch):
        x_t, x_r = random_views(120, 4, 3, seed=0)
        cfg = ArchitectureConfig(kind="mdae", enc=2, hidden_dims=(5,))
        fit = dict(seed=0, epochs=2, batch_size=32, learning_rate=1e-3)
        start = threading.active_count()
        counts, fail = [], False
        backward = nn.MLP.backward_cache

        def counting(net, *args, **kwargs):
            counts.append(threading.active_count())
            if len(counts) > 9 and fail:
                raise RuntimeError("step failed")
            return backward(net, *args, **kwargs)

        monkeypatch.setattr(nn.MLP, "backward_cache", counting)
        fit_autoencoder(x_t, x_r, cfg, **fit)
        assert max(counts) == start + 1 and threading.active_count() == start
        counts.clear()
        fail = True
        with pytest.raises(RuntimeError, match="step failed"):
            fit_autoencoder(x_t, x_r, cfg, **fit)
        assert threading.active_count() == start

    @pytest.mark.parametrize("kind", ["mdae", "concat-ae"])
    def test_step_allocates_no_batch_sized_array(self, monkeypatch, kind):
        # numpy's own iteration buffers (a cast, a broadcast in place, a
        # strided operand) take np.getbufsize() elements each, three at most
        # in one call of this step (measured); a batch-sized array of
        # ``rows`` rows takes at least twice what four of them take.  One
        # thread runs the fit, so no two calls' buffers overlap in time.
        monkeypatch.setattr(autoencoders, "_block_threads", lambda blocks: 1)
        buffers = 4 * np.getbufsize() * 8
        rows = buffers // 4
        x_t, x_r = random_views(3 * rows, 6, 5, seed=1)
        cfg = ArchitectureConfig(kind=kind, enc=4, hidden_dims=(8,),
                                 hidden_activation="relu", output_activation="sigmoid")
        growth, base = [], []
        step = nn.adam_step

        def traced(*args):
            # peak bytes above those at the last call: one Adam step, then
            # one batch's forward and backward passes
            current, peak = tracemalloc.get_traced_memory()
            if base:
                growth.append(peak - base[-1])
            base.append(current)
            tracemalloc.reset_peak()
            return step(*args)

        monkeypatch.setattr(nn, "adam_step", traced)
        tracemalloc.start()
        try:
            fit_autoencoder(x_t, x_r, cfg, seed=0, epochs=1, batch_size=rows,
                            learning_rate=1e-3)
        finally:
            tracemalloc.stop()
        assert len(growth) == 2 and max(growth) < buffers, growth


def test_block_samples_stack_subjects_in_order():
    subjects = [make_subject(f"s{i}", 7, seed=60 + i, d_task=4, d_rest=5) for i in range(3)]
    pairs = [(s.x_task, s.x_rest) for s in subjects]
    x_task = np.vstack([s.x_task for s in subjects])
    x_rest = np.vstack([s.x_rest for s in subjects])
    blocks = [(0,), (1,), (0, 1)]
    samples = autoencoders._block_samples(pairs, blocks)
    for x, want in zip(samples, [x_task, x_rest, np.concatenate([x_task, x_rest], axis=1)]):
        assert x.flags.c_contiguous and x.flags.owndata
        assert np.array_equal(x, want)
    with pytest.raises(ValueError, match="empty"):
        autoencoders._block_samples([(np.zeros((0, 4)), np.zeros((0, 5)))], blocks)


@pytest.mark.parametrize("kind", ["mdae", "concat-ae"])
def test_training_leaves_the_callers_arrays_unchanged(kind):
    x_t, x_r = random_views(60, 5, 4, seed=2)
    before = x_t.copy(), x_r.copy()
    cfg = ArchitectureConfig(kind=kind, enc=4, output_activation="sigmoid")
    fit_autoencoder(x_t, x_r, cfg, seed=0, epochs=1, batch_size=16, learning_rate=1e-3)
    assert np.array_equal(x_t, before[0]) and np.array_equal(x_r, before[1])


class TestFitMemory:
    """A fit holds its training samples once: the traced peak above its
    start stays below one copy of the block inputs, plus the min-max targets
    of a sigmoid kind (one more copy), plus one scaler temporary (the
    deviations that np.std forms for the widest block), plus ALLOWANCE."""

    M, D_TASK, D_REST, SUBJECTS = 500, 24, 30, 20
    COPY = SUBJECTS * M * (D_TASK + D_REST) * 8  # one copy of the samples: 4.32 MB
    # the step workspace at batch 100 and 8 hidden units (under 0.4 MB), the
    # epoch's permutation (80 kB) and numpy's iteration buffers
    ALLOWANCE = 1_000_000

    @pytest.fixture(scope="class")
    def subjects(self):
        return [make_subject(f"s{i}", self.M, seed=i, d_task=self.D_TASK, d_rest=self.D_REST)
                for i in range(self.SUBJECTS)]

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind,output", [("mdae", "linear"), ("concat-ae", "linear"),
                                             ("mdae", "sigmoid")])
    def test_autoencoder_fit_holds_the_samples_once(self, subjects, kind, output):
        cfg = ArchitectureConfig(kind=kind, enc=4, hidden_dims=(8,),
                                 hidden_activation="relu", output_activation=output)
        spec = AutoencoderSpec(cfg, epochs=1, batch_size=100, learning_rate=1e-3)
        nn.apply_activation(output, np.zeros(1))  # a sigmoid imports scipy.special once
        view_widths = (self.D_TASK, self.D_REST)
        widest = max(sum(view_widths[v] for v in views) for views, _ in cfg.blocks())
        scaler_temporary = self.COPY * widest // (self.D_TASK + self.D_REST)
        targets = self.COPY if output == "sigmoid" else 0
        bound = self.COPY + targets + scaler_temporary + self.ALLOWANCE
        assert self.traced_peak(lambda: spec.fit(subjects, 0)) < bound

    def test_pca_fit_holds_the_samples_once(self, subjects):
        # beside the standardized matrix: the scaler temporary, then
        # fit_pca's centered copy and the thin SVD's U factor, each a copy
        bound = 3 * self.COPY + self.ALLOWANCE
        assert self.traced_peak(lambda: PcaSpec(enc=4).fit(subjects, 0)) < bound


# (kind, hidden widths) of the stackings in the architecture sweep
SWEPT_STACKS = [
    *((kind, hidden) for kind in ("monomodal-task", "monomodal-rest")
      for hidden in ((), (120,), (130,), (140, 120), (140, 130))),
    *(("concat-ae", hidden) for hidden in ((), (150,), (200,), (250, 150), (200, 130))),
    *(("mdae", hidden) for hidden in ((120,), (130,), (140, 120), (140, 130))),
]


@pytest.fixture(scope="module")
def models():
    x_t, x_r = random_views(300, 6, 4, seed=10, latent_dim=3)
    return {
        kind: fit_autoencoder(x_t, x_r, ArchitectureConfig(kind=kind, enc=4), seed=0,
                              epochs=5, batch_size=100, learning_rate=1e-3)
        for kind in KINDS
    }


class TestEncoding:
    @pytest.mark.parametrize("kind", ["monomodal-task", "monomodal-rest", "concat-ae", "mdae"])
    def test_latent_dimension_contract(self, models, kind):
        z = models[kind].encode_pair(np.zeros((1, 6)), np.zeros((1, 4)))
        assert z.shape == (1, 4)

    def test_encode_deterministic(self, models):
        x_t, x_r = np.ones((1, 6)), np.ones((1, 4))
        a = models["mdae"].encode_pair(x_t, x_r)
        b = models["mdae"].encode_pair(x_t, x_r)
        assert np.array_equal(a, b)

    def test_encode_subject_rows_match_pointwise(self, models):
        subject = make_subject("s1", 20, seed=11)
        latent = models["concat-ae"].encode_subject(subject)
        assert latent.shape == (20, 4)
        for j in (0, 5, 9, 13, 19):
            row = models["concat-ae"].encode_pair(subject.x_task[j:j + 1],
                                                  subject.x_rest[j:j + 1])
            assert np.allclose(latent[j:j + 1], row, atol=1e-12)

    def test_vertex_permutation_equivariance(self, models):
        subject = make_subject("s2", 15, seed=12)
        perm = np.random.default_rng(1).permutation(15)
        permuted = SubjectRecord(
            "s2", subject.x_task[perm], subject.x_rest[perm], subject.score
        )
        a = models["mdae"].encode_subject(subject)
        b = models["mdae"].encode_subject(permuted)
        assert np.array_equal(a[perm], b)

    def test_tiny_mesh_shape(self, models):
        subject = make_subject("s3", 3, seed=13)
        assert models["mdae"].encode_subject(subject).shape == (3, 4)

    @pytest.mark.parametrize("kind", KINDS)
    def test_model_keeps_config_and_view(self, kind):
        x_t, x_r = random_views(200, 5, 4, seed=14)
        cfg = ArchitectureConfig(kind=kind, enc=4, hidden_dims=(6,),
                                 enc_split=(3, 1) if kind == "mdae" else None,
                                 hidden_activation="relu", output_activation="sigmoid")
        model = fit_autoencoder(x_t, x_r, cfg, seed=0, epochs=4, batch_size=64,
                                learning_rate=1e-3)
        assert model.config == cfg
        # each encoder reads the columns of its block's views
        view_widths = (5, 4)
        assert [(e.layers[0].fan_in, e.output_dim) for e in model.encoders] == [
            (sum(view_widths[v] for v in views), width) for views, width in cfg.blocks()]
        assert model.encode_pair(x_t, x_r).shape == (200, 4)
        assert np.isfinite(model.reconstruction_mse(x_t, x_r))


# Recorded from the two per-kind trainers this loop replaced: each kind's final
# epoch_losses and its codes of the first three samples.  Values, not bits,
# are pinned, since the bits depend on the BLAS kernel and thread count.
PINNED = {
    "monomodal-task": (
        (0.025412578591959924, 0.025412578591959924),
        [[-1.8323763749815245, 0.6476017320521155, -2.8383033816658636, 0.781451934920143],
         [0.0482820656021383, -0.30959807976277, 1.1709364522007992, -1.3550018223877114],
         [0.8199630629700188, 0.05876731521543393, 1.2740200525510692, 0.10167827732512955]],
    ),
    "monomodal-rest": (
        (0.03391378863634823, 0.03391378863634823),
        [[0.5458880374266658, 0.33315060749805425, -0.3384273174929929, -1.3183250952768757],
         [1.5886827103995909, 0.04600918279799513, -1.3696869123791209, -0.7128198375353453],
         [-0.3722355286274229, 0.14030130719731357, 0.23657084344870297, 0.30052217920879787]],
    ),
    "concat-ae": (
        (0.05136842414627676, 0.05136842414627676),
        [[0.48901200132264955, 1.9885571568679623, 2.057007850895863, -0.9610321646334088],
         [-0.298829991462269, -0.2627578491312896, -0.020022457630636238, 0.10700419239164013],
         [0.2861336889080778, -0.3787683900243711, -1.256517108612193, 0.10064515890604095]],
    ),
    "mdae": (
        (0.05856595966884408, 0.034358971565899656, 0.024206988102944433),
        [[-2.9195149056328584, 1.1113264234522986, 0.29395298368389106, 1.2469389901311936],
         [0.10106276756895603, -0.6595313723097685, 0.25813565021680496, 2.7534948747098063],
         [0.8820555980112088, -0.7973037690912029, -0.024329686014469193, -0.4825668910451184]],
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_training_matches_pinned_values(kind):
    x_t, x_r = random_views(40, 5, 4, seed=21, latent_dim=3)
    cfg = ArchitectureConfig(kind=kind, enc=4, hidden_dims=(8,),
                             hidden_activation="linear", output_activation="sigmoid")
    model = fit_autoencoder(x_t, x_r, cfg, seed=3, epochs=3, batch_size=16,
                            learning_rate=1e-2)
    losses, codes = PINNED[kind]
    assert len(model.epoch_losses[-1]) == len(losses)
    assert np.allclose(model.epoch_losses[-1], losses, rtol=1e-12, atol=0.0)
    assert np.allclose(model.encode_pair(x_t[:3], x_r[:3]), codes, rtol=1e-12, atol=0.0)


# Relu hidden layers with a linear output (no min-max map, so the targets are
# the standardized inputs), recorded from the loop before its buffers were
# shared: every epoch's losses and the codes of the first three samples.
# "short-batch" trains 45 samples in batches of 16, so each epoch ends on a
# batch of 13.  The zeros are exact: relu clamps them.
RELU_PINNED = {
    "mdae-relu": (
        dict(kind="mdae", enc=5, enc_split=(3, 2), hidden_dims=(8, 6), n=48),
        [(2.005975672201087, 1.0037089129586538, 1.002266759242433),
         (1.9551367958528212, 0.9864089974727267, 0.9687277983800944),
         (1.9111033127014825, 0.9658174276724675, 0.945285885029015)],
        [[0.0, 0.0, 0.0, 0.30399000194130926, 0.5995155118566609],
         [0.4458517104266077, 0.0, 0.45071055527420884, 0.5564788753119151, 0.7217437967350073],
         [0.32982775339346665, 0.0, 0.012594610315732847, 0.0, 0.0]],
    ),
    "concat-ae-relu": (
        dict(kind="concat-ae", enc=4, enc_split=None, hidden_dims=(8, 6), n=48),
        [(1.0045521467773095, 1.0045521467773095),
         (0.9897673721057241, 0.9897673721057241),
         (0.9816637871749693, 0.9816637871749693)],
        [[1.2086466878503694, 0.9879408228978106, 0.6628248691956067, 0.950307664132306],
         [0.7333929708790934, 0.6222160489279189, 0.40455751119745603, 0.6049820439669187],
         [0.21072767717569688, 0.01140963837730308, 0.0, 0.0]],
    ),
    "short-batch": (
        dict(kind="mdae", enc=4, enc_split=None, hidden_dims=(7,), n=45),
        [(2.2729792587195585, 1.1720465026678182, 1.1009327560517403),
         (2.0218689062543973, 1.0698314501428898, 0.9520374561115075),
         (1.877841132390249, 1.005746994226638, 0.8720941381636109)],
        [[0.868396651258064, 0.4361318016900368, 0.9012987073292228, 0.9922801077918495],
         [0.0, 0.40466126271129377, 0.03983094254941685, 0.0],
         [0.334198995313974, 0.4135957754157455, 0.0, 0.0]],
    ),
}


@pytest.mark.parametrize("case", RELU_PINNED)
def test_relu_training_matches_pinned_values(case):
    setup, losses, codes = RELU_PINNED[case]
    x_t, x_r = random_views(setup["n"], 5, 4, seed=21, latent_dim=3)
    cfg = ArchitectureConfig(kind=setup["kind"], enc=setup["enc"],
                             hidden_dims=setup["hidden_dims"], enc_split=setup["enc_split"],
                             hidden_activation="relu", output_activation="linear")
    model = fit_autoencoder(x_t, x_r, cfg, seed=3, epochs=3, batch_size=16,
                            learning_rate=1e-2)
    assert len(model.epoch_losses) == len(losses)
    for got, want in zip(model.epoch_losses, losses):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.allclose(model.encode_pair(x_t[:3], x_r[:3]), codes, rtol=1e-12, atol=0.0)


class TestRepresentationSpecs:
    def test_autoencoder_spec_dispatch(self):
        subjects = [make_subject(f"s{i}", 8, seed=20 + i) for i in range(3)]
        spec = AutoencoderSpec(
            config=ArchitectureConfig(kind="mdae", enc=2, hidden_dims=()),
            epochs=2, batch_size=16, learning_rate=1e-3,
        )
        model = spec.fit(subjects, seed=0)
        assert model.encode_subject(subjects[0]).shape == (8, 2)

    def test_pca_spec(self):
        subjects = [make_subject(f"s{i}", 12, seed=30 + i) for i in range(3)]
        model = PcaSpec(enc=4).fit(subjects, seed=0)
        assert model.encode_subject(subjects[1]).shape == (12, 4)

    def test_raw_spec_keeps_every_column(self):
        subjects = [make_subject(f"s{i}", 10, seed=i) for i in range(4)]
        z = RawSpec().fit(subjects, seed=0).encode_subject(subjects[0])
        assert z.shape == (10, 10)
        assert np.array_equal(z, np.concatenate([subjects[0].x_task, subjects[0].x_rest], axis=1))

    def test_oracle_spec_lookup(self):
        subjects = [make_subject("s0", 6, seed=50)]
        spec = OracleSpec(latents={"s0": np.ones((6, 2), dtype=int)})
        model = spec.fit(subjects, seed=0)
        assert model is spec  # nothing to fit: the spec encodes
        z = model.encode_subject(subjects[0])
        assert z.dtype == np.float64 and np.array_equal(z, np.ones((6, 2)))
        with pytest.raises(KeyError):
            model.encode_subject(make_subject("s9", 6, seed=51))
        with pytest.raises(ValueError, match="latent dim"):
            OracleSpec(latents={"s0": np.ones((6, 2)), "s1": np.ones((6, 3))})
