"""What the benchmark's tracer reads from the program.

``perfbench/spans.py`` wraps program functions by name and reads the loss
curve off fitted models.  A refactor that drops a wrapped name, or changes
the shape of ``epoch_losses``, only turns per-layer metrics into ``None``
there; these tests make it fail here instead.  The same holds for the
fields of ``FitResult`` that the tracer counts.  ``spans.py`` is loaded
read-only from its file.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mvtrace.cli  # noqa: F401 - imports every module the tracer wraps
from conftest import fit_autoencoder, random_views
from mvtrace.autoencoders import KINDS, ArchitectureConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,module,path", load_spans().BOUNDARIES)
def test_traced_boundary_resolves(name, module, path):
    owner = sys.modules[module]
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), f"{name}: {module}.{path}"


@pytest.mark.parametrize("kind", KINDS)
def test_epoch_losses_are_total_then_per_decoder(kind):
    x_t, x_r = random_views(30, 4, 3, seed=0)
    config = ArchitectureConfig(kind=kind, enc=2)
    model = fit_autoencoder(x_t, x_r, config, seed=0, epochs=2, batch_size=8,
                            learning_rate=1e-3)
    decoders = 2 if kind == "mdae" else 1
    assert len(model.epoch_losses) == 2
    for losses in model.epoch_losses:
        assert type(losses) is tuple and len(losses) == 1 + decoders
        assert all(type(v) is float for v in losses)
        assert losses[0] == pytest.approx(sum(losses[1:]), rel=1e-12)


def test_mfista_counts_reach_the_tracer():
    # spans._after_mfista reads FitResult.iterations and .converged into
    # trace_regression.mfista_iters and fits_not_converged
    from mvtrace import trace_regression as tr

    spans = load_spans()
    rng = np.random.default_rng(0)
    dataset = tr.RegressionDataset(rng.standard_normal((6, 4, 2)), rng.standard_normal(6))
    tracer = spans.Tracer()
    tracer.install()
    try:
        fit = tr.fit_mfista(dataset, tr.RegularizationConfig(alpha=0.1, eta=0.0),
                            tr.FistaConfig(max_iters=3))
    finally:
        tracer.uninstall()
    assert type(fit.iterations) is int and type(fit.converged) is bool
    assert tracer.counters == {"trace_regression.iterations": fit.iterations,
                               "trace_regression.not_converged": 1}
