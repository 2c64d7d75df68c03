"""In-process span tracer for the traced benchmark run.

The tracer wraps public functions of each mvtrace layer for the length of a
run, without editing the program: every alias of a wrapped function in the
``mvtrace`` modules (``from .data import load_dataset`` binds a second name)
is replaced, and class methods are replaced on the class.  Each call records
a span ``[name, start, end, parent]``; spans stay in memory until the run
ends, and self times are derived from them afterwards.

A wrapped function that a later refactor removed or renamed is reported as
absent: the metrics that need it read ``None`` and the run does not crash.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute path) for every wrapped boundary.
BOUNDARIES = [
    ("io.write", "mvtrace.cli", "_write_run_outputs"),
    ("io.write", "mvtrace.cli", "_write_manifest"),
    ("synth.generate", "mvtrace.synth", "generate"),
    ("synth.write", "mvtrace.synth", "write_dataset"),
    ("data.load", "mvtrace.data", "load_dataset"),
    ("mesh.laplacian", "mvtrace.mesh", "build_laplacian"),
    ("evaluation.run_cv", "mvtrace.evaluation", "run_cv"),
    ("evaluation.run_fold", "mvtrace.evaluation", "run_fold"),
    ("evaluation.significance", "mvtrace.evaluation", "significance_map"),
    ("autoencoders.fit", "mvtrace.autoencoders", "AutoencoderSpec.fit"),
    ("autoencoders.encode", "mvtrace.autoencoders", "_SubjectEncoderMixin.encode_subject"),
    ("nn.forward", "mvtrace.nn", "MLP.forward_cache"),
    ("nn.forward", "mvtrace.nn", "MLP.forward"),
    ("nn.backward", "mvtrace.nn", "MLP.backward_cache"),
    ("nn.adam", "mvtrace.nn", "adam_step"),
    ("trace_regression.lipschitz", "mvtrace.trace_regression", "lipschitz_constant"),
    ("trace_regression.mfista", "mvtrace.trace_regression", "fit_mfista"),
]

class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.counters: dict[str, float] = {}
        self.epoch_losses: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, IndexError, TypeError):
                    # a changed signature or result: the counts go missing,
                    # the run goes on
                    self.count(f"{name}.unreadable")
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "mvtrace" or k.startswith("mvtrace.")]
        for name, module_name, path in BOUNDARIES:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if owner_name:
                # a method: replace it on its class only
                self._replace(owner, attr, original, self._wrap(name, original))
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, alias, original, wrapped)

    def _replace(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def total(self, name: str) -> float | None:
        """Summed duration of the spans called ``name``; None if absent."""
        if self.is_absent(name):
            return None
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_total(self, name: str) -> float | None:
        if self.is_absent(name):
            return None
        return sum(t for (n, *_), t in zip(self.spans, self.self_times()) if n == name)

    def calls(self, name: str) -> int | None:
        if self.is_absent(name):
            return None
        return sum(1 for n, *_ in self.spans if n == name)

    def is_absent(self, name: str) -> bool:
        return any(n == name and f"{module}.{path}" in self.absent
                   for n, module, path in BOUNDARIES)


def _after_fit(tracer: Tracer, args, model) -> None:
    # args: (spec, subjects, seed)
    spec, subjects = args[0], args[1]
    samples = sum(s.x_task.shape[0] for s in subjects)
    tracer.count("autoencoders.sample_epochs", samples * spec.epochs)
    losses = [loss[0] if isinstance(loss, tuple) else loss
              for loss in getattr(model, "epoch_losses", [])]
    tracer.epoch_losses.append([float(v) for v in losses])


def _after_mfista(tracer: Tracer, args, fit) -> None:
    tracer.count("trace_regression.iterations", fit.iterations)
    tracer.count("trace_regression.not_converged", 0 if fit.converged else 1)


# spans whose self time no layer claims
_CONTAINERS = ("cli.main", "evaluation.run_cv", "evaluation.run_fold")

_AFTER = {
    "autoencoders.fit": _after_fit,
    "trace_regression.mfista": _after_mfista,
}


def layer_metrics(command: Tracer, generate: Tracer,
                  traced_median: float, untraced_median: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced command and one traced generate, each
    the only root (span 0) of its tracer.

    ``trace.unattributed_s`` is the self time of the command and of the CV
    containers: time that no layer span below them covers.  The overhead
    compares the medians of the traced and the untraced commands of the run.
    """
    def ratio(num, den, scale=1.0):
        if num is None or den is None:
            return None
        return scale * num / den if den else 0.0

    def counter(key, span_name):
        """A count taken from results; None if the span or its results are gone."""
        if command.is_absent(span_name) or f"{span_name}.unreadable" in command.counters:
            return None
        return command.counters.get(key, 0)

    fit_s = command.total("autoencoders.fit")
    mfista_s = command.total("trace_regression.mfista")
    lipschitz_s = command.total("trace_regression.lipschitz")
    iters = counter("trace_regression.iterations", "trace_regression.mfista")
    steps = command.calls("nn.adam")
    overhead = traced_median - untraced_median
    return {
        "synth.generate_s": generate.total("synth.generate"),
        "synth.write_s": generate.total("synth.write"),
        "data.load_s": command.total("data.load"),
        "data.load_calls": command.calls("data.load"),
        "mesh.laplacian_s": command.total("mesh.laplacian"),
        "autoencoders.fit_s": fit_s,
        "autoencoders.fit_calls": command.calls("autoencoders.fit"),
        "autoencoders.fit_self_s": command.self_total("autoencoders.fit"),
        "autoencoders.samples_per_s": ratio(
            counter("autoencoders.sample_epochs", "autoencoders.fit"), fit_s),
        "autoencoders.encode_s": command.total("autoencoders.encode"),
        "nn.forward_s": command.total("nn.forward"),
        "nn.backward_s": command.total("nn.backward"),
        "nn.adam_s": command.total("nn.adam"),
        "nn.steps": steps,
        "nn.step_ms": ratio(fit_s, steps, 1e3),
        "trace_regression.lipschitz_s": lipschitz_s,
        "trace_regression.mfista_s": mfista_s,
        "trace_regression.mfista_iters": iters,
        "trace_regression.mfista_iter_ms": ratio(
            None if mfista_s is None or lipschitz_s is None else mfista_s - lipschitz_s,
            iters, 1e3),
        "trace_regression.fits_not_converged": counter(
            "trace_regression.not_converged", "trace_regression.mfista"),
        "evaluation.run_cv_s": command.total("evaluation.run_cv"),
        "evaluation.fold_self_s": command.self_total("evaluation.run_fold"),
        "evaluation.significance_s": command.total("evaluation.significance"),
        "io.write_s": command.self_total("io.write"),
        "cli.self_s": command.self_times()[0],
        "trace.spans": len(command.spans),
        "trace.wall_s": traced_median,
        "trace.untraced_wall_s": untraced_median,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / untraced_median,
        "trace.unattributed_s": sum(
            t for (n, *_), t in zip(command.spans, command.self_times()) if n in _CONTAINERS),
    }
