"""Outside-in tracer for dpdlab: wraps the program's public functions and
methods where they are called, and aggregates spans in memory.

Nothing in the program changes.  A free function is replaced in every dpdlab
module that binds it (`ila` imports `pa_forward`, `ls_fit`, `train` and others
with `from ... import`, so patching only the defining module would miss those
calls); `architecture_search` imports `training.train` when it runs, so the
replacement in `training` covers it.  Methods are replaced on their class.
`Tracer.installed()` puts the wrappers in place for one block and restores the
originals afterwards.

Each span records its name, duration and the time its child spans covered; a
span's self time is its duration minus that child time.  Spans are folded into
per-name totals as they close, so memory stays flat however long the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Layers are the program's modules; `config` is measured with `cli`.
LAYERS = ("signal", "pa_sim", "mpm", "agmpnn", "rvftdnn", "training", "ila", "cli")
LAYER_OF_MODULE = {"config": "cli"}

# (module, function): wrapped wherever a dpdlab module binds it.  Some names
# here have no metric of their own; they are wrapped so that their time counts
# toward their own layer's self time rather than their caller's.
FUNCTIONS = (
    ("signal", "generate_waveform"),
    ("signal", "align"),
    ("signal", "nmse_db"),
    ("signal", "delayed_matrix"),
    ("pa_sim", "pa_forward"),
    ("mpm", "build_basis"),
    ("mpm", "ls_fit"),
    ("rvftdnn", "architecture_search"),
    ("training", "train"),
    ("training", "adam_step"),
    ("training", "validation_nmse_db"),
    ("ila", "run_ila"),
    ("ila", "fit_predistorter"),
    ("ila", "fit_model_on_data"),
    ("ila", "linearization_nmse_db"),
    ("ila", "sweep_taps"),
    ("ila", "reports_to_csv"),
    ("config", "load_config"),
    ("cli", "dispatch"),
)

# (module, class, method): wrapped on the class; the span is "<module>.<method>".
METHODS = (
    ("mpm", "MpmCoefficients", "predict"),
    ("agmpnn", "AgmpnnModel", "init"),
    ("agmpnn", "AgmpnnModel", "predict"),
    ("agmpnn", "AgmpnnModel", "loss_and_gradient"),
    ("agmpnn", "AgmpnnModel", "with_param_vector"),
    ("rvftdnn", "RvftdnnModel", "init"),
    ("rvftdnn", "RvftdnnModel", "predict"),
    ("rvftdnn", "RvftdnnModel", "loss_and_gradient"),
    ("rvftdnn", "RvftdnnModel", "with_param_vector"),
)

SEARCH_SPAN = "rvftdnn.architecture_search"


def cell_kind(spec) -> str:
    """Cell label of an ILA model spec: the family, `agmpnn_cold` without warm start."""
    if spec.kind == "agmpnn" and not spec.warm_start:
        return "agmpnn_cold"
    return spec.kind


def _argument(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


class Tracer:
    """Span aggregates for one traced pass."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.missing: list[str] = []
        # counts taken at the span boundaries
        self.epochs = 0
        self.best_epochs = 0
        self.candidates = 0
        self.basis_bytes = 0
        self.cell_s = defaultdict(list)
        self._child_s: list[float] = []
        self._open: list[str] = []
        self._hooks = {
            "training.train": self._on_train,
            "mpm.ls_fit": self._on_ls_fit,
            "ila.run_ila": self._on_run_ila,
        }

    # ------------------------------------------------------------------
    # counts recorded when a span closes
    # ------------------------------------------------------------------

    def _on_train(self, args, kwargs, result, duration) -> None:
        history = result[1]
        self.epochs += history.stopped_epoch
        self.best_epochs += history.best_epoch
        if SEARCH_SPAN in self._open:
            self.candidates += 1

    def _on_ls_fit(self, args, kwargs, result, duration) -> None:
        rows, cols = _argument(args, kwargs, 0, "basis").data.shape
        self.basis_bytes += rows * cols * 16

    def _on_run_ila(self, args, kwargs, result, duration) -> None:
        self.cell_s[cell_kind(_argument(args, kwargs, 2, "spec"))].append(duration)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name: str, layer: str, func):
        child_s = self._child_s
        open_spans = self._open
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            open_spans.append(name)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - child_s.pop()
                open_spans.pop()
                if child_s:
                    child_s[-1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += own
                self.layer_self_s[layer] += own
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        restore = []
        try:
            modules = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "dpdlab" or key.startswith("dpdlab."))]
            for mod_name, attr in FUNCTIONS:
                module = sys.modules.get(f"dpdlab.{mod_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                layer = LAYER_OF_MODULE.get(mod_name, mod_name)
                wrapper = self._wrap(f"{mod_name}.{attr}", layer, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, value))
                            setattr(mod, key, wrapper)
            for mod_name, cls_name, attr in METHODS:
                cls = getattr(sys.modules.get(f"dpdlab.{mod_name}"), cls_name, None)
                raw = vars(cls).get(attr) if cls is not None else None
                if raw is None:
                    self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                    continue
                layer = LAYER_OF_MODULE.get(mod_name, mod_name)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(f"{mod_name}.{attr}", layer, raw.__func__))
                else:
                    wrapper = self._wrap(f"{mod_name}.{attr}", layer, raw)
                restore.append((cls, attr, raw))
                setattr(cls, attr, wrapper)
            yield self
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}

        def timed(name: str, parts=("calls", "s")) -> None:
            if "calls" in parts:
                out[f"{name}.calls"] = (self.calls[name], "count")
            if "s" in parts:
                out[f"{name}.s"] = (self.total_s[name], "s")
            if "self_s" in parts:
                out[f"{name}.self_s"] = (self.self_s[name], "s")

        for name in ("agmpnn.loss_and_gradient", "agmpnn.predict",
                     "rvftdnn.loss_and_gradient", "rvftdnn.predict",
                     "rvftdnn.architecture_search",
                     "training.adam_step", "training.validation_nmse_db",
                     "mpm.build_basis", "mpm.ls_fit", "mpm.predict",
                     "pa_sim.pa_forward", "signal.generate_waveform", "signal.align"):
            timed(name)
        timed("training.train", ("calls", "s", "self_s"))
        timed("ila.run_ila", ("calls", "self_s"))
        for name in ("agmpnn.with_param_vector", "rvftdnn.with_param_vector",
                     "ila.fit_predistorter", "ila.linearization_nmse_db"):
            timed(name, ("s",))
        timed("cli.dispatch", ("self_s",))

        searches = self.calls[SEARCH_SPAN]
        out["rvftdnn.search.candidates"] = (self.candidates, "count")
        out["rvftdnn.search.useful_ratio"] = (
            searches / self.candidates if self.candidates else 0.0, "ratio")
        out["training.epochs"] = (self.epochs, "count")
        out["training.wasted_epoch_ratio"] = (
            (self.epochs - self.best_epochs) / self.epochs if self.epochs else 0.0, "ratio")
        out["mpm.ls_fit.basis_mb"] = (self.basis_bytes / 2 ** 20, "MiB")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self_s[layer], "s")
        for kind in ("mpm", "agmpnn", "agmpnn_cold", "rvftdnn"):
            times = self.cell_s.get(kind)
            out[f"cell_s.{kind}"] = (statistics.median(times) if times else 0.0, "s")
        return out

    def attributed_s(self) -> float:
        """Sum of all layers' self time."""
        return sum(self.layer_self_s.values())
