"""Outside-in tracing of a ``maxbv`` run.

``install`` replaces the public functions of each maxbv module with timing
wrappers.  A function imported by name (``from .paths import
running_max_tables``) is bound in the importing module too, so the wrapper
is bound wherever the original object is.  Each call records a span: name,
thread, start, end, parent span (in the same thread) and a few counts.  The
``mc_collect`` wrapper also wraps the ``task`` and ``combine`` callables it
receives, so that task, fold and driver time can be told apart, and tags
each task span with the module that called the driver.

Spans stay in memory; ``Tracer.metrics`` turns them into the per-layer
metrics and ``Tracer.dump`` writes them out when the run ends.  Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time

# modules whose public functions are all wrapped
_PLAIN_MODULES = (
    "paths", "cylindrical", "malliavin", "density",
    "concentration", "fluctuation", "perimeter",
)
_SAMPLERS = ("walk_sums_batch", "bridge_sums_batch", "brownian_values_batch")
# modules a Monte Carlo task is attributed to, innermost first
_OWNERS = ("malliavin", "concentration", "fluctuation", "perimeter")
_FLUCT_EXACT = (
    "andersen_series_check", "halfline_prob_exact", "halfline_prob_float",
    "bridge_stay_prob_exact", "rational_str",
)
_PERIM_EXACT = ("halfspace_perimeter", "corollary_bounds_exact")
_KERNEL_ESTIMATORS = (
    "chain_max_integrated", "split_gap_density_mc", "chain_max_estimator",
)
_CYLINDRICAL_METHODS = ("value", "directional", "second_directional")


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "thread",
                 "owner", "nodes", "call", "label", "width")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child = 0.0
        self.owner = None
        self.nodes = 0
        self.call = None  # the mc_collect span a task or fold span ran under
        self.label = None
        self.width = 1  # pool width, on mc_collect spans
        self.end = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.mc_calls: list[Span] = []
        self.kernel: list[tuple[int, int]] = []  # (effective, drawn)
        self.conditioned: list[tuple[int, int]] = []  # (conditioned, drawn)
        self.written_bytes = 0
        self._local = threading.local()

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)

    def wrap(self, name, fn, after=None):
        """Timing wrapper; ``after(span, args, result)`` records counts, with
        ``args`` the call's arguments by name."""
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, _Arguments(sig, args, kwargs), result)
            return result

        return wrapper

    def owner(self) -> str:
        for span in reversed(self._stack()):
            module = span.name.split(".", 1)[0]
            if module in _OWNERS:
                return module
        return "other"

    # -- the Monte Carlo driver ------------------------------------------
    def wrap_mc_collect(self, fn, n_substreams: int):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def mc_collect(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            streams = min(n_substreams, int(a["samples"]))
            width = 1 if a["workers"] == 1 or streams == 1 else min(a["workers"], streams)
            owner = tracer.owner()
            span = tracer._open("sampling.mc_collect")
            span.width = width
            a["task"] = tracer._inner("sampling.task", a["task"], span, owner)
            a["combine"] = tracer._inner("sampling.fold", a["combine"], span, owner)
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                tracer._close(span)
                tracer.mc_calls.append(span)

        return mc_collect

    def _inner(self, name, fn, call, owner):
        tracer = self

        def inner(*args):
            span = tracer._open(name)
            span.call, span.owner = call, owner
            try:
                return fn(*args)
            finally:
                tracer._close(span)

        return inner

    # -- results --------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        tot: dict[str, float] = {}
        nodes: dict[str, int] = {}
        calls: dict[str, int] = {}
        self_t: dict[str, float] = {}
        exp: dict[str, float] = {}
        stat_self: dict[str, float] = {}
        per_call: dict[int, float] = {}
        for s in self.spans:
            tot[s.name] = tot.get(s.name, 0.0) + s.duration
            self_t[s.name] = self_t.get(s.name, 0.0) + s.self_time
            nodes[s.name] = nodes.get(s.name, 0) + s.nodes
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.name == "experiments.run_experiment":
                exp[s.label] = exp.get(s.label, 0.0) + s.duration
            if s.call is not None:
                per_call[id(s.call)] = per_call.get(id(s.call), 0.0) + s.duration
                if s.name == "sampling.task":
                    stat_self[s.owner] = stat_self.get(s.owner, 0.0) + s.self_time

        def t(name):
            return tot.get(name, 0.0)

        def ns_per_node(names):
            secs = sum(t(n) for n in names)
            count = sum(nodes.get(n, 0) for n in names)
            return 1e9 * secs / count if count else 0.0

        samplers = [f"sampling.{f}" for f in _SAMPLERS]
        capacity = sum(c.width * c.duration for c in self.mc_calls)
        driver = sum(
            c.duration - per_call.get(id(c), 0.0) / c.width for c in self.mc_calls
        )
        task, fold = t("sampling.task"), t("sampling.fold")
        eff_num = sum(e for e, _ in self.kernel)
        eff_den = sum(d for _, d in self.kernel)
        cond_num = sum(c for c, _ in self.conditioned)
        cond_den = sum(d for _, d in self.conditioned)
        out = {
            "paths.tables_s": t("paths.running_max_tables"),
            "paths.tables_ns_per_node": ns_per_node(["paths.running_max_tables"]),
            "paths.tables_calls": float(calls.get("paths.running_max_tables", 0)),
            "paths.split_stats_s": t("paths.segment_split_stats"),
            "paths.split_stats_ns_per_node": ns_per_node(["paths.segment_split_stats"]),
            "paths.top_two_gap_s": t("paths.top_two_gap"),
            "paths.wiener_s": t("paths.wiener_integral_batch"),
            "sampling.batch_s": sum(t(n) for n in samplers),
            "sampling.batch_nodes": float(sum(nodes.get(n, 0) for n in samplers)),
            "sampling.batch_ns_per_node": ns_per_node(samplers),
            "sampling.task_s": task,
            "sampling.fold_s": fold,
            "sampling.driver_s": driver,
            "sampling.chunks": float(calls.get("sampling.task", 0)),
            "sampling.pool_busy": task / capacity if capacity else 0.0,
            "sampling.pool_wait_s": capacity - task - fold,
            "cylindrical.eval_s": sum(
                t(f"cylindrical.CylindricalFunction.{m}") for m in _CYLINDRICAL_METHODS
            ),
            "cylindrical.calls": float(sum(
                calls.get(f"cylindrical.CylindricalFunction.{m}", 0)
                for m in _CYLINDRICAL_METHODS
            )),
            "malliavin.adjoint2_self_s": self_t.get("malliavin.second_adjoint_batch", 0.0),
            "malliavin.kernel_weights_s": t("malliavin.KernelConfig.weights"),
            "malliavin.statistic_self_s": stat_self.get("malliavin", 0.0),
            "malliavin.kernel_eff_ratio": eff_num / eff_den if eff_den else 0.0,
            "concentration.statistic_self_s": stat_self.get("concentration", 0.0),
            "concentration.conditioned_ratio": cond_num / cond_den if cond_den else 0.0,
            "fluctuation.statistic_self_s": stat_self.get("fluctuation", 0.0),
            "perimeter.statistic_self_s": stat_self.get("perimeter", 0.0),
            "fluctuation.exact_s": sum(
                self_t.get(f"fluctuation.{f}", 0.0) for f in _FLUCT_EXACT
            ),
            "perimeter.exact_s": sum(
                self_t.get(f"perimeter.{f}", 0.0) for f in _PERIM_EXACT
            ),
            "density.quad_s": sum(
                (v for k, v in self_t.items() if k.startswith("density.")), 0.0
            ),
            "reporting.write_s": t("reporting.write_csv") + t("reporting.write_result_csv"),
            "reporting.bytes": float(self.written_bytes),
            "cli.config_s": t("cli.load_config"),
        }
        for exp_id, secs in exp.items():
            out[f"experiments.{exp_id}_s"] = secs
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s.start for s in self.spans), default=0.0)
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fp:
            for i, s in enumerate(self.spans):
                fp.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "label": s.label,
                    "parent": index.get(id(s.parent)),
                    "thread": s.thread,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "self": s.self_time,
                    "owner": s.owner,
                    "nodes": s.nodes,
                }) + "\n")


class _Arguments:
    """A call's arguments by name, bound only when asked for: binding costs
    more than most of the calls it would describe."""

    def __init__(self, sig, args, kwargs):
        self._sig, self._args, self._kwargs = sig, args, kwargs

    def first(self):
        return self._args[0] if self._args else next(iter(self._kwargs.values()))

    def __getitem__(self, name):
        return self._sig.bind(*self._args, **self._kwargs).arguments[name]


def _size(value) -> int:
    return int(getattr(value, "size", 0))


def _rebind(original, wrapper) -> None:
    """Bind ``wrapper`` wherever a maxbv module binds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "maxbv" or name.startswith("maxbv."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every maxbv layer with ``tracer``."""
    import importlib

    mods = {
        name: importlib.import_module(f"maxbv.{name}")
        for name in _PLAIN_MODULES + ("sampling", "experiments", "reporting", "cli")
    }

    def count_input(span, bound, result):
        span.nodes = _size(bound.first())

    def count_output(span, bound, result):
        span.nodes = _size(result)

    def kernel(span, bound, result):
        tracer.kernel.append((result.effective_samples, int(bound["samples"])))

    def ladder(span, bound, result):
        tracer.conditioned.append((result[0].samples, int(bound["samples"])))

    def double_max(span, bound, result):
        tracer.conditioned.append((result[0].conditioned, int(bound["samples"])))

    after = {
        "paths.running_max_tables": count_input,
        "paths.segment_split_stats": count_input,
        "concentration.excess_conditional_ladder": ladder,
        "concentration.double_max_ladder": double_max,
        **{f"malliavin.{f}": kernel for f in _KERNEL_ESTIMATORS},
    }

    for modname in _PLAIN_MODULES:
        mod = mods[modname]
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{modname}.{attr}"
                _rebind(obj, tracer.wrap(name, obj, after=after.get(name)))

    sampling = mods["sampling"]
    for attr in _SAMPLERS:
        obj = getattr(sampling, attr)
        wrapper = tracer.wrap(f"sampling.{attr}", obj, after=count_output)
        # sampling's own namespace is left alone, so brownian_values_batch's
        # inner call to walk_sums_batch is not counted twice
        for modname in _PLAIN_MODULES + ("experiments",):
            if getattr(mods[modname], attr, None) is obj:
                setattr(mods[modname], attr, wrapper)
    _rebind(sampling.mc_collect,
            tracer.wrap_mc_collect(sampling.mc_collect, sampling.N_SUBSTREAMS))

    cyl = mods["cylindrical"].CylindricalFunction
    for method in _CYLINDRICAL_METHODS:
        setattr(cyl, method, tracer.wrap(
            f"cylindrical.CylindricalFunction.{method}", getattr(cyl, method)))
    kcfg = mods["malliavin"].KernelConfig
    kcfg.weights = tracer.wrap("malliavin.KernelConfig.weights", kcfg.weights)

    experiments = mods["experiments"]
    def exp_id(span, bound, result):
        span.label = bound["spec"].exp_id

    experiments.run_experiment = tracer.wrap(
        "experiments.run_experiment", experiments.run_experiment, after=exp_id
    )

    def written(span, bound, result):
        tracer.written_bytes += os.path.getsize(bound["path"])

    cli = mods["cli"]
    cli.load_config = tracer.wrap("cli.load_config", cli.load_config)
    # cli's names only: write_result_csv calls write_csv inside reporting
    for attr in ("write_csv", "write_result_csv"):
        setattr(cli, attr, tracer.wrap(f"reporting.{attr}", getattr(cli, attr),
                                       after=written))
