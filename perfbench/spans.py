"""Span tracing of the ``dnls`` package from outside its source.

``install`` replaces every public function of each package module with a
wrapper that records a span, and rebinds the wrapper under every name the
package bound the original to: ``cli``, ``diagnostics`` and ``breather``
import ``integrate`` by name, so patching ``dnls.integrator`` alone would
miss their calls.  Three call sites that are not module functions get
their own spans: the RHS closure returned by ``lattice.make_rhs``
(``lattice.rhs``), ``sample_values`` on the sampler returned by
``DrivingSpec.sampler`` (``driving.sample``), and the thread pool the CLI
fans breather seeds out to (``breather.fanout``).

Spans are kept in memory.  Each span's self time is its duration minus the
spans it directly caused on the same thread; pool-thread spans take the
fan-out span as parent, but do not count against its self time, because
they overlap each other and the waiting parent.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from time import perf_counter

LAYERS = ("lattice", "driving", "integrator", "diagnostics", "breather",
          "config", "output", "cli")


class Span:
    __slots__ = ("name", "parent", "tid", "start", "end", "child", "info")

    def __init__(self, name, parent, tid):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.start = self.end = 0.0
        self.child = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "root", None)
        span = Span(name, parent, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        parent = span.parent
        if parent is not None and parent.tid == span.tid:
            parent.child += span.duration

    def wrap(self, fn, name: str, after=None):
        """Wrapper recording one span per call of ``fn``; ``after(span,
        args, kwargs, result)`` runs once the span is closed.  Same logic as
        ``open``/``close``, inlined: the RHS wrapper runs once per stage."""
        local, record, clock, ident = (self._local, self.spans.append,
                                       perf_counter, threading.get_ident)

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else getattr(local, "root", None)
            span = Span(name, parent, ident())
            stack.append(span)
            record(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = end = clock()
                stack.pop()
                if parent is not None and parent.tid == span.tid:
                    parent.child += end - span.start
            if after is not None:
                after(span, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def pool_class(self, base):
        """Subclass of the executor ``base`` whose lifetime is a
        ``breather.fanout`` span and whose tasks run with it as parent."""
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._span = tracer.open("breather.fanout")

            def submit(self, fn, /, *args, **kwargs):
                parent = self._span

                def task():
                    tracer._local.root = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.root = None
                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    if self._span.end == 0.0:
                        tracer.close(self._span)

        return TracedPool


def _integrate_info(span, args, kwargs, traj):
    stats = traj.stats
    span.info = (stats.accepted, stats.rejected, stats.rhs_evals,
                 int(traj.times.size), int(traj.values.shape[1]))


def _find_breather_info(span, args, kwargs, sol):
    span.info = sol.iterations


def _pairs_info(fn):
    signature = inspect.signature(fn)

    def after(span, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n = len(bound.arguments["points"])
        w = bound.arguments["theiler_window"]
        # pairs i < j with j - i > w
        span.info = max(n - w - 1, 0) * max(n - w, 0) // 2
    return after


_AFTER = {"integrator.integrate": _integrate_info,
          "breather.find_breather": _find_breather_info}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of ``dnls``."""
    pkg = importlib.import_module("dnls")
    modules = {layer: importlib.import_module(f"dnls.{layer}")
               for layer in LAYERS}

    wrappers = {}
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name == "lattice.make_rhs":
                wrappers[id(fn)] = _wrap_factory(tracer, fn, name,
                                                 "lattice.rhs")
            elif name == "diagnostics.correlation_dimension":
                wrappers[id(fn)] = tracer.wrap(fn, name, _pairs_info(fn))
            else:
                wrappers[id(fn)] = tracer.wrap(fn, name, _AFTER.get(name))

    for ns in (pkg, *modules.values()):
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                setattr(ns, attr, wrappers[id(value)])

    spec_cls = modules["driving"].DrivingSpec
    make_sampler = spec_cls.sampler

    def sampler(self, n_sites):
        s = make_sampler(self, n_sites)
        s.sample_values = tracer.wrap(s.sample_values, "driving.sample")
        return s
    spec_cls.sampler = sampler

    cli = modules["cli"]
    if hasattr(cli, "ThreadPoolExecutor"):
        cli.ThreadPoolExecutor = tracer.pool_class(cli.ThreadPoolExecutor)


def _wrap_factory(tracer, factory, name, product_name):
    """Span for ``factory`` itself, and one per call of what it returns."""
    traced_factory = tracer.wrap(factory, name)

    def make(*args, **kwargs):
        return tracer.wrap(traced_factory(*args, **kwargs), product_name)
    make.__wrapped__ = factory
    return make


def layer_metrics(spans) -> tuple[dict, dict, list]:
    """Per-layer metrics of one traced workload run, raw counts for the
    workload's own expectations, and the counter cross-check failures."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_t[s.name] = self_t.get(s.name, 0.0) + s.self_time

    def t(name):
        return total.get(name, 0.0)

    integrates = [s for s in spans if s.name == "integrator.integrate"]
    rhs_in_integrate: dict[int, list] = {}
    for s in spans:
        if s.name == "lattice.rhs" and s.parent is not None \
                and s.parent.name == "integrator.integrate":
            rhs_in_integrate.setdefault(id(s.parent), []).append(s.duration)
    accepted = sum(s.info[0] for s in integrates)
    rejected = sum(s.info[1] for s in integrates)
    rhs_evals = sum(s.info[2] for s in integrates)
    samples = sum(s.info[3] for s in integrates)
    sample_bytes = sum(s.info[3] * s.info[4] * 16 for s in integrates)
    rhs_under = sum(sum(v) for v in rhs_in_integrate.values())
    attempted = accepted + rejected
    integ_self = self_t.get("integrator.integrate", 0.0)

    failures = []
    if calls.get("lattice.rhs", 0) != rhs_evals:
        failures.append(f"lattice.rhs calls {calls.get('lattice.rhs', 0)} "
                        f"!= sum of Trajectory.stats.rhs_evals {rhs_evals}")
    for s in integrates:
        acc, rej, evals = s.info[:3]
        seen = len(rhs_in_integrate.get(id(s), ()))
        if evals != (1 + 6 * (acc + rej) if acc + rej else 0) \
                or seen != evals:
            failures.append(f"integrate: rhs_evals {evals}, wrapped RHS "
                            f"calls {seen}, steps {acc}+{rej}")
            break

    solves = [s for s in spans if s.name == "breather.find_breather"]
    period_maps = calls.get("breather.period_map", 0)
    if period_maps != sum(s.info + 1 for s in solves):
        failures.append(f"breather.period_map calls {period_maps} != sum of "
                        f"find_breather iterations + 1 over {len(solves)} seeds")

    fanouts = [s for s in spans if s.name == "breather.fanout"]
    if fanouts:
        fanout = sum(s.duration for s in fanouts)
    elif solves:
        fanout = max(s.end for s in solves) - min(s.start for s in solves)
    else:
        fanout = 0.0

    metrics = {
        "lattice.rhs_calls": calls.get("lattice.rhs", 0),
        "lattice.rhs_s": t("lattice.rhs"),
        "lattice.rhs_us": 1e6 * t("lattice.rhs") / max(calls.get("lattice.rhs", 0), 1),
        "integrator.calls": len(integrates),
        "integrator.self_s": integ_self,
        "integrator.us_per_step": 1e6 * (integ_self + rhs_under) / max(attempted, 1),
        "integrator.steps_accepted": accepted,
        "integrator.steps_rejected": rejected,
        "integrator.accept_ratio": accepted / attempted if attempted else 0.0,
        "lattice.norm_sq_calls": calls.get("lattice.norm_sq", 0),
        "lattice.norm_sq_s": t("lattice.norm_sq"),
        "lattice.tail_mass_s": t("lattice.tail_mass"),
        "integrator.monitor_s": t("integrator.monitor_dissipation"),
        "integrator.samples": samples,
        "integrator.sample_mb": sample_bytes / 2 ** 20,
        "driving.sample_calls": calls.get("driving.sample", 0),
        "driving.sample_s": t("driving.sample"),
        "diagnostics.continuity_self_s": self_t.get("diagnostics.continuity_gap", 0.0),
        "diagnostics.contraction_self_s": self_t.get("diagnostics.contraction_rate", 0.0),
        "diagnostics.predict_verify_s": sum(
            v for k, v in total.items()
            if k.startswith(("diagnostics.predict_", "diagnostics.verify_",
                             "diagnostics.check_"))),
        "diagnostics.poincare_self_s": self_t.get("diagnostics.poincare_points", 0.0),
        "diagnostics.corr_dim_s": t("diagnostics.correlation_dimension"),
        "diagnostics.pairs": sum(s.info for s in spans
                                 if s.name == "diagnostics.correlation_dimension"),
        "breather.period_maps": period_maps,
        "breather.iterations": sum(s.info for s in solves),
        "breather.seed_s": sum(s.duration for s in solves),
        "breather.fanout_s": fanout,
        "breather.verify_s": t("breather.verify_breather"),
        "config.load_s": t("config.load_config"),
        "output.write_s": sum(v for k, v in total.items() if k.startswith("output.")),
        "cli.self_s": self_t.get("cli.main", 0.0),
    }
    counts = {
        "integrate_calls": len(integrates),
        "solves": len(solves),
        "breather_verifies": calls.get("breather.verify_breather", 0),
    }
    return metrics, counts, failures
