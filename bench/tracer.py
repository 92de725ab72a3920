"""Spans around the public functions of the bayesgof layers, from outside the package.

A wrapper replaces every module attribute that holds the original function,
so a name bound by ``from .binning import assign`` in ``gof`` is traced as
well as ``binning.assign`` itself.  Each span records its duration and, on
the thread that ran it, the time its child spans covered; self time is the
difference.  Spans opened on pool threads have no parent, so with several
workers a harness entry's self time includes its wait on the pool.
Statistics are aggregated in memory and read once the traced call ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "failures", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.failures = 0
        self.extra: dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self, modules) -> None:
        self.modules = list(modules)
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.bindings: dict[str, list[str]] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, call, count: bool):
        """Run call() as one span of ``name``; count it as a call if asked."""
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        failed = 0
        try:
            return call()
        except StopIteration:
            raise
        except BaseException:
            failed = 1
            raise
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                s = self.stats[name]
                s.calls += count
                s.total_s += duration
                s.self_s += duration - children[0]
                s.failures += failed

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            result = self._timed(name, lambda: fn(*args, **kwargs), True)
            if after is not None:
                with self._lock:
                    after(self.stats[name].extra, args, kwargs, result)
            return result

        return traced

    def iterate(self, name: str, iterable, count: bool = True):
        """Yield from iterable, timing each step as a span of ``name``."""
        it = iter(iterable)
        while True:
            try:
                item = self._timed(name, lambda: next(it), count)
            except StopIteration:
                return
            count = False
            yield item

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, name: str, after=None, wrapper=None) -> None:
        """Trace module.attr under every package module attribute bound to it."""
        original = getattr(module, attr)
        traced = wrapper(original) if wrapper else self.wrap(name, original, after)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)
                    self.bindings[name].append(f"{mod.__name__}.{key}")

    def method(self, cls, attr: str, name: str, after=None) -> None:
        self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], after))
        self.bindings[name].append(f"{cls.__module__}.{cls.__name__}.{attr}")

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def flat(self) -> dict[str, float]:
        out: dict[str, float] = {}
        with self._lock:
            for name, s in self.stats.items():
                out[f"{name}.calls"] = s.calls
                out[f"{name}.self_s"] = s.self_s
                out[f"{name}.total_s"] = s.total_s
                out[f"{name}.failures"] = s.failures
                for key, value in s.extra.items():
                    out[f"{name}.{key}"] = value
        return out


def _elements(extra, args, kwargs, result) -> None:
    extra["elements"] += np.size(result)


def _draws(extra, args, kwargs, result) -> None:
    extra["draws"] += args[2] if len(args) > 2 else kwargs["size"]


def _iterations(extra, args, kwargs, result) -> None:
    extra["iterations"] += result.iterations


def _chain(extra, args, kwargs, result) -> None:
    extra["iterations"] += result.iterations
    # the last chain's rates; a fixed seed repeats them exactly
    extra["accept_alpha0"] = result.accept_alpha0
    extra["accept_gamma"] = result.accept_gamma


def _replicates(per_config):
    def after(extra, args, kwargs, result) -> None:
        extra["replicates"] += per_config(args[0])

    return after


def install(tracer: Tracer, bayesgof) -> None:
    """Wrap the public functions of every layer that the benchmark reports."""
    probkit, binning, gof, models, harness, cli = (
        bayesgof.probkit, bayesgof.binning, bayesgof.gof,
        bayesgof.models, bayesgof.harness, bayesgof.cli,
    )
    for attr in ("chi2_upper_quantile", "normal_cdf", "chi2_cdf", "poisson_cdf"):
        tracer.function(probkit, attr, f"probkit.{attr}", _elements)

    stream_property = probkit.RngStream.__dict__["generator"]

    def open_stream(stream):
        # SeedSequence plus Philox are built on a stream's first use only
        if stream._gen is None:
            return tracer._timed("probkit.stream_open", lambda: stream_property.fget(stream), True)
        return stream_property.fget(stream)

    tracer._patch(probkit.RngStream, "generator", property(open_stream))

    tracer.function(binning, "assign", "binning.assign", _elements)
    tracer.function(binning, "assign_discrete_randomized", "binning.assign_discrete_randomized")
    tracer.function(binning, "equiprobable", "binning.equiprobable")

    tracer.function(gof, "pearson", "gof.pearson")
    tracer.function(gof, "posterior_chisq_continuous", "gof.posterior_chisq")
    tracer.function(gof, "posterior_chisq_discrete_randomized", "gof.posterior_chisq")
    tracer.function(gof, "plugin_chisq", "gof.plugin_chisq")
    tracer.function(gof, "grouped_chisq", "gof.grouped_chisq", _iterations)
    tracer.function(gof, "reference_auc", "gof.reference_auc")
    tracer.function(gof, "exceedance", "gof.exceedance")

    for cls in (models.NormalModel, models._PoissonBase, models.PoissonCommonRate,
                models.PoissonSaturated, models.PoissonExchangeable):
        for attr, after in (("posterior_draw", None), ("posterior_draws", _draws),
                            ("predictive_draw", None)):
            if attr in cls.__dict__:
                tracer.method(cls, attr, f"models.{attr}", after)
    tracer.method(models.PoissonExchangeable, "run_chain", "models.run_chain", _chain)

    tracer.function(harness, "null_calibration", "harness.null_calibration",
                    _replicates(lambda cfg: cfg.replicates))
    tracer.function(harness, "null_auc_distribution", "harness.null_auc_distribution",
                    _replicates(lambda cfg: cfg.replicates))
    tracer.function(harness, "power_study", "harness.power_study",
                    _replicates(lambda cfg: cfg.replicates * len(cfg.df_grid)))
    tracer.function(harness, "analyze", "harness.analyze")
    tracer.function(harness, "predictive_auc_test", "harness.predictive_auc_test")

    def stream_monitor(original):
        # a generator: time each step, and time pulling draws off the CLI's
        # line parser as a child span so parsing stays out of harness self time
        def traced(draw_stream, *args, **kwargs):
            draws = tracer.iterate("cli.monitor.parse", draw_stream)
            return tracer.iterate("harness.stream_monitor", original(draws, *args, **kwargs))

        return traced

    tracer.function(harness, "stream_monitor", "harness.stream_monitor", wrapper=stream_monitor)

    tracer.function(cli, "main", "cli.main")
    tracer.function(cli, "read_dataset", "cli.read_dataset")
