"""Span tracer for the traced benchmark run.

The tracer wraps the calls into each ealab module from the outside: it swaps
module attributes (``engines._make_offspring``, ``rng.BinomialSampler.__init__``
and so on) for timed wrappers and puts them back afterwards, so ealab's own
source stays untouched. Spans are aggregated in memory per layer name as
[count, total, child time, child spans]; a layer's self time is its total
minus the time its child spans cover, less the calibrated cost of the timer
calls themselves.

Pool workers are forked from the benchmark process after the wrappers are in
place, so they trace into their inherited copy of the tracer. Each pooled run
carries its span deltas back on the returned result, and the parent merges
and strips them before the result reaches the caller. The installed tracer is
therefore a module global: it is the one thing a forked worker can find.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from ealab import cli, engines, harness, rng, stats, takeover, trees

ACTIVE = None

_TRACE_ATTR = "_bench_trace"
_run_one = None     # engines._run_one as found at install()


def _noop(arg):
    return arg


class Tracer:
    def __init__(self):
        self.spans = {}       # layer name -> [count, total_s, child_s, child_spans]
        self.counts = {}      # counter name -> int
        self.stack = [[0.0, 0, "root"]]
        self.undo = []            # (owner, attribute, original) swapped in
        self.inner_s, self.outer_s = self._calibrate()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, post=None):
        """Wrap fn so each call is a span of layer `name`. post(args, kwargs,
        out, frame) runs after the span closes; its time is charged to no layer."""
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0, name]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += frame[0]
                rec[3] += frame[1]
            if post is not None:
                post(args, kwargs, out, frame)
            parent = stack[-1]
            parent[0] += clock() - t0
            parent[1] += 1
            return out

        return traced

    def _calibrate(self, calls=20000):
        # inner: what a span adds to its own measured duration;
        # outer: what it adds to its parent outside that duration
        traced = self.span("calibrate.child", _noop)
        outer = self.span("calibrate.parent", lambda: [traced(k) for k in range(calls)])
        plain = perf_counter()
        for k in range(calls):
            _noop(k)
        plain = (perf_counter() - plain) / calls
        outer()
        child = self.spans.pop("calibrate.child")
        parent = self.spans.pop("calibrate.parent")
        inner_s = max(0.0, child[1] / calls - plain)
        outer_s = max(0.0, (parent[1] - parent[2]) / calls)
        return inner_s, outer_s

    def snapshot(self):
        return ({k: tuple(v) for k, v in self.spans.items()}, dict(self.counts))

    def delta(self, before):
        spans0, counts0 = before
        zero = (0, 0.0, 0.0, 0)
        spans = {k: tuple(a - b for a, b in zip(v, spans0.get(k, zero)))
                 for k, v in self.spans.items()}
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()}
        return ({k: v for k, v in spans.items() if v[0]},
                {k: v for k, v in counts.items() if v})

    def merge(self, delta):
        spans, counts = delta
        for k, v in spans.items():
            rec = self.spans.setdefault(k, [0, 0.0, 0.0, 0])
            for j in range(4):
                rec[j] += v[j]
        for k, v in counts.items():
            self.count(k, v)

    def self_s(self, delta, name):
        """Self time of layer `name` in a delta, timer costs removed."""
        count, total, child, nchild = delta[0].get(name, (0, 0.0, 0.0, 0))
        return max(0.0, total - child - count * self.inner_s - nchild * self.outer_s)


class _TracedFitness:
    """Mixin for a fitness object whose value() is timed as engines.evaluate.

    Pickles as the wrapped original, re-wrapped on arrival, so a pool worker
    traces into its own copy of the tracer."""

    def __reduce__(self):
        return (fitness, (self._bench_inner,))


_PROXY_CLASSES = {}


def fitness(f):
    """f unchanged when no tracer is installed, else a traced copy of f that
    still passes isinstance checks against f's class."""
    if ACTIVE is None:
        return f
    cls = _PROXY_CLASSES.get(type(f))
    if cls is None:
        cls = type("Traced" + type(f).__name__, (_TracedFitness, type(f)), {})
        _PROXY_CLASSES[type(f)] = cls
    g = cls.__new__(cls)
    g.__dict__.update(f.__dict__)
    g._bench_inner = f
    g.value = ACTIVE.span("engines.evaluate", f.value)
    return g


class _CountingPool(ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        ACTIVE.count("engines.transport.pool_starts")
        super().__init__(*args, **kwargs)


def _traced_run_one(job):
    # runs in a pool worker: attach this run's span deltas to its result
    before = ACTIVE.snapshot()
    result = _run_one(job)
    object.__setattr__(result, _TRACE_ATTR, ACTIVE.delta(before))
    return result


def _post_mutate(args, kwargs, out, frame):
    masks = args[1]
    off, parents = out
    ACTIVE.count("engines.mutate.offspring", len(off))
    ACTIVE.count("engines.mutate.changed",
                 sum(1 for child, i in zip(off, parents) if child != masks[i]))


def _post_select(args, kwargs, out, frame):
    par_fits, off_fits, comma = args[3], args[5], args[6]
    ACTIVE.count("engines.select.candidates",
                 len(off_fits) + (0 if comma else len(par_fits)))


def _post_run(args, kwargs, out, frame):
    ACTIVE.count("engines.iterations", len(out.best_fitness_trace) - 1)


def _post_batch(args, kwargs, out, frame):
    for result in out:
        carried = vars(result).pop(_TRACE_ATTR, None)
        if carried is not None:
            ACTIVE.merge(carried)
    workers = args[3] if len(args) > 3 else kwargs.get("workers")
    if workers is not None and workers > 1:
        t0 = perf_counter()
        size = len(pickle.dumps(out))
        ACTIVE.count("engines.transport.result_bytes", size)
        rec = ACTIVE.spans.setdefault("engines.transport.pickle", [0, 0.0, 0.0, 0])
        rec[0] += 1
        rec[1] += perf_counter() - t0


def _post_emit(args, kwargs, out, frame):
    ACTIVE.count("harness.emit.bytes", len(out))


def _post_once(args, kwargs, out, frame):
    if out is None:
        ACTIVE.count("takeover.censored_steps", frame[1])


def _traced_step(tracer, step):
    # the same EvolutionState.step serves takeover runs and family trees
    in_takeover = tracer.span("takeover.step", step)
    in_trees = tracer.span("trees.family.step", step)
    stack = tracer.stack

    def traced(self):
        if stack[-1][2] == "trees.family":
            return in_trees(self)
        return in_takeover(self)

    return traced


def install():
    """Create the tracer and swap every traced attribute; returns it."""
    global ACTIVE, _run_one
    if ACTIVE is not None:
        raise RuntimeError("tracer already installed")
    tr = ACTIVE = Tracer()
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    _run_one = engines._run_one
    batch = tr.span("engines.batch", engines.run_batch, _post_batch)
    emit = tr.span("harness.emit", harness.emit, _post_emit)
    summarize = tr.span("stats.summarize", stats.summarize)
    patch(engines, "_make_offspring",
          tr.span("engines.mutate", engines._make_offspring, _post_mutate))
    patch(engines, "_select", tr.span("engines.select", engines._select, _post_select))
    patch(engines, "run", tr.span("engines.run", engines.run, _post_run))
    patch(engines, "_run_one", _traced_run_one)
    patch(engines, "run_batch", batch)
    patch(engines, "ProcessPoolExecutor", _CountingPool)
    patch(engines.EvolutionState, "step", _traced_step(tr, engines.EvolutionState.step))
    patch(rng.BinomialSampler, "__init__",
          tr.span("rng.table_build", rng.BinomialSampler.__init__))
    patch(harness, "run_batch", batch)
    patch(harness, "emit", emit)
    patch(cli, "emit", emit)
    patch(harness, "parse_table", tr.span("harness.parse", harness.parse_table))
    patch(harness, "mannwhitneyu",
          tr.span("harness.dominance.test", harness.mannwhitneyu))
    make_fitness = harness.make_fitness
    patch(harness, "make_fitness", lambda *a, **k: fitness(make_fitness(*a, **k)))
    for module in (stats, harness, takeover):
        patch(module, "summarize", summarize)
    patch(takeover, "_takeover_once",
          tr.span("takeover.once", takeover._takeover_once, _post_once))
    patch(takeover, "_takeover_once_marked",
          tr.span("takeover.once", takeover._takeover_once_marked, _post_once))
    patch(takeover, "measure_takeover", tr.span("takeover.measure", takeover.measure_takeover))
    patch(takeover, "measure_level_time",
          tr.span("takeover.measure", takeover.measure_level_time))
    patch(takeover, "run_ea0", tr.span("takeover.ea0", takeover.run_ea0))
    patch(trees, "mutate_mask", tr.span("trees.mutate", trees.mutate_mask))
    patch(trees, "simulate_family_tree",
          tr.span("trees.family", trees.simulate_family_tree))
    tr.undo = patches
    return tr


def uninstall():
    global ACTIVE
    for owner, attr, old in reversed(ACTIVE.undo):
        setattr(owner, attr, old)
    ACTIVE = None
