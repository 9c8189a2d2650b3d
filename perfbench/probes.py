"""Instrumentation the benchmark installs on percop's public names.

Two probes share one install/restore mechanism:

* ``Counter`` is always on.  It sums the solver states of every
  ``is_k_copwin`` call and timestamps each search candidate, which is what
  the untraced run needs for its state totals and per-candidate latency.
* ``Tracer`` adds spans around the public functions of every module, for the
  traced run's per-layer metrics.

Every wrapper replaces the name the caller actually resolves: a module global
for functions called by bare name inside percop, the attribute on the module
for calls written ``_solver.is_k_copwin``, and the class attribute for
methods.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

from clock import SpeedClock

_NO_OP = contextlib.nullcontext()


class Counter:
    """State totals and search candidate times, with no per-call timing."""

    # long ops (a large triple) may pause for calibration between solves
    CHECKPOINT_IN_OPS = True

    def __init__(self, lib):
        self.lib = lib
        self.clock = SpeedClock()
        self.states = 0
        self.candidates = 0
        self._candidate_t0 = None
        self._saved = []
        self._checkpoint = self.clock.checkpoint

    def patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self):
        self.patch(self.lib.solver, "is_k_copwin", self._count_states)
        self.patch(self.lib.search, "_gen_girth", self._mark_candidates)
        return self

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, op_id):
        return _NO_OP

    def span(self, name):
        return _NO_OP

    def _count_states(self, fn):
        @functools.wraps(fn)
        def is_k_copwin(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.states += result.state_count()
            if self.CHECKPOINT_IN_OPS:
                self.clock.checkpoint()
            return result

        return is_k_copwin

    def _mark_candidates(self, fn):
        """Time each search candidate as one op.

        ``search`` asks for candidate i+1 only after it has finished checking
        candidate i, so a candidate runs from one request to the next: its
        generation plus its target checks.
        """
        @functools.wraps(fn)
        def generator(spec, rng):
            inner = fn(spec, rng)
            while True:
                self.end_candidate()
                self._checkpoint()
                self.begin_candidate()
                try:
                    pg = next(inner)
                except StopIteration:
                    return
                yield pg

        return generator

    def begin_candidate(self):
        self.candidates += 1
        self._candidate_t0 = perf_counter()

    def end_candidate(self, keep=True):
        """Close the open candidate; ``keep=False`` drops one never tried."""
        if self._candidate_t0 is not None:
            if keep:
                self.clock.op(self._candidate_t0, perf_counter())
            else:
                self.candidates -= 1
            self._candidate_t0 = None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child", "hot", "note")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = self.child = 0.0
        self.hot = None
        self.note = None

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op,
                self.child, self.hot, self.note]


def _is_k_copwin_note(tracer, args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    in_ascent = any(
        tracer.spans[i].name == "solver.solve_cop_number" for i in tracer.stack
    )
    return [k, result.state_count(), in_ascent]


def _len_note(tracer, args, kwargs, result):
    return len(result)


def _parse_note(tracer, args, kwargs, result):
    return len(args[0])


def _trace_note(tracer, args, kwargs, result):
    return len(result["rounds"])


def _verify_note(tracer, args, kwargs, result):
    return result.states_explored


def _bool_note(tracer, args, kwargs, result):
    return bool(result)


class Tracer(Counter):
    """Spans at every module boundary, kept in memory until the run ends.

    A span records its layer name, start, end, parent span and operation id.
    Calls made hundreds of thousands of times per run (``Graph``
    construction, ``girth``, ``domination_number``) get no span of their
    own: their count and time are aggregated under the enclosing span.
    Calibration pauses happen only between ops.
    """

    CHECKPOINT_IN_OPS = False

    def __init__(self, lib):
        super().__init__(lib)
        self.spans = []
        self.stack = []
        self.op_id = None
        self.top_hot = {}
        self._hot_depth = 0
        # between search candidates the pause falls inside the search span;
        # count it as a child, so that the span's self time leaves it out
        self._checkpoint = self._hot("bench.calibrate", self.clock.checkpoint)

    def install(self):
        lib = self.lib
        self.patch(lib.solver, "is_k_copwin",
                   lambda fn: self._span("solver.is_k_copwin", self._count_states(fn),
                                         _is_k_copwin_note))
        self.patch(lib.search, "_gen_girth", self._mark_candidates)
        spans = [
            ("solver.solve_cop_number", [lib.solver], "solve_cop_number", _bool_note),
            ("solver.triple", [lib.solver], "triple", None),
            ("solver.extract_trace", [lib.solver], "extract_trace", _trace_note),
            ("solver.optimal_cop_move", [lib.solver.SolveResult], "optimal_cop_move", None),
            ("solver.verify_policy", [lib.solver], "verify_policy", _verify_note),
            ("corners.find_temporal_corners",
             [lib.corners, lib.search], "find_temporal_corners", _len_note),
            ("corners.find_k_temporal_corners",
             [lib.corners, lib.search, lib.constructions], "find_k_temporal_corners",
             _len_note),
            ("treewidth.exact_treewidth", [lib.treewidth], "exact_treewidth", None),
            ("treewidth.smooth", [lib.treewidth], "smooth", None),
            ("treewidth.bag_strategy", [lib.treewidth], "bag_strategy", None),
            ("instancefile.parse", [lib.instancefile], "parse", _parse_note),
            ("instancefile.serialize", [lib.instancefile], "serialize", None),
            ("graphs.dismantle", [lib.search], "dismantle", None),
            ("search.search", [lib.search], "search", None),
            ("search.check_targets", [lib.search], "check_targets", _bool_note),
            ("search.certify", [lib.search], "certify", None),
            ("periodic.pad", [lib.periodic], "pad", None),
            ("periodic.footprint",
             [lib.periodic, lib.search, lib.treewidth], "footprint", None),
        ]
        for layer, owners, attr, note in spans:
            for owner in owners:
                self.patch(owner, attr, lambda fn, l=layer, n=note: self._span(l, fn, n))
        hot = [
            ("graphs.Graph", [lib.graphs.Graph], "__init__"),
            ("graphs.girth", [lib.search], "girth"),
            ("graphs.domination_number", [lib.search, lib.solver], "domination_number"),
        ]
        for layer, owners, attr in hot:
            for owner in owners:
                self.patch(owner, attr, lambda fn, l=layer: self._hot(l, fn))
        return self

    def begin_candidate(self):
        super().begin_candidate()
        self.op_id = self.candidates - 1

    @contextlib.contextmanager
    def op(self, op_id):
        self.op_id = op_id
        with self.span("bench.op"):
            yield

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code around a phase."""
        sp = self._open(name)
        try:
            yield
        finally:
            self._close(sp)

    def _open(self, name):
        stack = self.stack
        sp = Span(name, stack[-1] if stack else -1, self.op_id)
        stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = perf_counter()
        return sp

    def _close(self, sp):
        sp.end = perf_counter()
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]].child += sp.end - sp.start

    def _span(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if note is not None:
                sp.note = note(self, args, kwargs, result)
            return result

        return wrapper

    def _hot(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._hot_depth -= 1
                if self._hot_depth:
                    dt = 0.0  # already inside another hot call's time
                if self.stack:
                    sp = self.spans[self.stack[-1]]
                    sp.child += dt
                    if sp.hot is None:
                        sp.hot = {}
                    acc = sp.hot
                else:
                    acc = self.top_hot
                got = acc.get(name)
                if got is None:
                    acc[name] = [1, dt]
                else:
                    got[0] += 1
                    got[1] += dt

        return wrapper

    # -- metrics --------------------------------------------------------------

    def layer_totals(self):
        """Per layer: [calls, inclusive s, self s]; hot layers count as self."""
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for sp in self.spans:
            t = totals[sp.name]
            d = sp.end - sp.start
            t[0] += 1
            t[1] += d
            t[2] += d - sp.child
            if sp.hot:
                self._add_hot(totals, sp.hot)
        self._add_hot(totals, self.top_hot)
        return totals

    @staticmethod
    def _add_hot(totals, hot):
        for name, (calls, dt) in hot.items():
            t = totals[name]
            t[0] += calls
            t[1] += dt
            t[2] += dt

    def notes(self, name):
        return [sp.note for sp in self.spans if sp.name == name]


    def _by_name(self, name):
        return [sp for sp in self.spans if sp.name == name]

    def metrics(self, traced_wall_s, overhead_ratio, candidates):
        """The per-layer metrics, as {name: {"value", "unit"}}."""
        totals = self.layer_totals()
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def layer(name, *fields):
            calls, s, self_s = totals.get(name, (0, 0.0, 0.0))
            got = {"calls": (calls, "count"), "s": (s, "s"), "self_s": (self_s, "s")}
            for f in fields:
                put("%s.%s" % (name, f), *got[f])
            return calls, s

        calls, s = layer("solver.is_k_copwin", "calls", "s", "self_s")
        solves = self._by_name("solver.is_k_copwin")
        states = sum(sp.note[1] for sp in solves if sp.note)
        put("solver.is_k_copwin.states", states, "count")
        put("solver.is_k_copwin.ns_per_state", s / states * 1e9 if states else 0.0, "ns")
        put("solver.is_k_copwin.us_per_call", s / calls * 1e6 if calls else 0.0, "us")
        by_k = {"k1": 0.0, "k2": 0.0, "k3plus": 0.0}
        for sp in solves:
            k = sp.note[0] if sp.note else None
            by_k["k%d" % k if k in (1, 2) else "k3plus"] += sp.end - sp.start
        for key, value in by_k.items():
            put("solver.is_k_copwin.s." + key, value, "s")
        in_ascent = sum(1 for sp in solves if sp.note and sp.note[2])
        found = sum(1 for n in self.notes("solver.solve_cop_number") if n)
        put("solver.ascent.useful_ratio", found / in_ascent if in_ascent else 0.0, "ratio")
        layer("solver.triple", "s", "self_s")
        layer("solver.extract_trace", "s")
        put("solver.extract_trace.rounds",
            sum(n for n in self.notes("solver.extract_trace") if n), "count")
        layer("solver.optimal_cop_move", "calls", "s")
        layer("solver.verify_policy", "s")
        put("solver.verify_policy.states_explored",
            sum(n for n in self.notes("solver.verify_policy") if n), "count")
        layer("corners.find_temporal_corners", "calls", "s")
        layer("corners.find_k_temporal_corners", "calls", "s")
        put("corners.witnesses",
            sum(n for name in ("corners.find_temporal_corners",
                               "corners.find_k_temporal_corners")
                for n in self.notes(name) if n), "count")
        for name in ("treewidth.exact_treewidth", "treewidth.smooth", "treewidth.bag_strategy"):
            layer(name, "s")
        layer("instancefile.parse", "s")
        put("instancefile.parse.bytes",
            sum(n for n in self.notes("instancefile.parse") if n), "bytes")
        layer("instancefile.serialize", "s")
        layer("graphs.Graph", "calls")
        layer("graphs.girth", "calls", "s")
        layer("graphs.domination_number", "s")
        layer("graphs.dismantle", "s")
        put("search.candidates", candidates, "count")
        checks, _s = layer("search.check_targets", "calls", "s")
        accepted = sum(1 for n in self.notes("search.check_targets") if n)
        put("search.check_targets.accept_ratio", accepted / checks if checks else 0.0, "ratio")
        layer("search.certify", "s")
        put("search.generate.self_s", totals.get("search.search", (0, 0.0, 0.0))[2], "s")
        for name in ("periodic.pad", "periodic.footprint"):
            layer(name, "s")
        layer("constructions.generate", "s")
        put("trace.wall_s", traced_wall_s, "s")
        put("trace.overhead_ratio", overhead_ratio, "ratio")
        return out

    def module_shares(self, traced_wall_s):
        """Self time per module (first part of the layer name) over wall time."""
        shares = defaultdict(float)
        for name, (_calls, _s, self_s) in self.layer_totals().items():
            shares[name.split(".")[0]] += self_s / traced_wall_s
        return dict(sorted(shares.items()))

    def dump_spans(self, origin):
        """Spans as lists, times in microseconds since ``origin``."""
        out = []
        for sp in self.spans:
            row = sp.as_list()
            row[1] = round((sp.start - origin) * 1e6, 1)
            row[2] = round((sp.end - origin) * 1e6, 1)
            row[5] = round(sp.child * 1e6, 1)
            out.append(row)
        return out
