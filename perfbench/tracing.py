"""Outside-in layer tracing for icicsim.

Every layer is timed from the benchmark's side: a wrapper is installed
under the name each caller looks up (module attribute, by-name import in
another module, or class attribute for methods) and the original object
is put back afterwards. Nothing under ``src/`` knows it is being traced.

A span is (name, start, end, parent, unit). ``unit`` is the id shared by
all spans of one round, sub-frame or instance: it advances whenever a
span whose name is in the workload's ``unit_starts`` opens. Spans stay in
memory until the run ends; ``write_spans`` stores them and
``layer_metrics`` derives the per-layer figures, including self time
(span duration minus the time covered by its direct children).
"""

import contextlib
import gzip
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder plus the side counters the hooks fill."""

    def __init__(self, unit_starts=()):
        self.unit_starts = frozenset(unit_starts)
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.units = [], []
        self._stack = []
        self._unit = 0
        self.arcs = 0                # arcs summed over mcnf.solve calls
        self.placed_users = 0        # users kept by draw_channels
        self.values_exchanged = 0    # IcicResult.overhead.simulated_values
        self.lanes = 0               # solve_subproblem calls inspected
        self.binary_lanes = 0
        self.repeat_lanes = 0
        self._seen_lanes = set()

    def open(self, name):
        if name in self.unit_starts:
            self._unit += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.units.append(self._unit)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def note_lane(self, own_blank, nbr_blank, weights, r, rtil):
        """Record whether a subproblem's inputs are binary or repeated."""
        self.lanes += 1
        own = float(own_blank)
        if own in (0.0, 1.0) and all(v in (0.0, 1.0)
                                     for v in nbr_blank.tolist()):
            self.binary_lanes += 1
        key = (own, nbr_blank.tobytes(), weights.tobytes(), r.tobytes(),
               rtil.tobytes())
        if key in self._seen_lanes:
            self.repeat_lanes += 1
        else:
            self._seen_lanes.add(key)


def _wrapper(tracer, name, fn, before=None, after=None):
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, result)
        return result
    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _count_arcs(tracer, args, kwargs):
    tracer.arcs += args[0].num_arcs


def _count_placed(tracer, args, kwargs):
    dims = args[1] if len(args) > 1 else kwargs["dims"]
    tracer.placed_users += sum(dims.M)


def _note_lane(tracer, args, kwargs):
    tracer.note_lane(*args)


def _count_values(tracer, result):
    tracer.values_exchanged += result.overhead.simulated_values


def _install_table():
    """(owner, attribute, span name, before-hook, after-hook).

    Functions imported by name into another module get one entry per
    importing module, because the caller resolves them there.
    """
    from icicsim import (coordinator, fairsched, instances, linkadapt, mcnf,
                         network, oracle, simulate)
    return [
        (mcnf, "solve", "mcnf.solve", _count_arcs, None),
        (coordinator, "solve_subproblem", "coordinator.solve_subproblem",
         _note_lane, None),
        (coordinator, "build_subproblem_network",
         "coordinator.build_subproblem_network", None, None),
        (coordinator, "master_step", "coordinator.master_step", None, None),
        (coordinator, "round_blanking", "coordinator.rounding", None, None),
        (coordinator, "bound_objective", "coordinator.rounding", None, None),
        (coordinator.Mailbox, "post", "coordinator.exchange.post",
         None, None),
        (coordinator.Mailbox, "drain", "coordinator.exchange.drain",
         None, None),
        (coordinator, "run_coordination", "coordinator.run_coordination",
         None, _count_values),
        (simulate, "run_coordination", "coordinator.run_coordination",
         None, _count_values),
        (coordinator, "finalize_schedule", "coordinator.finalize_schedule",
         None, None),
        (simulate, "finalize_schedule", "coordinator.finalize_schedule",
         None, None),
        (coordinator, "precompute_rate_triples",
         "linkadapt.precompute_rate_triples", None, None),
        (instances, "precompute_rate_triples",
         "linkadapt.precompute_rate_triples", None, None),
        (coordinator, "local_schedule", "fairsched.local_schedule",
         None, None),
        (simulate, "compute_weights", "fairsched.compute_weights",
         None, None),
        (fairsched.AverageRateTracker, "update", "fairsched.tracker_update",
         None, None),
        (linkadapt.AmcTable, "rate_linear", "linkadapt.rate_linear",
         None, None),
        (network, "draw_channels", "network.draw_channels",
         _count_placed, None),
        (network, "associate_users", "network.associate_users", None, None),
        (network, "refade", "network.refade", None, None),
        (network, "generate_layout", "network.generate_layout", None, None),
        (network, "neighbor_map", "network.neighbor_map", None, None),
        (simulate, "parse_config", "simulate.parse_config", None, None),
        (simulate, "run_simulation", "simulate.run_simulation", None, None),
        (simulate, "emit_reports", "simulate.emit_reports", None, None),
        (oracle, "exhaustive_bound", "oracle.exhaustive_bound", None, None),
        (instances, "random_desk_instance", "instances.random_desk_instance",
         None, None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Wrappers in place inside the block, originals restored after."""
    saved = []
    try:
        for owner, attr, name, before, after in _install_table():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr,
                    _wrapper(tracer, name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_totals(tracer):
    """name -> [calls, total seconds, self seconds]."""
    n = len(tracer.names)
    child_time = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child_time[p] += tracer.ends[i] - tracer.starts[i]
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for i in range(n):
        dur = tracer.ends[i] - tracer.starts[i]
        t = totals[tracer.names[i]]
        t[0] += 1
        t[1] += dur
        t[2] += dur - child_time[i]
    return totals


def layer_metrics(tracer, csv_bytes, overhead_s):
    """Per-layer figures, every one present whether or not it ran."""
    tot = span_totals(tracer)

    def calls(name):
        return tot[name][0] if name in tot else 0

    def secs(name):
        return tot[name][1] if name in tot else 0.0

    def self_s(name):
        return tot[name][2] if name in tot else 0.0

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("mcnf.solve", "coordinator.solve_subproblem",
                 "coordinator.run_coordination",
                 "coordinator.finalize_schedule"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".s"] = (secs(name), "s")
        m[name + ".self_s"] = (self_s(name), "s")
    m["mcnf.solve.arcs"] = (tracer.arcs, "count")
    m["mcnf.solve.us_per_call"] = (
        1e6 * share(secs("mcnf.solve"), calls("mcnf.solve")), "us")
    for name in ("coordinator.build_subproblem_network",
                 "coordinator.master_step", "coordinator.rounding",
                 "network.draw_channels", "network.refade",
                 "linkadapt.precompute_rate_triples", "linkadapt.rate_linear",
                 "fairsched.compute_weights", "fairsched.tracker_update",
                 "fairsched.local_schedule", "oracle.exhaustive_bound",
                 "instances.random_desk_instance", "simulate.emit_reports"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".s"] = (secs(name), "s")
    m["coordinator.lane_binary_share"] = (
        share(tracer.binary_lanes, tracer.lanes), "share")
    m["coordinator.lane_repeat_share"] = (
        share(tracer.repeat_lanes, tracer.lanes), "share")
    m["coordinator.exchange.posts"] = (
        calls("coordinator.exchange.post"), "count")
    m["coordinator.exchange.s"] = (
        secs("coordinator.exchange.post")
        + secs("coordinator.exchange.drain"), "s")
    m["coordinator.values_exchanged"] = (tracer.values_exchanged, "count")
    m["network.drop_candidates"] = (
        calls("network.associate_users"), "count")
    m["network.drop_accept_ratio"] = (
        share(tracer.placed_users, calls("network.associate_users")),
        "share")
    for name in ("network.generate_layout", "network.neighbor_map",
                 "simulate.parse_config"):
        m[name + ".s"] = (secs(name), "s")
    m["simulate.run_simulation.s"] = (secs("simulate.run_simulation"), "s")
    m["simulate.run_simulation.self_s"] = (
        self_s("simulate.run_simulation"), "s")
    m["simulate.csv_bytes"] = (csv_bytes, "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def write_spans(tracer, path):
    """One JSON object per span, gzip-compressed; times relative to the
    first span."""
    t0 = tracer.starts[0] if tracer.starts else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for i, name in enumerate(tracer.names):
            fh.write(json.dumps({
                "id": i, "name": name, "parent": tracer.parents[i],
                "unit": tracer.units[i],
                "start": round(tracer.starts[i] - t0, 9),
                "end": round(tracer.ends[i] - t0, 9)}) + "\n")
