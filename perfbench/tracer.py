"""Call tracing from outside the package.

The tracer wraps public functions by rebinding their names in every package
module that holds them, so calls between modules pass through the wrapper
too (``softmax`` is reached from ``choice``, ``dynamics`` and ``analysis``;
``simulate_*`` from ``reproduce``, ``cli`` and the package namespace).

Each wrapped call is a span with a start, an end and a parent.  Self time is
a span's duration minus the time its child spans cover; busy time is the
duration of the outermost span of a layer name.  Spans of coarse functions
are kept in memory with parent links and written out at the end; the hot
per-step functions (soft-max, payoff vector, vector fields, payoff
estimates, payoff Jacobians) are far too many to keep one by one, so they
are folded into per-name totals while still counting against their parent's
self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("gamedyn", "gamedyn.choice", "gamedyn.games", "gamedyn.dynamics",
           "gamedyn.analysis", "gamedyn.reproduce", "gamedyn.cli")

MONITORS = ("storage_matrix", "lyapunov_trace", "composite_lyapunov_trace",
            "convergence_report", "time_to_tolerance")

# (home module, function, layer name, hot)
TRACED = [
    ("choice", "softmax", "choice.softmax", True),
    ("games", "expected_payoff_vector", "games.expected_payoff_vector", True),
    ("games", "payoff_jacobian", "games.payoff_jacobian", True),
    ("dynamics", "first_order_field", "dynamics.field", True),
    ("dynamics", "higher_order_field", "dynamics.field", True),
    ("dynamics", "payoff_estimate", "dynamics.payoff_estimate", True),
    ("dynamics", "integrate", "dynamics.integrate", False),
    ("dynamics", "simulate_first_order", "dynamics.simulate", False),
    ("dynamics", "simulate_higher_order", "dynamics.simulate", False),
    ("dynamics", "run_discrete", "dynamics.run_discrete", False),
    ("dynamics", "run_stochastic", "dynamics.run_stochastic", False),
    ("dynamics", "write_trajectory_csv", "dynamics.csv", False),
    ("dynamics", "write_stochastic_csv", "dynamics.csv", False),
    ("analysis", "rest_point", "analysis.rest_point", False),
    ("analysis", "multi_start_rest_points", "analysis.multi_start", False),
    ("analysis", "classify", "analysis.classify", False),
    ("analysis", "bifurcation_epsilon", "analysis.bifurcation_epsilon", False),
    ("analysis", "dynamics_jacobian", "analysis.dynamics_jacobian", False),
    *[("analysis", name, "analysis.monitors", False) for name in MONITORS],
    ("reproduce", "run_example", "reproduce.run_example", False),
    ("cli", "main", "cli.main", False),
]

# Functions whose work counts are needed in every run; an untraced run wraps
# only these, which adds a few microseconds to calls that take milliseconds.
COUNTED = ("integrate", "run_discrete", "run_stochastic")


class Tracer:
    """Span recorder plus per-layer counters; install() rebinds, uninstall()
    restores the original functions."""

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans: list[tuple] = []
        self._active = defaultdict(int)
        self._child: list[float] = []
        self._ids: list[int] = []
        self._next_id = itertools.count(1)
        self._seen_rows: set = set()
        self._restore: list[tuple] = []
        self._signatures: dict = {}

    # -------------------------------------------------------------- install

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for home, fname, layer, hot in TRACED:
            if self.only is not None and fname not in self.only:
                continue
            fn = getattr(importlib.import_module(f"gamedyn.{home}"), fname)
            self._signatures[fname] = inspect.signature(fn)
            wrappers[id(fn)] = self._wrap(fn, layer, hot,
                                          getattr(self, f"_before_{fname}", None),
                                          getattr(self, f"_after_{fname}", None))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, fn, layer: str, hot: bool, before, after):
        perf = time.perf_counter
        child, ids, active = self._child, self._ids, self._active
        calls, self_s, busy_s, spans = self.calls, self.self_s, self.busy_s, self.spans
        next_id = self._next_id

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            child.append(0.0)
            active[layer] += 1
            if not hot:
                span_id = next(next_id)
                parent = ids[-1] if ids else 0
                ids.append(span_id)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                own = dur - child.pop()
                active[layer] -= 1
                if child:
                    child[-1] += dur
                calls[layer] += 1
                self_s[layer] += own
                if not active[layer]:
                    busy_s[layer] += dur
                if not hot:
                    ids.pop()
                    spans.append((span_id, parent, layer, t0, t1, own))
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself, around one operation."""
        span_id = next(self._next_id)
        self._ids.append(span_id)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            own = (t1 - t0) - self._child.pop()
            self._ids.pop()
            self.spans.append((span_id, 0, name, t0, t1, own))

    # ---------------------------------------------------------------- hooks
    # before-hooks take no arguments; after-hooks get the raw call and its
    # result.  Hooks of hot functions avoid signature binding.

    def _args(self, fname: str, args, kwargs) -> dict:
        bound = self._signatures[fname].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _after_expected_payoff_vector(self, args, kwargs, result) -> None:
        game = args[0] if args else kwargs["game"]
        if not game.matching and game.player_count > 1 and game.linear_map is not None:
            self.counts["epv.linear_map_unused"] += 1

    def _after_integrate(self, args, kwargs, result) -> None:
        a = self._args("integrate", args, kwargs)
        steps = max(1, int(round(float(a["t_end"]) / float(a["dt"]))))
        shape = np.shape(a["state0"])
        batch = shape[0] if len(shape) == 2 else 1
        self.counts["integrate.traj_steps"] += steps * batch
        self.counts["integrate.batch_rows"] += batch

    def _after_run_discrete(self, args, kwargs, result) -> None:
        self.counts["discrete.traj_steps"] += int(self._args("run_discrete", args, kwargs)["steps"])

    def _after_run_stochastic(self, args, kwargs, result) -> None:
        self.counts["stochastic.traj_steps"] += int(
            self._args("run_stochastic", args, kwargs)["steps"])

    def _before_run_example(self) -> None:
        self._seen_rows.clear()

    def _count_rows(self, a: dict, scheme: str) -> None:
        """Count rows integrated inside one reproduce scenario, and the rows
        whose (game, scheme, eps, gamma, dt, t_end, filter, z0) repeat."""
        if not self._active["reproduce.run_example"]:
            return
        params, block = a["params"], a.get("block")
        block_key = None if block is None else tuple(
            m.tobytes() for m in (block.a_mat, block.b_mat, block.c_mat, block.d_mat))
        head = (scheme, id(a["game"]), params.eps, params.gamma, params.undiscounted,
                float(a["dt"]), float(a["t_end"]), block_key)
        for row in np.atleast_2d(np.asarray(a["z0"], dtype=float)):
            key = head + (row.tobytes(),)
            self.counts["reproduce.trajectories"] += 1
            if key in self._seen_rows:
                self.counts["reproduce.duplicate_rows"] += 1
            self._seen_rows.add(key)

    def _after_simulate_first_order(self, args, kwargs, result) -> None:
        self._count_rows(self._args("simulate_first_order", args, kwargs), "first-order")

    def _after_simulate_higher_order(self, args, kwargs, result) -> None:
        self._count_rows(self._args("simulate_higher_order", args, kwargs), "higher-order")

    def _after_write_trajectory_csv(self, args, kwargs, result) -> None:
        a = self._args("write_trajectory_csv", args, kwargs)
        self.counts["csv.rows"] += len(a["traj"].times)
        self.counts["csv.bytes"] += os.path.getsize(a["path"])

    def _after_write_stochastic_csv(self, args, kwargs, result) -> None:
        a = self._args("write_stochastic_csv", args, kwargs)
        self.counts["csv.rows"] += len(a["record"]["ks"])
        self.counts["csv.bytes"] += os.path.getsize(a["path"])

    def _after_rest_point(self, args, kwargs, result) -> None:
        self.counts["rest_point.iterations"] += result.iterations
        self.counts["rest_point.converged"] += result.converged
        self.counts["rest_point.newton"] += result.method == "damped+newton"
        if self._active["analysis.bifurcation_epsilon"]:
            self.counts["bifurcation.rest_point_calls"] += 1

    # --------------------------------------------------------------- output

    def traj_steps(self) -> float:
        """Trajectory steps: RK4 steps times batch rows, plus discrete and
        stochastic iterations."""
        k = self.counts
        return k["integrate.traj_steps"] + k["discrete.traj_steps"] + k["stochastic.traj_steps"]

    def write_spans(self, path: str) -> None:
        """One JSON line per kept span, then one per layer with its totals."""
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1, own in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "self_s": own}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"layer": name, "calls": self.calls[name],
                                     "self_s": self.self_s[name],
                                     "busy_s": self.busy_s[name]}) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics as name -> (value, unit).  Counts and times are
        per pass (counts repeat exactly); shares and per-call times are
        ratios of the totals."""
        c, s, b, k = self.calls, self.self_s, self.busy_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        totals = {
            "choice.softmax.calls": (c["choice.softmax"], "count"),
            "choice.softmax.self_s": (s["choice.softmax"], "s"),
            "dynamics.field.calls": (c["dynamics.field"], "count"),
            "dynamics.field.self_s": (s["dynamics.field"], "s"),
            "games.expected_payoff_vector.calls": (c["games.expected_payoff_vector"], "count"),
            "games.expected_payoff_vector.self_s": (s["games.expected_payoff_vector"], "s"),
            "dynamics.integrate.busy_s": (b["dynamics.integrate"], "s"),
            "dynamics.integrate.traj_steps": (k["integrate.traj_steps"], "count"),
            "dynamics.run_discrete.busy_s": (b["dynamics.run_discrete"], "s"),
            "dynamics.run_stochastic.busy_s": (b["dynamics.run_stochastic"], "s"),
            "dynamics.payoff_estimate.calls": (c["dynamics.payoff_estimate"], "count"),
            "dynamics.payoff_estimate.self_s": (s["dynamics.payoff_estimate"], "s"),
            "dynamics.csv.busy_s": (b["dynamics.csv"], "s"),
            "dynamics.csv.rows": (k["csv.rows"], "count"),
            "dynamics.csv.bytes": (k["csv.bytes"], "bytes"),
            "analysis.rest_point.calls": (c["analysis.rest_point"], "count"),
            "analysis.rest_point.busy_s": (b["analysis.rest_point"], "s"),
            "analysis.rest_point.iterations": (k["rest_point.iterations"], "count"),
            "games.payoff_jacobian.calls": (c["games.payoff_jacobian"], "count"),
            "games.payoff_jacobian.self_s": (s["games.payoff_jacobian"], "s"),
            "analysis.classify.busy_s": (b["analysis.classify"], "s"),
            "analysis.bifurcation_epsilon.busy_s": (b["analysis.bifurcation_epsilon"], "s"),
            "analysis.bifurcation_epsilon.rest_point_calls":
                (k["bifurcation.rest_point_calls"], "count"),
            "analysis.dynamics_jacobian.busy_s": (b["analysis.dynamics_jacobian"], "s"),
            "analysis.monitors.busy_s": (b["analysis.monitors"], "s"),
            "reproduce.run_example.busy_s": (b["reproduce.run_example"], "s"),
            "reproduce.trajectories": (k["reproduce.trajectories"], "count"),
            "cli.self_s": (s["cli.main"], "s"),
        }
        out = {name: (value / passes, unit) for name, (value, unit) in totals.items()}
        out.update({
            "choice.softmax.us_per_call":
                (1e6 * ratio(s["choice.softmax"], c["choice.softmax"]), "us"),
            "dynamics.field.us_per_call":
                (1e6 * ratio(s["dynamics.field"], c["dynamics.field"]), "us"),
            "games.expected_payoff_vector.us_per_call":
                (1e6 * ratio(s["games.expected_payoff_vector"],
                             c["games.expected_payoff_vector"]), "us"),
            "games.expected_payoff_vector.linear_map_unused_share":
                (ratio(k["epv.linear_map_unused"], c["games.expected_payoff_vector"]), "ratio"),
            "dynamics.integrate.batch_mean":
                (ratio(k["integrate.batch_rows"], c["dynamics.integrate"]), "rows"),
            "analysis.rest_point.converged_share":
                (ratio(k["rest_point.converged"], c["analysis.rest_point"]), "ratio"),
            "analysis.rest_point.newton_share":
                (ratio(k["rest_point.newton"], c["analysis.rest_point"]), "ratio"),
            "reproduce.duplicate_traj_share":
                (ratio(k["reproduce.duplicate_rows"], k["reproduce.trajectories"]), "ratio"),
        })
        return out
