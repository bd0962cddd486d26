"""Spans and counters around the calls into each glmdopt layer.

The tracer replaces functions where the package binds them (module
attributes looked up at call time) and restores them afterwards, so the
package itself is not changed.  Calls that can run hundreds of thousands
of times per pass (objective evaluations, ``numpy.linalg.det``,
``maximize_pair``) are leaves: they are counted and timed, and their
time is charged to the enclosing span, but they are not stored one by
one.  Every other wrapped call is a span with a name, start, end, parent
and operation id, kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import glmdopt

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [id, name, start, end, parent, op, covered]
        self._open = []      # stack of open span records
        self._leaf_depth = 0
        self.op = None
        self._pass = self._fresh_pass()
        self._patched = []

    @staticmethod
    def _fresh_pass():
        return {"count": defaultdict(int), "time": defaultdict(float),
                "self": defaultdict(float), "value": defaultdict(float)}

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            rec = [len(self.spans), name, _clock(), None,
                   parent[0] if parent else None, self.op, 0.0]
            self.spans.append(rec)
            self._open.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = _clock()
                self._open.pop()
                dur = rec[3] - rec[2]
                if parent is not None:
                    parent[6] += dur
                stats = self._pass
                stats["count"][name] += 1
                stats["time"][name] += dur
                stats["self"][name] += dur - rec[6]
            if on_result is not None:
                on_result(self._pass, args, kwargs, result, dur)
            return result

        return wrapper

    def leaf(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                self._leaf_depth -= 1
                if self._leaf_depth == 0 and self._open:
                    self._open[-1][6] += dur
                self._pass["count"][name] += 1
                self._pass["time"][name] += dur
            if on_result is not None:
                on_result(self._pass, args, kwargs, result, dur)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced binding; ``uninstall`` undoes it."""
        g = glmdopt
        spans = {
            "weights.compute_weights": [(g, "compute_weights")],
            "ew.expected_weights": [(g, "expected_weights")],
            "ew.ew_optimize": [(g, "ew_optimize")],
            "liftone.lift_one_optimize": [
                (g, "lift_one_optimize"), (g.ew, "lift_one_optimize"),
                (g.exchange, "lift_one_optimize"),
            ],
            "certify.verify_optimal": [(g, "verify_optimal"), (g.liftone, "verify_optimal")],
            "certify.check_saturated": [(g, "check_saturated")],
            "exchange.optimize_exact": [(g, "optimize_exact")],
            "exchange.exchange_optimize": [(g.exchange, "exchange_optimize")],
            "exchange.pair_profile": [(g.exchange, "pair_profile")],
        }
        hooks = {
            "liftone.lift_one_optimize": _count_lift_one,
            "ew.expected_weights": _count_draws,
        }
        for name, sites in spans.items():
            for owner, attr in sites:
                self.patch(owner, attr, self.span(name, getattr(owner, attr), hooks.get(name)))
        for module in ("liftone", "certify", "exchange"):
            owner = getattr(g, module)
            self.patch(owner, "objective", self.leaf(f"{module}.objective", owner.objective))
        self.patch(g.exchange, "maximize_pair",
                   self.leaf("exchange.maximize_pair", g.exchange.maximize_pair, _count_moved))
        self.patch(np.linalg, "det", self.leaf("objective.det", np.linalg.det))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- per-pass metrics -----------------------------------------------

    def end_pass(self):
        """Per-layer metrics of the pass just finished; starts a new pass."""
        s, self._pass = self._pass, self._fresh_pass()
        count, total, own, value = s["count"], s["time"], s["self"], s["value"]
        profiled = count["exchange.pair_profile"]
        return {
            "weights.compute_weights.calls": count["weights.compute_weights"],
            "weights.compute_weights.s": total["weights.compute_weights"],
            "ew.expected_weights.calls": count["ew.expected_weights"],
            "ew.expected_weights.s": total["ew.expected_weights"],
            "ew.mc_draws_per_s": (value["mc_draws"] / value["mc_s"]) if value["mc_s"] else 0.0,
            "objective.det.calls": count["objective.det"],
            "liftone.objective.calls": count["liftone.objective"],
            "certify.objective.calls": count["certify.objective"],
            "exchange.objective.calls": count["exchange.objective"],
            "objective.s": sum(total[f"{m}.objective"] for m in ("liftone", "certify", "exchange")),
            "liftone.lift_one_optimize.calls": count["liftone.lift_one_optimize"],
            "liftone.lift_one_optimize.s": total["liftone.lift_one_optimize"],
            "liftone.lift_one_optimize.self_s": own["liftone.lift_one_optimize"],
            "liftone.rounds": int(value["rounds"]),
            "liftone.polish_steps": int(value["polish_steps"]),
            "certify.verify_optimal.calls": count["certify.verify_optimal"],
            "certify.verify_optimal.s": total["certify.verify_optimal"],
            "certify.check_saturated.calls": count["certify.check_saturated"],
            "certify.check_saturated.s": total["certify.check_saturated"],
            "exchange.optimize_exact.s": total["exchange.optimize_exact"],
            "exchange.exchange_optimize.calls": count["exchange.exchange_optimize"],
            "exchange.exchange_optimize.s": total["exchange.exchange_optimize"],
            "exchange.exchange_optimize.self_s": own["exchange.exchange_optimize"],
            "exchange.pair_profile.calls": profiled,
            "exchange.pair_profile.s": total["exchange.pair_profile"],
            "exchange.moved_pair_ratio": (value["moved_pairs"] / profiled) if profiled else 0.0,
        }

    def dump(self):
        """Spans with self times, as plain lists for JSON."""
        keys = ("id", "name", "start", "end", "parent", "op", "self_s")
        out = []
        for sid, name, start, end, parent, op, covered in self.spans:
            out.append(dict(zip(keys, (sid, name, start, end, parent, op, end - start - covered))))
        return out


def _count_lift_one(stats, args, kwargs, result, dur):
    stats["value"]["rounds"] += result.rounds
    stats["value"]["polish_steps"] += result.polish_steps


def _count_draws(stats, args, kwargs, result, dur):
    if kwargs.get("method") == "monte-carlo":
        stats["value"]["mc_draws"] += kwargs["samples"] * len(result)
        stats["value"]["mc_s"] += dur


def _count_moved(stats, args, kwargs, result, dur):
    if result[0] != kwargs.get("current"):
        stats["value"]["moved_pairs"] += 1


# -- interpreter start-up and imports -----------------------------------


def import_times(stderr):
    """Cumulative seconds for numpy, scipy and glmdopt from ``-X importtime``.

    Each package counts once, at its outermost import: nested entries
    (``scipy`` inside ``scipy.special``) are already in their parent's
    cumulative time.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    totals = {}
    for package in ("numpy", "scipy", "glmdopt"):
        total, ancestors = 0, []
        for depth, name, cumulative in reversed(rows):  # parents before children
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = any(hit for _, hit in ancestors)
            hit = name == package or name.startswith(package + ".")
            if hit and not inside:
                total += cumulative
            ancestors.append((depth, hit or inside))
        totals[package] = total / 1e6
    return totals
