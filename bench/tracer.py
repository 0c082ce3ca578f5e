"""Spans around the package's public functions, for the traced run.

``install`` replaces each function in ``TARGETS`` by a wrapper in every
``marketgames`` namespace that binds it (the package, the defining module and
each importing module), so internal call sites are caught too: for example
``_best_response`` calling ``br_leontief``, ``fisher_game`` calling
``solve_linear_eg`` and ``solve_linear_eg`` calling ``verify_kkt_linear`` and
``linprog``.  A span records its name, start, end, parent span and item id,
plus a few numbers read off the result; spans stay in memory until
``write_jsonl``.  A span's self time is its duration minus that of its child
spans, which nest because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_MOD = "marketgames."


def _br(res):
    return (res.iterations, res.converged)


def _solve(res):
    return (res.iterations, res.converged, res.residuals.worst)


#: (span name, module that binds the original, function name, payload reader).
#: A span name is ``<layer>.<function>``; ``linprog`` is scipy's, as bound in
#: ``eq_solvers``, and the instance builders share the ``generators`` span.
TARGETS = (
    ("trading_post.br_linear", "trading_post", "br_linear", _br),
    ("trading_post.br_leontief", "trading_post", "br_leontief", _br),
    ("trading_post.br_concave_numeric", "trading_post", "br_concave_numeric", _br),
    ("trading_post.br_dynamics", "trading_post", "br_dynamics",
     lambda r: (r.rounds, r.converged)),
    ("trading_post.verify_tp_ne", "trading_post", "verify_tp_ne", None),
    ("eq_solvers.solve_linear_eg", "eq_solvers", "solve_linear_eg", _solve),
    ("eq_solvers.solve_leontief_dual", "eq_solvers", "solve_leontief_dual", _solve),
    ("eq_solvers.solve_ces_eg", "eq_solvers", "solve_ces_eg", _solve),
    ("eq_solvers.linprog", "eq_solvers", "linprog", lambda r: (bool(r.success),)),
    ("eq_solvers.verify_kkt_linear", "eq_solvers", "verify_kkt_linear", None),
    ("eq_solvers.verify_kkt_leontief", "eq_solvers", "verify_kkt_leontief", None),
    ("eq_solvers.verify_eps_market_eq", "eq_solvers", "verify_eps_market_eq", None),
    ("fisher_game.fisher_outcome", "fisher_game", "fisher_outcome",
     lambda r: (not r.equilibrium.converged,)),
    ("fisher_game.fisher_ne_falsify", "fisher_game", "fisher_ne_falsify",
     lambda r: (r.failures,)),
    ("instance_lab.run_experiment", "instance_lab", "run_experiment", None),
    ("instance_lab.generators", "instance_lab", "gen_random", None),
    ("instance_lab.generators", "instance_lab", "gen_identity_leontief", None),
    ("instance_lab.generators", "instance_lab", "gen_example_3_1", None),
    ("instance_lab.generators", "instance_lab", "gen_tp_nonexistence", None),
    ("instance_lab.generators", "instance_lab", "gen_example_lin_family", None),
    ("instance_lab.generators", "instance_lab", "gen_example_leo_family", None),
    ("instance_lab.generators", "fisher_game", "lb_construction", None),
    ("cli.main", "cli", "main", lambda code: (code != 0,)),
)

LAYERS = ("trading_post", "eq_solvers", "fisher_game", "instance_lab", "cli")

#: Payload recorded for a call that raised.
RAISED = ("raised",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent, item, payload)
        self.stack: list[int] = []
        self.item = None

    def wrap(self, name, fn, read):
        if name not in self.names:
            self.names.append(name)
        key = self.names.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            payload = RAISED
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                payload = tuple(v.item() if hasattr(v, "item") else v
                                for v in (read(result) if read else ()))
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (key, start, end, parent, self.item, payload)

        return wrapper

    def install(self):
        """Wrap every target in every namespace of the package that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "marketgames" or n.startswith(_MOD)]
        for name, home, attr, read in TARGETS:
            original = getattr(importlib.import_module(_MOD + home), attr)
            wrapper = self.wrap(name, original, read)
            for mod in modules:
                for binding in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, binding, wrapper)

    def durations(self, since=0):
        """Per span from index ``since``: (name, duration, self time, parent,
        payload); the parent index is absolute."""
        spans = self.spans[since:]
        child = [0.0] * len(spans)
        for key, start, end, parent, _, _ in spans:
            if parent >= since:
                child[parent - since] += end - start
        return [(self.names[key], end - start, end - start - child[i], parent, payload)
                for i, (key, start, end, parent, _, payload) in enumerate(spans)]

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (key, start, end, parent, item, payload) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[key], "start": start,
                                     "end": end, "parent": parent, "item": item,
                                     "payload": list(payload)}) + "\n")


def _frac(num, den):
    # a function that was never called reads 0, not NaN, so the value stays JSON
    return num / den if den else 0.0


def layer_metrics(tracer, loop_since, loop_wall):
    """Per-layer metrics of the traced item loop (spans from ``loop_since``);
    generator time also counts the spans before it, i.e. the set-up."""
    rows = tracer.durations(loop_since)
    by_name: dict[str, list] = {}
    for name, dur, self_t, _, payload in rows:
        by_name.setdefault(name, []).append((dur, self_t, payload))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, which=0):
        return sum(r[which] for r in by_name.get(name, ()))

    def payload_sum(name, i):
        return sum(r[2][i] for r in by_name.get(name, ()) if r[2] is not RAISED)

    out: dict[str, tuple[float, str]] = {}
    for fn in ("br_linear", "br_leontief", "br_concave_numeric"):
        name = "trading_post." + fn
        c = calls(name)
        out[name + ".calls"] = (c, "count")
        out[name + ".us_per_call"] = (_frac(total(name) * 1e6, c), "us")
        out[name + ".iters_per_call"] = (_frac(payload_sum(name, 0), c), "count")
    name = "trading_post.br_concave_numeric"
    out[name + ".converged_frac"] = (_frac(payload_sum(name, 1), calls(name)), "1")
    name = "trading_post.br_dynamics"
    rounds = payload_sum(name, 0)
    out[name + ".calls"] = (calls(name), "count")
    out[name + ".rounds"] = (rounds, "count")
    out[name + ".s_per_round"] = (_frac(total(name), rounds), "s")
    out[name + ".converged_frac"] = (_frac(payload_sum(name, 1), calls(name)), "1")
    name = "trading_post.verify_tp_ne"
    out[name + ".calls"] = (calls(name), "count")
    out[name + ".self_s"] = (total(name, 1), "s")
    for fn in ("solve_linear_eg", "solve_leontief_dual", "solve_ces_eg"):
        name = "eq_solvers." + fn
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".self_s"] = (total(name, 1), "s")
        out[name + ".iterations"] = (payload_sum(name, 0), "count")
        out[name + ".converged_frac"] = (_frac(payload_sum(name, 1), calls(name)), "1")
    residuals = [r[2][2] for r in by_name.get("eq_solvers.solve_linear_eg", ())
                 if r[2] is not RAISED]
    out["eq_solvers.solve_linear_eg.residual_max"] = (  # capped: inf is not JSON
        min(max(residuals, default=0.0), 1e300), "1")
    name = "eq_solvers.linprog"
    out[name + ".calls"] = (calls(name), "count")
    out[name + ".self_s"] = (total(name, 1), "s")
    out[name + ".success_frac"] = (_frac(payload_sum(name, 0), calls(name)), "1")
    for fn in ("verify_kkt_linear", "verify_kkt_leontief", "verify_eps_market_eq"):
        name = "eq_solvers." + fn
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".self_s"] = (total(name, 1), "s")
    name = "fisher_game.fisher_outcome"
    out[name + ".calls"] = (calls(name), "count")
    out[name + ".self_s"] = (total(name, 1), "s")
    out[name + ".unconverged_frac"] = (_frac(payload_sum(name, 0), calls(name)), "1")
    name = "fisher_game.fisher_ne_falsify"
    out[name + ".calls"] = (calls(name), "count")
    out[name + ".self_s"] = (total(name, 1), "s")
    out[name + ".failures"] = (payload_sum(name, 0), "count")
    name = "instance_lab.run_experiment"
    out[name + ".calls"] = (calls(name), "count")
    out[name + ".self_s"] = (total(name, 1), "s")
    setup_gen = sum(dur for name, dur, _, _, _ in tracer.durations()[:loop_since]
                    if name == "instance_lab.generators")
    out["instance_lab.generators.s"] = (setup_gen + total("instance_lab.generators"), "s")
    name = "cli.main"
    out[name + ".calls"] = (calls(name), "count")
    out[name + ".self_s"] = (total(name, 1), "s")
    out[name + ".nonzero_exits"] = (
        sum(1 for r in by_name.get(name, ()) if r[2] is RAISED or r[2][0]), "count")

    layer_self = {layer: sum(self_t for name, _, self_t, _, _ in rows
                             if name.split(".")[0] == layer)
                  for layer in LAYERS}
    for layer, value in layer_self.items():
        out[layer + ".self_s"] = (value, "s")
    covered = sum(dur for _, dur, _, parent, _ in rows if parent < loop_since)
    out["trace.spans"] = (len(rows), "count")
    out["trace.wall_s"] = (loop_wall, "s")
    out["trace.unwrapped_s"] = (loop_wall - covered, "s")
    return out, sum(layer_self.values())
