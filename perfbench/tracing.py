"""Spans and counters around nlqclab's public functions, for traced passes.

``Tracer.install`` replaces module and class attributes with wrappers and
``uninstall`` puts the originals back, so the program's source is never
edited and untraced passes run the original functions.  Spans nest: a span's
self time is its duration minus the time of the spans it encloses.  Every
wrapped name is looked up at call time inside nlqclab (module globals, module
attributes or class attributes), which is what lets the wrappers see the
calls one module makes on another.
"""

from __future__ import annotations

import time

from nlqclab import coderouting, engine, gardenhose, geometry, pauli, qudit, surgery, teleport

MODULES = {
    "coderouting": coderouting,
    "engine": engine,
    "gardenhose": gardenhose,
    "geometry": geometry,
    "pauli": pauli,
    "qudit": qudit,
    "surgery": surgery,
    "teleport": teleport,
}

# timed spans: the benchmark's calls into each module, and the functions one
# module calls on another
SPANS = (
    "engine.clifford_protocol",
    "engine.branch_exactness",
    "engine.bk_choi",
    "engine.product_replacement_check",
    "engine.Wire.apply",
    "engine.Wire.factor_out",
    "engine.Wire.project_bell",
    "engine.Wire.density_keeping",
    "pauli.random_clifford",
    "pauli.conjugate_pauli",
    "pauli.CliffordCircuit.unitary",
    "surgery.clifford_normal_form",
    "surgery.clifford_surgery",
    "surgery.CliffordOneRound.branch_exactness",
    "surgery.LocalInteractionProtocol.branch_exactness",
    "surgery.pbt_surgery",
    "surgery.pbt_surgery_choi",
    "teleport.pbt_channel",
    "teleport.build_pgm",
    "teleport.PBTInstance.sqrt_povm",
    "teleport.reduced_port_choi",
    "qudit.psd_sqrt",
    "qudit.trace_distance_matrices",
    "qudit.mutual_information_bipartite",
    "geometry.verify_connected_wedge",
    "geometry.scattering_region_nonempty",
    "geometry.ridge_curve",
    "geometry.decision_regions",
    "geometry.mutual_information",
    "gardenhose.gh_quantum_execute",
    "coderouting.code_route",
)

# called too often for a timed span to be cheap: counted only
COUNTED = ("geometry.mink",)


def _resolve(name: str):
    module, *path, attr = name.split(".")
    owner = MODULES[module]
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Per-name call counts and self times, plus engine branch counters."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS + COUNTED}
        self.self_s = {name: 0.0 for name in SPANS}
        self.outcomes_tried = 0
        self.branches_pruned = 0
        self.peak_tensor_entries = 0
        self._child_time = [0.0]  # one accumulator per open span, plus the root
        self._saved = []

    def _span(self, name, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._child_time, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - child

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _engine_hooks(self):
        # Wire.squared_norm is called only to test an enumerated outcome
        # against BRANCH_PRUNE; every Wire passes through __init__
        squared_norm = engine.Wire.squared_norm
        init = engine.Wire.__init__

        def counted_squared_norm(wire):
            value = squared_norm(wire)
            self.outcomes_tried += 1
            if value < engine.BRANCH_PRUNE:
                self.branches_pruned += 1
            return value

        def sized_init(wire, d, tensor, regs):
            init(wire, d, tensor, regs)
            self.peak_tensor_entries = max(self.peak_tensor_entries, wire.tensor.size)

        return [("squared_norm", counted_squared_norm), ("__init__", sized_init)]

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name in SPANS:
            owner, attr = _resolve(name)
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for name in COUNTED:
            owner, attr = _resolve(name)
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))
        for attr, replacement in self._engine_hooks():
            self._patch(engine.Wire, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{name}.self_s": s for name, s in self.self_s.items()})
        tried = self.outcomes_tried
        out["engine.outcomes_tried"] = tried
        out["engine.branches_pruned"] = self.branches_pruned
        # no outcome tried reads 0, not an undefined ratio
        out["engine.branch_yield"] = (tried - self.branches_pruned) / tried if tried else 0.0
        out["engine.peak_tensor_entries"] = self.peak_tensor_entries
        return out


def is_count(metric: str) -> bool:
    """Whether a metric is an exact count that must repeat between passes."""
    return metric.endswith(".calls") or metric in (
        "engine.outcomes_tried", "engine.branches_pruned", "engine.peak_tensor_entries",
    )
