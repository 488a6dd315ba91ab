"""Traced run: spans around calls into photonmesh's public functions.

While a :class:`Tracer` is installed, the module attributes listed in
``SPANNED`` and ``COUNTED`` are replaced by wrappers; nothing under
``src/`` changes.  Functions are wrapped under the name their caller looks
them up by: ``gates`` binds ``embed_block``, ``setting_unitary`` and
``solve_mzi_settings`` from ``linalg``, and ``compiler`` binds its own
``embed_block`` and ``setting_unitary`` for placement, so those are wrapped
on ``gates`` and ``compiler`` and reported as ``linalg.*``.  ``fock.run_program`` is replaced by a replay
of the same fold over program steps, through the public ``apply_linear``
and ``truncate_aux``, so each step is timed with its ``LinearLayer.label``.

Spans are ``(name, start, end, parent, op, attrs)`` tuples kept in memory
and written out once at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

from photonmesh import analysis, compiler, fock, gates

KINDS = ("mzi1", "ps", "swap2")
MODULES = ("cli", "compiler", "gates", "linalg", "fock", "analysis")

# (module, attribute, span name): each call becomes a timed span.
SPANNED = (
    (compiler, "simulate_circuit", "compiler.simulate_circuit"),
    (compiler, "compile_circuit", "compiler.compile_circuit"),
    (compiler, "parse_circuit", "compiler.parse_circuit"),
    (compiler, "place_in_mesh", "compiler.place_in_mesh"),
    (compiler, "decode_logical", "compiler.decode_logical"),
    (gates, "layer_matrix", "gates.layer_matrix"),
    (gates, "layers_to_steps", "gates.layers_to_steps"),
    (gates, "swap_networks", "gates.swap_networks"),
    (gates, "cz_ps_regular", "gates.cz_ps_regular"),
    (gates, "solve_mzi_settings", "linalg.solve_mzi_settings"),
    (fock, "apply_linear", "fock.apply_linear"),
    (fock, "truncate_aux", "fock.truncate_aux"),
    (fock, "project_qubit_structure", "fock.project_qubit_structure"),
    (analysis, "search_cz_in_4x4", "analysis.search_cz_in_4x4"),
    (analysis, "cz_constraint_residual", "analysis.cz_constraint_residual"),
)
# (module, attribute, counter name): called too often for a span each.
COUNTED = (
    (gates, "device_block", "gates.device_block.calls"),
    (gates, "embed_block", "linalg.embed_block.calls"),
    (gates, "setting_unitary", "linalg.setting_unitary.calls"),
    (compiler, "embed_block", "linalg.embed_block.calls"),
    (compiler, "setting_unitary", "linalg.setting_unitary.calls"),
    (analysis, "process_fidelity", "analysis.evaluations"),
)
# Spanned functions whose call count is also a metric.
CALLS = (
    "gates.layer_matrix",
    "gates.layers_to_steps",
    "gates.swap_networks",
    "gates.cz_ps_regular",
    "linalg.solve_mzi_settings",
)
# The library call each CLI command wraps; the rest of an op is CLI work.
LIBRARY_CALLS = (
    "compiler.simulate_circuit",
    "compiler.compile_circuit",
    "analysis.search_cz_in_4x4",
)


def step_kind(label: str) -> str:
    """Step kind of a program layer, from its ``LinearLayer.label``."""
    if label.startswith(("route ", "restore ", "SWAP ")):
        return "swap2"
    if label.startswith(("CZ ", "CNOT q")):
        return "ps"
    return "mzi1"


def _program_attrs(result) -> dict:
    steps = result.program.steps
    layers = [s for s in steps if isinstance(s, fock.LinearLayer)]
    placements = result.assignment.placements if result.assignment else ()
    return {
        "steps": len(steps),
        "linear_layers": len(layers),
        "truncations": len(steps) - len(layers),
        "physical_swaps": sum(
            s.label.startswith(("route ", "restore ")) for s in layers
        ),
        "columns_used": len({p.column for p in placements}),
        "slots_used": len(placements),
        "program_matrix_bytes": sum(s.matrix.nbytes for s in layers),
    }


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._kind = "mzi1"

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns ``(result, attrs)``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, attrs)

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result, attrs = self.call(name, fn, *args, **kwargs)
            if name in ("fock.apply_linear", "fock.truncate_aux"):
                attrs["terms_in"] = len(args[0].terms)
                attrs["terms_out"] = len(result.terms)
            if name == "fock.apply_linear":
                attrs["kind"] = self._kind
            elif name == "fock.truncate_aux":
                attrs["norm_lost"] = args[0].squared_norm() - result.squared_norm()
            elif name == "fock.project_qubit_structure":
                attrs["terms_in"] = len(args[0].terms)
                attrs["kept"] = len(result.projected_state.terms)
            elif name == "compiler.compile_circuit":
                attrs.update(_program_attrs(result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replay(self, program, state):
        """``fock.run_program``, one public call per step."""
        if state.mode_count != program.mode_count:
            raise ValueError(
                f"state has {state.mode_count} modes, program needs {program.mode_count}"
            )
        for step in program.steps:
            if isinstance(step, fock.LinearLayer):
                self._kind = step_kind(step.label)
                state = fock.apply_linear(state, step.matrix)
            elif isinstance(step, fock.TruncateAux):
                state = fock.truncate_aux(state, step.modes)
            else:
                raise TypeError(f"unknown program step {type(step).__name__}")
        return state

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the body of a ``with`` block."""
        wrappers = [(m, a, self._spanned(n, getattr(m, a))) for m, a, n in SPANNED]
        wrappers += [(m, a, self._counted(n, getattr(m, a))) for m, a, n in COUNTED]
        wrappers.append((fock, "run_program", self._spanned("fock.run_program", self._replay)))
        saved = [(m, a, getattr(m, a)) for m, a, _ in wrappers]
        try:
            for module, attr, wrapper in wrappers:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, fh, pass_index: int) -> None:
        for name, start, end, parent, op, attrs in self.spans:
            fh.write(
                json.dumps(
                    {"pass": pass_index, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op, **attrs}
                )
                + "\n"
            )


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict, dict]:
    """Per-op timings and counts of one traced pass over ``ops`` ops.

    Returns ``(timings, counts)``, both ``{metric: value}``; timings are in
    seconds per op, counts per op.  Counts of one input set repeat exactly.
    """
    total: Counter = Counter()
    children: Counter = Counter()
    self_time: Counter = Counter()
    library: Counter = Counter()
    counts: Counter = Counter()
    per_op_peak: Counter = Counter()
    final_terms = kept = 0
    for name, start, end, parent, op, attrs in tracer.spans:
        dur = end - start
        total[name] += dur
        if name in CALLS:
            counts[f"{name}.calls"] += 1
        if parent >= 0:
            children[parent] += dur
            if name in LIBRARY_CALLS and tracer.spans[parent][3] < 0:
                library[op] += dur
    for index, (name, start, end, parent, op, attrs) in enumerate(tracer.spans):
        self_time[name.split(".")[0]] += end - start - children[index]
        if name == "fock.apply_linear":
            kind = attrs["kind"]
            total[f"fock.apply_s.{kind}"] += end - start
            counts[f"fock.steps.{kind}"] += 1
            counts[f"fock.terms_in.{kind}"] += attrs["terms_in"]
            counts[f"fock.terms_out.{kind}"] += attrs["terms_out"]
        if name in ("fock.apply_linear", "fock.truncate_aux"):
            per_op_peak[op] = max(per_op_peak[op], attrs["terms_in"], attrs["terms_out"])
        if name == "fock.truncate_aux":
            counts["fock.truncate.terms_dropped"] += attrs["terms_in"] - attrs["terms_out"]
            counts["fock.truncate.norm_lost"] += attrs["norm_lost"]
        elif name == "fock.project_qubit_structure":
            kept += attrs["kept"]
            final_terms += attrs["terms_in"]
        elif name == "compiler.compile_circuit":
            for key in ("steps", "linear_layers", "truncations", "physical_swaps",
                        "columns_used", "slots_used", "program_matrix_bytes"):
                counts[f"compiler.{key}"] += attrs[key]
        elif name == "cli.main":
            counts["cli.output_bytes"] += attrs["output_bytes"]
            total["cli.render_s"] += end - start - library[op]
    counts.update(tracer.counts)
    counts["fock.terms_peak"] = sum(per_op_peak.values())
    counts["fock.terms_final"] = final_terms
    timings = {
        "cli.render_s": total["cli.render_s"],
        "compiler.parse_s": total["compiler.parse_circuit"],
        "compiler.compile_s": total["compiler.compile_circuit"],
        "compiler.place_s": total["compiler.place_in_mesh"],
        "compiler.decode_s": total["compiler.decode_logical"],
        "gates.layer_matrix_s": total["gates.layer_matrix"],
        "gates.layers_to_steps_s": total["gates.layers_to_steps"],
        "gates.swap_networks_s": total["gates.swap_networks"],
        "gates.cz_ps_regular_s": total["gates.cz_ps_regular"],
        "linalg.solve_mzi_settings_s": total["linalg.solve_mzi_settings"],
        **{f"fock.apply_s.{k}": total[f"fock.apply_s.{k}"] for k in KINDS},
        "fock.truncate_s": total["fock.truncate_aux"],
        "fock.project_s": total["fock.project_qubit_structure"],
        "analysis.residual_s": total["analysis.cz_constraint_residual"],
        "analysis.descent_s": total["analysis.search_cz_in_4x4"]
        - total["analysis.cz_constraint_residual"],
        **{f"self_s.{m}": self_time[m] for m in MODULES},
        "trace.op_s": total["cli.main"],
    }
    per_op = {k: v / ops for k, v in counts.items()}
    per_op["fock.useful_frac"] = kept / final_terms if final_terms else 0.0
    return {k: v / ops for k, v in timings.items()}, per_op
