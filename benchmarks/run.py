#!/usr/bin/env python3
"""Run one photonmesh benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload ghz_chain --seed 1 --seconds 10 --trace 0

Each op is one in-process call of ``photonmesh.cli.main`` with stdout
captured, so argument parsing, the library call and JSON rendering are all
inside it.  Ops run one after another in this single process (a closed
loop with one client) until ``--seconds`` of op time is measured.  Every
output is checked against an answer that does not come from photonmesh;
the checks run between ops, outside the measured time.  Gated timings are
in reference seconds, scaled by a calibration kernel (``calibrate.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the traced
run: it alternates an untraced and a traced pass over a few fixed inputs,
requires byte-identical output from both, and prints per-layer metrics
(see ``spans.py``).  Every metric line carries its unit and sample count;
the last line of stdout is one JSON object with the result.  Inputs and
spans are written under ``.bench_out/`` at the repository root.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before any import

import os

# One process and no worker threads: pin the BLAS/OpenMP pools to one
# thread before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "PHOTONMESH_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import photonmesh
from photonmesh import cli, compiler

import calibrate
import reference
import spans
import workloads

IMPORT_S = time.perf_counter() - _START
# Cold set-ups per run: this process's own and the rest each in a fresh
# process, so a cache warmed by one set-up cannot shorten the next.
SETUPS = 3
# Gated timings are in reference seconds (see calibrate.py).  The host's
# speed moves within seconds, so the measured loop runs the calibration
# kernel before any op that starts this many wall seconds after its last run.
CALIBRATE_EVERY_S = 0.5

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
# Printed beside the gated metrics but not gated themselves (see README.md).
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update({
    "op_s.p90": "s",
    "fail_frac": "ratio",
    "wall.setup_s": "s",
    "wall.ops_per_s": "1/s",
    "wall.op_s.p50": "s",
    "host.calibration_s": "s",
})


@dataclass(frozen=True)
class Case:
    item: object  # circuit dict, or the search seed of a cz4x4 op
    argv: tuple[str, ...]


def make_case(spec: workloads.Spec, item, path: Path, warmup: bool = False) -> Case:
    """The CLI call for one input; a circuit is written to ``path`` first."""
    if spec.name == "cz4x4":
        restarts = str(spec.params["warmup_restarts" if warmup else "restarts"])
        argv = ("analyze", "cz4x4", "--restarts", restarts, "--seed", str(item))
    else:
        path.write_text(json.dumps(item), encoding="utf-8")
        command = "compile" if spec.name == "compile_place" else "simulate"
        argv = (command, str(path))
        if command == "compile":
            argv += ("--scheme", "clements")
    return Case(item, argv + ("--format", "json"))


def prepare(spec: workloads.Spec, seed: int, out_dir: Path) -> list[Case]:
    """Generate the inputs for ``seed`` and write the circuit files."""
    folder = out_dir / "inputs" / f"{spec.name}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    return [
        make_case(spec, item, folder / f"{i:03d}.json")
        for i, item in enumerate(workloads.make_inputs(spec, seed))
    ]


def run_op(argv, tracer: spans.Tracer | None = None) -> tuple[object, str, float]:
    """One CLI call; returns (exit code or error, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        root = len(tracer.spans) if tracer else None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code, _ = tracer.call("cli.main", cli.main, list(argv))
        except Exception as exc:  # a raising op is a failed op; the run goes on
            code = repr(exc)
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    if tracer is not None:
        tracer.spans[root][5]["output_bytes"] = len(text.encode("utf-8"))
    return code, text, elapsed


def reference_problem(spec: workloads.Spec, case: Case, text: str) -> str | None:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if spec.name == "ghz_chain":
        return reference.check_ghz(payload, case.item)
    if spec.name == "random_forest":
        return reference.check_forest(payload, case.item)
    if spec.name == "compile_place":
        unplaced = compiler.compile_circuit(
            compiler.parse_circuit(case.item), compiler.CompileOptions(place=False)
        )
        return reference.check_placement(payload, unplaced.program)
    return reference.check_cz4x4(payload)


class Checker:
    """Checks each input's first output against the reference, and every
    later output of that input for byte equality with the first."""

    def __init__(self, spec: workloads.Spec):
        self.spec = spec
        self.first: dict[int, tuple[bytes, str | None]] = {}
        self.failures: list[str] = []

    def accept(self, index: int, case: Case, code, text: str) -> bool:
        if code != 0:
            problem = f"exit code {code}"
        else:
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            if index not in self.first:
                self.first[index] = (digest, reference_problem(self.spec, case, text))
            first_digest, problem = self.first[index]
            if digest != first_digest:
                problem = "output differs from the first op on this input"
        if problem:
            self.failures.append(f"input {index}: {problem}")
        return problem is None


def set_up(spec: workloads.Spec, seed: int, out_dir: Path) -> tuple[list[Case], float]:
    """Input generation plus one untimed warm-up op on the fixed warm-up input.

    Returns the cases and the set-up time, counted from process start.
    """
    start = time.perf_counter()
    cases = prepare(spec, seed, out_dir)
    warmup = workloads.warmup_input(spec)
    path = out_dir / "inputs" / f"{spec.name}-warmup.json"
    run_op(make_case(spec, warmup, path, warmup=True).argv)
    return cases, IMPORT_S + time.perf_counter() - start


def cold_set_up(workload: str, seed: int, quick: bool, out_dir: Path) -> float:
    """The set-up time of a fresh process running ``set_up`` alone."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--out-dir", str(out_dir), "--setup-only"]
    done = subprocess.run(argv + ["--quick"] * quick, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1])


def measure(
    cases: list[Case], seconds: float, min_ops: int, checker: Checker, clock: calibrate.Calibrator
) -> dict:
    """Closed loop over the inputs until ``seconds`` of op time and at
    least ``min_ops`` ops.

    The calibration kernel runs before the first op, before any op that
    starts ``CALIBRATE_EVERY_S`` after its last run, and after the last op.
    Each op is scaled by the kernel runs on either side of it.  Returns
    wall and reference seconds of each passing op, the totals of all ops,
    and ops attempted.
    """
    kernels = [clock.run()]
    calibrated = time.perf_counter()
    ops = []  # (wall seconds, kernel run just before, passed its check)
    measured = 0.0
    while measured < seconds or len(ops) < min_ops:
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            kernels.append(clock.run())
            calibrated = time.perf_counter()
        index = len(ops) % len(cases)
        code, text, elapsed = run_op(cases[index].argv)
        measured += elapsed
        ops.append((elapsed, len(kernels) - 1, checker.accept(index, cases[index], code, text)))
    kernels.append(clock.run())
    scaled = [(e * calibrate.scale(kernels[k], kernels[k + 1]), ok) for e, k, ok in ops]
    return {
        "wall": [e for e, _, ok in ops if ok],
        "scaled": [e for e, ok in scaled if ok],
        "measured": measured,
        "measured_scaled": sum(e for e, _ in scaled),
        "attempted": len(ops),
    }


def traced(
    spec: workloads.Spec, cases: list[Case], seconds: float, checker: Checker, spans_path: Path
) -> tuple[dict, int, int, list[str]]:
    """Untraced and traced passes over the first ``trace_ops`` inputs,
    alternating until ``seconds`` have passed (at least one pair).

    Returns ``{metric: value}``, traced ops, ops attempted, and problems.
    """
    chosen = cases[: spec.trace_ops]
    k = len(chosen)
    plain_s, traced_s, tracers = [], [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        total = 0.0
        for index, case in enumerate(chosen):
            code, text, elapsed = run_op(case.argv)
            checker.accept(index, case, code, text)
            total += elapsed
        plain_s.append(total / k)
        tracer = spans.Tracer()
        total = 0.0
        with tracer.installed():
            for index, case in enumerate(chosen):
                tracer.op = index
                code, text, elapsed = run_op(case.argv, tracer)
                checker.accept(index, case, code, text)
                total += elapsed
        traced_s.append(total / k)
        tracers.append(tracer)
    with spans_path.open("w", encoding="utf-8") as fh:
        for index, tracer in enumerate(tracers):
            tracer.write(fh, index)
    per_pass = [spans.layer_metrics(t, k) for t in tracers]
    problems = []
    counts = per_pass[0][1]
    if any(p[1] != counts for p in per_pass[1:]):
        problems.append("per-op counts differ between traced passes of the same inputs")
    timings = {
        name: statistics.median(p[0][name] for p in per_pass) for name in per_pass[0][0]
    }
    untraced = statistics.median(plain_s)
    timings["trace.ops_per_s"] = 1.0 / statistics.median(traced_s)
    timings["trace.untraced_ops_per_s"] = 1.0 / untraced
    timings["trace.overhead"] = statistics.median(traced_s) / untraced - 1.0
    return {**counts, **timings}, k * len(tracers), 2 * k * len(tracers), problems


def run(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool = False,
    out_dir: Path = ROOT / ".bench_out",
) -> tuple[dict, dict, list[str]]:
    """Run one workload; returns ``(result, metrics, failures)``.

    ``result`` is the final JSON object, ``metrics`` maps every metric
    printed (a superset of ``result["metrics"]``) to ``(value, samples)``,
    and ``failures`` says what each failed op or check missed.
    """
    spec = (workloads.QUICK if quick else workloads.FULL)[workload]
    cases, setup = set_up(spec, seed, out_dir)
    checker = Checker(spec)
    if trace:
        spans_path = out_dir / f"spans-{workload}-{seed}.jsonl"
        found, samples, attempted, problems = traced(
            spec, cases, seconds, checker, spans_path
        )
        # A layer the workload never enters reads zero.
        metrics = {name: (found.get(name, 0), samples) for name in PER_LAYER}
        reported = PER_LAYER
    else:
        with calibrate.Calibrator() as clock:
            # This process's set-up ran before the kernel's first run, so
            # the run after it stands on both sides.
            after = clock.run()
            setups = [(setup, setup * calibrate.scale(after, after))]
            for _ in range(SETUPS - 1):
                before = clock.run()
                wall = cold_set_up(workload, seed, quick, out_dir)
                setups.append((wall, wall * calibrate.scale(before, clock.run())))
            loop = measure(cases, seconds, spec.min_ops, checker, clock)
        attempted, problems = loop["attempted"], []
        scaled, wall = loop["scaled"], loop["wall"]
        n = len(scaled)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), len(setups)),
            "ops_per_s": (n / loop["measured_scaled"], n),
            "op_s.p50": (statistics.median(scaled) if n else 0.0, n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        if n >= 100:  # p90 only when at least ten samples lie beyond it
            metrics["op_s.p90"] = (statistics.quantiles(scaled, n=10)[8], n)
        metrics["wall.setup_s"] = (statistics.median(w for w, _ in setups), len(setups))
        metrics["wall.ops_per_s"] = (n / loop["measured"], n)
        metrics["wall.op_s.p50"] = (statistics.median(wall) if n else 0.0, n)
        metrics["host.calibration_s"] = (statistics.median(clock.times), len(clock.times))
        reported = END_TO_END
    failed = len(checker.failures) + len(problems)
    metrics["fail_frac"] = (failed / attempted, attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": UNITS[name]} for name in reported
        },
    }
    return result, metrics, checker.failures + problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for smoke tests")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out",
                        help="where inputs and spans are written")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print only the set-up time in seconds")
    args = parser.parse_args(argv)
    source = Path(photonmesh.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"photonmesh was imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        spec = (workloads.QUICK if args.quick else workloads.FULL)[args.workload]
        print(repr(set_up(spec, args.seed, args.out_dir)[1]))
        return 0
    result, metrics, failures = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.out_dir
    )
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} quick {int(args.quick)}")
    print(f"# python {platform.python_version()} numpy {np.__version__} "
          f"nproc {len(os.sched_getaffinity(0))} threads {threading.active_count()} "
          f"blas_threads {os.environ['OMP_NUM_THREADS']}")
    for name, (value, samples) in metrics.items():
        print(f"metric {name} {value!r} {UNITS[name]} samples={samples}")
    for failure in failures[:20]:
        print(f"failure {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
