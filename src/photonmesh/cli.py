"""Command-line interface.

Subcommands
-----------
``compile CIRCUIT``
    Lower a circuit JSON file to a mesh phase table.
``simulate CIRCUIT``
    Compile and run a circuit on a basis input, printing amplitudes.
``gates list``
    Dump the gate library (settings, matrices, layer structure).
``analyze cz4x4``
    Run the 4-mode post-selected-CZ feasibility search.
``analyze ghz-scan``
    Measure GHZ chain success probabilities.

Exit codes: 0 success; 2 illegal gate cascade; 3 mesh placement overflow;
4 malformed input (circuit file, CLI usage).

Circuit files are JSON objects like::

    {"qubits": 2, "gates": [{"g": "H", "q": 0}, {"g": "CNOT", "c": 0, "t": 1}]}
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, compiler, fock, gates

EXIT_OK = 0
EXIT_CASCADE = 2
EXIT_OVERFLOW = 3
EXIT_PARSE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def fmt_float(x: float) -> str:
    """Stable text form: 15 significant digits, scientific for tiny values."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if x != 0.0 and abs(x) < 1e-4:
        return f"{x:.14e}"
    return f"{x:.15g}"


def _matrix_json(m: np.ndarray) -> list:
    return [
        [[float(v.real) + 0.0, float(v.imag) + 0.0] for v in row]
        for row in np.asarray(m, dtype=complex)
    ]


def _setting_json(setting) -> dict:
    out = {
        "theta1": setting.theta1,
        "theta2": setting.theta2,
        "phi1": setting.phi1,
        "phi2": setting.phi2,
    }
    if setting.is_extended:
        out["phi3"] = setting.phi3
        out["phi4"] = setting.phi4
    return out


def _load_circuit(path: str) -> compiler.CircuitIR:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise compiler.CircuitParseError(f"{path}: invalid JSON: {exc}") from exc
    return compiler.parse_circuit(data)


def _options(args) -> compiler.CompileOptions:
    return compiler.CompileOptions(
        scheme=args.scheme,
        cz_form=args.cz_form,
        restore_swaps=not args.no_restore_swaps,
    )


def _add_compile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scheme",
        choices=("clements", "reck"),
        default="clements",
        help="mesh geometry (default: clements)",
    )
    p.add_argument(
        "--cz-form",
        dest="cz_form",
        choices=("compressed", "swap-sandwich"),
        default="compressed",
        help="CZ realization (default: compressed)",
    )
    p.add_argument(
        "--no-restore-swaps",
        action="store_true",
        help="leave routing swaps in place and report the residual relabeling",
    )


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("human", "json", "tsv"),
        default="human",
        help="output format (default: human)",
    )


def cmd_compile(args) -> int:
    circuit = _load_circuit(args.circuit)
    result = compiler.compile_circuit(circuit, _options(args))
    table = result.assignment.phase_table()
    table["qubit_count"] = result.qubit_count
    table["positions"] = list(result.positions)
    table["flips"] = list(result.flips)
    table["slots_used"] = len(result.assignment.placements)
    if args.format == "json":
        text = json.dumps(table, indent=2) + "\n"
    elif args.format == "tsv":
        lines = ["kind\tcolumn\ttop_mode\ttheta1\ttheta2\tphi1\tphi2\tphi3\tphi4\trole"]
        for slot in table["slots"]:
            phi3 = fmt_float(slot["phi3"]) if "phi3" in slot else ""
            phi4 = fmt_float(slot["phi4"]) if "phi4" in slot else ""
            lines.append(
                "slot\t{column}\t{top_mode}\t{t1}\t{t2}\t{p1}\t{p2}\t{p3}\t{p4}\t{role}".format(
                    column=slot["column"],
                    top_mode=slot["top_mode"],
                    t1=fmt_float(slot["theta1"]),
                    t2=fmt_float(slot["theta2"]),
                    p1=fmt_float(slot["phi1"]),
                    p2=fmt_float(slot["phi2"]),
                    p3=phi3,
                    p4=phi4,
                    role=slot["role"],
                )
            )
        for trunc in table["truncations"]:
            modes = ";".join(str(m) for m in trunc["modes"])
            lines.append(f"trunc\t{trunc['after_column']}\t\t\t\t\t\t\t\tmodes={modes}")
        text = "\n".join(lines) + "\n"
    else:
        used = [s for s in table["slots"] if s["role"] != "ID"]
        lines = [
            f"scheme {table['scheme']}, {table['mode_count']} modes, "
            f"{len(table['columns'])} columns, "
            f"{table['slots_used']}/{len(table['slots'])} slots used",
            f"qubit positions {table['positions']}, rail flips {table['flips']}",
        ]
        for slot in used:
            phases = (
                f"theta=({fmt_float(slot['theta1'])}, {fmt_float(slot['theta2'])}) "
                f"phi=({fmt_float(slot['phi1'])}, {fmt_float(slot['phi2'])})"
            )
            if "phi3" in slot:
                phases += f" out=({fmt_float(slot['phi3'])}, {fmt_float(slot['phi4'])})"
            lines.append(
                f"col {slot['column']:>2} modes ({slot['top_mode']}, "
                f"{slot['top_mode'] + 1}): {slot['role']:<8} {phases}"
            )
        for trunc in table["truncations"]:
            modes = ", ".join(str(m) for m in trunc["modes"])
            lines.append(f"truncate aux modes ({modes}) after column {trunc['after_column']}")
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    circuit = _load_circuit(args.circuit)
    bits = args.input if args.input is not None else "0" * circuit.qubit_count
    if len(bits) != circuit.qubit_count or any(c not in "01" for c in bits):
        raise compiler.CircuitParseError(
            f"--input must be {circuit.qubit_count} bits of 0/1, got {bits!r}"
        )
    sim = compiler.simulate_circuit(circuit, bits, _options(args))
    n = circuit.qubit_count
    labels = [format(i, f"0{n}b") for i in range(2**n)]
    if args.dump_state:
        # sim.final_state is pruned; the dump is the full Fock state.
        layout = fock.QubitLayout(n)
        full = fock.run_program(
            sim.compile_result.program, fock.prepare_computational_basis(bits, layout)
        )
        with open(args.dump_state, "w", encoding="utf-8") as fh:
            fh.write(fock.format_state_dump(full))
    if args.format == "json":
        payload = {
            "input": bits,
            "qubits": n,
            "amplitudes": {
                lab: [float(a.real) + 0.0, float(a.imag) + 0.0]
                for lab, a in zip(labels, sim.amplitudes)
            },
            "success_probability": float(sim.success_probability),
            "positions": list(sim.compile_result.positions),
            "flips": list(sim.compile_result.flips),
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "tsv":
        lines = ["kind\tbitstring\tre\tim"]
        for lab, a in zip(labels, sim.amplitudes):
            lines.append(f"amp\t{lab}\t{fmt_float(a.real)}\t{fmt_float(a.imag)}")
        lines.append(f"success\t\t{fmt_float(sim.success_probability)}\t")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"input {bits}"]
        for lab, a in zip(labels, sim.amplitudes):
            if abs(a) < 1e-12:
                continue
            lines.append(f"  |{lab}>  {fmt_float(a.real)}  {fmt_float(a.imag)}")
        lines.append(f"success probability {fmt_float(sim.success_probability)}")
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    return EXIT_OK


def _gate_sections(name_filter: str | None) -> dict:
    def keep(name: str) -> bool:
        return name_filter is None or name_filter.lower() == name.lower()

    single = []
    for name in ("I", "X", "Y", "Z", "H", "T"):
        if not keep(name):
            continue
        single.append(
            {
                "name": name,
                "matrix": _matrix_json(gates.single_qubit_matrix(name)),
                "setting": _setting_json(gates.single_qubit_setting(name)),
            }
        )
    family = []
    for name, (matrix, setting) in zip(("R13", "R13p", "R13d"), gates.r13_matrices()):
        if not keep(name):
            continue
        family.append(
            {
                "name": name,
                "matrix": _matrix_json(matrix),
                "setting": _setting_json(setting),
            }
        )
    networks = []
    for name, desc in gates.gate_library().items():
        if not keep(name):
            continue
        networks.append(
            {
                "name": desc.name,
                "arity": desc.arity,
                "labeling": desc.native_labeling,
                "mode_count": desc.mode_count,
                "truncate_after": desc.truncate_after,
                "matrix": _matrix_json(desc.matrix),
                "layers": [
                    [
                        {
                            "top_mode": blk.top_mode,
                            "role": blk.role,
                            **_setting_json(blk.setting),
                        }
                        for blk in layer
                    ]
                    for layer in desc.mzi_layers
                ],
            }
        )
    return {"single_qubit": single, "r13_family": family, "networks": networks}


def cmd_gates_list(args) -> int:
    sections = _gate_sections(args.name)
    if args.format == "json":
        text = json.dumps(sections, indent=2) + "\n"
    elif args.format == "tsv":
        lines = ["section\tname\tarity\tmode_count\tlayers\ttruncate_after"]
        for entry in sections["single_qubit"]:
            lines.append(f"single_qubit\t{entry['name']}\t1\t2\t1\tfalse")
        for entry in sections["r13_family"]:
            lines.append(f"r13_family\t{entry['name']}\t1\t2\t1\tfalse")
        for entry in sections["networks"]:
            lines.append(
                f"network\t{entry['name']}\t{entry['arity']}\t{entry['mode_count']}"
                f"\t{len(entry['layers'])}\t{str(entry['truncate_after']).lower()}"
            )
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for entry in sections["single_qubit"]:
            s = entry["setting"]
            lines.append(
                f"{entry['name']:<8} single-qubit MZI  "
                f"theta=({fmt_float(s['theta1'])}, {fmt_float(s['theta2'])}) "
                f"phi=({fmt_float(s['phi1'])}, {fmt_float(s['phi2'])})"
                + (
                    f" out=({fmt_float(s['phi3'])}, {fmt_float(s['phi4'])})"
                    if "phi3" in s
                    else ""
                )
            )
        for entry in sections["r13_family"]:
            row0 = entry["matrix"][0]
            lines.append(
                f"{entry['name']:<8} 1/3-family device  "
                f"first row [{fmt_float(row0[0][0])}, {fmt_float(row0[1][0])}]"
            )
        for entry in sections["networks"]:
            lines.append(
                f"{entry['name']:<8} {entry['mode_count']}-mode network, "
                f"{len(entry['layers'])} layers, labeling {entry['labeling']}"
                + (", truncate aux after" if entry["truncate_after"] else "")
            )
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze_cz4x4(args) -> int:
    report = analysis.search_cz_in_4x4(restarts=args.restarts, seed=args.seed)
    if args.format == "json":
        payload = {
            "restarts": report.restarts,
            "best_process_fidelity": report.best_process_fidelity,
            "best_success_probability": report.best_success_probability,
            "best_parameters": list(report.best_parameters),
            "constraint_residual": report.constraint_residual,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = (
            f"restarts {report.restarts}\n"
            f"best process fidelity {fmt_float(report.best_process_fidelity)}\n"
            f"best success probability {fmt_float(report.best_success_probability)}\n"
            f"constraint residual {fmt_float(report.constraint_residual)}\n"
        )
    sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze_ghz_scan(args) -> int:
    points = analysis.ghz_probability_scan(args.max_n)
    rows = [
        {"n": n, "probability": p, "expected": float(9.0 ** (1 - n))}
        for n, p in points
    ]
    if args.format == "json":
        text = json.dumps({"points": rows}, indent=2) + "\n"
    elif args.format == "tsv":
        lines = ["n\tprobability\texpected"]
        for row in rows:
            lines.append(
                f"{row['n']}\t{fmt_float(row['probability'])}\t{fmt_float(row['expected'])}"
            )
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for row in rows:
            lines.append(
                f"n={row['n']}: probability {fmt_float(row['probability'])} "
                f"(9^(1-n) = {fmt_float(row['expected'])})"
            )
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="photonmesh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="lower a circuit to a mesh phase table")
    p_compile.add_argument("circuit", help="circuit JSON file")
    p_compile.add_argument("--output", help="write the table here instead of stdout")
    _add_compile_flags(p_compile)
    _add_format_flag(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_sim = sub.add_parser("simulate", help="compile and run a circuit")
    p_sim.add_argument("circuit", help="circuit JSON file")
    p_sim.add_argument("--input", help="basis input bits (default: all zeros)")
    p_sim.add_argument("--dump-state", help="write the full output Fock state here")
    _add_compile_flags(p_sim)
    _add_format_flag(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_gates = sub.add_parser("gates", help="gate library commands")
    gates_sub = p_gates.add_subparsers(dest="gates_command", required=True)
    p_list = gates_sub.add_parser("list", help="list gates, settings and networks")
    p_list.add_argument("--name", help="show only the named entry")
    _add_format_flag(p_list)
    p_list.set_defaults(func=cmd_gates_list)

    p_analyze = sub.add_parser("analyze", help="numerical studies")
    analyze_sub = p_analyze.add_subparsers(dest="analyze_command", required=True)
    p_cz = analyze_sub.add_parser("cz4x4", help="search for a CZ in a bare 4-mode mesh")
    p_cz.add_argument("--restarts", type=int, default=200)
    p_cz.add_argument("--seed", type=int, default=0)
    _add_format_flag(p_cz)
    p_cz.set_defaults(func=cmd_analyze_cz4x4)
    p_scan = analyze_sub.add_parser("ghz-scan", help="GHZ chain success probabilities")
    p_scan.add_argument("--max-n", dest="max_n", type=int, default=5)
    _add_format_flag(p_scan)
    p_scan.set_defaults(func=cmd_analyze_ghz_scan)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"photonmesh: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except compiler.CircuitParseError as exc:
        print(f"photonmesh: circuit error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, ValueError) as exc:
        print(f"photonmesh: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except compiler.IllegalCascade as exc:
        print(f"photonmesh: illegal cascade: {exc}", file=sys.stderr)
        return EXIT_CASCADE
    except compiler.PlacementOverflow as exc:
        print(f"photonmesh: placement overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
