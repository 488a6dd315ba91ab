"""Command-line interface.

Subcommands
-----------
``compile CIRCUIT``
    Lower a circuit JSON file to a mesh phase table.  The table lists the
    placed slots only; every other slot of its ``columns`` is parked at
    its ``idle`` setting, the identity.
``simulate CIRCUIT``
    Compile and run a circuit on a basis input, printing amplitudes.
``gates list``
    Dump the gate library (settings, matrices, layer structure).
``analyze cz4x4``
    Run the 4-mode post-selected-CZ feasibility search.
``analyze ghz-scan``
    Measure GHZ chain success probabilities.

Each command builds one record.  ``--format json`` prints it as is, on
one line; ``tsv`` and ``human`` print lines rendered from that record
alone.  Only ``compile`` takes ``--output``; the others print to stdout.

Exit codes: 0 success; 2 illegal gate cascade; 3 mesh placement overflow;
4 malformed input (circuit file, CLI usage, unknown ``gates list --name``)
or a ``simulate`` that cannot answer: "projection left no qubit-structure
amplitude", "certified fold lost its unit norm: ..." and "success
probability 9**-k of k post-selected gates underflows a float".

Circuit files are JSON objects like::

    {"qubits": 2, "gates": [{"g": "H", "q": 0}, {"g": "CNOT", "c": 0, "t": 1}]}
"""

from __future__ import annotations

import argparse
import functools
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
        except RecursionError as exc:  # the decoder recurses once per nesting level
            raise compiler.CircuitParseError(f"{path}: JSON nested too deeply: {exc}") from exc
    return compiler.parse_circuit(data)


def _options(args, **placement) -> compiler.CompileOptions:
    return compiler.CompileOptions(
        cz_form=args.cz_form,
        restore_swaps=not args.no_restore_swaps,
        **placement,
    )


def _add_compile_flags(p: argparse.ArgumentParser) -> None:
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


def _emit(args, record, tsv, human) -> int:
    """Print a command's record: ``--format json`` dumps it as is on one
    line (no ``indent``, so CPython's C encoder renders it), ``tsv`` and
    ``human`` print the lines their renderer makes of it.  The text goes to
    ``--output`` where the command has that option, else to stdout.

    The dump skips the encoder's cycle check: every command builds its
    record as a fresh tree of dicts and lists, none holding itself, and the
    check changes no byte of a tree without a cycle."""
    if args.format == "json":
        text = json.dumps(record, check_circular=False) + "\n"
    else:
        text = "\n".join((tsv if args.format == "tsv" else human)(record)) + "\n"
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _phases(setting: dict) -> str:
    """``theta=(..) phi=(..)``, then ``out=(..)`` for an extended setting."""
    text = (
        f"theta=({fmt_float(setting['theta1'])}, {fmt_float(setting['theta2'])}) "
        f"phi=({fmt_float(setting['phi1'])}, {fmt_float(setting['phi2'])})"
    )
    if "phi3" in setting:
        text += f" out=({fmt_float(setting['phi3'])}, {fmt_float(setting['phi4'])})"
    return text


def _compile_tsv(table: dict) -> list[str]:
    """The placed ``slot`` rows, one ``idle`` row with the phases of every
    unlisted slot (empty column and top_mode, role ``ID``), then the
    ``trunc`` rows."""

    def row(kind: str, column: str, top_mode: str, slot: dict, role: str) -> str:
        phases = [
            fmt_float(slot[key]) if key in slot else ""
            for key in ("theta1", "theta2", "phi1", "phi2", "phi3", "phi4")
        ]
        return "\t".join((kind, column, top_mode, *phases, role))

    lines = ["kind\tcolumn\ttop_mode\ttheta1\ttheta2\tphi1\tphi2\tphi3\tphi4\trole"]
    for slot in table["slots"]:
        lines.append(
            row("slot", str(slot["column"]), str(slot["top_mode"]), slot, slot["role"])
        )
    lines.append(row("idle", "", "", table["idle"], "ID"))
    for trunc in table["truncations"]:
        modes = ";".join(str(m) for m in trunc["modes"])
        lines.append(f"trunc\t{trunc['after_column']}" + "\t" * 8 + f"modes={modes}")
    return lines


def _compile_human(table: dict) -> list[str]:
    total_slots = sum(len(column) for column in table["columns"])
    lines = [
        f"scheme {table['scheme']}, {table['mode_count']} modes, "
        f"{len(table['columns'])} columns, "
        f"{table['slots_used']}/{total_slots} slots used",
        f"qubit positions {table['positions']}, rail flips {table['flips']}",
    ]
    for slot in table["slots"]:
        lines.append(
            f"col {slot['column']:>2} modes ({slot['top_mode']}, "
            f"{slot['top_mode'] + 1}): {slot['role']:<8} {_phases(slot)}"
        )
    for trunc in table["truncations"]:
        modes = ", ".join(str(m) for m in trunc["modes"])
        lines.append(f"truncate aux modes ({modes}) after column {trunc['after_column']}")
    return lines


def cmd_compile(args) -> int:
    """Compile and place a circuit and emit its phase table
    (:meth:`compiler.MeshAssignment.phase_table`) with the qubit layout;
    ``slots_used`` is the number of listed slots."""
    circuit = _load_circuit(args.circuit)
    result = compiler.compile_circuit(circuit, _options(args, scheme=args.scheme))
    table = result.assignment.phase_table()
    table["qubit_count"] = len(result.positions)
    table["positions"] = list(result.positions)
    table["flips"] = list(result.flips)
    table["slots_used"] = len(result.assignment.placements)
    return _emit(args, table, _compile_tsv, _compile_human)


def _simulate_tsv(record: dict) -> list[str]:
    lines = ["kind\tbitstring\tre\tim"]
    for label, (re, im) in record["amplitudes"].items():
        lines.append(f"amp\t{label}\t{fmt_float(re)}\t{fmt_float(im)}")
    lines.append(f"forest\t\t{str(record['forest']).lower()}\t")
    lines.append(f"success\t\t{fmt_float(record['success_probability'])}\t")
    return lines


def _simulate_human(record: dict) -> list[str]:
    lines = [f"input {record['input']}"]
    for label, (re, im) in record["amplitudes"].items():
        if abs(complex(re, im)) >= 1e-12:
            lines.append(f"  |{label}>  {fmt_float(re)}  {fmt_float(im)}")
    lines.append(f"forest {str(record['forest']).lower()}")
    lines.append(f"success probability {fmt_float(record['success_probability'])}")
    return lines


def cmd_simulate(args) -> int:
    """Simulate a circuit and emit its record.  ``amplitudes`` lists only
    the projected basis states, in index order, as ``{bitstring: [re, im]}``;
    a bitstring that is absent has amplitude 0.  The tsv ``amp`` rows follow
    the same entries, and the human lines the ones of magnitude at least
    1e-12.  No ``2**n`` vector is built."""
    circuit = _load_circuit(args.circuit)
    bits = args.input if args.input is not None else "0" * circuit.qubit_count
    if len(bits) != circuit.qubit_count or any(c not in "01" for c in bits):
        raise compiler.CircuitParseError(
            f"--input must be {circuit.qubit_count} bits of 0/1, got {bits!r}"
        )
    sim = compiler.simulate_circuit(circuit, bits, _options(args))
    n = circuit.qubit_count
    if args.dump_state:
        # the simulation keeps no Fock state; the dump is the full one.
        full = fock.run_program(
            sim.compile_result.program, fock.prepare_computational_basis(bits, n)
        )
        with open(args.dump_state, "w", encoding="utf-8") as fh:
            fh.write(fock.format_state_dump(full))
    record = {
        "input": bits,
        "qubits": n,
        "amplitudes": {
            format(i, f"0{n}b"): [float(a.real) + 0.0, float(a.imag) + 0.0]
            for i, a in sim.sparse_amplitudes.items()
        },
        "success_probability": float(sim.success_probability),
        "positions": list(sim.compile_result.positions),
        "flips": list(sim.compile_result.flips),
        "forest": sim.compile_result.forest,
    }
    return _emit(args, record, _simulate_tsv, _simulate_human)


def _gate_sections(name_filter: str | None) -> dict:
    sections = {
        "single_qubit": [
            {
                "name": name,
                "matrix": _matrix_json(gates.single_qubit_matrix(name)),
                "setting": _setting_json(gates.single_qubit_setting(name)),
            }
            for name in ("I", "X", "Y", "Z", "H", "T")
        ],
        "r13_family": [
            {"name": name, "matrix": _matrix_json(matrix), "setting": _setting_json(setting)}
            for name, (matrix, setting) in zip(("R13", "R13p", "R13d"), gates.r13_matrices())
        ],
        "networks": [
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
            for desc in gates.gate_library().values()
        ],
    }
    if name_filter is None:
        return sections
    return {
        key: [entry for entry in entries if entry["name"].lower() == name_filter.lower()]
        for key, entries in sections.items()
    }


def _gates_tsv(sections: dict) -> list[str]:
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
    return lines


def _gates_human(sections: dict) -> list[str]:
    lines = []
    for entry in sections["single_qubit"]:
        lines.append(f"{entry['name']:<8} single-qubit MZI  {_phases(entry['setting'])}")
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
    return lines


def cmd_gates_list(args) -> int:
    sections = _gate_sections(args.name)
    if not any(sections.values()):
        raise _UsageError(f"no gate named {args.name!r}")
    return _emit(args, sections, _gates_tsv, _gates_human)


def _cz4x4_tsv(record: dict) -> list[str]:
    lines = ["name\tvalue"]
    for name, value in record.items():
        if isinstance(value, list):
            lines.append(f"{name}\t" + ";".join(fmt_float(v) for v in value))
        else:
            lines.append(f"{name}\t{fmt_float(value)}")
    return lines


def _cz4x4_human(record: dict) -> list[str]:
    return [
        f"restarts {record['restarts']}",
        f"best process fidelity {fmt_float(record['best_process_fidelity'])}",
        f"best success probability {fmt_float(record['best_success_probability'])}",
        f"constraint residual {fmt_float(record['constraint_residual'])}",
    ]


def cmd_analyze_cz4x4(args) -> int:
    report = analysis.search_cz_in_4x4(restarts=args.restarts, seed=args.seed)
    record = {
        "restarts": report.restarts,
        "best_process_fidelity": report.best_process_fidelity,
        "best_success_probability": report.best_success_probability,
        "best_parameters": list(report.best_parameters),
        "constraint_residual": report.constraint_residual,
    }
    return _emit(args, record, _cz4x4_tsv, _cz4x4_human)


def _ghz_scan_tsv(record: dict) -> list[str]:
    lines = ["n\tprobability\texpected"]
    for row in record["points"]:
        lines.append(
            f"{row['n']}\t{fmt_float(row['probability'])}\t{fmt_float(row['expected'])}"
        )
    return lines


def _ghz_scan_human(record: dict) -> list[str]:
    return [
        f"n={row['n']}: probability {fmt_float(row['probability'])} "
        f"(9^(1-n) = {fmt_float(row['expected'])})"
        for row in record["points"]
    ]


def cmd_analyze_ghz_scan(args) -> int:
    points = analysis.ghz_probability_scan(args.max_n)
    rows = [
        {"n": n, "probability": p, "expected": float(9.0 ** (1 - n))}
        for n, p in points
    ]
    return _emit(args, {"points": rows}, _ghz_scan_tsv, _ghz_scan_human)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``photonmesh`` parser, built once per process: ``parse_args``
    returns a new namespace on each call, so the parser is reused.  Each
    subcommand's ``set_defaults(func=...)`` binds the command function at
    that first build."""
    parser = _Parser(prog="photonmesh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="lower a circuit to a mesh phase table")
    p_compile.add_argument("circuit", help="circuit JSON file")
    p_compile.add_argument("--output", help="write the table here instead of stdout")
    p_compile.add_argument(
        "--scheme",
        choices=("clements", "reck"),
        default="clements",
        help="mesh geometry (default: clements)",
    )
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
