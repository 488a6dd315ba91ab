"""Seeded input generators for the four benchmark workloads.

Nothing here imports photonmesh: the program under test only ever sees the
circuit files written from these dictionaries.  Every generator draws from
a ``random.Random`` seeded by the caller, so one seed always gives the same
circuits on any platform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SINGLE_QUBIT = ("I", "X", "Y", "Z", "H", "T", "RZ", "RX", "RY")
ROTATIONS = ("RZ", "RX", "RY")


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; ``quick`` variants are for the benchmark's tests."""

    name: str
    pool: int  # distinct inputs generated per run; the timed loop cycles them
    trace_ops: int  # inputs replayed by the traced run
    min_ops: int  # fewest ops a measured run takes, even past --seconds
    params: dict


# A run takes at least 8 ops, as a median over fewer moves too much from one
# seed to the next, except cz4x4, which runs its fixed suite of six search
# seeds once.  random_forest and compile_place take 100, so that ten
# samples lie beyond op_s.p90, and a random_forest run covers its pool.
FULL = {
    "ghz_chain": Spec("ghz_chain", 1, 1, 8, {"n": 10}),
    "random_forest": Spec(
        "random_forest", 100, 10, 100, {"qubits": 5, "singles": 20, "entanglers": 3, "swaps": 2}
    ),
    "compile_place": Spec("compile_place", 51, 10, 100, {"n_min": 16, "n_max": 32}),
    # The warm-up search is shorter: it reaches every code path a full one
    # does, and a full one would add 15 s of set-up to every run.
    "cz4x4": Spec("cz4x4", 6, 1, 6, {"restarts": 20, "warmup_restarts": 2}),
}

QUICK = {
    "ghz_chain": Spec("ghz_chain", 1, 1, 1, {"n": 4}),
    "random_forest": Spec(
        "random_forest", 3, 2, 1, {"qubits": 4, "singles": 8, "entanglers": 2, "swaps": 1}
    ),
    "compile_place": Spec("compile_place", 3, 2, 1, {"n_min": 10, "n_max": 12}),
    "cz4x4": Spec("cz4x4", 2, 1, 1, {"restarts": 1, "warmup_restarts": 1}),
}

WORKLOADS = tuple(FULL)


def _single(rng: random.Random, q: int) -> dict:
    name = rng.choice(SINGLE_QUBIT)
    gate = {"g": name, "q": q}
    if name in ROTATIONS:
        gate["angle"] = rng.uniform(-math.pi, math.pi)
    return gate


class _Forest:
    """Photon-interaction graph of a circuit, tracked through logical SWAPs.

    A logical SWAP hands each qubit label the other's photon, so a later
    gate on the pair (a, b) couples photons ``photon[a]`` and ``photon[b]``.
    Post-selected gates are exact while these couplings form a forest and
    no logical pair shares two of them.
    """

    def __init__(self, qubits: int):
        self.photon = list(range(qubits))
        self.parent = list(range(qubits))
        self.pairs: set[frozenset[int]] = set()

    def _root(self, p: int) -> int:
        while self.parent[p] != p:
            p = self.parent[p]
        return p

    def allows(self, a: int, b: int) -> bool:
        return frozenset((a, b)) not in self.pairs and self._root(
            self.photon[a]
        ) != self._root(self.photon[b])

    def couple(self, a: int, b: int) -> None:
        self.pairs.add(frozenset((a, b)))
        self.parent[self._root(self.photon[a])] = self._root(self.photon[b])

    def swap(self, a: int, b: int) -> None:
        self.photon[a], self.photon[b] = self.photon[b], self.photon[a]


def ghz_chain(n: int) -> dict:
    """H on qubit 0, then CNOT(q, q+1) down the chain."""
    gates = [{"g": "H", "q": 0}]
    gates += [{"g": "CNOT", "c": q, "t": q + 1} for q in range(n - 1)]
    return {"qubits": n, "gates": gates}


def random_forest(
    rng: random.Random, qubits: int, singles: int, entanglers: int, swaps: int
) -> dict:
    """Shuffled single-qubit gates, forest CZ/CNOTs and logical SWAPs.

    Entangling pairs are non-adjacent three times in four when such a pair
    is allowed, so routing swaps and rail flips are exercised.
    """
    kinds = ["1"] * singles + ["2"] * entanglers + ["S"] * swaps
    rng.shuffle(kinds)
    forest = _Forest(qubits)
    pairs = [(a, b) for a in range(qubits) for b in range(qubits) if a != b]
    gates = []
    for kind in kinds:
        if kind == "1":
            gates.append(_single(rng, rng.randrange(qubits)))
        elif kind == "S":
            a, b = rng.sample(range(qubits), 2)
            forest.swap(a, b)
            gates.append({"g": "SWAP", "a": a, "b": b})
        else:
            allowed = [(a, b) for a, b in pairs if forest.allows(a, b)]
            far = [(a, b) for a, b in allowed if abs(a - b) > 1]
            a, b = rng.choice(far if far and rng.random() < 0.75 else allowed)
            forest.couple(a, b)
            gates.append({"g": rng.choice(("CZ", "CNOT")), "c": a, "t": b})
    return {"qubits": qubits, "gates": gates}


def brickwork(rng: random.Random, n: int) -> dict:
    """Brickwork of adjacent gates sized to fit a Clements mesh on 3n modes.

    Each round puts a single-qubit gate on every qubit, then one of CZ,
    CNOT, SWAP or nothing on each pair of an alternating brick offset.
    A coupling that would close a photon cycle or repeat a pair becomes a
    SWAP.  Three rounds use under half of the mesh's ``3n`` columns at
    every n from 16 to 32, so placement never overflows.
    """
    forest = _Forest(n)
    gates = []
    for rnd in range(3):
        gates += [_single(rng, q) for q in range(n)]
        for a in range(rnd % 2, n - 1, 2):
            b = a + 1
            kind = rng.choice(("CZ", "CNOT", "SWAP", None))
            if kind in ("CZ", "CNOT") and not forest.allows(a, b):
                kind = "SWAP"
            if kind == "SWAP":
                forest.swap(a, b)
                gates.append({"g": "SWAP", "a": a, "b": b})
            elif kind is not None:
                c, t = (a, b) if rng.random() < 0.5 else (b, a)
                forest.couple(c, t)
                gates.append({"g": kind, "c": c, "t": t})
    return {"qubits": n, "gates": gates}


def make_inputs(spec: Spec, seed: int) -> list:
    """The workload's inputs for ``seed``: circuit dicts, or search seeds
    for ``cz4x4``."""
    rng = random.Random(f"{spec.name}:{seed}")
    p = spec.params
    if spec.name == "ghz_chain":
        return [ghz_chain(p["n"])]
    if spec.name == "random_forest":
        return [
            random_forest(rng, p["qubits"], p["singles"], p["entanglers"], p["swaps"])
            for _ in range(spec.pool)
        ]
    if spec.name == "compile_place":
        # Every size in the range equally often, in seeded order: op cost
        # grows steeply with n, so an uneven draw of sizes would move the
        # median more than the circuits' content does.
        span = p["n_max"] - p["n_min"] + 1
        sizes = [p["n_min"] + i % span for i in range(spec.pool)]
        rng.shuffle(sizes)
        return [brickwork(rng, n) for n in sizes]
    if spec.name == "cz4x4":
        # A fixed suite of search seeds in seeded order.  The search's cost
        # varies 2.4x with its seed, so seeds drawn afresh per run would
        # make one run's median differ from the next by more than any
        # change worth measuring.
        suite = list(range(spec.pool))
        rng.shuffle(suite)
        return suite
    raise ValueError(f"unknown workload {spec.name!r}")


def warmup_input(spec: Spec):
    """The set-up's warm-up input: the same for every seed, so ``setup_s``
    does not move with the workload seed."""
    rng = random.Random(f"{spec.name}:warmup")
    p = spec.params
    if spec.name == "ghz_chain":
        return ghz_chain(p["n"])
    if spec.name == "random_forest":
        return random_forest(rng, p["qubits"], p["singles"], p["entanglers"], p["swaps"])
    if spec.name == "compile_place":
        return brickwork(rng, (p["n_min"] + p["n_max"]) // 2)
    if spec.name == "cz4x4":
        return 0
    raise ValueError(f"unknown workload {spec.name!r}")
