"""Golden parity: every result field except wall time, pinned per path.

Each case solves one small graph under one configuration and compares
the whole result -- clique lists, ``found_by``, ``levels``,
``windows``, ``device_stats``, ``stage_times``, ``model_time_s`` and
the rest, every field except the host wall clock -- byte for byte
against ``golden_parity.json``. The matrix covers every problem kind
on every search path (full, windowed, concurrent windows at fanout >
1, adaptive splitting under a tight budget) plus the trivial solves,
so a change to stage dispatch or result assembly that moves any field
shows up here.

Regenerate the golden file only when a change is *meant* to move
these numbers::

    PYTHONPATH=src python tests/pipeline/test_golden_parity.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Device, DeviceSpec, MaxCliqueSolver, SolverConfig
from repro.graph import from_edge_list
from repro.graph import generators as gen

GOLDEN = Path(__file__).with_name("golden_parity.json")
MIB = 1 << 20
#: device budget of the adaptive cases: forces mid-sweep window splits
TIGHT_BYTES = 6000

GRAPHS = {
    "er40": lambda: gen.erdos_renyi(40, 0.45, seed=4),
    "planted": lambda: gen.planted_clique(300, 10, avg_degree=2.0, seed=0),
    "cycle12": lambda: gen.cycle_graph(12),
    "star9": lambda: gen.star_graph(9),
    "empty": lambda: from_edge_list([]),
    "edgeless": lambda: from_edge_list([], num_vertices=5),
}

KINDS = {
    "max-clique": {},
    "kclique3": {"problem": "k-clique-count", "k": 3},
    "maximal": {"problem": "maximal-enum"},
}

PATHS = {
    "full": {},
    "w8": {"window_size": 8},
    "w8f3": {"window_size": 8, "window_fanout": 3},
}


def _cases():
    cases = {}
    for kname, kind in KINDS.items():
        for pname, path in PATHS.items():
            cases[f"er40-{kname}-{pname}"] = ("er40", {**kind, **path}, 64 * MIB)
        for g in ("empty", "edgeless"):
            cases[f"{g}-{kname}"] = (g, kind, 64 * MIB)
    for k in (1, 2, 3, 4):
        cases[f"er40-kclique{k}-full"] = (
            "er40", {"problem": "k-clique-count", "k": k}, 64 * MIB
        )
    early = {"early_exit_heuristic": True, "enumerate_all": False}
    cases["er40-max-clique-early-full"] = ("er40", early, 64 * MIB)
    cases["er40-max-clique-early-w8"] = (
        "er40", {**early, "window_size": 8}, 64 * MIB
    )
    adaptive = {"window_size": 1 << 20, "adaptive_windowing": True}
    cases["er40-max-clique-adaptive"] = (
        "er40", {**adaptive, "heuristic": "none"}, TIGHT_BYTES
    )
    cases["er40-maximal-adaptive"] = (
        "er40", {**adaptive, "problem": "maximal-enum"}, TIGHT_BYTES
    )
    cases["er40-kclique4-adaptive"] = (
        "er40", {**adaptive, "problem": "k-clique-count", "k": 4}, TIGHT_BYTES
    )
    for name, path in PATHS.items():
        cases[f"planted-max-clique-{name}"] = ("planted", path, 64 * MIB)
    # omega = 2 under the default heuristic (which supplies the witness)
    for g in ("cycle12", "star9"):
        for name, path in (
            ("full", {}),
            ("w4", {"window_size": 4}),
            ("w4f2", {"window_size": 4, "window_fanout": 2}),
        ):
            cases[f"{g}-max-clique-{name}"] = (g, path, 64 * MIB)
    return cases


CASES = _cases()


def _canon(obj):
    """JSON-ready form of a result, dropping every ``wall_time_s``."""
    if dataclasses.is_dataclass(obj):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if f.name != "wall_time_s":
                out[f.name] = _canon(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        return {
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
            "data": obj.tolist(),
        }
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def _run(name: str):
    graph, kwargs, mem = CASES[name]
    device = Device(DeviceSpec(memory_bytes=mem))
    result = MaxCliqueSolver(
        GRAPHS[graph](), SolverConfig(**kwargs), device
    ).solve()
    return _canon(result)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_matches_golden(golden, name):
    # compared as serialised text: key order (stage_times is in
    # execution order) and exact float reprs both count
    assert json.dumps(_run(name)) == json.dumps(golden[name])


def test_adaptive_cases_split():
    # the tight budget must actually exercise adaptive splitting
    for name in CASES:
        if name.endswith("-adaptive"):
            assert len(_run(name)["windows"]) > 1, name


if __name__ == "__main__":
    lines = [f"{json.dumps(n)}: {json.dumps(_run(n))}" for n in sorted(CASES)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
