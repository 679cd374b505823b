"""Shop model: machines, transport graph, shuttles, stations.

A model document is a single JSON object with top-level keys exactly
{"machines", "transport", "shuttles", "stations"}.  Validation reports the
offending field by name.  The model hash covers the canonical re-serialization
of the document, so formatting differences do not change identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .canon import doc_hash, is_int

MODEL_KEYS = frozenset({"machines", "transport", "shuttles", "stations"})


class ModelError(ValueError):
    """Invalid model document; message names the offending field."""


@dataclass(frozen=True)
class MachineSpec:
    """One machine: node location and operation kind -> duration map."""

    id: str
    node: str
    operations: dict[str, int]


@dataclass(frozen=True)
class ShuttleSpec:
    """One transport shuttle with its starting node."""

    id: str
    home: str


@dataclass(frozen=True)
class ShopModel:
    """Validated shop-floor structure plus the all-pairs travel table."""

    machines: dict[str, MachineSpec]
    nodes: tuple[str, ...]
    shuttles: dict[str, ShuttleSpec]
    input_station: str
    output_station: str
    model_hash: str
    travel: dict[tuple[str, str], int] = field(repr=False, default_factory=dict)

    def travel_time(self, origin: str, dest: str) -> int | None:
        """Shortest travel time between nodes, None if unreachable."""
        if origin == dest:
            return 0
        return self.travel.get((origin, dest))

    def capable_machines(self, operation: str) -> list[MachineSpec]:
        """Machines that can perform the operation, id order."""
        return [m for mid, m in sorted(self.machines.items()) if operation in m.operations]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelError(message)


def _floyd_warshall(nodes: tuple[str, ...], edges: dict[tuple[str, str], int]) -> dict[tuple[str, str], int]:
    inf = float("inf")
    dist: dict[tuple[str, str], float] = {}
    for a in nodes:
        for b in nodes:
            dist[(a, b)] = 0 if a == b else inf
    for (a, b), w in edges.items():
        if w < dist[(a, b)]:
            dist[(a, b)] = w
    for k in nodes:
        for a in nodes:
            dak = dist[(a, k)]
            if dak is inf:
                continue
            for b in nodes:
                alt = dak + dist[(k, b)]
                if alt < dist[(a, b)]:
                    dist[(a, b)] = alt
    return {(a, b): int(w) for (a, b), w in dist.items() if a != b and w is not inf}


def load_model(text: str) -> ShopModel:
    """Parse and validate a model document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model document is not valid JSON: {exc}") from exc
    return load_model_doc(doc)


def load_model_doc(doc: Any) -> ShopModel:
    _require(isinstance(doc, dict), "model document must be a JSON object")
    extra = set(doc) - MODEL_KEYS
    missing = MODEL_KEYS - set(doc)
    _require(not missing, f"model missing keys: {sorted(missing)}")
    _require(not extra, f"model has unknown keys: {sorted(extra)}")

    transport = doc["transport"]
    _require(isinstance(transport, dict), "transport must be an object")
    for key in ("nodes", "edges"):
        _require(key in transport, f"transport.{key} is required")
    raw_nodes = transport["nodes"]
    _require(
        isinstance(raw_nodes, list) and raw_nodes and all(isinstance(n, str) for n in raw_nodes),
        "transport.nodes must be a non-empty list of strings",
    )
    _require(len(set(raw_nodes)) == len(raw_nodes), "transport.nodes contains duplicates")
    nodes = tuple(raw_nodes)
    node_set = set(nodes)

    edges: dict[tuple[str, str], int] = {}
    raw_edges = transport["edges"]
    _require(isinstance(raw_edges, list), "transport.edges must be a list")
    for i, e in enumerate(raw_edges):
        _require(
            isinstance(e, dict) and {"from", "to", "travel"} <= set(e),
            f"transport.edges[{i}] must have from/to/travel",
        )
        a, b, w = e["from"], e["to"], e["travel"]
        _require(a in node_set, f"transport.edges[{i}].from names unknown node {a!r}")
        _require(b in node_set, f"transport.edges[{i}].to names unknown node {b!r}")
        _require(a != b, f"transport.edges[{i}] is a self-loop at {a!r}")
        _require(is_int(w) and w > 0, f"transport.edges[{i}].travel must be a positive integer")
        _require((a, b) not in edges, f"transport.edges[{i}] duplicates edge {a!r}->{b!r}")
        edges[(a, b)] = w

    stations = doc["stations"]
    _require(
        isinstance(stations, dict) and {"input", "output"} <= set(stations),
        "stations must have input and output",
    )
    input_station, output_station = stations["input"], stations["output"]
    _require(input_station in node_set, f"stations.input names unknown node {input_station!r}")
    _require(output_station in node_set, f"stations.output names unknown node {output_station!r}")
    _require(input_station != output_station, "stations.input and stations.output must differ")

    machines: dict[str, MachineSpec] = {}
    raw_machines = doc["machines"]
    _require(isinstance(raw_machines, dict) and raw_machines, "machines must be a non-empty object")
    for mid, spec in raw_machines.items():
        _require(isinstance(spec, dict), f"machines.{mid} must be an object")
        _require("node" in spec, f"machines.{mid}.node is required")
        _require("operations" in spec, f"machines.{mid}.operations is required")
        node = spec["node"]
        _require(node in node_set, f"machines.{mid}.node names unknown node {node!r}")
        ops = spec["operations"]
        _require(isinstance(ops, dict) and ops, f"machines.{mid}.operations must be a non-empty object")
        for op, dur in ops.items():
            _require(
                is_int(dur) and dur > 0,
                f"machines.{mid}.operations.{op} must be a positive integer duration",
            )
        other = next((m for m in machines.values() if m.node == node), None)
        _require(other is None, f"machines.{mid}.node {node!r} already hosts machine {other.id if other else ''!r}")
        machines[mid] = MachineSpec(id=mid, node=node, operations=dict(ops))
    _require(
        input_station not in {m.node for m in machines.values()},
        "stations.input must not host a machine",
    )
    _require(
        output_station not in {m.node for m in machines.values()},
        "stations.output must not host a machine",
    )

    shuttles: dict[str, ShuttleSpec] = {}
    raw_shuttles = doc["shuttles"]
    _require(isinstance(raw_shuttles, dict) and raw_shuttles, "shuttles must be a non-empty object")
    for sid, spec in raw_shuttles.items():
        _require(isinstance(spec, dict) and "home" in spec, f"shuttles.{sid}.home is required")
        home = spec["home"]
        _require(home in node_set, f"shuttles.{sid}.home names unknown node {home!r}")
        shuttles[sid] = ShuttleSpec(id=sid, home=home)

    travel = _floyd_warshall(nodes, edges)
    # Every machine must be reachable from input, and output from every machine.
    for m in machines.values():
        _require(
            input_station == m.node or (input_station, m.node) in travel,
            f"machines.{m.id} unreachable from stations.input",
        )
        _require(
            m.node == output_station or (m.node, output_station) in travel,
            f"stations.output unreachable from machines.{m.id}",
        )

    return ShopModel(
        machines=machines,
        nodes=nodes,
        shuttles=shuttles,
        input_station=input_station,
        output_station=output_station,
        model_hash=doc_hash(doc),
        travel=travel,
    )


def load_model_file(path: str) -> ShopModel:
    with open(path, encoding="utf-8") as f:
        return load_model(f.read())
