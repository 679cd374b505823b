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


def _require(cond: bool, message: str, *args: Any) -> None:
    """Raises ``ModelError`` unless ``cond``; the message is formatted only then."""
    if not cond:
        raise ModelError(message.format(*args))


def _floyd_warshall(nodes: tuple[str, ...], edges: dict[tuple[str, str], int]) -> dict[tuple[str, str], int]:
    inf = float("inf")
    index = {n: i for i, n in enumerate(nodes)}
    dist: list[list[float]] = [[inf] * len(nodes) for _ in nodes]
    for i, row in enumerate(dist):
        row[i] = 0
    for (a, b), w in edges.items():
        dist[index[a]][index[b]] = w
    for k, dk in enumerate(dist):
        for row in dist:
            dak = row[k]
            if dak is not inf:
                row[:] = [x if x <= dak + y else dak + y for x, y in zip(row, dk)]
    return {
        (a, b): int(w)
        for a, row in zip(nodes, dist)
        for b, w in zip(nodes, row)
        if a != b and w is not inf
    }


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
    _require(not missing, "model missing keys: {}", sorted(missing))
    _require(not extra, "model has unknown keys: {}", sorted(extra))

    transport = doc["transport"]
    _require(isinstance(transport, dict), "transport must be an object")
    for key in ("nodes", "edges"):
        _require(key in transport, "transport.{} is required", key)
    raw_nodes = transport["nodes"]
    _require(
        isinstance(raw_nodes, list) and raw_nodes and all(isinstance(n, str) for n in raw_nodes),
        "transport.nodes must be a non-empty list of strings",
    )
    _require(len(set(raw_nodes)) == len(raw_nodes), "transport.nodes contains duplicates")
    nodes = tuple(raw_nodes)  # membership tests compare, so an unhashable reference is unknown

    edges: dict[tuple[str, str], int] = {}
    raw_edges = transport["edges"]
    _require(isinstance(raw_edges, list), "transport.edges must be a list")
    for i, e in enumerate(raw_edges):
        _require(
            isinstance(e, dict) and {"from", "to", "travel"} <= set(e),
            "transport.edges[{}] must have from/to/travel",
            i,
        )
        a, b, w = e["from"], e["to"], e["travel"]
        _require(a in nodes, "transport.edges[{}].from names unknown node {!r}", i, a)
        _require(b in nodes, "transport.edges[{}].to names unknown node {!r}", i, b)
        _require(a != b, "transport.edges[{}] is a self-loop at {!r}", i, a)
        _require(is_int(w) and w > 0, "transport.edges[{}].travel must be a positive integer", i)
        _require((a, b) not in edges, "transport.edges[{}] duplicates edge {!r}->{!r}", i, a, b)
        edges[(a, b)] = w

    stations = doc["stations"]
    _require(
        isinstance(stations, dict) and {"input", "output"} <= set(stations),
        "stations must have input and output",
    )
    input_station, output_station = stations["input"], stations["output"]
    _require(input_station in nodes, "stations.input names unknown node {!r}", input_station)
    _require(output_station in nodes, "stations.output names unknown node {!r}", output_station)
    _require(input_station != output_station, "stations.input and stations.output must differ")

    machines: dict[str, MachineSpec] = {}
    hosts: dict[str, str] = {}  # node -> the machine on it
    raw_machines = doc["machines"]
    _require(isinstance(raw_machines, dict) and raw_machines, "machines must be a non-empty object")
    for mid, spec in raw_machines.items():
        _require(isinstance(spec, dict), "machines.{} must be an object", mid)
        _require("node" in spec, "machines.{}.node is required", mid)
        _require("operations" in spec, "machines.{}.operations is required", mid)
        node = spec["node"]
        _require(node in nodes, "machines.{}.node names unknown node {!r}", mid, node)
        ops = spec["operations"]
        _require(isinstance(ops, dict) and ops, "machines.{}.operations must be a non-empty object", mid)
        for op, dur in ops.items():
            _require(
                is_int(dur) and dur > 0,
                "machines.{}.operations.{} must be a positive integer duration",
                mid,
                op,
            )
        other = hosts.setdefault(node, mid)
        _require(other == mid, "machines.{}.node {!r} already hosts machine {!r}", mid, node, other)
        machines[mid] = MachineSpec(id=mid, node=node, operations=dict(ops))
    _require(input_station not in hosts, "stations.input must not host a machine")
    _require(output_station not in hosts, "stations.output must not host a machine")

    shuttles: dict[str, ShuttleSpec] = {}
    raw_shuttles = doc["shuttles"]
    _require(isinstance(raw_shuttles, dict) and raw_shuttles, "shuttles must be a non-empty object")
    for sid, spec in raw_shuttles.items():
        _require(isinstance(spec, dict) and "home" in spec, "shuttles.{}.home is required", sid)
        home = spec["home"]
        _require(home in nodes, "shuttles.{}.home names unknown node {!r}", sid, home)
        shuttles[sid] = ShuttleSpec(id=sid, home=home)

    travel = _floyd_warshall(nodes, edges)
    # Every machine must be reachable from input, and output from every machine.
    for m in machines.values():
        _require(
            input_station == m.node or (input_station, m.node) in travel,
            "machines.{} unreachable from stations.input",
            m.id,
        )
        _require(
            m.node == output_station or (m.node, output_station) in travel,
            "stations.output unreachable from machines.{}",
            m.id,
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
