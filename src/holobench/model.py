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

from .canon import doc_hash

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
    """Validate a parsed model document; each field is checked once.

    Node references are compared with each node in turn, so a JSON value
    that is no string (a number, or a list or object, which cannot be
    hashed) names an unknown node, and a ``str`` subclass names the node it
    equals.  An edge's end that is a plain string, by far the most common
    reference, is looked up in a set of the nodes first.
    """
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    extra = set(doc) - MODEL_KEYS
    missing = MODEL_KEYS - set(doc)
    if missing:
        raise ModelError(f"model missing keys: {sorted(missing)}")
    if extra:
        raise ModelError(f"model has unknown keys: {sorted(extra)}")

    transport = doc["transport"]
    if not isinstance(transport, dict):
        raise ModelError("transport must be an object")
    for key in ("nodes", "edges"):
        if key not in transport:
            raise ModelError(f"transport.{key} is required")
    raw_nodes = transport["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes or not all(
        isinstance(n, str) for n in raw_nodes
    ):
        raise ModelError("transport.nodes must be a non-empty list of strings")
    nodes = tuple(raw_nodes)
    node_set = frozenset(nodes)
    if len(node_set) != len(nodes):
        raise ModelError("transport.nodes contains duplicates")

    edges: dict[tuple[str, str], int] = {}
    raw_edges = transport["edges"]
    if not isinstance(raw_edges, list):
        raise ModelError("transport.edges must be a list")
    for i, e in enumerate(raw_edges):
        if not isinstance(e, dict) or "from" not in e or "to" not in e or "travel" not in e:
            raise ModelError(f"transport.edges[{i}] must have from/to/travel")
        a, b, w = e["from"], e["to"], e["travel"]
        if (type(a) is not str or a not in node_set) and a not in nodes:
            raise ModelError(f"transport.edges[{i}].from names unknown node {a!r}")
        if (type(b) is not str or b not in node_set) and b not in nodes:
            raise ModelError(f"transport.edges[{i}].to names unknown node {b!r}")
        if a == b:
            raise ModelError(f"transport.edges[{i}] is a self-loop at {a!r}")
        if type(w) is not int or w <= 0:
            raise ModelError(f"transport.edges[{i}].travel must be a positive integer")
        if (a, b) in edges:
            raise ModelError(f"transport.edges[{i}] duplicates edge {a!r}->{b!r}")
        edges[a, b] = w

    stations = doc["stations"]
    if not isinstance(stations, dict) or "input" not in stations or "output" not in stations:
        raise ModelError("stations must have input and output")
    input_station, output_station = stations["input"], stations["output"]
    if input_station not in nodes:
        raise ModelError(f"stations.input names unknown node {input_station!r}")
    if output_station not in nodes:
        raise ModelError(f"stations.output names unknown node {output_station!r}")
    if input_station == output_station:
        raise ModelError("stations.input and stations.output must differ")

    machines: dict[str, MachineSpec] = {}
    hosts: dict[str, str] = {}  # node -> the machine on it
    raw_machines = doc["machines"]
    if not isinstance(raw_machines, dict) or not raw_machines:
        raise ModelError("machines must be a non-empty object")
    for mid, spec in raw_machines.items():
        if not isinstance(spec, dict):
            raise ModelError(f"machines.{mid} must be an object")
        if "node" not in spec:
            raise ModelError(f"machines.{mid}.node is required")
        if "operations" not in spec:
            raise ModelError(f"machines.{mid}.operations is required")
        node = spec["node"]
        if node not in nodes:
            raise ModelError(f"machines.{mid}.node names unknown node {node!r}")
        ops = spec["operations"]
        if not isinstance(ops, dict) or not ops:
            raise ModelError(f"machines.{mid}.operations must be a non-empty object")
        for op, dur in ops.items():
            if type(dur) is not int or dur <= 0:
                raise ModelError(
                    f"machines.{mid}.operations.{op} must be a positive integer duration"
                )
        other = hosts.setdefault(node, mid)
        if other != mid:
            raise ModelError(f"machines.{mid}.node {node!r} already hosts machine {other!r}")
        machines[mid] = MachineSpec(id=mid, node=node, operations=dict(ops))
    if input_station in hosts:
        raise ModelError("stations.input must not host a machine")
    if output_station in hosts:
        raise ModelError("stations.output must not host a machine")

    shuttles: dict[str, ShuttleSpec] = {}
    raw_shuttles = doc["shuttles"]
    if not isinstance(raw_shuttles, dict) or not raw_shuttles:
        raise ModelError("shuttles must be a non-empty object")
    for sid, spec in raw_shuttles.items():
        if not isinstance(spec, dict) or "home" not in spec:
            raise ModelError(f"shuttles.{sid}.home is required")
        home = spec["home"]
        if home not in nodes:
            raise ModelError(f"shuttles.{sid}.home names unknown node {home!r}")
        shuttles[sid] = ShuttleSpec(id=sid, home=home)

    travel = _floyd_warshall(nodes, edges)
    # Every machine must be reachable from input, and output from every machine.
    for m in machines.values():
        if input_station != m.node and (input_station, m.node) not in travel:
            raise ModelError(f"machines.{m.id} unreachable from stations.input")
        if m.node != output_station and (m.node, output_station) not in travel:
            raise ModelError(f"stations.output unreachable from machines.{m.id}")

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
