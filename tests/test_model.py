"""Plant model loading: schema validation, routing table, content hash."""

import heapq
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobench.model import ModelError, load_model, load_model_doc


def _broken(doc, mutate):
    clone = json.loads(json.dumps(doc))
    mutate(clone)
    return clone


def test_minicell_loads(minicell_model):
    m = minicell_model
    assert sorted(m.machines) == ["M1", "M2"]
    assert m.input_station == "IN"
    assert m.output_station == "OUT"
    at_node = {spec.node: spec for spec in m.machines.values()}
    assert at_node["M1"].operations == {"A": 10}
    assert "IN" not in at_node


def test_travel_uses_shortest_path(line_model):
    # IN->OUT has no direct edge; route goes through M1
    assert line_model.travel_time("IN", "OUT") == 10
    assert line_model.travel_time("IN", "M1") == 5
    assert line_model.travel_time("IN", "IN") == 0
    assert line_model.travel_time("IN", "nowhere") is None


def test_capable_machines(minicell_model):
    assert [m.id for m in minicell_model.capable_machines("A")] == ["M1"]
    assert minicell_model.capable_machines("Z") == []


def test_hash_ignores_formatting(minicell_model_doc, minicell_model):
    spaced = json.dumps(minicell_model_doc, indent=4, sort_keys=False)
    assert load_model(spaced).model_hash == minicell_model.model_hash
    assert len(minicell_model.model_hash) == 64


def test_hash_tracks_content(minicell_model_doc, minicell_model):
    doc = _broken(minicell_model_doc, lambda d: d["machines"]["M1"]["operations"].update(A=11))
    assert load_model_doc(doc).model_hash != minicell_model.model_hash


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d.pop("stations"), "missing keys"),
        (lambda d: d["transport"]["nodes"].append("IN"), "duplicates"),
        (lambda d: d["transport"]["edges"].append({"from": "M1", "to": "M1", "travel": 1}), "self-loop"),
        (lambda d: d["transport"]["edges"][0].update(travel=0), "positive integer"),
        (lambda d: d["machines"].update(M3={"node": "M1", "operations": {"C": 1}}), "already hosts"),
        (lambda d: d["machines"]["M1"].update(node="ghost"), "unknown node"),
        (lambda d: d["stations"].update(output="IN"), "must differ"),
        (lambda d: d["shuttles"]["S1"].update(home="ghost"), "unknown node"),
        (lambda d: d["machines"]["M1"]["operations"].update(A=-3), "duration"),
        (lambda d: d["transport"]["edges"][0].update(travel=True), "travel must be"),
        (lambda d: d["machines"]["M1"]["operations"].update(A=True), "integer duration"),
        # a reference that is a list or object names no node, and cannot be hashed
        (lambda d: d["machines"]["M1"].update(node=["M1"]), r"machines\.M1\.node names unknown"),
        (lambda d: d["shuttles"]["S1"].update(home={"n": "IN"}), r"shuttles\.S1\.home names unknown"),
        (lambda d: d["transport"]["edges"][0].update({"from": ["IN"]}), r"edges\[0\]\.from names"),
        (lambda d: d["transport"]["edges"][0].update(to={}), r"edges\[0\]\.to names"),
        (lambda d: d["stations"].update(input=["IN"]), r"stations\.input names unknown"),
        (lambda d: d["stations"].update(output={}), r"stations\.output names unknown"),
    ],
)
def test_validation_names_offender(minicell_model_doc, mutate, fragment):
    doc = _broken(minicell_model_doc, mutate)
    with pytest.raises(ModelError, match=fragment):
        load_model_doc(doc)


def _cut_off(d, *edges):
    """Moves M2 to a new node FAR that only the given edges touch."""
    d["transport"]["nodes"].append("FAR")
    d["transport"]["edges"].extend({"from": a, "to": b, "travel": 1} for a, b in edges)
    d["machines"]["M2"]["node"] = "FAR"


# Every ModelError the loader raises, one damaged MiniCell document each, in
# the order the loader checks; no mutation stands for a document that is no
# object.
EXACT_MESSAGES = [
    (None, "model document must be a JSON object"),
    (lambda d: [d.pop("stations"), d.pop("shuttles")],
     "model missing keys: ['shuttles', 'stations']"),
    (lambda d: d.update(extra=1, more=2), "model has unknown keys: ['extra', 'more']"),
    (lambda d: d.update(transport=[]), "transport must be an object"),
    (lambda d: d["transport"].pop("nodes"), "transport.nodes is required"),
    (lambda d: d["transport"].pop("edges"), "transport.edges is required"),
    (lambda d: d["transport"].update(nodes=[]),
     "transport.nodes must be a non-empty list of strings"),
    (lambda d: d["transport"]["nodes"].append(5),
     "transport.nodes must be a non-empty list of strings"),
    (lambda d: d["transport"]["nodes"].append("IN"), "transport.nodes contains duplicates"),
    (lambda d: d["transport"].update(edges={}), "transport.edges must be a list"),
    (lambda d: d["transport"]["edges"][3].pop("travel"),
     "transport.edges[3] must have from/to/travel"),
    (lambda d: d["transport"]["edges"].insert(2, ["IN", "M1", 5]),
     "transport.edges[2] must have from/to/travel"),
    (lambda d: d["transport"]["edges"][0].update({"from": "ghost"}),
     "transport.edges[0].from names unknown node 'ghost'"),
    (lambda d: d["transport"]["edges"][1].update(to=["M2"]),
     "transport.edges[1].to names unknown node ['M2']"),
    (lambda d: d["transport"]["edges"][2].update({"from": ["IN"]}),
     "transport.edges[2].from names unknown node ['IN']"),
    (lambda d: d["transport"]["edges"][4].update(to=5),
     "transport.edges[4].to names unknown node 5"),
    (lambda d: d["transport"]["edges"].append({"from": "M1", "to": "M1", "travel": 1}),
     "transport.edges[12] is a self-loop at 'M1'"),
    (lambda d: d["transport"]["edges"][7].update(travel=0),
     "transport.edges[7].travel must be a positive integer"),
    (lambda d: d["transport"]["edges"][7].update(travel=True),
     "transport.edges[7].travel must be a positive integer"),
    (lambda d: d["transport"]["edges"][7].update(travel=-1),
     "transport.edges[7].travel must be a positive integer"),
    (lambda d: d["transport"]["edges"][7].update(travel=1.5),
     "transport.edges[7].travel must be a positive integer"),
    (lambda d: d["transport"]["edges"].append({"from": "IN", "to": "M1", "travel": 7}),
     "transport.edges[12] duplicates edge 'IN'->'M1'"),
    (lambda d: d["stations"].pop("output"), "stations must have input and output"),
    (lambda d: d["stations"].update(input="ghost"), "stations.input names unknown node 'ghost'"),
    (lambda d: d["stations"].update(output={}), "stations.output names unknown node {}"),
    (lambda d: d["stations"].update(output="IN"), "stations.input and stations.output must differ"),
    (lambda d: d.update(machines={}), "machines must be a non-empty object"),
    (lambda d: d["machines"].update(M2=["M2"]), "machines.M2 must be an object"),
    (lambda d: d["machines"]["M1"].pop("node"), "machines.M1.node is required"),
    (lambda d: d["machines"]["M1"].pop("operations"), "machines.M1.operations is required"),
    (lambda d: d["machines"]["M1"].update(node="ghost"),
     "machines.M1.node names unknown node 'ghost'"),
    # braces in an id are data, not a format field
    (lambda d: d["machines"].update({"M{0}": {"node": "g{}", "operations": {"A": 1}}}),
     "machines.M{0}.node names unknown node 'g{}'"),
    (lambda d: d["machines"]["M2"].update(operations={}),
     "machines.M2.operations must be a non-empty object"),
    (lambda d: d["machines"]["M1"]["operations"].update(A=-3),
     "machines.M1.operations.A must be a positive integer duration"),
    (lambda d: d["machines"]["M2"]["operations"].update(C=1.5),
     "machines.M2.operations.C must be a positive integer duration"),
    (lambda d: d["machines"].update(M3={"node": "M1", "operations": {"C": 1}}),
     "machines.M3.node 'M1' already hosts machine 'M1'"),
    (lambda d: d["machines"]["M1"].update(node="IN"), "stations.input must not host a machine"),
    (lambda d: d["machines"]["M2"].update(node="OUT"), "stations.output must not host a machine"),
    (lambda d: d.update(shuttles={}), "shuttles must be a non-empty object"),
    (lambda d: d["shuttles"]["S2"].pop("home"), "shuttles.S2.home is required"),
    (lambda d: d["shuttles"].update(S3="IN"), "shuttles.S3.home is required"),
    (lambda d: d["shuttles"]["S1"].update(home="ghost"),
     "shuttles.S1.home names unknown node 'ghost'"),
    (lambda d: _cut_off(d), "machines.M2 unreachable from stations.input"),
    (lambda d: _cut_off(d, ("IN", "FAR")), "stations.output unreachable from machines.M2"),
]


@pytest.mark.parametrize("mutate, message", EXACT_MESSAGES)
def test_every_refusal_reads_exactly(minicell_model_doc, mutate, message):
    doc = _broken(minicell_model_doc, mutate) if mutate else [minicell_model_doc]
    with pytest.raises(ModelError) as refused:
        load_model_doc(doc)
    assert str(refused.value) == message


class _Name(str):
    """A node name that is a ``str`` subclass."""


def test_a_str_subclass_names_its_node(minicell_model_doc, minicell_model):
    """Node references are compared, not only looked up by type: a ``str``
    subclass names the node it equals."""
    doc = json.loads(json.dumps(minicell_model_doc))
    for edge in doc["transport"]["edges"]:
        edge["from"], edge["to"] = _Name(edge["from"]), _Name(edge["to"])
    doc["machines"]["M1"]["node"] = _Name("M1")
    doc["shuttles"]["S1"]["home"] = _Name("IN")
    doc["stations"]["input"] = _Name("IN")
    loaded = load_model_doc(doc)
    assert loaded.travel == minicell_model.travel
    assert loaded.model_hash == minicell_model.model_hash


def test_station_cannot_host_machine(minicell_model_doc):
    doc = _broken(minicell_model_doc, lambda d: d["machines"]["M1"].update(node="IN"))
    with pytest.raises(ModelError):
        load_model_doc(doc)


def test_machine_unreachable_is_rejected(minicell_model_doc):
    def cut(d):
        d["transport"]["nodes"].append("FAR")
        d["machines"]["M2"]["node"] = "FAR"

    with pytest.raises(ModelError, match="reach"):
        load_model_doc(_broken(minicell_model_doc, cut))


def _shortest_paths(nodes, edges):
    """Dijkstra from every origin: {(a, b): time} for each reachable b != a,
    origin-major in node order."""
    out = {}
    for a in nodes:
        dist = {a: 0}
        heap = [(0, a)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for (x, v), w in edges.items():
                if x == u and d + w < dist.get(v, float("inf")):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        out.update(((a, b), dist[b]) for b in nodes if b != a and b in dist)
    return out


@st.composite
def transport_graphs(draw):
    """1-25 free nodes beside IN, M1 and OUT, in a drawn order, and one-way
    edges among all of them with travel 1-2, so that unreachable nodes and
    tied alternative paths are common; IN -> M1 -> OUT keeps the shop valid."""
    size = draw(st.integers(min_value=1, max_value=25))
    free = draw(st.lists(st.text(min_size=1, max_size=3), min_size=size, max_size=size,
                         unique=True).filter(lambda names: not {"IN", "M1", "OUT"} & set(names)))
    nodes = draw(st.permutations(["IN", "M1", "OUT", *free]))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(lambda p: p[0] != p[1])
    count = draw(st.integers(min_value=0, max_value=3 * len(nodes)))
    edges = draw(st.dictionaries(pairs, st.integers(min_value=1, max_value=2),
                                 min_size=count, max_size=count))
    edges.setdefault(("IN", "M1"), 1)
    edges.setdefault(("M1", "OUT"), 1)
    return nodes, edges


@settings(deadline=None)
@given(graph=transport_graphs())
def test_travel_is_every_shortest_path_in_node_order(graph):
    nodes, edges = graph
    doc = {
        "machines": {"M1": {"node": "M1", "operations": {"A": 1}}},
        "transport": {"nodes": nodes,
                      "edges": [{"from": a, "to": b, "travel": w} for (a, b), w in edges.items()]},
        "shuttles": {"S1": {"home": "IN"}},
        "stations": {"input": "IN", "output": "OUT"},
    }
    travel = load_model_doc(doc).travel
    expected = _shortest_paths(nodes, edges)
    assert travel == expected
    assert list(travel) == list(expected)


def test_not_json_is_rejected():
    with pytest.raises(ModelError, match="JSON"):
        load_model("{nope")
