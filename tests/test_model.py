"""Plant model loading: schema validation, routing table, content hash."""

import json

import pytest

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


def test_not_json_is_rejected():
    with pytest.raises(ModelError, match="JSON"):
        load_model("{nope")
