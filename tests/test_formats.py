import pytest

from ornaments import formats
from ornaments.geometry import Rat, as_point
from ornaments.model import Ornament, PLMap, TriangulatedManifold
from ornaments.sweep import default_trivial_targets, linear_track, trivial_ornament


def small_ornament():
    digon = TriangulatedManifold(1, 2, [(0, 1), (1, 0)])

    def seg(a, b):
        return PLMap(digon, 2, [as_point(a), as_point(b)])

    return Ornament([
        seg([Rat(1, 3), 0], [1, 0]),
        seg([0, 2], [0, 3]),
        seg([5, 5], [6, 6]),
    ])


def test_ornament_round_trip_bytes():
    o = small_ornament()
    text = formats.dumps_doc(formats.ornament_to_doc(o))
    doc = formats.loads_doc(text)
    again = formats.dumps_doc(formats.ornament_to_doc(formats.ornament_from_doc(doc)))
    assert again == text


def test_parsed_ornament_equals_original():
    o = small_ornament()
    round_tripped = formats.ornament_from_doc(formats.ornament_to_doc(o))
    assert round_tripped == o


def test_track_round_trip_bytes(borromean_k1):
    targets = default_trivial_targets(borromean_k1, 0)
    domains = tuple(f.domain for f in borromean_k1.components)
    end = trivial_ornament(domains, borromean_k1.m, targets)
    track = linear_track(borromean_k1, end, cuts=(Rat(1, 2),))
    text = formats.dumps_doc(formats.track_to_doc(track))
    doc = formats.loads_doc(text)
    again = formats.dumps_doc(formats.track_to_doc(formats.track_from_doc(doc)))
    assert again == text


def test_non_canonical_rationales_are_normalized():
    doc = formats.ornament_to_doc(small_ornament())
    doc["components"][0]["vertices"][0][0] = "2/6"
    parsed = formats.ornament_from_doc(doc)
    emitted = formats.ornament_to_doc(parsed)
    assert emitted["components"][0]["vertices"][0][0] == "1/3"


def test_zero_denominator_reports_location():
    doc = formats.ornament_to_doc(small_ornament())
    doc["components"][1]["vertices"][1][0] = "3/0"
    with pytest.raises(formats.FormatError) as err:
        formats.ornament_from_doc(doc)
    assert "components[1].vertices[1][0]" in str(err.value)


def test_missing_component_fields():
    doc = formats.ornament_to_doc(small_ornament())
    del doc["components"][2]["facets"]
    with pytest.raises(formats.FormatError) as err:
        formats.ornament_from_doc(doc)
    assert "components[2]" in str(err.value)


def _set_m(doc):
    doc["m"] = True


def _set_dim(doc):
    doc["components"][0]["dim"] = True


def _set_facet_index(doc):
    doc["components"][0]["facets"][0] = [False, True]


@pytest.mark.parametrize("corrupt, where", [
    pytest.param(_set_m, "$.m:", id="m"),
    pytest.param(_set_dim, "$.components[0].dim:", id="dim"),
    pytest.param(_set_facet_index, "$.components[0].facets[0]:",
                 id="facet-index"),
])
def test_booleans_are_not_integers(corrupt, where):
    # true == 1 and false == 0 in Python; a document must say 1 and 0
    doc = formats.ornament_to_doc(small_ornament())
    corrupt(doc)
    with pytest.raises(formats.FormatError) as err:
        formats.ornament_from_doc(doc)
    assert str(err.value).startswith(where)


@pytest.mark.parametrize("name", [5, None, ["a"]],
                         ids=["int", "null", "list"])
def test_component_name_must_be_a_string(name):
    doc = formats.ornament_to_doc(small_ornament())
    doc["components"][1]["name"] = name
    with pytest.raises(formats.FormatError) as err:
        formats.ornament_from_doc(doc)
    assert str(err.value).startswith("$.components[1].name:")


def test_wrong_component_count():
    doc = formats.ornament_to_doc(small_ornament())
    doc["components"] = doc["components"][:2]
    with pytest.raises(formats.FormatError):
        formats.ornament_from_doc(doc)


def test_track_keyframe_zero_must_match_base(borromean_k1):
    targets = default_trivial_targets(borromean_k1, 0)
    domains = tuple(f.domain for f in borromean_k1.components)
    end = trivial_ornament(domains, borromean_k1.m, targets)
    doc = formats.track_to_doc(linear_track(borromean_k1, end))
    doc["keyframes"][0]["vertices"][0][0][0] = "9999"
    with pytest.raises(formats.FormatError) as err:
        formats.track_from_doc(doc)
    assert "keyframes[0]" in str(err.value)


def test_track_requires_keyframes(borromean_k1):
    doc = formats.ornament_to_doc(borromean_k1)
    with pytest.raises(formats.FormatError):
        formats.track_from_doc(doc)


def test_loads_doc_reports_json_location():
    with pytest.raises(formats.FormatError) as err:
        formats.loads_doc("{ not json }")
    assert "line 1" in str(err.value)
