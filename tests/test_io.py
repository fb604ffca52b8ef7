import numpy as np
import pytest

from edgesym import gallery
from edgesym.errors import InputFormatError, NotFullDimensional
from edgesym.geom import DEFAULT_TOLERANCE
from edgesym.io import (
    OffFaceMismatchWarning,
    canonical_json,
    parse_graph_json,
    parse_off,
    write_graph_json,
    write_off,
    write_report,
)

CUBE_OFF = """OFF
8 6 12
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
4 0 1 2 3
4 4 7 6 5
4 0 4 5 1
4 1 5 6 2
4 2 6 7 3
4 3 7 4 0
"""

SQUARE_JSON = (
    '{"vertices":[{"id":"1","x":0.0,"y":0.0},{"id":"2","x":1.0,"y":0.0},'
    '{"id":"3","x":1.0,"y":1.0},{"id":"4","x":0.0,"y":1.0}],'
    '"edges":[["1","2"],["2","3"],["3","4"],["4","1"]]}'
)


class TestOff:
    def test_cube_labels(self):
        P = parse_off(CUBE_OFF)
        assert P.vertices.labels == tuple(str(i) for i in range(8))
        assert np.allclose(P.vertices["6"], [1, 1, 1])

    def test_round_trip(self):
        P = parse_off(CUBE_OFF)
        text = write_off(P)
        Q = parse_off(text)
        assert Q.vertices.labels == P.vertices.labels
        for l in P.vertices.labels:
            assert np.allclose(P.vertices[l], Q.vertices[l])
        assert write_off(Q) == text

    def test_header_optional(self):
        P = parse_off("\n".join(CUBE_OFF.splitlines()[1:]))
        assert len(P.vertices) == 8

    def test_three_vertices_not_full_dimensional(self):
        with pytest.raises(NotFullDimensional):
            parse_off("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")

    def test_bad_counts_line(self):
        with pytest.raises(InputFormatError, match="counts"):
            parse_off("OFF\nfoo bar baz\n")

    def test_bad_coordinate_has_line_number(self):
        text = "OFF\n4 0 0\n0 0 0\n1 0 zero\n0 1 0\n0 0 1\n"
        with pytest.raises(InputFormatError, match=":4:"):
            parse_off(text)

    def test_face_out_of_range(self):
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 9\n"
        with pytest.raises(InputFormatError, match="unknown vertex index 9"):
            parse_off(text)

    @pytest.mark.parametrize("record", ["0", "1 0", "2 0 1", "-1"])
    def test_face_with_fewer_than_3_vertices(self, record):
        text = f"OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n{record}\n"
        with pytest.raises(InputFormatError, match=r"^src\.off:7: a face needs 3 or more"):
            parse_off(text, source="src.off")

    def test_face_mismatch_warns(self):
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n"
        with pytest.warns(OffFaceMismatchWarning):
            parse_off(text)

    def test_consistent_faces_silent(self, recwarn):
        parse_off(CUBE_OFF)
        assert not [w for w in recwarn if issubclass(w.category, OffFaceMismatchWarning)]


class TestGraphJson:
    def test_parse_square(self):
        G = parse_graph_json(SQUARE_JSON)
        assert len(G.bounded_faces()) == 1
        assert len(G.edges) == 4

    def test_round_trip(self):
        G = parse_graph_json(SQUARE_JSON)
        text = write_graph_json(G)
        H = parse_graph_json(text)
        assert H.map == G.map
        assert write_graph_json(H) == text

    def test_missing_fields(self):
        with pytest.raises(InputFormatError):
            parse_graph_json('{"vertices": []}')
        with pytest.raises(InputFormatError):
            parse_graph_json('{"vertices": [{"id": "1"}], "edges": []}')

    @pytest.mark.parametrize("doc, field", [
        ('{"vertices": 7, "edges": []}', "vertices"),
        (SQUARE_JSON.replace('"edges":[["1","2"],["2","3"],["3","4"],["4","1"]]', '"edges":5'),
         "edges"),
    ])
    def test_field_not_a_list(self, doc, field):
        with pytest.raises(InputFormatError, match=f"'{field}' must be a list"):
            parse_graph_json(doc)

    def test_invalid_json(self):
        with pytest.raises(InputFormatError, match="invalid JSON"):
            parse_graph_json("{nope")


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        doc = {"b": 1.0 / 3.0, "a": [1, True, None, "x"]}
        text = canonical_json(doc)
        assert text == '{"a":[1,true,null,"x"],"b":0.33333333333333331}'

    def test_stability(self):
        from edgesym.symmetry import analyze
        from edgesym.polytope import face_map

        P = gallery("cube")
        rep = analyze(face_map(P), P.vertices, instance_id="cube")
        a = write_report("gallery:cube", rep, DEFAULT_TOLERANCE, P.vertices)
        b = write_report("gallery:cube", rep, DEFAULT_TOLERANCE, P.vertices)
        assert a == b
        assert a.endswith("\n")
