import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import edgesym
from edgesym.cli import main
from edgesym.io import write_graph_json, write_off
from edgesym import gallery


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_gallery_cube_counts(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gallery", "cube")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["payload"]["counts"] == {
            "total": 48, "edge_preserving": 48, "realized": 48,
        }
        assert doc["instance"]["vertex_count"] == 8

    def test_gallery_box_counts(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gallery", "box_1_2_3")
        doc = json.loads(out)
        assert doc["payload"]["counts"] == {
            "total": 48, "edge_preserving": 8, "realized": 8,
        }

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "missing.off")
        assert code == 2
        assert "missing.off" in err

    def test_off_input(self, capsys, tmp_path):
        path = tmp_path / "cube.off"
        path.write_text(write_off(gallery("cube")))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["payload"]["counts"]["total"] == 48

    def test_graph_input(self, capsys, tmp_path):
        path = tmp_path / "sq.json"
        path.write_text(write_graph_json(gallery("square")))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["payload"]["counts"]["total"] == 8

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gallery", "cube", "--format", "text")
        assert code == 0
        assert "48 total, 48 edge-preserving, 48 realized" in out

    def test_unknown_gallery(self, capsys):
        code, _, err = run(capsys, "analyze", "--gallery", "nonagon")
        assert code == 2
        assert "unknown gallery name" in err


class TestVerify:
    def test_hex_prism(self, capsys):
        code, out, _ = run(capsys, "verify", "--gallery", "hex_prism")
        assert code == 0
        assert json.loads(out)["payload"]["classification"] == "theorem-applies-and-holds"

    def test_oblique(self, capsys):
        code, out, _ = run(capsys, "verify", "--gallery", "oblique_parallelepiped")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["classification"] == "hypothesis-fails-conclusion-fails"
        assert doc["payload"]["violations"]

    def test_random(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "20", "--seed", "42")
        assert code == 0
        assert json.loads(out)["payload"]["classification"] == "theorem-applies-and-holds"

    def test_batch_order(self, capsys, tmp_path):
        p1 = tmp_path / "a.off"
        p1.write_text(write_off(gallery("tetrahedron")))
        p2 = tmp_path / "b.json"
        p2.write_text(write_graph_json(gallery("parallelogram")))
        code, out, _ = run(capsys, "verify", str(p1), str(p2))
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert lines[0]["instance"]["source"].endswith("a.off")
        assert lines[1]["instance"]["source"].endswith("b.json")

    @pytest.mark.parametrize("argv", [
        ("--gallery", "cube", "--tol", "0"),
        ("--gallery", "cube", "--tol", "-1"),
        ("--random", "3"),
        ("--random", "5", "--seed", "-1"),
        ("--gallery", "cube", "--tol", "inf"),
        ("--gallery", "cube", "--tol", "2e6"),
    ])
    def test_bad_option_value_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["off", "json"])
    def test_non_finite_coordinate_is_input_error(self, capsys, tmp_path, kind, value):
        path = tmp_path / f"bad.{kind}"
        if kind == "off":
            path.write_text(f"OFF\n4 0 0\n0 0 0\n1 0 0\n0 1 0\n0 0 {value}\n")
        else:
            path.write_text(json.dumps({
                "vertices": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0},
                             {"id": "c", "x": value, "y": 1}],
                "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
            }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite coordinate" in err

    @pytest.mark.parametrize("doc", [
        {"vertices": 7, "edges": []},
        {"vertices": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0},
                      {"id": "c", "x": 0, "y": 1}], "edges": 5},
    ], ids=["vertices", "edges"])
    def test_graph_field_not_a_list_is_input_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a list" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_gallery_parameter_is_input_error(self, capsys, value):
        code, out, err = run(capsys, "verify", "--gallery", f"twisted_squares:4:2:{value}")
        assert code == 2
        assert out == ""
        assert err == (f"error: need finite parameters, got s_out=4.0, s_in=2.0, "
                       f"alpha_deg={value}\n")

    def test_empty_off_face_record_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}:7: a face needs 3 or more vertices: '0'\n"

    def test_qhull_failure_is_input_error(self, capsys, tmp_path):
        # squared lengths near 1e300 leave Qhull no room for its roundoff
        path = tmp_path / "huge_cube.off"
        corners = [(x, y, z) for x in (0, 1e150) for y in (0, 1e150) for z in (0, 1e150)]
        path.write_text("OFF\n8 0 0\n" + "".join(f"{x} {y} {z}\n" for x, y, z in corners))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: Qhull failed: QH") and err.count("\n") == 1

    @pytest.mark.parametrize("k", [520, 600])
    def test_overflowing_coordinates_are_input_error(self, tmp_path, k):
        # past sqrt(max float / 12) the squared distances overflow, and
        # Qhull could take the process down, so this runs in a subprocess
        path = tmp_path / f"oblique_{k}.off"
        points = gallery("oblique_parallelepiped").vertices.array * 2.0**k
        path.write_text(f"OFF\n{len(points)} 0 0\n"
                        + "".join(" ".join(map(repr, p.tolist())) + "\n" for p in points))
        env = dict(os.environ, PYTHONPATH=str(Path(edgesym.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "edgesym.cli", "verify", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and "squared distances overflow" in done.stderr

    def test_tiny_box_is_no_alarm(self, capsys, tmp_path):
        # edges 1e-12, 2e-12 and 3e-12: every length threshold shrinks with
        # the box, so no edge difference drowns in an absolute floor
        path = tmp_path / "tiny_box.off"
        corners = [(x, y, z) for x in (0, 1e-12) for y in (0, 2e-12) for z in (0, 3e-12)]
        path.write_text("OFF\n8 0 0\n" + "".join(f"{x} {y} {z}\n" for x, y, z in corners))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["payload"]["classification"] == "theorem-applies-and-holds"

    def test_tol_scaling_echoed(self, capsys):
        code, out, _ = run(capsys, "verify", "--gallery", "cube", "--tol", "10")
        doc = json.loads(out)
        assert doc["tolerance"]["fit_eps"] == pytest.approx(1e-5)


class TestReconstruct:
    def test_345(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--sides", "3,4,5")
        assert code == 0
        doc = json.loads(out)
        assert doc["circumradius"] == pytest.approx(2.5, abs=1e-9)
        assert len(doc["vertices"]) == 3

    def test_unit_square(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--sides", "1,1,1,1")
        doc = json.loads(out)
        assert doc["circumradius"] == pytest.approx(0.70711, abs=1e-5)

    def test_polygon_inequality(self, capsys):
        code, _, err = run(capsys, "reconstruct", "--sides", "10,1,1")
        assert code == 2
        assert "longest side" in err

    def test_bad_sides_string(self, capsys):
        code, _, err = run(capsys, "reconstruct", "--sides", "3,four,5")
        assert code == 2

    @pytest.mark.parametrize("sides", ["1,1,inf", "1,1,nan"])
    def test_non_finite_side_is_input_error(self, capsys, sides):
        code, out, err = run(capsys, "reconstruct", "--sides", sides)
        assert code == 2
        assert out == ""
        assert err == "error: side lengths must be finite\n"


def test_cli_import_leaves_scipy_unloaded():
    """scipy.spatial loads slowly, so only the functions that need a hull
    or a Delaunay triangulation import it."""
    probe = ("import sys, edgesym.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        for argv in (
            ["analyze", "--gallery", "cube"],
            ["verify", "--gallery", "frustum"],
            ["verify", "--random", "12", "--seed", "5"],
            ["reconstruct", "--sides", "2,3,4"],
            ["verify", "--gallery", "hex_three_rhombi", "--format", "text"],
        ):
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2


@pytest.fixture
def hull_count(monkeypatch):
    """The number of scipy ConvexHull objects built since the fixture ran."""
    import scipy.spatial

    built = []
    real = scipy.spatial.ConvexHull

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
    return built


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_one_hull_per_off_file(capsys, tmp_path, hull_count, command):
    # parsing checks the file's face records against the hull faces, and the
    # command takes the face map again: both read the hull built with the
    # polytope
    path = tmp_path / "prism40.off"
    path.write_text(write_off(gallery("prism:40")))
    hull_count.clear()
    code, out, _ = run(capsys, command, str(path))
    assert code == 0 and json.loads(out)["payload"]
    assert len(hull_count) == 1
