import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import edgesym
from edgesym.cli import main
from edgesym.geom import circumradius_from_sides
from edgesym.io import write_graph_json, write_off
from edgesym.polytope import _qhull
from edgesym import gallery


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh(*argv):
    """Run ``python *argv`` in a new interpreter that imports this edgesym."""
    env = dict(os.environ, PYTHONPATH=str(Path(edgesym.__file__).parents[1]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def write_huge_cube(tmp_path):
    """An OFF cube of side 1e150: squared lengths near 1e300 leave Qhull no
    room for its roundoff."""
    path = tmp_path / "huge_cube.off"
    corners = [(x, y, z) for x in (0, 1e150) for y in (0, 1e150) for z in (0, 1e150)]
    path.write_text("OFF\n8 0 0\n" + "".join(f"{x} {y} {z}\n" for x, y, z in corners))
    return path


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

    def test_missing_file(self, capsys, tmp_path):
        # both commands stream their inputs: the good file before the
        # missing one is reported before the error ends the run
        cube, missing = tmp_path / "cube.off", str(tmp_path / "missing.off")
        cube.write_text(write_off(gallery("cube")))
        for command in ("analyze", "verify"):
            code, out, err = run(capsys, command, str(cube), missing)
            assert code == 2
            assert "missing.off" in err
            assert json.loads(out)["instance"]["source"] == str(cube)

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
        ("--random", str(2**31)),  # past Qhull's C int point count; nothing is allocated
        ("--random", "100000000000000000000"),  # past numpy's largest array dimension
        ("--gallery", "cube", "--tol", "inf"),
        ("--gallery", "cube", "--tol", "2e6"),
        ("--gallery", "cube", "--tol", "1e-320"),  # every scaled coefficient underflows
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
        code, out, err = run(capsys, "verify", str(write_huge_cube(tmp_path)))
        assert code == 2
        assert out == ""
        assert err.startswith("error: Qhull failed: QH") and err.count("\n") == 1

    def test_qhull_failure_is_input_error_in_a_fresh_process(self, tmp_path):
        # here the Qhull extension is loaded by edgesym, not by scipy.spatial
        done = fresh("-m", "edgesym.cli", "verify", str(write_huge_cube(tmp_path)))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: Qhull failed: QH6154 ")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("k", [520, 600])
    def test_overflowing_coordinates_are_input_error(self, tmp_path, k):
        # past sqrt(max float / 12) the squared distances overflow, and
        # Qhull could take the process down, so this runs in a subprocess
        path = tmp_path / f"oblique_{k}.off"
        points = gallery("oblique_parallelepiped").vertices.array * 2.0**k
        path.write_text(f"OFF\n{len(points)} 0 0\n"
                        + "".join(" ".join(map(repr, p.tolist())) + "\n" for p in points))
        done = fresh("-m", "edgesym.cli", "verify", str(path))
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

    def test_noisy_cube_is_no_traceback(self, capsys, tmp_path):
        # 1e-8 noise moves edge lengths past the length threshold while
        # every fit stays within the fit threshold: the symmetries that
        # change an edge length are not realized, so none of them is
        # counted as realized but not edge-preserving
        path = tmp_path / "noisy_cube.off"
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        corners += np.random.default_rng(0).normal(size=(8, 3)) * 1e-8
        path.write_text("OFF\n8 0 0\n"
                        + "".join(" ".join(map(repr, p.tolist())) + "\n" for p in corners))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        payload = json.loads(out)["payload"]
        assert payload["classification"] == "theorem-applies-and-holds"
        assert payload["counts"] == {"total": 48, "edge_preserving": 1, "realized": 1}

    def test_tol_scaling_echoed(self, capsys):
        code, out, _ = run(capsys, "verify", "--gallery", "cube", "--tol", "10")
        doc = json.loads(out)
        assert doc["tolerance"]["fit_eps"] == pytest.approx(1e-5)


TETRA_OFF = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"


def square_doc(**changes):
    """The unit square as a graph-JSON document, with fields replaced."""
    corners = (("a", 0, 0), ("b", 1, 0), ("c", 1, 1), ("d", 0, 1))
    doc = {"vertices": [{"id": k, "x": x, "y": y} for k, x, y in corners],
           "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}
    return dict(doc, **changes)


def input_error(capsys, path):
    """The one error line of ``verify path``, which must exit 2 with an
    empty report and no traceback."""
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


class TestInputFiles:
    """A malformed input file exits 2 with one error line that names it."""

    @pytest.mark.parametrize("text, message", [
        ("OFF\n", ": missing the counts line"),
        ("OFF\n4 0 0\n0 0 0\n1 0 0\n", ": declared 4 vertices but only 2 data lines remain"),
        ("OFF\n4 0 0\n0 0 0\n1 0\n0 1 0\n0 0 1\n",
         ":4: vertex line needs 3 coordinates, got '1 0'"),
        (TETRA_OFF + "3 0 1 x\n", ":7: bad face record '3 0 1 x'"),
        (TETRA_OFF + "4 0 1 2\n", ":7: face record declares 4 vertices, lists 3"),
    ], ids=["no-counts", "few-vertex-lines", "short-vertex", "non-integer-face",
            "short-face"])
    def test_bad_off(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.off"
        path.write_text(text)
        assert input_error(capsys, path) == f"error: {path}{message}\n"

    @pytest.mark.parametrize("doc, message", [
        (square_doc(vertices=square_doc()["vertices"][:3] + [{"id": "d", "x": "west", "y": 1}]),
         "vertex record 3 has non-numeric coordinates"),
        (square_doc(edges=[["a", "b", "c"]]), "edge record 0 must be a pair"),
        (square_doc(edges=[["a", "z"]]), "edge (a, z) references an unknown vertex label"),
    ], ids=["non-numeric", "not-a-pair", "unknown-label"])
    def test_bad_graph_json(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert input_error(capsys, path) == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("text", [
        write_off(gallery("cube")),
        "8 0 0\n" + "".join(f"{x} {y} {z}\n" for x, y, z in itertools.product((0, 1), repeat=3)),
        json.dumps(square_doc()),
    ], ids=["off-header", "counts-line", "graph-json"])
    def test_format_sniffed_without_extension(self, capsys, tmp_path, text):
        path = tmp_path / "instance"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["instance"]["source"] == str(path)
        assert doc["payload"]["classification"] == "theorem-applies-and-holds"

    def test_bytes_that_are_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin.off"
        path.write_bytes(TETRA_OFF.encode()[:-1] + b"\xff\n")
        assert input_error(capsys, path) == f"error: {path}: byte 33 is not UTF-8 text\n"

    @pytest.mark.parametrize("text, message", [
        ("[" * 200_000, "invalid JSON: maximum recursion depth exceeded"),
        (json.dumps(square_doc(vertices=[{"id": "a", "x": 10**400, "y": 0}])),
         "vertex record 0 has non-numeric coordinates"),
        ('{"vertices": [{"id": "a", "x": ' + "1" * 5000 + ', "y": 0}], "edges": []}',
         "invalid JSON: Exceeds the limit (4300 digits)"),
    ], ids=["deep", "past-the-float-range", "past-4300-digits"])
    def test_json_that_python_cannot_read(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert input_error(capsys, path).startswith(f"error: {path}: {message}")

    def test_unknown_format_without_extension(self, capsys, tmp_path):
        path = tmp_path / "notes"
        path.write_text("vertices: a b c\n")
        assert input_error(capsys, path) == f"error: {path}: cannot determine the input format\n"


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

    @pytest.mark.parametrize("sides", ["3,4,5", "1,1,1,1", "1,2,2.9", "0.3,7,7,1e-3,2.5"])
    def test_radius_is_circumradius_from_sides(self, capsys, sides):
        # read off the polygon's first vertex (r, 0), not solved a second time
        radius = circumradius_from_sides([float(s) for s in sides.split(",")])
        _, out, _ = run(capsys, "reconstruct", "--sides", sides)
        assert json.loads(out)["circumradius"] == radius
        _, out, _ = run(capsys, "reconstruct", "--sides", sides, "--format", "text")
        assert out.splitlines()[0] == f"circumradius: {radius:.12g}"

    def test_polygon_inequality(self, capsys):
        code, _, err = run(capsys, "reconstruct", "--sides", "10,1,1")
        assert code == 2
        assert "longest side" in err

    def test_bad_sides_string(self, capsys):
        code, _, err = run(capsys, "reconstruct", "--sides", "3,four,5")
        assert code == 2

    def test_sides_near_the_float_maximum(self, capsys):
        # the sums of these sides overflow; the solve scales them first
        for sides, radius in (("1.7e308,1.7e308,1.7e308", 1.7e308 / math.sqrt(3)),
                              ("1e308,6e307,6e307", 5.4272042023997519e+307)):
            code, out, err = run(capsys, "reconstruct", "--sides", sides)
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc["circumradius"] == pytest.approx(radius, rel=1e-14)
            assert np.isfinite(doc["vertices"]).all()

    @pytest.mark.parametrize("sides, message", [
        ("1.79e308,1e307,1e307",
         "longest side 1.79e+308 must be shorter than the sum of the others 2e+307"),
        (f"1.7e308,{8.5e307 * (1 + 2**-40)!r},{8.5e307 * (1 + 2**-40)!r}",
         "circumradius "),
    ], ids=["no-polygon", "radius-overflows"])
    def test_sides_past_the_float_range(self, capsys, sides, message):
        code, out, err = run(capsys, "reconstruct", "--sides", sides)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("sides", ["1,1,inf", "1,1,nan"])
    def test_non_finite_side_is_input_error(self, capsys, sides):
        code, out, err = run(capsys, "reconstruct", "--sides", sides)
        assert code == 2
        assert out == ""
        assert err == "error: side lengths must be finite\n"


def test_cli_import_leaves_scipy_unloaded():
    """scipy loads slowly, so only the functions that need a hull or a
    Delaunay triangulation load any of it."""
    done = fresh("-c", "import sys, edgesym.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.stdout == "[]\n"


def test_plane_graph_verify_leaves_scipy_and_numpy_random_unloaded():
    # a CLI process that builds and verifies a plane graph pays for neither
    done = fresh("-c", "import json, sys, edgesym.cli\n"
                       "from edgesym import gallery, verify_graph_theorem\n"
                       "verdict = verify_graph_theorem(gallery('square')).classification\n"
                       "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
                       "                or m.split('.')[:2] == ['numpy', 'random'])\n"
                       "print(json.dumps([verdict, loaded]))")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["theorem-applies-and-holds", []]


def test_hulls_load_only_the_qhull_extension(tmp_path):
    # scipy.spatial's package __init__ would load scipy.linalg, scipy.sparse
    # and about 175 scipy modules; a later import of it reuses the extension
    path = tmp_path / "cube.off"
    path.write_text(write_off(gallery("cube")))
    probe = f"""
import contextlib, io, json, sys
from edgesym.cli import main
from edgesym.verify import random_triangulation
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", {str(path)!r}]), main(["verify", "--random", "40"])]
random_triangulation(20, 1)
loaded = [m for m in ("scipy.spatial._qhull", "scipy.spatial", "scipy.linalg", "scipy.sparse")
          if m in sys.modules]
used = sys.modules["scipy.spatial._qhull"]
import scipy.spatial
same = [getattr(scipy.spatial, name) is getattr(used, name)
        for name in ("ConvexHull", "Delaunay", "QhullError")]
print(json.dumps([codes, loaded, same]))
"""
    done = fresh("-c", probe)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, 0], ["scipy.spatial._qhull"], [True, True, True]]


def test_failed_qhull_load_leaves_no_module_behind():
    # as importlib does, so a later call loads the extension afresh rather
    # than return a module whose code never ran
    probe = """
import importlib.machinery, json, sys
from edgesym.polytope import _qhull
real = importlib.machinery.ExtensionFileLoader.exec_module
def fail(loader, module):
    if module.__name__ == "scipy.spatial._qhull":
        raise ImportError("no extension")
    real(loader, module)
importlib.machinery.ExtensionFileLoader.exec_module = fail
try:
    _qhull()
except ImportError as exc:
    error = str(exc)
left = [m for m in ("scipy.linalg.cython_lapack", "scipy.spatial._qhull") if m in sys.modules]
importlib.machinery.ExtensionFileLoader.exec_module = real
print(json.dumps([error, left, hasattr(_qhull(), "ConvexHull")]))
"""
    done = fresh("-c", probe)
    assert json.loads(done.stdout) == ["no extension", ["scipy.linalg.cython_lapack"], True]


def test_report_bytes_do_not_depend_on_how_qhull_was_loaded(tmp_path):
    path = tmp_path / "dodecahedron.off"
    path.write_text(write_off(gallery("dodecahedron")))
    lean = fresh("-m", "edgesym.cli", "verify", str(path))
    full = fresh("-c", "import sys, scipy.spatial; from edgesym.cli import main; "
                       f"sys.exit(main(['verify', {str(path)!r}]))")
    assert lean.returncode == full.returncode == 0
    assert lean.stdout == full.stdout != ""


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
    qhull = _qhull()
    built = []
    real = qhull.ConvexHull

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qhull, "ConvexHull", counting)
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
