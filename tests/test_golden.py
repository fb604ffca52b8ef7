"""Byte-stability of the CLI reports.

Every case runs ``edgesym analyze`` or ``edgesym verify`` in-process through
``cli.main`` and compares its stdout, byte for byte, with the report stored
under ``tests/golden/``: one file per case, named after its arguments, with
the extension of its format (``.json`` or ``.txt``). A change to any report
byte fails here, and the failure names what moved: the JSON paths that
differ, each with its old and new value, or a unified diff of a text
report.

The convention for a change that moves report bytes on purpose: run
``python tests/test_golden.py`` on the changed tree. It rewrites the stored
reports and prints, for each case that changed, the paths that moved (the
labels of the changed lines for a text report), then how many cases each
path moved in. The change quotes that summary in CHANGES.md, so that an
announced change can be told from a regression.

The floats depend on the numpy/LAPACK build that computed them; the reports
were recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (Python 3.11). On
another build, regenerate them from a commit whose reports are trusted, and
review the summary.
"""

import collections
import contextlib
import difflib
import io
import json
import pathlib

from edgesym.cli import main
from edgesym.gallery import gallery_names

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")


def cases() -> list[tuple[str, ...]]:
    fixed = [name for name in gallery_names() if ":" not in name]
    specs = fixed + [f"{kind}:{n}" for kind in ("prism", "antiprism") for n in range(3, 9)]
    out = []
    for fmt in ("json", "text"):
        for spec in specs:
            for command in ("analyze", "verify"):
                out.append((command, "--gallery", spec, "--format", fmt))
        for n in (10, 60):
            for seed in range(3):
                out.append(("verify", "--random", str(n), "--seed", str(seed),
                            "--format", fmt))
    return out


def golden_path(argv) -> pathlib.Path:
    """``verify --gallery prism:3 --format json`` is stored as
    ``verify_gallery_prism-3.json``."""
    *args, _, fmt = argv
    stem = "_".join(a.removeprefix("--").replace(":", "-") for a in args)
    return GOLDEN_DIR / f"{stem}.{'json' if fmt == 'json' else 'txt'}"


def report(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def json_changes(old, new, path="") -> list[tuple[str, object, object]]:
    """(path, old value, new value) of every leaf that differs, a value
    of its other type counting as different; a key or list item on one
    side only pairs with ``<absent>``."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [change for key in sorted(old.keys() | new.keys())
                for change in json_changes(old.get(key, "<absent>"), new.get(key, "<absent>"),
                                           f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list):
        pad = ["<absent>"] * abs(len(old) - len(new))
        return [change for i, (a, b) in enumerate(zip(old + pad, new + pad))
                for change in json_changes(a, b, f"{path}[{i}]")]
    return [] if (type(old), old) == (type(new), new) else [(path, old, new)]


def text_labels(old: str, new: str) -> list[str]:
    """The labels of the changed lines of a text report: the text before
    the first ``": "``, or the line itself."""
    labels = []
    for line in difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0):
        if line[:1] in "+-" and line[:3] not in ("+++", "---"):
            label = line[1:].split(": ", 1)[0].strip()
            if label not in labels:
                labels.append(label)
    return labels


def changed_paths(argv, old: str, new: str) -> list[str]:
    if golden_path(argv).suffix == ".json":
        return [path for path, _, _ in json_changes(json.loads(old), json.loads(new))]
    return text_labels(old, new)


def describe(argv, old: str, new: str) -> str:
    """What moved between the stored report ``old`` and ``new``."""
    head = " ".join(argv)
    if golden_path(argv).suffix == ".json":
        lines = [f"  {path}: {a!r} -> {b!r}"
                 for path, a, b in json_changes(json.loads(old), json.loads(new))]
    else:
        lines = ["  " + line for line in difflib.unified_diff(
            old.splitlines(), new.splitlines(), "stored", "now", lineterm="")]
    return "\n".join([head] + (lines or ["  (whitespace or key order only)"]))


def test_reports_byte_identical():
    argvs = cases()
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(
        golden_path(argv).name for argv in argvs)
    moved = []
    for argv in argvs:
        old, new = golden_path(argv).read_bytes(), report(argv).encode()
        if old != new:
            moved.append(describe(argv, old.decode(), new.decode()))
    assert not moved, f"{len(moved)} report(s) changed bytes:\n" + "\n".join(moved)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    tally = collections.Counter()
    for argv in cases():
        path, new = golden_path(argv), report(argv)
        old = path.read_bytes().decode() if path.exists() else None
        if old != new:
            paths = ["<new case>"] if old is None else changed_paths(argv, old, new)
            tally.update(paths)
            print(f"{' '.join(argv)}: {', '.join(paths)}")
            path.write_bytes(new.encode())
    print(f"{sum(1 for _ in GOLDEN_DIR.iterdir())} stored reports; "
          + ("; ".join(f"{path} moved in {n}" for path, n in sorted(tally.items()))
             or "none changed"))
