"""Byte-stability of the CLI reports.

Every case runs ``edgesym analyze`` or ``edgesym verify`` in-process through
``cli.main`` and compares the SHA-256 of its stdout with the digest stored
in ``golden_reports.json``, so a change to any report byte fails here.

The digests depend on the numpy/LAPACK build that computed the floats; they
were recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (Python 3.11). On
another build, regenerate them with ``python tests/test_golden.py`` from a
commit whose reports are trusted, and review the diff.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from edgesym.cli import main
from edgesym.gallery import gallery_names

DIGEST_FILE = pathlib.Path(__file__).with_name("golden_reports.json")


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


def digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_reports_byte_identical():
    expected = json.loads(DIGEST_FILE.read_text())
    got = {" ".join(argv): digest(argv) for argv in cases()}
    assert sorted(got) == sorted(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"{len(changed)} report(s) changed bytes: {changed}"


if __name__ == "__main__":
    digests = {" ".join(argv): digest(argv) for argv in cases()}
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}", file=sys.stderr)
