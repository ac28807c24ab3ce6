"""Byte identity as a test: every invocation that ``tools/output_identity.py``
replays prints and writes what the checked-in manifest records.

A change that declares an output change rewrites the manifest
(``python3 tools/output_identity.py src --write-manifest
tests/output_manifest.json``); the two-tree mode names the JSON paths that
differ.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "output_manifest.json"


def _tool():
    spec = importlib.util.spec_from_file_location("output_identity",
                                                  ROOT / "tools" / "output_identity.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_invocation_matches_the_manifest():
    # The bits of a residual are stable for one numpy/BLAS build and CPU only:
    # elsewhere the test says where the environment differs, and runs nothing.
    tool = _tool()
    manifest = json.loads(MANIFEST.read_text())
    taken, here = manifest["environment"], tool.environment()
    if here != taken:
        pytest.skip("manifest taken in another environment: " + "; ".join(
            f"{key} {taken.get(key)!r}, here {here.get(key)!r}"
            for key in taken.keys() | here.keys() if taken.get(key) != here.get(key)))
    differing = tool.manifest_differences(manifest, tool._side(ROOT / "src"))
    assert not differing, f"{len(differing)} differences:\n" + "\n".join(differing)
