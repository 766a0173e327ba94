import json
import os
import shutil
import subprocess
import sys

import pytest

import zladder
from conftest import cached_meta, ladder_fingerprint

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(deadline=None, database=None)
@given(x=st.integers(0, 100))
def test_fails(x):
    assert x < 50
'''


def test_failing_property_prints_its_example_under_w_error(tmp_path):
    # a failing hypothesis test under CI's `-W error`, with this directory's
    # conftest.py, reports its falsifying example and not an INTERNALERROR
    shutil.copy(os.path.join(os.path.dirname(__file__), "conftest.py"), tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    src = os.path.dirname(os.path.dirname(zladder.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p",
                          "no:cacheprovider", "test_property.py"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout


@pytest.mark.parametrize("meta", [
    None,                                   # no metadata file
    "{not json",
    {"build_seconds": 9.0},                 # written before the fingerprint
    {"build_seconds": 9.0, "fingerprint": {"numpy": "0.0"}},
])
def test_big_ladder_rebuilds_without_its_fingerprint(tmp_path, meta):
    meta_path = tmp_path / "acceptance-ladder.npz.meta"
    if meta is not None:
        meta_path.write_text(meta if isinstance(meta, str) else json.dumps(meta))
    assert cached_meta(meta_path) is None


def test_big_ladder_reuses_a_cache_with_its_fingerprint(tmp_path):
    meta = {"build_seconds": 9.0, "fingerprint": ladder_fingerprint()}
    meta_path = tmp_path / "acceptance-ladder.npz.meta"
    meta_path.write_text(json.dumps(meta))
    assert cached_meta(meta_path) == meta


def test_fingerprint_tracks_sources_and_cpu_features(tmp_path, monkeypatch):
    src = tmp_path / "zladder"
    shutil.copytree(os.path.dirname(zladder.__file__), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    here = ladder_fingerprint(str(src))
    assert here == ladder_fingerprint()
    with open(src / "rszeta.py", "a") as fh:
        fh.write("\n")
    assert ladder_fingerprint(str(src))["sources"] != here["sources"]
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR")
    assert ladder_fingerprint() != here
