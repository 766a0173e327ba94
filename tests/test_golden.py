"""The golden bits of the paper's fixed plan, as CI pins them.

The plan ladder [1000, 7000] at tol 1e-8 and the plan
`--T 1500 3000 6000 --max-n 4` run through `cli.main` in this process, with
the cache root under the test's temporary directory.  The sha256 of the
ladder cache (and its name, the ladder config hash), of the JSONL and CSV
reports and of `zladder report`'s summary are CI's golden values, so a
change that moves a bit fails here before it reaches CI.  The same ladder
built through the Python API has the same bytes.
"""

import hashlib

import pytest

from zladder import ZEvaluator, build_ladder
from zladder.cli import EXIT_OK, main

LADDER = ["--t-lo", "1000", "--t-hi", "7000", "--tol", "1e-8"]
PLAN = [*LADDER, "--T", "1500", "3000", "6000", "--max-n", "4"]

LADDER_NAME = "ladder-5f998a5ec35784be.npz"
SHA256 = {
    LADDER_NAME: "ea2e16274d5e1601e46bfc16493e26495004c3e6b421c6dc9154501c26abc88e",
    "plan.jsonl": "69603abc1867240cea5a564e70383c82bed86867195847c29b8c7df21eca03d8",
    "plan.csv": "29e06b30b339d34cc6a4c53f6b5c1679496ca553e677d48b9790e8c1fc73d85a",
    "plan-report.txt": "6cda84fdafaa5f2223331f4718681363c023e60de0fe61db7f678570b8720fa5",
}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The files of the golden CI step, by name: the ladder cache and both
    reports."""
    out = tmp_path_factory.mktemp("golden")
    cache = out / "cache"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ZLADDER_CACHE_ROOT", str(cache))
        assert main(["ladder", "build", *LADDER]) == EXIT_OK
        assert main(["run", *PLAN, "--out", str(out / "plan.jsonl")]) == EXIT_OK
        assert main(["run", *PLAN, "--format", "csv", "--out", str(out / "plan.csv")]) == EXIT_OK
    files = {p.name: p for p in cache.iterdir()}
    files.update((name, out / name) for name in ("plan.jsonl", "plan.csv"))
    return files


def test_one_ladder_cache_named_by_its_hash(golden):
    assert sorted(name for name in golden if name.startswith("ladder-")) == [LADDER_NAME]


@pytest.mark.parametrize("name", [LADDER_NAME, "plan.jsonl", "plan.csv"])
def test_file_bits(golden, name):
    assert hashlib.sha256(golden[name].read_bytes()).hexdigest() == SHA256[name]


def test_api_build_has_the_cli_bytes(golden, tmp_path):
    # both routes reach the one anchor rule
    path = tmp_path / "api.npz"
    build_ladder(ZEvaluator(), 1000.0, 7000.0, tol=1e-8).save(path)
    assert path.read_bytes() == golden[LADDER_NAME].read_bytes()


def test_report_summary_bits(golden, capsys):
    capsys.readouterr()
    assert main(["report", str(golden["plan.jsonl"])]) == EXIT_OK
    summary = capsys.readouterr().out.encode()
    assert hashlib.sha256(summary).hexdigest() == SHA256["plan-report.txt"]
