"""The golden bits of the paper's fixed plan, as CI pins them.

The plan ladder [1000, 7000] at tol 1e-8 and the plan
`--T 1500 3000 6000 --max-n 4` run through `cli.main` in this process, with
the cache root under the test's temporary directory.  The sha256 of the
ladder cache (and its name, the ladder config hash), of the JSONL and CSV
reports and of `zladder report`'s summary are CI's golden values, so a
change that moves a bit fails here before it reaches CI.  The same ladder
built through the Python API has the same bytes, and `zladder run` with no
flag but `--out` runs the same plan: the defaults are the plan.
"""

import hashlib

import pytest

from zladder import ZEvaluator, build_ladder
from zladder.cli import EXIT_OK, main

LADDER = ["--t-lo", "1000", "--t-hi", "7000", "--tol", "1e-8"]
PLAN = [*LADDER, "--T", "1500", "3000", "6000", "--max-n", "4"]

LADDER_NAME = "ladder-5f998a5ec35784be.npz"
# The report hashes were re-recorded when the GK15 windows were split at the
# ladder's panel edges instead of the zeros of Z: the 132 GK15 rows move
# (E1_3 60, E2_2 24, E2_4 24, E2_6 24; lhs by at most 4.5e-11), each inside
# its contract, and the E1_2, E1_4 and tanh-sinh rows keep their bytes.
SHA256 = {
    LADDER_NAME: "ea2e16274d5e1601e46bfc16493e26495004c3e6b421c6dc9154501c26abc88e",
    "plan.jsonl": "d102e01aa6ce1cd44cb6f868fb7a65e29c165f3ba72c58ae7268eb0b349f94f9",
    "plan.csv": "21852e9b17066f51c7168b97a24cb0adceae9160a6807ef4dc2fecdace68d06b",
    "plan-report.txt": "d0d58c594a86b2b62e8a346d420075f9e8fa98ff73714246b84a632be8e43460",
}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The files of the golden CI step, by name: the ladder cache and the
    reports."""
    out = tmp_path_factory.mktemp("golden")
    cache = out / "cache"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ZLADDER_CACHE_ROOT", str(cache))
        assert main(["ladder", "build", *LADDER]) == EXIT_OK
        assert main(["run", *PLAN, "--out", str(out / "plan.jsonl")]) == EXIT_OK
        assert main(["run", *PLAN, "--format", "csv", "--out", str(out / "plan.csv")]) == EXIT_OK
        assert main(["run", "--out", str(out / "plan-defaults.jsonl")]) == EXIT_OK
    files = {p.name: p for p in cache.iterdir()}
    files.update((name, out / name) for name in ("plan.jsonl", "plan.csv", "plan-defaults.jsonl"))
    return files


def test_one_ladder_cache_named_by_its_hash(golden):
    assert sorted(name for name in golden if name.startswith("ladder-")) == [LADDER_NAME]


@pytest.mark.parametrize("name", [LADDER_NAME, "plan.jsonl", "plan.csv"])
def test_file_bits(golden, name):
    assert hashlib.sha256(golden[name].read_bytes()).hexdigest() == SHA256[name]


def test_run_without_flags_is_the_plan(golden):
    assert golden["plan-defaults.jsonl"].read_bytes() == golden["plan.jsonl"].read_bytes()


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
