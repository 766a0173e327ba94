"""The golden bits of the paper's fixed plan, as CI pins them.

The plan ladder [1000, 7000] at tol 1e-8 and the plan
`--T 1500 3000 6000 --max-n 4` run through `cli.main` in this process, with
the cache root under the test's temporary directory.  The sha256 of the
ladder cache (and its name, the ladder config hash), of the JSONL and CSV
reports and of `zladder report`'s summary are CI's golden values, so a
change that moves a bit fails here before it reaches CI.  The same ladder
built through the Python API has the same bytes, and `zladder run` with no
flag but `--out` runs the same plan: the defaults are the plan.  The
acceptance-scale plan on the acceptance ladder is a second golden report.
"""

import hashlib
import json

import pytest

from zladder import ZEvaluator, build_ladder
from zladder.cli import EXIT_OK, main
from zladder.verify import is_sanity

LADDER = ["--t-lo", "1000", "--t-hi", "7000", "--tol", "1e-8"]
PLAN = [*LADDER, "--T", "1500", "3000", "6000", "--max-n", "4"]

LADDER_NAME = "ladder-5f998a5ec35784be.npz"
# The report hashes were re-recorded when every ladder row moved to GK15 over
# its window's panel pieces, with power-mapped end pieces and u summed from
# the window's own ends: all 216 ladder rows move (the E2_7 and E2_8 rows by
# up to 4.5e-5 in lhs, the others by at most 2.8e-11), and the worst
# exactness error falls from 5.1e-6 to 3.1e-15.  E1_2 and E1_4 keep their
# bytes.
SHA256 = {
    LADDER_NAME: "ea2e16274d5e1601e46bfc16493e26495004c3e6b421c6dc9154501c26abc88e",
    "plan.jsonl": "bcb9c0c0928b877de83e780c34fbfdeb410b0c785b589274a63c05fcdd615c74",
    "plan.csv": "642346a3b489ff842e3929d643d48ea41879de79a40cabc2e478707acfa9f12b",
    "plan-report.txt": "08d34c40084f3fbf91ca81a358e084180b1f7f2379c6d47fc784048ccc8f455b",
    "plan-acceptance.jsonl": "bfd45e36dadd9d5a5d074034ad35436b15c56a091c692da9bb83dfb9bce28589",
}
# The acceptance-scale plan, run on the acceptance ladder [1e3, 1.08e5]
# (`big_ladder`), as CI runs it on the ladder its test step caches.
ACCEPTANCE_PLAN = ["--t-lo", "1000", "--t-hi", "108000", "--tol", "1e-8",
                   "--T", "10000", "30000", "100000", "--max-n", "4"]


def exactness_rows(path):
    """The rows of a JSONL report that must equal their classical value to
    quadrature accuracy: E1_3 and the sanity rows."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [r for r in rows if r["equation_id"].startswith("E1_3") or is_sanity(r["params"])]


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


def test_golden_exactness_rows_within_their_estimate(golden):
    rows = exactness_rows(golden["plan.jsonl"])
    assert len(rows) == 126
    for r in rows:
        assert abs(r["lhs"] - r["rhs"]) <= min(1e-12, r["quadrature_error"]), r


def test_acceptance_scale_plan(big_ladder, big_ladder_path, tmp_path):
    out = tmp_path / "plan-acceptance.jsonl"
    assert main(["run", *ACCEPTANCE_PLAN, "--cache", big_ladder_path,
                 "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHA256["plan-acceptance.jsonl"]
    rows = exactness_rows(out)
    assert len(rows) == 126
    for r in rows:
        assert abs(r["lhs"] - r["rhs"]) <= r["quadrature_error"], r
