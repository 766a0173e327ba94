"""The golden bits of the paper's fixed plan: the one place they are written.

The test workflow runs this file twice: in its test step, at the runner's
default BLAS threads and Z workers, and again in a fresh process on one CPU
(`taskset -c 0`, one Z worker, one OpenBLAS thread), so every hash below
holds with one worker as with several.  The workflow pins no hash of its
own.

The plan ladder [1000, 7000] at tol 1e-8 and the plan
`--T 1500 3000 6000 --max-n 4` run through `cli.main` in this process, with
the cache root under the test's temporary directory.  The sha256 of the
ladder cache (and its name, the ladder config hash), of the JSONL and CSV
reports and of `zladder report`'s summary are the golden values.  The
ladder's data (`edges`, `phi`, `coef`) are pinned apart from the cache
file's bytes, and a cache of the fifteen-member layout that the writer kept
before has the bytes it had then and loads with the same data.  The same
ladder built through the Python API has the same bytes; `zladder run` with
no flag but `--out` runs the same plan, in this process and in a fresh
`python -m zladder.cli` one: the defaults are the plan.  The families give
the plan's bytes in any order, and each family's verify verb writes that
family's lines of the plan.  The acceptance-scale plan on the acceptance
ladder is a second golden report, and the plans at 1e6 and 1e7 two more.
The Bessel zeros `specfun zeros` prints are pinned, also beside a stale
zero file, as are the inverses of 2,000 stratified y on the plan ladder
and, cold and warm, on [99500, 1e5], and that ladder's data.
"""

import collections
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import zladder
from zladder import LadderTable, ZEvaluator, build_ladder, ladder
from zladder.cli import EXIT_OK, PLAN_EQUATIONS, main
from zladder.specfun import bessel as bessel_mod
from zladder.verify import is_sanity

from oracles import ci_targets, save_15_member_cache

LADDER = ["--t-lo", "1000", "--t-hi", "7000", "--tol", "1e-8"]
PLAN = [*LADDER, "--T", "1500", "3000", "6000", "--max-n", "4"]

LADDER_NAME = "ladder-5f998a5ec35784be.npz"
# The report hashes were re-recorded when every ladder row moved to GK15 over
# its window's panel pieces, with power-mapped end pieces and u summed from
# the window's own ends: all 216 ladder rows move (the E2_7 and E2_8 rows by
# up to 4.5e-5 in lhs, the others by at most 2.8e-11), and the worst
# exactness error falls from 5.1e-6 to 3.1e-15.  E1_2 and E1_4 keep their
# bytes.  The cache file's hash was re-recorded when the cache dropped the
# eight scalars that its checkpoints, the anchor rule and its config hash fix
# (fifteen members to seven): only the container changed, and the data hash
# below and every report hash kept their values.  The two inverse files
# were re-recorded when `invert` came to return the double a bisection over
# the panel's doubles returns, whatever Newton's path: 27 of the 2,000 y on
# the plan ladder and 32 near 1e5 move, each to the first double of a run
# of doubles with its (least) residual, all of them residual 0.
SHA256 = {
    LADDER_NAME: "c665430233a34315b47155276dff93de0593fea324eacd67abfdce1d3505d320",
    # edges, phi and coef as little-endian float64, in that order
    "ladder-data": "0be75aaf26c7ef76550dd908da73215c6da0b5ff17bd2faa7181e2ebaf6c2b1f",
    # the same ladder in the fifteen-member layout (`save_15_member_cache`)
    "ladder-15-members.npz": "ea2e16274d5e1601e46bfc16493e26495004c3e6b421c6dc9154501c26abc88e",
    "plan.jsonl": "bcb9c0c0928b877de83e780c34fbfdeb410b0c785b589274a63c05fcdd615c74",
    "plan.csv": "642346a3b489ff842e3929d643d48ea41879de79a40cabc2e478707acfa9f12b",
    "plan-report.txt": "08d34c40084f3fbf91ca81a358e084180b1f7f2379c6d47fc784048ccc8f455b",
    "plan-acceptance.jsonl": "bfd45e36dadd9d5a5d074034ad35436b15c56a091c692da9bb83dfb9bce28589",
    "plan-1e6.jsonl": "9929006c20e757b769d9fe1f3bc4206d5e45235ed5f99bac1caa510421495f6d",
    "plan-1e7.jsonl": "5bf339f92530ebed9f9be37124969564ba2b3976e0b446e4882fedb5908b12aa",
    "zeros.txt": "fcf28dea67fc3907eeda04c729e40bf45d160854e83164c8bcedf0659574690e",
    "inverses.txt": "5b32a7bfdee102bd5473c70f39c1a7aa6e9e7e5eb300cbd024fe25fae1635f6d",
    "inverses-1e5.txt": "5a0ca8f93bda4c95b8d24ec52b5bb4414b85251a8581ad5a74e39c46df740c0a",
    # edges, phi and coef of the [99500, 1e5] ladder at tol 1e-8, as above
    "ladder-near-1e5-data": "6d8b96b9158773da92a26dbac86c25f8561216c9f26a092265fec681107038fe",
}
# The acceptance-scale plan, run on the acceptance ladder [1e3, 1.08e5]
# (`big_ladder`), as CI runs it on the ladder its test step caches.
ACCEPTANCE_PLAN = ["--t-lo", "1000", "--t-hi", "108000", "--tol", "1e-8",
                   "--T", "10000", "30000", "100000", "--max-n", "4"]
# The plans at large t, each on a 60-unit ladder of its own: every family at
# 1e6, and at 1e7, at the tol the build can certify there, the families that
# hold on two T 20 apart.  Report name -> (plan flags, row count).
LARGE_T_PLANS = {
    "plan-1e6.jsonl": (["--t-lo", "1000000", "--t-hi", "1000060", "--tol", "1e-8",
                        "--T", "966814", "966834", "--max-n", "4"], 168),
    "plan-1e7.jsonl": (["--t-lo", "10000000", "--t-hi", "10000060", "--tol", "1e-7",
                        "--equations", "baseline", "theorem1", "sanity",
                        "--T", "9719040", "9719060", "--max-n", "4"], 108),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def data_sha256(table) -> str:
    """The sha256 of a ladder's `edges`, `phi` and `coef` as little-endian
    float64, in that order."""
    arrays = (table.edges, table.phi, table.coef)
    return sha256(b"".join(a.astype("<f8").tobytes() for a in arrays))


def ci_inverses(table):
    """CI's 2,000 y (`ci_targets`), their inverses, and those as CI prints
    them: one float.hex per line."""
    ys = ci_targets(table)
    ts = [table.invert(y) for y in ys]
    return np.array(ys), np.array(ts), "".join(f"{t.hex()}\n" for t in ts).encode()


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
    assert sha256(golden[name].read_bytes()) == SHA256[name]


def test_ladder_data_bits(golden, tmp_path):
    table = LadderTable.load(golden[LADDER_NAME], ZEvaluator())
    assert data_sha256(table) == SHA256["ladder-data"]
    assert table.residual_total.hex() == "0x1.2c31cb3b5e9c6p-30"
    # the fifteen-member layout of the same ladder, byte for byte, loads
    # with the same data
    path = tmp_path / "ladder-15-members.npz"
    save_15_member_cache(table, path)
    assert sha256(path.read_bytes()) == SHA256["ladder-15-members.npz"]
    again = LadderTable.load(path, ZEvaluator())
    assert data_sha256(again) == SHA256["ladder-data"]
    assert again.residual_total == table.residual_total


def test_run_without_flags_is_the_plan(golden):
    assert golden["plan-defaults.jsonl"].read_bytes() == golden["plan.jsonl"].read_bytes()


def test_fresh_process_runs_the_plan(golden, tmp_path):
    # `python -m zladder.cli` on the cached plan ladder, with no flag but --out
    src = os.path.dirname(os.path.dirname(zladder.__file__))
    env = {**os.environ, "ZLADDER_CACHE_ROOT": str(golden[LADDER_NAME].parent),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "plan.jsonl"
    subprocess.run([sys.executable, "-W", "error", "-m", "zladder.cli", "run", "--out", str(out)],
                   env=env, check=True)
    assert sha256(out.read_bytes()) == SHA256["plan.jsonl"]


def test_reordered_families_write_the_plan_bytes(golden, tmp_path, monkeypatch):
    # the rows are written in one total order, whatever the order of --equations
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(golden[LADDER_NAME].parent))
    out = tmp_path / "plan.jsonl"
    assert main(["run", *PLAN, "--equations", *reversed(PLAN_EQUATIONS),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == golden["plan.jsonl"].read_bytes()


def test_each_verb_writes_its_lines_of_the_plan(golden, tmp_path, monkeypatch):
    # one window executor serves the rows of every family in the plan; each
    # family's verify verb alone writes its own lines of the plan, and the
    # five verbs share none and leave none out
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(golden[LADDER_NAME].parent))
    plan = collections.Counter(golden["plan.jsonl"].read_text().splitlines(keepends=True))
    written = collections.Counter()
    for family in PLAN_EQUATIONS:
        out = tmp_path / f"verify-{family}.jsonl"
        assert main(["verify", family, *PLAN, "--out", str(out)]) == EXIT_OK
        lines = collections.Counter(out.read_text().splitlines(keepends=True))
        assert lines and lines <= plan, family
        written += lines
    assert written == plan


def test_api_build_has_the_cli_bytes(golden, tmp_path):
    # both routes reach the one anchor rule
    path = tmp_path / "api.npz"
    build_ladder(ZEvaluator(), 1000.0, 7000.0, tol=1e-8).save(path)
    assert path.read_bytes() == golden[LADDER_NAME].read_bytes()


def test_plan_takes_no_0d_slopes(golden, tmp_path, monkeypatch):
    # a window's ends and rises take `slopes` on floats, its nodes on arrays:
    # no call of the mean-slope recurrence runs on a 0-d array
    seen = []
    real = ladder._mean_slopes
    monkeypatch.setattr(ladder, "_mean_slopes",
                        lambda tail, x0, x: seen.append((type(x), np.ndim(x)))
                        or real(tail, x0, x))
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(golden[LADDER_NAME].parent))
    assert main(["run", *PLAN, "--out", str(tmp_path / "plan.jsonl")]) == EXIT_OK
    assert (tmp_path / "plan.jsonl").read_bytes() == golden["plan.jsonl"].read_bytes()
    assert {kind for kind, _ in seen} == {float, np.ndarray}
    assert (np.ndarray, 0) not in seen


def test_report_summary_bits(golden, capsys):
    capsys.readouterr()
    assert main(["report", str(golden["plan.jsonl"])]) == EXIT_OK
    summary = capsys.readouterr().out.encode()
    assert sha256(summary) == SHA256["plan-report.txt"]


def test_golden_exactness_rows_within_their_estimate(golden):
    rows = exactness_rows(golden["plan.jsonl"])
    assert len(rows) == 126
    for r in rows:
        assert abs(r["lhs"] - r["rhs"]) <= min(1e-12, r["quadrature_error"]), r


def test_acceptance_scale_plan(big_ladder, big_ladder_path, tmp_path):
    out = tmp_path / "plan-acceptance.jsonl"
    assert main(["run", *ACCEPTANCE_PLAN, "--cache", big_ladder_path,
                 "--out", str(out)]) == EXIT_OK
    assert sha256(out.read_bytes()) == SHA256["plan-acceptance.jsonl"]
    rows = exactness_rows(out)
    assert len(rows) == 126
    for r in rows:
        assert abs(r["lhs"] - r["rhs"]) <= r["quadrature_error"], r


@pytest.mark.parametrize("name", sorted(LARGE_T_PLANS))
def test_large_t_plan_bits(tmp_path, monkeypatch, name):
    flags, rows = LARGE_T_PLANS[name]
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(tmp_path / "cache"))
    out = tmp_path / name
    assert main(["run", *flags, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == rows
    assert sha256(out.read_bytes()) == SHA256[name]


def test_bessel_zeros_bits(capsys):
    capsys.readouterr()
    assert main(["specfun", "zeros", "--nu", "0.5", "--count", "8"]) == EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == SHA256["zeros.txt"]


def test_bessel_zeros_bits_beside_a_stale_zero_file(capsys, tmp_path, monkeypatch):
    # a zero file in the cache root, as older versions kept, with the first
    # zero of J_1/2 one ulp low, which an older reader printed: the verb,
    # with no table in memory, prints the same bytes and leaves the file
    root = tmp_path / "cache"
    root.mkdir()
    body = '{"version":1,"tables":{"0.5":{"zeros":[3.1415926535897927]}}}\n'
    (root / "bessel-zeros.json").write_text(body)
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(root))
    monkeypatch.setattr(bessel_mod, "_TABLES", {})
    capsys.readouterr()
    assert main(["specfun", "zeros", "--nu", "0.5", "--count", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["zeros"][0] == math.nextafter(3.1415926535897927, 4.0)
    assert sha256(out.encode()) == SHA256["zeros.txt"]
    assert (root / "bessel-zeros.json").read_text() == body


def test_inverse_bits_on_the_plan_ladder(golden):
    table = LadderTable.load(golden[LADDER_NAME], ZEvaluator())
    assert sha256(ci_inverses(table)[2]) == SHA256["inverses.txt"]


@pytest.fixture(scope="module")
def ladder_near_1e5_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("near-1e5") / "ladder-near-1e5.npz"
    assert main(["ladder", "build", "--t-lo", "99500", "--t-hi", "100000", "--tol", "1e-8",
                 "--cache", str(path)]) == EXIT_OK
    return path


def test_ladder_data_bits_near_1e5(ladder_near_1e5_path):
    table = LadderTable.load(ladder_near_1e5_path, ZEvaluator())
    assert data_sha256(table) == SHA256["ladder-near-1e5-data"]
    assert table.residual_total.hex() == "0x1.46d3f94f0522ep-29"


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_inverse_bits_near_1e5(ladder_near_1e5_path, warm):
    # phi_1 can rise by more than 2e-10 from one double to the next here:
    # 233 inverses miss 1e-10, each with no closer double.  The warm pass
    # inverts in the order of the benchmark's query workload, after one
    # batched eval that builds every panel's antiderivative.
    table = LadderTable.load(ladder_near_1e5_path, ZEvaluator())
    if warm:
        table.eval(np.linspace(table.t_lo, table.t_hi, 4001))
    ys, ts, lines = ci_inverses(table)
    assert sha256(lines) == SHA256["inverses-1e5.txt"]
    assert np.count_nonzero(np.abs(table.eval(ts) - ys) > 1e-10) == 233


def test_workflow_pins_no_hash_of_its_own():
    # this file is the one home of the golden values: the workflow writes no
    # sha256 and runs this file again in one process on one CPU
    with open(os.path.join(os.path.dirname(__file__), "..", ".github", "workflows",
                           "tests.yml")) as fh:
        text = fh.read()
    assert re.findall(r"[0-9a-f]{64}", text) == []
    assert any("taskset -c 0" in line and "tests/test_golden.py" in line
               for line in text.splitlines())
