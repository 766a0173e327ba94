import argparse
import dataclasses
import json
import lzma
import math
import os
import struct
import subprocess
import sys
import time
import zipfile
import zlib

import numpy as np
import pytest

import zladder
from zladder import BesselZeroTable, DomainError, bessel_j
from zladder import cli as cli_mod
from zladder import verify as V
from zladder.cli import (EXIT_CACHE, EXIT_CONFIG, EXIT_HARD, EXIT_NUMERIC,
                         EXIT_OK, EXIT_SOFT, RunConfig, _plan_reports, build_parser, main)
from zladder.specfun import bessel as bessel_mod


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(tmp_path / "cache"))
    return tmp_path


LADDER_ARGS = ["--t-lo", "1000", "--t-hi", "1090", "--tol", "1e-9"]


def run_cli(*argv):
    return main(list(argv))


def damage_member(path, damage, name="coef.npy"):
    """Rewrite a ladder cache with deflate members (lzma ones for "lzma")
    and spoil member `name`: the first byte of its deflate or LZMA data, or
    its compression method, set to 99 (damage "method_99")."""
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    method = zipfile.ZIP_LZMA if damage == "lzma" else zipfile.ZIP_DEFLATED
    with zipfile.ZipFile(path, "w", method) as zf:
        for member, data in members.items():
            zf.writestr(member, data)
        info = zf.getinfo(name)
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    data = info.header_offset + 30 + len(name) + len(info.extra)
    if damage == "deflate":
        raw[data] = 0xFF   # a block of the reserved type 3
    elif damage == "lzma":
        raw[data + 9] = 0xFF   # past zipfile's 4-byte header and the 5 property bytes
    else:
        central = raw.rindex(name.encode()) - 46   # the member's central directory entry
        for field in (info.header_offset + 8, central + 10):
            raw[field:field + 2] = struct.pack("<H", 99)
    with open(path, "wb") as fh:
        fh.write(raw)


class TestZEval:
    def test_json_line(self, capsys, cache_env):
        assert run_cli("z", "eval", "--t", "100") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"t", "theta", "z", "z_sq"}
        assert doc["theta"] == pytest.approx(87.97216523178722, abs=1e-9)
        assert doc["z_sq"] == pytest.approx(doc["z"] ** 2)

    def test_oracle_flag(self, capsys, cache_env):
        assert run_cli("z", "eval", "--t", "100", "--oracle") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["z"] == pytest.approx(2.6926970566644632, abs=1e-12)

    @pytest.mark.parametrize("t", [1.0, 0.5, 5.0, 49.5])
    def test_theta_follows_z_below_t_min_rs(self, capsys, cache_env, ev, t):
        # the asymptotic theta is vouched for only at t >= 50 (2.2e-2 off at
        # t = 1), so below t_min_rs theta comes from the oracle, as Z does
        assert run_cli("z", "eval", "--t", str(t)) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta"] == ev.theta_oracle(t)
        assert doc["z"] == ev.z_oracle(t)

    @pytest.mark.parametrize("t, line", [
        ("50", '{"t":50.0,"theta":26.46136607016018,"z":-0.3407334335599845,'
               '"z_sq":0.11609927274557635}'),
        ("1000", '{"t":1000.0,"theta":2034.5464280380315,"z":0.9977946421258187,'
                 '"z_sq":0.9955941478549906}'),
    ])
    def test_main_route_bytes(self, capsys, cache_env, t, line):
        assert run_cli("z", "eval", "--t", t) == EXIT_OK
        assert capsys.readouterr().out == line + "\n"

    def test_bad_t(self, cache_env):
        assert run_cli("z", "eval", "--t", "-5", "--oracle") == EXIT_CONFIG

    def test_oracle_imaginary_residue_exit(self, capsys, cache_env, monkeypatch):
        # e^{i theta} zeta(1/2 + it) is real; a zeta with the wrong phase
        # leaves an imaginary residue above 1e-9, a numeric error
        from zladder.rszeta import ZEvaluator
        monkeypatch.setattr(ZEvaluator, "zeta_half", lambda self, t: 1j)
        assert run_cli("z", "eval", "--t", "100", "--oracle") == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: z_oracle imaginary residue")


class TestSpecfunZeros:
    def test_zeros_and_cache(self, capsys, cache_env):
        # the zeros come from the in-memory per-nu table; no file is written
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", "3") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"nu", "zeros", "residual_bound"}
        assert doc["zeros"][0] == pytest.approx(2.404825557695773, abs=1e-9)
        assert doc["residual_bound"] <= 1e-12
        # a second invocation extends the same table
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", "5") == EXIT_OK
        doc2 = json.loads(capsys.readouterr().out)
        assert doc2["zeros"][:3] == doc["zeros"]
        assert not (cache_env / "cache").exists()

    def test_output_depends_only_on_nu_and_count(self, capsys, cache_env, monkeypatch):
        # a zero file in the cache root, as older versions kept, holding the
        # first zero of J_0 one ulp low: it passes |J| <= 1e-12, so a reader
        # would print it.  The verb, with no table of J_0 in memory yet,
        # prints the computed bits and writes no file.
        want = BesselZeroTable(nu=0.0)
        want.extend_to(2)
        root = cache_env / "cache"
        root.mkdir()
        stale = math.nextafter(want.zeros[0], 0.0)
        assert abs(bessel_j(0.0, stale)) <= 1e-12
        body = json.dumps({"version": 1, "tables": {"0.0": {"zeros": [stale]}}})
        (root / "bessel-zeros.json").write_text(body)
        monkeypatch.setattr(bessel_mod, "_TABLES", {})
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", "2") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert [z.hex() for z in doc["zeros"]] == [z.hex() for z in want.zeros]
        assert sorted(p.name for p in root.iterdir()) == ["bessel-zeros.json"]
        assert (root / "bessel-zeros.json").read_text() == body

    @pytest.mark.parametrize("body", [
        b'{"version":1,"tables":{"0.0":{}}}',
        b'{"version":1,"tables":{"abc":{"zeros":[2.404825557695773]}}}',
        b'\xff\xfe{"version":1,"tables":{}}',
        b'{"version":1,"tables":{"0.0":{"zeros":[9.0, 1.0]}}}',
        b'{"version":1,"tables":{"0.0":{"zeros":[1.0, 9.0]}}}',
        b'{"version":1,"tables":{"0.0":{"zeros":[-2.0, 5.5]}}}',
        b'{"version":1,"tables":{"0.0":{"zeros":[2.4, NaN]}}}',
        b'{"version":1,"tables":{"0.0":{"zeros":[2.4, Infinity]}}}',
        b'{"version":1,"tables":{"-3.0":{"zeros":[2.4]}}}',
        b'{"version":1,"tables":{"0.0":{"zeros":2.4}}}',
        b'{"version":1,"tables":{"0.0":{"zeros":[2.4],"residual_bound":"x"}}}',
        b'{"version":1,"tables":[]}',
        b'{"version":2,"tables":{}}',
    ])
    def test_malformed_cache_exit(self, capsys, cache_env, body):
        # a malformed zero file that an older version left in the cache root
        # is not read: the verb exits 0 with its usual output, and the file
        # stays as it was
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", "2") == EXIT_OK
        want = capsys.readouterr().out
        path = cache_env / "cache" / "bessel-zeros.json"
        path.parent.mkdir()
        path.write_bytes(body)
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", "2") == EXIT_OK
        out, err = capsys.readouterr()
        assert out == want and err == ""
        assert path.read_bytes() == body

    @pytest.mark.parametrize("count", ["0", "65", "70"])
    def test_count_checked_first(self, capsys, cache_env, count):
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", count) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and f"--count {count}" in err
        assert not (cache_env / "cache").exists()


class TestLadderVerbs:
    def test_build_query_invert(self, capsys, cache_env):
        assert run_cli("ladder", "build", *LADDER_ARGS) == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        assert os.path.exists(built["cache"])
        assert built["checkpoints"] >= 91   # unit panels on [1000, 1090]

        assert run_cli("ladder", "query", *LADDER_ARGS, "--t", "1024.77") == EXIT_OK
        q = json.loads(capsys.readouterr().out)
        assert q["phi1"] + q["t_minus_phi1"] == pytest.approx(1024.77)

        assert run_cli("ladder", "invert", *LADDER_ARGS, "--y", str(q["phi1"])) == EXIT_OK
        inv = json.loads(capsys.readouterr().out)
        assert inv["t"] == pytest.approx(1024.77, abs=1e-9)

    def test_retardation_csv(self, capsys, cache_env):
        assert run_cli("ladder", "retardation", *LADDER_ARGS, "--from", "1010",
                       "--to", "1060", "--step", "25") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,lag,expected,ratio"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("verb", [["ladder", "retardation"], ["plot-data", "--what", "ladder"]],
                             ids=["ladder retardation", "plot-data ladder"])
    def test_grid_ends_at_to(self, capsys, cache_env, verb):
        # 1000 + 10 * 0.1 rounds to 1001.0000000000002, past the ladder's end
        assert run_cli(*verb, "--t-lo", "1000", "--t-hi", "1001",
                       "--tol", "1e-8", "--from", "1000", "--to", "1001",
                       "--step", "0.1") == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 11
        assert float(rows[-1].split(",")[0]) == 1001.0

    def test_cache_corruption_exit(self, capsys, cache_env):
        assert run_cli("ladder", "build", *LADDER_ARGS) == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        with open(built["cache"], "w") as fh:
            fh.write("{broken")
        assert run_cli("ladder", "query", *LADDER_ARGS, "--t", "1010") == EXIT_CACHE

    @pytest.mark.parametrize("damage,raised", [
        ("deflate", zlib.error), ("lzma", lzma.LZMAError), ("method_99", NotImplementedError)])
    def test_damaged_compressed_member_exit(self, capsys, cache_env, damage, raised):
        # zipfile raises neither OSError nor BadZipFile for these: the cache
        # error, not a traceback and exit 1
        assert run_cli("ladder", "build", "--t-lo", "1000", "--t-hi", "1020") == EXIT_OK
        path = json.loads(capsys.readouterr().out)["cache"]
        damage_member(path, damage)
        with zipfile.ZipFile(path) as zf, pytest.raises(raised):
            zf.read("coef.npy")
        assert run_cli("ladder", "query", "--t-lo", "1000", "--t-hi", "1020",
                       "--t", "1010") == EXIT_CACHE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cache error: ladder cache {path} unreadable: ")

    @pytest.mark.parametrize("tamper", ["coef_step", "coef_shape", "version_2"])
    def test_tampered_v3_cache_exit(self, capsys, cache_env, tamper):
        assert run_cli("ladder", "build", *LADDER_ARGS) == EXIT_OK
        path = json.loads(capsys.readouterr().out)["cache"]
        with np.load(path) as doc:
            fields = {key: doc[key] for key in doc.files}
        if tamper == "coef_step":
            fields["coef"] = fields["coef"] * (1.0 + 1e-9)
        elif tamper == "coef_shape":
            fields["coef"] = fields["coef"][:, :-1]
        else:   # the checkpoint-only format
            fields["version"] = np.array(2)
            del fields["coef"]
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        assert run_cli("ladder", "invert", *LADDER_ARGS, "--y", "950") == EXIT_CACHE
        assert "cache error" in capsys.readouterr().err

    @pytest.mark.parametrize("member,dtype", [("coef", np.complex128), ("edges", np.str_),
                                              ("phi", np.float32)])
    def test_cache_data_not_float64_exit(self, cache_env, member, dtype):
        # numpy would cast each member to float64, a complex one with a
        # ComplexWarning that `-W error` raises as a traceback (exit 1); in a
        # fresh interpreter under -W error, one cache error line instead
        path = str(cache_env / "bad.npz")
        span = ["--t-lo", "1000", "--t-hi", "1010"]
        assert run_cli("ladder", "build", *span, "--cache", path) == EXIT_OK
        with np.load(path) as doc:
            fields = {key: doc[key] for key in doc.files}
        fields[member] = fields[member].astype(dtype)
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        src = os.path.dirname(os.path.dirname(zladder.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-W", "error", "-m", "zladder.cli", "ladder",
                              "query", *span, "--cache", path, "--t", "1005"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == EXIT_CACHE
        assert run.stderr.startswith(f"cache error: ladder cache {path} data are not float64: ")
        assert run.stderr.count("\n") == 1 and run.stdout == ""

    def test_cache_named_by_ladder_hash(self, capsys, cache_env):
        assert run_cli("ladder", "build", *LADDER_ARGS) == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        assert os.path.basename(built["cache"]) == f"ladder-{built['config_hash']}.npz"
        ints = RunConfig(t_lo=1000, t_hi=1090, tol=1e-9)
        assert ints.ladder_cache_path() == built["cache"]

    def test_cache_file_of_another_config_exit(self, capsys, cache_env):
        # a valid --cache file whose ladder another --tol would not build
        path = str(cache_env / "ladder.npz")
        assert run_cli("ladder", "build", *LADDER_ARGS, "--cache", path) == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        assert run_cli("ladder", "query", "--t-lo", "1000", "--t-hi", "1090", "--tol", "1e-8",
                       "--t", "1010", "--cache", path) == EXIT_CACHE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cache error: ladder cache {path} has config hash {built['config_hash']}, "
            f"requested {RunConfig(t_lo=1000, t_hi=1090, tol=1e-8).ladder_hash()}; "
            "refusing to reuse\n")

    def test_unreachable_tolerance_exit(self, cache_env):
        assert run_cli("ladder", "build", "--t-lo", "1000", "--t-hi", "1001",
                       "--tol", "1e-300") == EXIT_NUMERIC

    def test_narrow_ladder_anchored_at_t_hi(self, capsys, cache_env):
        # a ladder narrower than 10 units is anchored at its top checkpoint
        assert run_cli("ladder", "build", "--t-lo", "1000", "--t-hi", "1005",
                       "--tol", "1e-8") == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        assert (built["t_lo"], built["t_hi"], built["anchor_t0"]) == (1000.0, 1005.0, 1005.0)
        assert built["phi_hi"] == built["anchor_value"]


class TestVerifyVerbs:
    def test_baseline(self, capsys, cache_env):
        assert run_cli("verify", "baseline", "--nu", "0", "--max-n", "3",
                       "--out", "-") == EXIT_OK
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 6
        assert all(r["equation_id"] == "E1_2" for r in rows)

    def test_sanity_hard_pass(self, capsys, cache_env):
        assert run_cli("verify", "sanity", *LADDER_ARGS, "--T", "1000",
                       "--max-n", "1", "--out", "-") == EXIT_OK

    def test_singular_weight_sanity_row_judged_at_tol_sanity(self, capsys, cache_env,
                                                             monkeypatch):
        # an E2_7 sanity row 2e-4 off fails at the default tol_exact of 1e-4
        # (the sanity tolerance is tol_exact), like the sanity row of any other
        # member
        real = V.ladder_reports

        def off(table, sets):
            reports = real(table, sets)
            for r in reports:
                if r.equation_id == "E2_7":
                    r.lhs = r.rhs * (1.0 + 2e-4)
                    r.ratio = r.lhs / r.rhs
            return reports

        monkeypatch.setattr(V, "ladder_reports", off)
        assert run_cli("verify", "sanity", *LADDER_ARGS, "--T", "1000",
                       "--max-n", "1", "--out", "-") == EXIT_HARD
        fails = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL sanity E2_7 ")

    def test_theorem2_soft_failure_exit(self, capsys, cache_env, tmp_path):
        out = tmp_path / "reports.jsonl"
        code = run_cli("verify", "theorem2", *LADDER_ARGS, "--T", "1000",
                       "--max-n", "1", "--tol-ratio", "1e-9",
                       "--out", str(out))
        assert code == EXIT_SOFT
        assert out.exists() and out.read_text().strip()  # reports still written

    def test_theorem2_rows_record_tol_ratio(self, capsys, cache_env, tmp_path):
        # from the flag, of verify and of run
        code = run_cli("verify", "theorem2", *LADDER_ARGS, "--T", "1000",
                       "--max-n", "1", "--tol-ratio", "0.01", "--out", "-")
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert code == EXIT_SOFT
        assert len(rows) == 7
        assert all(r["params"]["tol_ratio"] == 0.01 for r in rows)
        fails = [line for line in captured.err.splitlines() if line.startswith("FAIL E2_")]
        assert fails and all("'tol_ratio': 0.01" in line for line in fails)

        assert run_cli("run", *LADDER_ARGS, "--equations", "theorem2", "--T", "1000",
                       "--max-n", "1", "--tol-ratio", "0.5", "--out", "-") == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 7
        assert all(r["params"]["tol_ratio"] == 0.5 for r in rows)

    @pytest.mark.parametrize("family", ["baseline", "theorem1", "corollary",
                                        "theorem2", "sanity"])
    def test_verify_is_run_of_one_family(self, capsys, cache_env, tmp_path, family):
        plan = [*LADDER_ARGS, "--T", "1000", "--nu", "0", "--max-n", "1",
                "--tol-ratio", "1e-9"]
        outs, codes, fails = [], [], []
        for verb in (["verify", family], ["run", "--equations", family]):
            out = tmp_path / f"{verb[0]}.jsonl"
            codes.append(run_cli(*verb, *plan, "--out", str(out)))
            outs.append(out.read_bytes())
            fails.append([line for line in capsys.readouterr().err.splitlines()
                          if line.startswith("FAIL")])
        assert outs[0] and outs[0] == outs[1]
        assert codes[0] == codes[1]
        assert fails[0] == fails[1]
        # the tight ratio band makes the asymptotic families fail
        assert bool(fails[0]) == (family in ("corollary", "theorem2"))

    def test_report_does_not_depend_on_family_order(self, capsys, cache_env, tmp_path):
        # a member's asymptotic and exactness rows share (eq, T, n); sort_key
        # puts the asymptotic row first whatever the order of --equations
        plan = [*LADDER_ARGS, "--T", "1000", "--max-n", "1", "--tol-ratio", "1e-9"]
        for fmt in ("jsonl", "csv"):
            outs, fails = [], []
            for order in (("theorem2", "sanity"), ("sanity", "theorem2")):
                out = tmp_path / f"{order[0]}.{fmt}"
                assert run_cli("run", *plan, "--equations", *order, "--format", fmt,
                               "--out", str(out)) == EXIT_SOFT
                outs.append(out.read_bytes())
                fails.append([line for line in capsys.readouterr().err.splitlines()
                              if line.startswith("FAIL")])
            assert outs[0] == outs[1]
            assert fails[0] and fails[0] == fails[1]

    def test_plan_rows_have_distinct_sort_keys(self, cache_env):
        cfg = RunConfig(t_lo=1000.0, t_hi=1090.0, tol=1e-9, T=(1000.0, 1005.0), n_max=2)
        reports = _plan_reports(cfg)
        assert len(reports) == 78
        assert len({V.sort_key(r) for r in reports}) == len(reports)

    def test_plan_integrates_only_the_panels_it_touches(self, cache_env, monkeypatch):
        # the paper's fixed plan: its windows and inversions touch a dozen of
        # the ladder's 6000 panels, in four aligned blocks of _ANTI_BLOCK
        # panels, and only those blocks get an antiderivative
        import zladder.cli as C
        from zladder.ladder import _ANTI_BLOCK
        tables = []
        real = C._get_ladder
        monkeypatch.setattr(C, "_get_ladder", lambda cfg: tables.append(real(cfg)) or tables[-1])
        cfg = RunConfig(t_lo=1000.0, t_hi=7000.0, tol=1e-8, T=(1500.0, 3000.0, 6000.0),
                        n_max=4)
        assert len(_plan_reports(cfg)) == 242
        (table,) = tables
        assert len(table.coef) >= 6000
        blocks = np.unique(np.flatnonzero(table._built) // _ANTI_BLOCK)
        assert 0 < len(blocks) <= 4
        assert np.count_nonzero(table._built) <= len(blocks) * _ANTI_BLOCK

    @pytest.mark.parametrize("family,code", [("theorem1", EXIT_OK), ("corollary", EXIT_OK),
                                             ("theorem2", EXIT_CONFIG)])
    def test_plan_T_checked_with_each_members_width(self, capsys, cache_env, family, code):
        # phi_hi of [1000, 1100] is 1020.47: the windows [1019, 1020] of the
        # U = 1 members fit, E2_5..E2_10's [1019, 1021] does not
        assert run_cli("verify", family, "--t-lo", "1000", "--t-hi", "1100", "--tol", "1e-8",
                       "--T", "1019", "--nu", "0", "--max-n", "2", "--out", "-") == code
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            assert len(out.splitlines()) == {"theorem1": 4, "corollary": 2}[family]
        else:
            assert out == "" and err.startswith("error: plan T = 1019.0 outside ladder "
                                                "range: need phi_lo <= T and T + 2 <= phi_hi")

    def test_plan_T_outside_domain(self, capsys, cache_env):
        code = run_cli("verify", "theorem2", *LADDER_ARGS, "--T", "5000",
                       "--max-n", "1", "--out", "-")
        assert code == EXIT_CONFIG
        assert "5000" in capsys.readouterr().err

    def test_bessel_zero_past_bessel_j_domain(self, capsys, cache_env):
        # mu_64 of J_0 is 200.28, past bessel_j's x <= 200
        code = run_cli("verify", "corollary", *LADDER_ARGS, "--T", "1000",
                       "--max-n", "64", "--out", "-")
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: E2_2 at nu = 0.0 with max_n = 64: mu_64 = 200.")
        assert "bessel_j's domain" in captured.err

    def test_envelope_zero_past_bessel_j_domain(self, capsys, cache_env):
        # mu_64 of J_100 lies past bessel_j's x <= 200: refused by name, as
        # the ladder members refuse it, before any ladder is built
        code = run_cli("plot-data", "--what", "envelope", *LADDER_ARGS, "--T", "1000",
                       "--nu", "100", "--n", "64", "--out", "-")
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the envelope at nu = 100.0 with n = 64: mu_64 = ")
        assert "lies past bessel_j's domain x <= 200" in captured.err
        assert not (cache_env / "cache").exists()

    def test_baseline_stops_at_its_cap(self, capsys, cache_env):
        # E1_2 takes min(max_n, 8): its 36 pairs of degrees up to 8, beside
        # E1_3's 136 pairs up to 16
        code = run_cli("run", *LADDER_ARGS, "--equations", "baseline", "theorem1",
                       "--nu", "0", "--T", "1000", "--max-n", "16", "--out", "-")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        baseline = [r["params"]["n"] for r in rows if r["equation_id"] == "E1_2"]
        assert len(baseline) == 36 and max(baseline) == 8
        assert sum(r["equation_id"].startswith("E1_3") for r in rows) == 136

    @pytest.mark.parametrize("family,rows", [("theorem1", 4), ("corollary", 2)])
    def test_high_order_rows(self, capsys, cache_env, family, rows):
        # (mu u / 2)^25 underflows near u = 0; every row is still written
        code = run_cli("verify", family, *LADDER_ARGS, "--T", "1000", "--nu", "25",
                       "--max-n", "2", "--out", "-")
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == rows
        assert all(json.loads(line)["params"]["nu"] == 25.0 for line in out)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["theorem2", "sanity"])
    @pytest.mark.parametrize("alpha,beta", [(-0.5, -0.5), (0.3, -0.4), (-0.75, 0.3),
                                            (-0.9, -0.9)])
    def test_negative_jacobi_exponent(self, capsys, cache_env, family, alpha, beta):
        # the window's end pieces are mapped by tau^m, m = ceil(1 / (1 + gamma))
        # (4 and 10 for the last two pairs), so the weight's negative power of
        # the distance to an end stays bounded and every sanity row exact
        code = run_cli("verify", family, *LADDER_ARGS, "--T", "941", "--max-n", "4",
                       "--alpha", str(alpha), "--beta", str(beta), "--out", "-")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        e25 = [r for r in rows if r["equation_id"] == "E2_5"]
        assert len(e25) == 4
        if family == "sanity":
            assert all(abs(r["ratio"] - 1.0) <= RunConfig().tol_exact for r in rows)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family,flag,value,code", [
        ("theorem2", "--alpha", "1000", EXIT_OK),
        ("theorem2", "--alpha", "1e4", EXIT_CONFIG), ("theorem2", "--alpha", "inf", EXIT_CONFIG),
        ("theorem2", "--beta", "1e4", EXIT_CONFIG), ("theorem2", "--beta", "inf", EXIT_CONFIG),
        ("sanity", "--alpha", "1e4", EXIT_CONFIG)])
    def test_jacobi_exponent_past_the_weight_bound(self, capsys, cache_env, family, flag,
                                                   value, code):
        # an exponent whose degree-16 rows would overflow is a usage error
        # that names the bound, not a non-finite integrand (exit 70)
        assert run_cli("verify", family, *LADDER_ARGS, "--T", "941", "--max-n", "4",
                       flag, value, "--out", "-") == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err.startswith("error: E2_5 at (alpha, beta) = ") and err.count("\n") == 1
            assert "past 2^1016" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["theorem2", "sanity"])
    @pytest.mark.parametrize("alpha,beta,max_n", [("-0.99", "300", "4"), ("-0.99", "300", "16"),
                                                  ("1011", "-0.5", "16"), ("-0.99", "100", "16"),
                                                  ("-0.9", "100", "16")])
    def test_large_exponent_beside_a_negative_one(self, capsys, cache_env, family, alpha,
                                                  beta, max_n):
        # these overflowed (exit 70, or exit 0 with an overflow warning) or
        # refined for minutes: a usage error that names the bound, at once
        start = time.perf_counter()
        assert run_cli("verify", family, *LADDER_ARGS, "--T", "941", "--max-n", max_n,
                       f"--alpha={alpha}", f"--beta={beta}", "--out", "-") == EXIT_CONFIG
        assert time.perf_counter() - start < 20.0
        err = capsys.readouterr().err
        assert err == (f"error: E2_5 at (alpha, beta) = ({float(alpha)}, {float(beta)}): beside "
                       f"a negative exponent the other must be at most 20\n")

    def test_infinite_exponent_exit_warns_nothing(self, tmp_path):
        # the same refusal in a fresh interpreter that turns every warning
        # into an error: one error line, no warning and no traceback
        src = os.path.dirname(os.path.dirname(zladder.__file__))
        env = {**os.environ, "ZLADDER_CACHE_ROOT": str(tmp_path / "cache"),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-W", "error", "-m", "zladder.cli", "verify",
                              "theorem2", *LADDER_ARGS, "--T", "941", "--alpha", "inf",
                              "--out", "-"], env=env, capture_output=True, text=True)
        assert run.returncode == EXIT_CONFIG
        assert run.stderr.startswith("error: E2_5 at (alpha, beta) = (inf, 0.5): ")
        assert run.stderr.count("\n") == 1 and run.stdout == ""

    def test_offdiagonal_hard_failure_exit(self, capsys, cache_env, monkeypatch):
        # an E1_3 off-diagonal integral past tol_exact (1e-4) is a hard failure
        real = V.ladder_reports

        def off(table, sets):
            reports = real(table, sets)
            for r in reports:
                if r.equation_id == "E1_3_offdiag":
                    r.lhs = -2e-4
            return reports

        monkeypatch.setattr(V, "ladder_reports", off)
        assert run_cli("verify", "theorem1", *LADDER_ARGS, "--T", "1000", "--nu", "0",
                       "--max-n", "2", "--out", "-") == EXIT_HARD
        fails = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FAIL")]
        assert fails == ["FAIL E1_3 offdiag {'m': 1, 'n': 2, 'nu': 0.0, 'T': 1000.0, "
                         "'tol': 0.0001}: |I| = 2.000e-04"]

    def test_trend_rule_soft_failure_exit(self, capsys, cache_env, monkeypatch):
        # |ratio - 1| growing with T in every group, each row well inside
        # tol_ratio, fails the trend rule alone
        real = V.ladder_reports

        def drift(table, sets):
            reports = real(table, sets)
            for r in reports:
                r.ratio = 1.0 + 1e-3 * r.params["T"] / 1000.0
            return reports

        monkeypatch.setattr(V, "ladder_reports", drift)
        assert run_cli("verify", "corollary", *LADDER_ARGS, "--T", "941", "960", "--nu", "0",
                       "--max-n", "2", "--out", "-") == EXIT_SOFT
        fails = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FAIL")]
        assert fails == ["FAIL ratio-error trend nonincreasing for only 0/2 groups"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family,T", [("theorem1", "1000"), ("corollary", "941"),
                                          ("theorem2", "941"), ("sanity", "941")])
    def test_negative_bessel_order(self, capsys, cache_env, family, T):
        # J_nu(0) = inf for -1/2 < nu < 0 met d_left = 0 (inf * 0, exit 70);
        # the rows take 0 there, the limit of u J_nu(mu u)^2
        code = run_cli("verify", family, *LADDER_ARGS, "--T", T, "--nu", "-0.3",
                       "--max-n", "4", "--out", "-")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows and all(math.isfinite(r["lhs"]) for r in rows)

    @pytest.mark.parametrize("family", ["baseline", *V.FAMILIES])
    def test_order_below_minus_half_refused_first(self, capsys, cache_env, monkeypatch,
                                                  family):
        def no_ladder(cfg, rebuild=False):
            raise AssertionError("a ladder was built before the order was checked")

        monkeypatch.setattr(cli_mod, "_get_ladder", no_ladder)
        code = run_cli("verify", family, *LADDER_ARGS, "--T", "1000", "--nu", "-0.7",
                       "--max-n", "1", "--out", "-")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: the Bessel families require nu >= -0.5 (u J_nu(mu u)^2 is unbounded "
            "at u = 0 below it), got nu = -0.7\n")


class TestRun:
    def test_flags_set_every_field(self):
        # every RunConfig field from its flag, each away from its default, so
        # every flag's parser is exercised
        args = build_parser().parse_args([
            "run", "--t-lo", "1001", "--t-hi", "1090", "--tol", "1e-9", "--cache", "c.npz",
            "--equations", "baseline", "sanity", "--T", "1000", "1005", "--nu", "0", "2.5",
            "--max-n", "2", "--alpha", "0.25", "--beta", "0.75", "--tol-exact", "1e-5",
            "--tol-ratio", "0.5", "--tol-baseline", "1e-10", "--format", "csv",
            "--out", "r.csv", "--timings"])
        want = RunConfig(t_lo=1001.0, t_hi=1090.0, tol=1e-9, cache="c.npz",
                         equations=("baseline", "sanity"), T=(1000.0, 1005.0),
                         nu=(0.0, 2.5), n_max=2, alpha=0.25, beta=0.75, tol_exact=1e-5,
                         tol_ratio=0.5, tol_baseline=1e-10, format="csv", path="r.csv",
                         timings=True)
        assert cli_mod._config_from_args(args) == want
        default = RunConfig()
        assert all(getattr(want, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(RunConfig))

    PLAN = [*LADDER_ARGS, "--T", "1000", "--nu", "0", "--max-n", "1"]

    def test_run_deterministic_reports(self, cache_env, tmp_path):
        out1 = tmp_path / "r1.jsonl"
        out2 = tmp_path / "r2.jsonl"
        for out in (out1, out2):
            assert run_cli("run", *self.PLAN, "--equations", "baseline", "sanity",
                           "--out", str(out)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_baseline_only_plan(self, cache_env, tmp_path, capsys):
        code = run_cli("run", *self.PLAN, "--equations", "baseline", "--out", "-")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert rows and all(r["equation_id"] == "E1_2" for r in rows)

    def test_run_exit_codes(self, cache_env, tmp_path):
        assert run_cli("run", *LADDER_ARGS, "--T", "80000", "--nu", "0", "--max-n", "1",
                       "--equations", "baseline", "sanity",
                       "--out", str(tmp_path / "x.jsonl")) == EXIT_CONFIG

    def test_unsorted_T_rejected(self, tmp_path):
        from zladder import DomainError
        for T in [(2000.0, 1000.0), (1000.0, 1000.0)]:
            with pytest.raises(DomainError):
                RunConfig(T=T)

    @pytest.mark.parametrize("flag,timed", [(["--timings"], True), ([], False)])
    def test_timings_flag(self, cache_env, capsys, flag, timed):
        assert run_cli("run", "--equations", "baseline", "--nu", "0", "--max-n", "1",
                       "--out", "-", *flag) == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows and all(("elapsed" in r) == timed for r in rows)

    @pytest.mark.parametrize("timed", [False, True])
    def test_csv_timings_add_an_elapsed_column(self, cache_env, capsys, timed):
        assert run_cli("run", "--equations", "baseline", "--nu", "0", "--max-n", "2",
                       "--out", "-", "--format", "csv", *(["--timings"] * timed)) == EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.endswith("quadrature_error" + ",elapsed" * timed)
        assert len(rows) == 3
        if timed:
            assert all(float(row.rsplit(",", 1)[1]) >= 0.0 for row in rows)

    def test_run_imports_no_numpy_polynomial(self, tmp_path):
        # a run splits its GK15 windows at the ladder's panel edges and finds
        # no zeros of p, so no root finder (and no LAPACK) is loaded
        code = (
            "import sys\n"
            "from zladder.cli import main\n"
            f"argv = ['run', *{self.PLAN!r}, '--equations', 'theorem1', 'sanity', '--out', '-']\n"
            "assert main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
        src = os.path.dirname(os.path.dirname(zladder.__file__))
        env = {**os.environ, "ZLADDER_CACHE_ROOT": str(tmp_path / "cache"),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.splitlines()[-1] == "[]"

    def test_run_loads_no_openssl(self, tmp_path):
        # the config hashes use CPython's own SHA-256, so neither the import
        # nor a whole plan maps OpenSSL's libcrypto (hashlib's _hashlib)
        code = (
            "import sys\n"
            "from zladder.cli import main\n"
            "print('_hashlib' in sys.modules)\n"
            f"assert main(['run', *{self.PLAN!r}, '--out', '-']) == 0\n"
            "print('_hashlib' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(zladder.__file__))
        env = {**os.environ, "ZLADDER_CACHE_ROOT": str(tmp_path / "cache"),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        lines = run.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("False", "False")

    def test_package_import_loads_no_front_end(self):
        # the build and query paths import only `zladder`, which loads
        # neither the front end (settings, cache path, report format) nor
        # the verification layers
        code = ("import sys\n"
                "import zladder\n"
                "print(sorted(m for m in ('zladder.cli', 'zladder.verify') if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(zladder.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "[]"

    def test_build_imports_no_numpy_ma(self, tmp_path):
        # numpy.ma adds 1.2 MB to a process's peak; the anchor count
        # (prime_pi) of a build, and of a load checking the cached anchor,
        # takes its segments without the np.unique that imports it
        src = os.path.dirname(os.path.dirname(zladder.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        ladder = ["--t-lo", "1000", "--t-hi", "1020", "--cache", str(tmp_path / "ladder.npz")]
        for argv in (["ladder", "build", *ladder], ["ladder", "query", *ladder, "--t", "1010"]):
            code = ("import sys\n"
                    "from zladder.cli import main\n"
                    f"assert main({argv!r}) == 0\n"
                    "print('numpy.ma' in sys.modules)\n")
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            assert run.stdout.splitlines()[-1] == "False", argv

    @pytest.mark.parametrize("field,value,message", [
        ("equations", ("baseline", "theorem3"), "unknown plan equation 'theorem3'"),
        ("format", "xml", "unknown output format 'xml'"),
        ("n_max", 0, "n_max must be >= 1")])
    def test_config_refuses(self, field, value, message):
        # the API's RunConfig checks what the parser's choices check on the CLI
        with pytest.raises(DomainError, match=f"^config: {message}$"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tol", "tol_exact", "tol_ratio", "tol_baseline"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, float("nan"), float("inf")])
    def test_tolerance_must_be_positive(self, field, value):
        from zladder import DomainError
        with pytest.raises(DomainError, match=field):
            RunConfig(**{field: value})

    def test_negative_values_in_any_float_form(self):
        # argparse alone takes `-1e-05` for a flag and refuses `--alpha -1e-05`
        args = build_parser().parse_args(["run", "--alpha", "-1e-05", "--beta", "-.5",
                                          "--nu", "-0.25", "-2.5E-1", "--T", "1e3"])
        assert (args.alpha, args.beta, args.nu) == (-1e-05, -0.5, [-0.25, -0.25])
        with pytest.raises(DomainError, match="argument --beta: expected one argument"):
            build_parser().parse_args(["run", "--beta", "-inf"])


class TestPlotData:
    def test_ladder_columns(self, capsys, cache_env):
        assert run_cli("plot-data", "--what", "ladder", *LADDER_ARGS,
                       "--from", "1005", "--to", "1006", "--step", "0.5") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,phi1,t_minus_phi1"
        assert len(lines) == 4

    def test_envelope_row_count(self, capsys, cache_env):
        assert run_cli("plot-data", "--what", "envelope", *LADDER_ARGS,
                       "--T", "950", "--nu", "0", "--n", "3",
                       "--points", "1000") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,envelope,abs_z"
        assert len(lines) == 1001

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", ["-0.5", "-0.3", "0"])
    def test_envelope_finite_at_negative_orders(self, capsys, cache_env, nu):
        # phi_1 of the grid's first point, the computed preimage of T = 941,
        # lies below T: the envelope there is its limit u -> 0, not nan
        for points in (50, 1):
            assert run_cli("plot-data", "--what", "envelope", *LADDER_ARGS, "--T", "941",
                           "--nu", nu, "--points", str(points)) == EXIT_OK
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
            assert len(rows) == points and all(math.isfinite(float(e)) for _, e, _ in rows)

    def test_failed_run_keeps_existing_out(self, capsys, cache_env):
        assert run_cli("ladder", "build", *LADDER_ARGS) == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        with open(built["cache"], "w") as fh:
            fh.write("{broken")
        out = cache_env / "ladder.csv"
        out.write_text("t,phi1,t_minus_phi1\n1005.0,1.0,2.0\n")
        assert run_cli("plot-data", "--what", "ladder", *LADDER_ARGS, "--from", "1005",
                       "--to", "1006", "--step", "0.5", "--out", str(out)) == EXIT_CACHE
        assert out.read_text() == "t,phi1,t_minus_phi1\n1005.0,1.0,2.0\n"
        assert run_cli("ladder", "retardation", *LADDER_ARGS, "--from", "1010",
                       "--to", "1060", "--out", str(out)) == EXIT_CACHE
        assert out.read_text() == "t,phi1,t_minus_phi1\n1005.0,1.0,2.0\n"

    def test_z_trace_sign_changes_match_oracle(self, capsys, cache_env):
        assert run_cli("plot-data", "--what", "z_trace",
                       "--from", "100", "--to", "110", "--step", "0.02") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        zs = np.array([float(line.split(",")[1]) for line in lines[1:]])
        changes = int(np.sum(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0))

        from zladder import ZEvaluator
        ev = ZEvaluator()
        ts = np.linspace(100.0, 110.0, 4001)
        zo = ev.z_oracle(ts)
        oracle_changes = int(np.sum(np.sign(zo[:-1]) * np.sign(zo[1:]) < 0))
        assert changes == oracle_changes


class TestReportSummary:
    def test_summarize(self, capsys, cache_env, tmp_path):
        out = tmp_path / "r.jsonl"
        assert run_cli("verify", "sanity", *LADDER_ARGS, "--T", "1000",
                       "--max-n", "1", "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        assert run_cli("report", str(out)) == EXIT_OK
        text = capsys.readouterr().out
        assert "E2_10" in text and "max|ratio-1|" in text

    def test_sanity_rows_apart(self, capsys, tmp_path):
        path = tmp_path / "mixed.jsonl"
        rows = [("E2_7", {"n": 1, "T": 1000.0, "weight": "ztilde2"}, 1.0 + 2e-4),
                ("E2_7", {"n": 1, "T": 1000.0, "tol_ratio": 0.25}, 1.0 - 3e-2),
                ("E2_7", {"n": 2, "T": 1000.0, "tol_ratio": 0.25}, 1.0 + 1e-2)]
        path.write_text("".join(
            json.dumps({"equation_id": eq, "params": params, "ratio": ratio,
                        "abs_error": abs(ratio - 1.0)}) + "\n"
            for eq, params, ratio in rows))
        assert run_cli("report", str(path)) == EXIT_OK
        table = {line.split()[0]: line.split()[1:]
                 for line in capsys.readouterr().out.splitlines()[1:]}
        assert table["E2_7"][:2] == ["2", "3.000e-02"]
        assert table["E2_7/sanity"][:2] == ["1", "2.000e-04"]

    def test_missing_file_exit(self, capsys, tmp_path):
        assert run_cli("report", str(tmp_path / "missing.jsonl")) == EXIT_CONFIG
        assert "missing.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ['{"equation_id": "E1_2", "abs_error": 0.0}\n{bad\n',
                                      '[1, 2]\n', '{"equation_id": "E1_2"}\n'])
    def test_malformed_line_exit(self, capsys, tmp_path, body):
        path = tmp_path / "bad.jsonl"
        path.write_text(body)
        assert run_cli("report", str(path)) == EXIT_CACHE
        assert "not a report row" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["ratio", "abs_error"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_row_exit(self, capsys, tmp_path, field, value):
        # json.loads takes these; max(0.0, nan) is 0.0, so a NaN row would
        # read as a perfect one in the summary
        row = {"equation_id": "E1_2", "ratio": 1.0, "abs_error": 0.0}
        path = tmp_path / "nan.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: float(value)}) + "\n")
        assert value in path.read_text()
        assert run_cli("report", str(path)) == EXIT_CACHE
        err = capsys.readouterr().err
        assert "line 2: not a report row" in err and field in err

    def test_unwritable_out_exit(self, capsys, cache_env, tmp_path):
        out = tmp_path / "no-such-dir" / "z.csv"
        assert run_cli("plot-data", "--what", "z_trace", "--from", "100", "--to", "101",
                       "--out", str(out)) == EXIT_CONFIG
        assert "no-such-dir" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "verify"])
def test_plan_flags_are_named_by_their_fields(verb):
    """Each option of a plan verb sets the RunConfig field named by its dest,
    so the CLI keeps no list of settings of its own."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[verb]._actions}
    assert dests - {f.name for f in dataclasses.fields(RunConfig)} == {"help"}


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["verify", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: zladder" in capsys.readouterr().out


# Every verb with each documented exit code it can return.  In the args,
# BROKEN names a file that is not a cache or report and ZEROS a file that
# does not exist.  TIGHT, TYPO, SECTION, EVALUATOR and STEP are INI files of
# the kind older versions read with --config; that flag is gone, so each is
# refused as an unknown flag, whatever it holds.  A ladder that cannot reach
# its tolerance makes every ladder verb exit 70.


def exit_case(verb, args, code, id=None):
    """One EXIT_CASES row, with its test id: `id`, or else the verb and its
    args, each spliced list of SPLICES named by its key, so deleting a row or
    editing a list renames no other case.  The rows written when the ids
    were positions keep their `{verb}-{code}-{position}` ids, and the rows
    written when the ids spelled the lists out keep those ids."""
    words, i = [verb], 0
    while i < len(args):
        token = next((k for k, run in SPLICES.items() if args[i:i + len(run)] == run), None)
        words.append(token or args[i])
        i += len(SPLICES[token]) if token else 1
    return pytest.param(verb, args, code, id=id or " ".join(words))


UNREACHABLE = ["--t-lo", "1000", "--t-hi", "1001", "--tol", "1e-300"]
PLAN = [*LADDER_ARGS, "--T", "1000", "--nu", "0", "--max-n", "1", "--out", "-"]
# PLAN first: it starts with LADDER_ARGS
SPLICES = {"PLAN": PLAN, "UNREACHABLE": UNREACHABLE, "LADDER_ARGS": LADDER_ARGS}
EXIT_CASES = [
    exit_case("z eval", ["--t", "100"], EXIT_OK, "z eval-0-0"),
    exit_case("z eval", ["--t", "nan"], EXIT_CONFIG, "z eval-64-1"),
    exit_case("z eval", ["--t", "nan", "--oracle"], EXIT_CONFIG, "z eval-64-2"),
    exit_case("specfun zeros", ["--nu", "0", "--count", "2"], EXIT_OK, "specfun zeros-0-3"),
    exit_case("specfun zeros", ["--nu", "nan", "--count", "2"], EXIT_CONFIG, "specfun zeros-64-4"),
    # the removed zero-file flag is an unknown flag
    exit_case("specfun zeros", ["--nu", "0", "--count", "2", "--cache-file", "BROKEN"],
              EXIT_CONFIG, "specfun zeros-64-5"),
    exit_case("ladder build", LADDER_ARGS, EXIT_OK, "ladder build-0-6"),
    exit_case("ladder build", ["--t-lo", "1090", "--t-hi", "1000"],
              EXIT_CONFIG, "ladder build-64-7"),
    exit_case("ladder build", [*LADDER_ARGS, "--cache", "BROKEN"],
              EXIT_CACHE, "ladder build-65-8"),
    exit_case("ladder build", UNREACHABLE, EXIT_NUMERIC, "ladder build-70-9"),
    exit_case("ladder query", [*LADDER_ARGS, "--t", "1010"], EXIT_OK, "ladder query-0-10"),
    exit_case("ladder query", [*LADDER_ARGS, "--t", "nan"], EXIT_CONFIG, "ladder query-64-11"),
    exit_case("ladder query", [*LADDER_ARGS, "--t", "1010", "--cache", "BROKEN"],
              EXIT_CACHE, "ladder query-65-12"),
    exit_case("ladder query", [*UNREACHABLE, "--t", "1000.7"], EXIT_NUMERIC, "ladder query-70-13"),
    exit_case("ladder invert", [*LADDER_ARGS, "--y", "1000"], EXIT_OK, "ladder invert-0-14"),
    exit_case("ladder invert", [*LADDER_ARGS, "--y", "nan"], EXIT_CONFIG, "ladder invert-64-15"),
    exit_case("ladder invert", [*LADDER_ARGS, "--y", "1000", "--cache", "BROKEN"],
              EXIT_CACHE, "ladder invert-65-16"),
    exit_case("ladder invert", [*UNREACHABLE, "--y", "1000"], EXIT_NUMERIC, "ladder invert-70-17"),
    exit_case("ladder retardation", [*LADDER_ARGS, "--from", "1010", "--to", "1060"],
              EXIT_OK, "ladder retardation-0-18"),
    exit_case("ladder retardation", [*LADDER_ARGS, "--from", "1010", "--to", "1060",
                                     "--step", "0"],
              EXIT_CONFIG, "ladder retardation-64-19"),
    exit_case("ladder retardation", [*LADDER_ARGS, "--from", "2000", "--to", "1000"],
              EXIT_CONFIG, "ladder retardation-64-20"),
    exit_case("ladder retardation", [*LADDER_ARGS, "--from", "1010", "--to", "1060", "--cache",
                                     "BROKEN"], EXIT_CACHE, "ladder retardation-65-21"),
    exit_case("ladder retardation", [*UNREACHABLE, "--from", "1000", "--to", "1001"],
              EXIT_NUMERIC, "ladder retardation-70-22"),
    exit_case("verify baseline", ["--nu", "0", "--max-n", "2", "--out", "-"],
              EXIT_OK, "verify baseline-0-23"),
    exit_case("verify baseline", ["--nu", "0", "--max-n", "2", "--tol-baseline", "1e-30",
                                  "--out", "-"], EXIT_HARD, "verify baseline-1-24"),
    exit_case("verify baseline", ["--nu", "0", "--max-n", "2", "--tol-baseline", "nan",
                                  "--out", "-"], EXIT_CONFIG, "verify baseline-64-25"),
    exit_case("verify theorem1", PLAN, EXIT_OK, "verify theorem1-0-26"),
    exit_case("verify theorem1", [*PLAN, "--tol-exact", "1e-30"],
              EXIT_HARD, "verify theorem1-1-27"),
    exit_case("verify theorem1", [*PLAN, "--tol-exact", "nan"],
              EXIT_CONFIG, "verify theorem1-64-28"),
    exit_case("verify theorem1", [*PLAN, "--cache", "BROKEN"],
              EXIT_CACHE, "verify theorem1-65-29"),
    exit_case("verify theorem1", [*UNREACHABLE, "--T", "1000", "--out", "-"],
              EXIT_NUMERIC, "verify theorem1-70-30"),
    exit_case("verify corollary", PLAN, EXIT_OK, "verify corollary-0-31"),
    exit_case("verify corollary", [*PLAN, "--tol-ratio", "1e-9"],
              EXIT_SOFT, "verify corollary-2-32"),
    exit_case("verify corollary", [*PLAN, "--tol-ratio", "nan"],
              EXIT_CONFIG, "verify corollary-64-33"),
    # an infinite tolerance certifies nothing
    exit_case("verify corollary", [*PLAN, "--tol-ratio", "inf"], EXIT_CONFIG),
    exit_case("verify theorem2", [*PLAN, "--tol-ratio", "inf"], EXIT_CONFIG),
    exit_case("verify theorem1", [*PLAN, "--tol-exact", "inf"], EXIT_CONFIG),
    exit_case("verify baseline", ["--nu", "0", "--max-n", "2", "--tol-baseline", "inf",
                                  "--out", "-"], EXIT_CONFIG),
    exit_case("ladder build", ["--t-lo", "1000", "--t-hi", "1090", "--tol", "inf"],
              EXIT_CONFIG),
    exit_case("verify corollary", [*PLAN, "--cache", "BROKEN"],
              EXIT_CACHE, "verify corollary-65-34"),
    exit_case("verify corollary", [*UNREACHABLE, "--T", "1000", "--out", "-"],
              EXIT_NUMERIC, "verify corollary-70-35"),
    exit_case("verify theorem2", PLAN, EXIT_OK, "verify theorem2-0-36"),
    exit_case("verify theorem2", [*PLAN, "--tol-ratio", "1e-9"],
              EXIT_SOFT, "verify theorem2-2-37"),
    exit_case("verify theorem2", [*PLAN, "--T", "nan"], EXIT_CONFIG, "verify theorem2-64-38"),
    exit_case("verify theorem2", [*PLAN, "--cache", "BROKEN"],
              EXIT_CACHE, "verify theorem2-65-39"),
    exit_case("verify theorem2", [*UNREACHABLE, "--T", "1000", "--out", "-"],
              EXIT_NUMERIC, "verify theorem2-70-40"),
    exit_case("verify sanity", PLAN, EXIT_OK, "verify sanity-0-41"),
    exit_case("verify sanity", [*PLAN, "--tol-exact", "1e-30"], EXIT_HARD, "verify sanity-1-42"),
    exit_case("verify sanity", [*PLAN, "--alpha", "nan"], EXIT_CONFIG, "verify sanity-64-43"),
    exit_case("verify sanity", [*PLAN, "--cache", "BROKEN"], EXIT_CACHE, "verify sanity-65-44"),
    exit_case("verify sanity", [*UNREACHABLE, "--T", "1000", "--out", "-"],
              EXIT_NUMERIC, "verify sanity-70-45"),
    exit_case("plot-data", ["--what", "ladder", *LADDER_ARGS, "--from", "1005", "--to", "1006"],
              EXIT_OK, "plot-data-0-46"),
    exit_case("plot-data", ["--what", "ladder", *LADDER_ARGS], EXIT_CONFIG, "plot-data-64-47"),
    exit_case("plot-data", ["--what", "envelope", *LADDER_ARGS], EXIT_CONFIG, "plot-data-64-48"),
    exit_case("plot-data", ["--what", "envelope", *LADDER_ARGS, "--T", "950", "--points", "-3"],
              EXIT_CONFIG, "plot-data-64-49"),
    exit_case("plot-data", ["--what", "z_trace", "--from", "100", "--to", "101", "--step", "nan"],
              EXIT_CONFIG, "plot-data-64-50"),
    exit_case("plot-data", ["--what", "ladder", *LADDER_ARGS, "--from", "1005", "--to", "1006",
                            "--cache", "BROKEN"], EXIT_CACHE, "plot-data-65-51"),
    exit_case("plot-data", ["--what", "ladder", *UNREACHABLE, "--from", "1000", "--to", "1001"],
              EXIT_NUMERIC, "plot-data-70-52"),
    exit_case("run", [*PLAN, "--equations", "baseline", "sanity"], EXIT_OK, "run-0-53"),
    exit_case("run", [*PLAN, "--equations", "theorem1", "corollary", "--tol-exact", "1e-30"],
              EXIT_HARD, "run-1-54"),
    exit_case("run", [*PLAN, "--equations", "theorem1", "corollary", "--tol-ratio", "1e-9"],
              EXIT_SOFT, "run-2-55"),
    exit_case("run", [*PLAN, "--T", "5000"], EXIT_CONFIG, "run-64-56"),
    exit_case("run", [*PLAN, "--cache", "BROKEN"], EXIT_CACHE, "run-65-57"),
    exit_case("run", [*UNREACHABLE, "--T", "1000", "--out", "-"], EXIT_NUMERIC, "run-70-58"),
    exit_case("report", ["ZEROS"], EXIT_CONFIG, "report-64-59"),     # no such file
    exit_case("report", ["BROKEN"], EXIT_CACHE, "report-65-60"),
    exit_case("specfun zeros", ["--nu", "0", "--count", "0"], EXIT_CONFIG, "specfun zeros-64-61"),
    exit_case("specfun zeros", ["--nu", "0", "--count", "65"], EXIT_CONFIG, "specfun zeros-64-62"),
    exit_case("run", [*PLAN, "--T", "1000", "1000"], EXIT_CONFIG, "run-64-63"),
    exit_case("run", [*PLAN, "--equations", "sanity", "sanity"], EXIT_CONFIG, "run-64-64"),
    exit_case("run", [*PLAN, "--nu", "0", "0"], EXIT_CONFIG, "run-64-65"),
    exit_case("z eval", ["--t", "1000", "--t-min-rs", "50"],
              EXIT_CONFIG, "z eval-64-66"),   # removed flag
    exit_case("z eval", ["--t", "inf"], EXIT_CONFIG, "z eval-64-67"),
    exit_case("z eval", ["--t", "1e300"], EXIT_CONFIG, "z eval-64-68"),
    exit_case("z eval", ["--t", "inf", "--oracle"], EXIT_CONFIG, "z eval-64-69"),
    exit_case("run", [*PLAN, "--bogus"], EXIT_CONFIG, "run-64-70"),
    exit_case("verify nonsense", PLAN, EXIT_CONFIG, "verify nonsense-64-71"),
    exit_case("ladder query", LADDER_ARGS, EXIT_CONFIG, "ladder query-64-72"),      # no --t
    exit_case("run", [*PLAN, "--max-n", "abc"], EXIT_CONFIG, "run-64-73"),
    exit_case("run", [*PLAN, "--config", "TYPO"], EXIT_CONFIG, "run-64-74"),
    exit_case("run", [*PLAN, "--config", "SECTION"], EXIT_CONFIG, "run-64-75"),
    # grids past MAX_GRID_POINTS are refused before anything is allocated
    exit_case("plot-data", ["--what", "z_trace", "--from", "100", "--to", "1e12"],
              EXIT_CONFIG, "plot-data-64-77"),
    exit_case("plot-data", ["--what", "envelope", *LADDER_ARGS, "--T", "1005",
                            "--points", "1000000000000"], EXIT_CONFIG, "plot-data-64-78"),
    exit_case("ladder retardation", [*LADDER_ARGS, "--from", "1010", "--to", "1e12",
                                     "--step", "1"],
              EXIT_CONFIG, "ladder retardation-64-79"),
    # Bessel orders past NU_MAX = 100, where J's normalization would overflow
    exit_case("verify baseline", ["--nu", "170", "--max-n", "1", "--out", "-"],
              EXIT_CONFIG, "verify baseline-64-80"),
    exit_case("specfun zeros", ["--nu", "inf", "--count", "1"],
              EXIT_CONFIG, "specfun zeros-64-81"),
    # the evaluator is fixed: its removed flags are unknown
    exit_case("z eval", ["--t", "1000", "--rs-correction-order", "4"],
              EXIT_CONFIG, "z eval-64-82"),
    exit_case("ladder build", [*LADDER_ARGS, "--oracle-terms", "8"],
              EXIT_CONFIG, "ladder build-64-83"),
    exit_case("run", [*PLAN, "--t-min-rs", "50"], EXIT_CONFIG, "run-64-84"),
    exit_case("run", [*PLAN, "--config", "EVALUATOR"], EXIT_CONFIG, "run-64-85"),
    # removed flags and choice; a flag matches whole, never as a prefix
    exit_case("ladder build", [*LADDER_ARGS, "--h", "0.5"], EXIT_CONFIG,
              "ladder build --t-lo 1000 --t-hi 1090 --tol 1e-9 --h 0.5"),
    exit_case("ladder build", [*LADDER_ARGS, "--config", "STEP"], EXIT_CONFIG,
              "ladder build --t-lo 1000 --t-hi 1090 --tol 1e-9 --config STEP"),
    exit_case("z eval", ["--t", "1000", "--config", "TIGHT"], EXIT_CONFIG),
    exit_case("plot-data", ["--what", "retardation", *LADDER_ARGS, "--from", "1010",
                            "--to", "1060"], EXIT_CONFIG,
              "plot-data --what retardation --t-lo 1000 --t-hi 1090 --tol 1e-9 "
              "--from 1010 --to 1060"),
    exit_case("run", [*LADDER_ARGS, "--T", "1000", "--nu", "0", "--max", "4", "--out", "-"],
              EXIT_CONFIG, "run --t-lo 1000 --t-hi 1090 --tol 1e-9 --T 1000 --nu 0 --max 4 "
                           "--out -"),
    # Bessel orders below -1/2, where u J_nu(mu u)^2 is unbounded at u = 0
    exit_case("verify baseline", ["--nu", "-0.7", "--max-n", "2", "--out", "-"], EXIT_CONFIG),
    exit_case("verify theorem1", [*PLAN, "--nu", "-0.7"], EXIT_CONFIG),
    exit_case("verify corollary", [*PLAN, "--nu", "-0.7"], EXIT_CONFIG),
    exit_case("verify theorem2", [*PLAN, "--nu", "-0.7"], EXIT_CONFIG),
    exit_case("verify sanity", [*PLAN, "--nu", "-0.7"], EXIT_CONFIG),
    exit_case("run", [*PLAN, "--nu", "0", "-0.7"], EXIT_CONFIG),
    exit_case("plot-data", ["--what", "envelope", *LADDER_ARGS, "--T", "1005",
                            "--nu", "-0.7"], EXIT_CONFIG),
    # the anchor is a rule, not a flag: a ladder narrower than 10 units
    # builds, anchored at t_hi (the --config rows are above)
    exit_case("run", [*PLAN, "--anchor", "1005"], EXIT_CONFIG),
    exit_case("ladder build", [*LADDER_ARGS, "--anchor", "1005"], EXIT_CONFIG),
    exit_case("ladder build", ["--t-lo", "1000", "--t-hi", "1005"], EXIT_OK),
    # a panel on a seam of z_rs's main sum, t = 2 pi 6^2, is refused with
    # its seam named
    exit_case("ladder build", ["--t-lo", "200", "--t-hi", "1100", "--tol", "1e-8"],
              EXIT_NUMERIC),
]


@pytest.fixture(scope="module")
def shared_cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


def test_exit_case_ids_are_unique():
    ids = [case.id for case in EXIT_CASES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("verb,args,expected", EXIT_CASES)
def test_verb_exit_code(capsys, monkeypatch, tmp_path, shared_cache_root,
                        verb, args, expected):
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(shared_cache_root))
    files = {"BROKEN": tmp_path / "broken", "TIGHT": tmp_path / "tight.ini",
             "ZEROS": tmp_path / "zeros.json", "TYPO": tmp_path / "typo.ini",
             "SECTION": tmp_path / "section.ini",
             "EVALUATOR": tmp_path / "evaluator.ini", "STEP": tmp_path / "step.ini"}
    files["BROKEN"].write_text("{broken\n")
    files["TIGHT"].write_text("[plan]\ntol_exact = 1e-30\n")
    files["TYPO"].write_text("[plan]\nn_mx = 8\n")
    files["SECTION"].write_text("[plann]\nn_max = 8\n")
    files["EVALUATOR"].write_text("[evaluator]\nrs_correction_order = 4\n")
    files["STEP"].write_text("[ladder]\nh = 0.5\n")
    argv = [*verb.split(), *(str(files.get(a, a)) for a in args)]
    assert run_cli(*argv) == expected
    err = capsys.readouterr().err
    if expected in (EXIT_CONFIG, EXIT_CACHE, EXIT_NUMERIC):
        assert "error" in err
    if expected == EXIT_CONFIG:     # one line, no usage text
        assert err.startswith("error: ") and err.count("\n") == 1
    for removed in ("--config", "--anchor"):
        if removed in args:
            assert f"unrecognized arguments: {removed}" in err


# every verb that builds or loads a ladder, with the arguments it requires
LADDER_VERBS = {"ladder build": [], "ladder query": ["--t", "1010"],
                "ladder invert": ["--y", "950"],
                "ladder retardation": ["--from", "1010", "--to", "1060"],
                "plot-data": ["--what", "ladder", "--from", "1010", "--to", "1060"],
                "verify theorem1": ["--T", "1000"], "run": ["--T", "1000"]}


@pytest.mark.parametrize("flag", ["--config", "--anchor"])
@pytest.mark.parametrize("verb", list(LADDER_VERBS))
def test_removed_setup_flag_is_unknown(capsys, cache_env, verb, flag):
    # a run is set up by flags alone, and the anchor is a rule: both flags
    # are unknown, refused before any ladder is built
    argv = [*verb.split(), *LADDER_ARGS, *LADDER_VERBS[verb], flag, "1005"]
    assert run_cli(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: zladder: unrecognized arguments: {flag} 1005\n"
    assert not (cache_env / "cache").exists()
