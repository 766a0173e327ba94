import json
import os

import numpy as np
import pytest

from zladder.cli import (EXIT_CACHE, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                         EXIT_SOFT, main)
from zladder.config import RunConfig


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(tmp_path / "cache"))
    return tmp_path


LADDER_ARGS = ["--t-lo", "1000", "--t-hi", "1090", "--tol", "1e-9"]


def run_cli(*argv):
    return main(list(argv))


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

    def test_bad_t(self, cache_env):
        assert run_cli("z", "eval", "--t", "-5", "--oracle") == EXIT_CONFIG


class TestSpecfunZeros:
    def test_zeros_and_cache(self, capsys, cache_env):
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", "3") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["zeros"][0] == pytest.approx(2.404825557695773, abs=1e-9)
        assert doc["residual_bound"] <= 1e-12
        assert os.path.exists(doc["cache"])
        # second invocation loads the cache file
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", "5") == EXIT_OK
        doc2 = json.loads(capsys.readouterr().out)
        assert doc2["zeros"][:3] == doc["zeros"]

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
    def test_malformed_cache_exit(self, capsys, tmp_path, body):
        path = tmp_path / "zeros.json"
        path.write_bytes(body)
        assert run_cli("specfun", "zeros", "--nu", "0", "--count", "2",
                       "--cache-file", str(path)) == EXIT_CACHE
        out, err = capsys.readouterr()
        assert out == "" and "bessel zero cache" in err
        assert path.read_bytes() == body


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

    def test_cache_corruption_exit(self, capsys, cache_env):
        assert run_cli("ladder", "build", *LADDER_ARGS) == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        with open(built["cache"], "w") as fh:
            fh.write("{broken")
        assert run_cli("ladder", "query", *LADDER_ARGS, "--t", "1010") == EXIT_CACHE

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

    def test_cache_named_by_ladder_hash(self, capsys, cache_env):
        assert run_cli("ladder", "build", *LADDER_ARGS) == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        assert os.path.basename(built["cache"]) == f"ladder-{built['config_hash']}.npz"
        ints = RunConfig(t_lo=1000, t_hi=1090, tol=1e-9)
        assert ints.ladder_cache_path() == built["cache"]

    def test_unreachable_tolerance_exit(self, cache_env):
        assert run_cli("ladder", "build", "--t-lo", "1000", "--t-hi", "1001",
                       "--anchor", "1000.5", "--tol", "1e-300") == EXIT_NUMERIC


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

    def test_theorem2_soft_failure_exit(self, capsys, cache_env, tmp_path):
        out = tmp_path / "reports.jsonl"
        code = run_cli("verify", "theorem2", *LADDER_ARGS, "--T", "1000",
                       "--max-n", "1", "--tol-ratio", "1e-9",
                       "--out", str(out))
        assert code == EXIT_SOFT
        assert out.exists() and out.read_text().strip()  # reports still written

    def test_theorem2_rows_record_tol_ratio(self, capsys, cache_env, tmp_path):
        # from the flag, and from the INI file
        code = run_cli("verify", "theorem2", *LADDER_ARGS, "--T", "1000",
                       "--max-n", "1", "--tol-ratio", "0.01", "--out", "-")
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert code == EXIT_SOFT
        assert len(rows) == 7
        assert all(r["params"]["tol_ratio"] == 0.01 for r in rows)
        fails = [line for line in captured.err.splitlines() if line.startswith("FAIL E2_")]
        assert fails and all("'tol_ratio': 0.01" in line for line in fails)

        ini = tmp_path / "run.ini"
        RunConfig(t_lo=1000.0, t_hi=1090.0, tol=1e-9, T=(1000.0,), n_max=1,
                  tol_ratio=0.5, equations=("theorem2",)).to_ini(ini)
        assert run_cli("run", "--config", str(ini), "--out", "-") == EXIT_OK
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

    def test_plan_T_outside_domain(self, capsys, cache_env):
        code = run_cli("verify", "theorem2", *LADDER_ARGS, "--T", "5000",
                       "--max-n", "1", "--out", "-")
        assert code == EXIT_CONFIG
        assert "5000" in capsys.readouterr().err


class TestRun:
    def write_config(self, path, **plan):
        cfg = RunConfig(t_lo=1000.0, t_hi=1090.0, tol=1e-9,
                        T=(1000.0,), nu=(0.0,), n_max=plan.get("n_max", 1),
                        equations=plan.get("equations", ("baseline", "sanity")),
                        path=plan.get("out", "reports.jsonl"))
        cfg.to_ini(path)
        return cfg

    def test_config_roundtrip(self, tmp_path):
        path = tmp_path / "run.ini"
        cfg = self.write_config(path)
        again = RunConfig.from_ini(str(path))
        assert again == cfg

    def test_run_deterministic_reports(self, cache_env, tmp_path):
        ini = tmp_path / "run.ini"
        out1 = tmp_path / "r1.jsonl"
        out2 = tmp_path / "r2.jsonl"
        self.write_config(ini)
        assert run_cli("run", "--config", str(ini), "--out", str(out1)) == EXIT_OK
        assert run_cli("run", "--config", str(ini), "--out", str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_baseline_only_plan(self, cache_env, tmp_path, capsys):
        ini = tmp_path / "base.ini"
        self.write_config(ini, equations=("baseline",))
        code = run_cli("run", "--config", str(ini), "--out", "-")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert rows and all(r["equation_id"] == "E1_2" for r in rows)

    def test_run_exit_codes(self, cache_env, tmp_path):
        ini = tmp_path / "bad.ini"
        self.write_config(ini)
        text = ini.read_text().replace("T = 1000.0", "T = 80000.0")
        ini.write_text(text)
        assert run_cli("run", "--config", str(ini),
                       "--out", str(tmp_path / "x.jsonl")) == EXIT_CONFIG

    def test_config_parse_error(self, cache_env, tmp_path):
        ini = tmp_path / "broken.ini"
        ini.write_text("[plan\nT = oops")
        assert run_cli("run", "--config", str(ini)) == EXIT_CONFIG

    def test_unsorted_T_rejected(self, tmp_path):
        from zladder import DomainError
        with pytest.raises(DomainError):
            RunConfig(T=(2000.0, 1000.0))


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

    def test_failed_run_keeps_existing_out(self, capsys, cache_env):
        assert run_cli("ladder", "build", *LADDER_ARGS) == EXIT_OK
        built = json.loads(capsys.readouterr().out)
        with open(built["cache"], "w") as fh:
            fh.write("{broken")
        out = cache_env / "ladder.csv"
        out.write_text("t,phi1,t_minus_phi1\n1005.0,1.0,2.0\n")
        for what in ("ladder", "retardation"):
            assert run_cli("plot-data", "--what", what, *LADDER_ARGS, "--from", "1005",
                           "--to", "1006", "--step", "0.5",
                           "--out", str(out)) == EXIT_CACHE
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

    def test_unwritable_out_exit(self, capsys, cache_env, tmp_path):
        out = tmp_path / "no-such-dir" / "z.csv"
        assert run_cli("plot-data", "--what", "z_trace", "--from", "100", "--to", "101",
                       "--out", str(out)) == EXIT_CONFIG
        assert "no-such-dir" in capsys.readouterr().err
