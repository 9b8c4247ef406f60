import json
import os

import pytest

from smbmm.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIGS, name)


def test_thresholds_worked_example(capsys):
    assert main(["thresholds", "--m", "2", "--p", "3", "--n", "2",
                 "--xa", "2", "--xb", "3"]) == 0
    out = capsys.readouterr().out
    assert "A-major K=25" in out
    assert "B-major K=24" in out


def test_thresholds_with_batch(capsys):
    assert main(["thresholds", "--m", "2", "--p", "3", "--n", "2",
                 "--xa", "2", "--xb", "3", "--g", "2", "--l", "2",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ssmm"]["a_major"] == 25
    assert out["smbmm"]["k_prime"] == 76
    assert out["smbmm"]["k_double_prime"] == 74


def test_smbmm_run_worked_example(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["smbmm", "run", "--config", cfg("example_4a.json"),
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["recovery_threshold"] == 76
    assert report["costs"]["randomness"] == "15/4"
    assert report["costs"]["randomness_count"] == 60
    assert report["costs"]["threshold_b_major"] == 74
    assert any("74" in n for n in report["costs"]["notes"])
    assert len(report["stragglers"]) == 9


def test_ssmm_run_worked_example(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["ssmm", "run", "--config", cfg("example_3a.json"),
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["recovery_threshold"] == 25
    assert report["pass"] is True


def test_run_outputs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["smbmm", "run", "--config", cfg("example_4a.json"),
                 "--out", str(out1)]) == 0
    assert main(["smbmm", "run", "--config", cfg("example_4a.json"),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_seed_override_changes_products(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["ssmm", "run", "--config", cfg("example_3a.json"), "--out", str(out1)])
    main(["ssmm", "run", "--config", cfg("example_3a.json"), "--seed", "9",
          "--out", str(out2)])
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["pass"] and r2["pass"]
    assert r1["seed"] != r2["seed"]


def test_missing_config_exits_2_with_schema(tmp_path, capsys):
    rc = main(["smbmm", "run", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "run config (JSON)" in err  # schema is printed


def test_unknown_field_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    base = json.loads(open(cfg("example_3a.json")).read())
    base["surprise"] = 1
    path.write_text(json.dumps(base))
    rc = main(["ssmm", "run", "--config", str(path)])
    assert rc == 2
    assert "surprise" in capsys.readouterr().err


def test_wrong_schema_version_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    base = json.loads(open(cfg("example_3a.json")).read())
    base["schema"] = 2
    path.write_text(json.dumps(base))
    assert main(["ssmm", "run", "--config", str(path)]) == 2


def test_bad_modulus_is_a_protocol_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "bad.json"
    base = json.loads(open(cfg("example_3a.json")).read())
    base["q"] = 256
    path.write_text(json.dumps(base))
    assert main(["ssmm", "run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ParamError: modulus 256 is not prime")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, key, value", [
    ("example_3a.json", "m", "two"),
    ("example_3a.json", "seed", [1]),
    ("example_3a.json", "data", {"random": "x"}),
    ("example_3a.json", "stragglers", {"random": None}),
    ("example_3a.json", "stragglers", {"fixed": ["first"]}),
    ("example_4a.json", "g", "2.5"),
    ("audit_tiny_ssmm.json", "q", "big"),
    ("audit_tiny_ssmm.json", "max_subsets", "all"),
    ("audit_tiny_user_view.json", "leakage", {"user_view": {"data_samples": "three"}}),
    ("audit_tiny_user_view.json", "leakage", {"user_view": {"coordinate": "one"}}),
])
def test_non_integer_config_field_exits_2(tmp_path, capsys, name, key, value):
    path = tmp_path / "bad.json"
    base = json.loads(open(cfg(name)).read())
    base[key] = value
    path.write_text(json.dumps(base))
    command = "audit" if name.startswith("audit") else base["protocol"]
    argv = [command] if command == "audit" else [command, "run"]
    assert main(argv + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be an integer" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["smbmm", "run"])  # --config is required
    assert exc.value.code == 2


def test_sweep_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", cfg("sweep_security_levels.json"),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per xa value
    assert all(",true," in line for line in lines[1:])


def test_compare_table5_grid(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--table", "5", "--m", "2", "--p", "3", "--n", "2",
               "--g", "2", "--l", "2", "--x", "1,2,3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    improved = {r["X"]: r["K_improved"] for r in rows}
    assert improved == {"1": "true", "2": "true", "3": "false"}


def test_compare_table4_row(capsys):
    rc = main(["compare", "--table", "4", "--m", "2", "--p", "2", "--n", "2",
               "--x", "1,2,3", "--format", "md"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "| 2 | 2 | 2 | 7 | 1 | 15 | 14 | true |" in out
    assert "| 2 | 2 | 2 | 7 | 2 | 17 | 17 | false |" in out


def test_compare_measure_table(capsys):
    rc = main(["compare", "--table", "5", "--m", "2", "--p", "3", "--n", "2",
               "--g", "2", "--l", "2", "--x", "2", "--measures",
               "--format", "md"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("| measure | ours | chen |")
    assert "| recovery_threshold | 73 | 75 |" in out
    rc = main(["compare", "--table", "5", "--m", "2", "--p", "3", "--n", "2",
               "--g", "2", "--l", "2", "--x", "1,2", "--measures"])
    assert rc == 2  # --measures needs one X


def test_audit_cli_tiny_configs(capsys):
    assert main(["audit", "--config", cfg("audit_tiny_ssmm.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["leakage"][0]["max_distance"] == "0"
    assert len(report["certificates"]) == 2

    assert main(["audit", "--config", cfg("audit_tiny_user_view.json"),
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "max distance 0" in out
