"""Command-line interface and the synthetic instance generator."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tariff_complex
from tariff_complex import (
    GeneratorConfig,
    Instance,
    SolveReport,
    canonical_report,
    generate,
    load_instance,
    quad_profit,
    validate,
)
from tariff_complex.cli import _report_exit, main

# market offers mirrored here so the reservation bills get an independent check
_OFFERS = (
    (0.174, 0.174, 136.0, True),
    (0.1819, 0.1819, 136.0, True),
    (0.1840, 0.147, 144.0, False),
    (0.19, 0.155, 144.0, False),
    (0.166, 0.166, 148.0, True),
    (0.23, 0.135, 141.0, False),
)


def _bill(rate_p, rate_o, fixed, flat, peak, off, shift=0.15):
    if not flat:  # time-of-use offers see load-shifted consumption
        peak, off = peak - shift * peak, off + shift * peak
    return rate_p * peak + rate_o * off + fixed


def test_generate_reservations_match_independent_bills():
    cfg = GeneratorConfig(S=6, n_company_contracts=4, seed=3)
    inst = generate(cfg)
    assert inst.W == 4 and inst.H == 3
    uplifts = (0.04, 0.02, 0.0)
    for s in range(inst.S):
        peak, off = inst.E[s, 0, 0], inst.E[s, 0, 1]  # contract 0 is flat
        assert inst.E[s, 0, 2] == 1.0
        # time-of-use contract sees 15 percent of peak moved off peak
        assert inst.E[s, 1, 0] == pytest.approx(0.85 * peak, rel=1e-12)
        assert inst.E[s, 1, 1] == pytest.approx(off + 0.15 * peak, rel=1e-12)
        best = min(_bill(*offer, peak, off) for offer in _OFFERS)
        assert inst.R[s, 0] == pytest.approx(best, rel=1e-12)
        assert inst.R[s, 1] == pytest.approx(best, rel=1e-12)
        reg = _bill(0.1840, 0.147, 144.0, False, peak, off)
        up = uplifts[s % 3]
        assert inst.R[s, 2] == pytest.approx(best + up * reg, rel=1e-12)
        assert inst.R[s, 3] == pytest.approx(best + up * reg, rel=1e-12)
        base_cost = 0.135 * peak + 0.110 * off + 60.0
        assert inst.C[s, 0] == pytest.approx(base_cost, rel=1e-12)
        green_cost = inst.C[s, 2]
        p2, o2 = inst.E[s, 2, 0], inst.E[s, 2, 1]
        assert green_cost == pytest.approx(0.145 * p2 + 0.120 * o2 + 60.0, rel=1e-12)


def test_generate_structure_and_determinism():
    cfg = GeneratorConfig(S=4, n_company_contracts=4, seed=11)
    a = generate(cfg)
    b = generate(cfg)
    assert a.to_json() == b.to_json()
    assert validate(a) == []
    # flat contracts 0 and 2 are pinned by paired equality rows
    assert len(a.polytope.extra) == 4
    g = a.polytope.extra[0].g
    assert g[0] == 1.0 and g[1] == -1.0 and np.count_nonzero(g) == 2
    assert a.rho.sum() == pytest.approx(1.0, rel=1e-9)
    c = generate(GeneratorConfig(S=4, n_company_contracts=4, seed=12))
    assert c.to_json() != a.to_json()


def test_generate_without_load_shift():
    cfg = GeneratorConfig(S=2, n_company_contracts=2, seed=5, load_shift=0.0)
    inst = generate(cfg)
    assert np.allclose(inst.E[:, 0, :2], inst.E[:, 1, :2])


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(S=0)
    with pytest.raises(ValueError):
        GeneratorConfig(load_shift=1.4)
    with pytest.raises(ValueError):
        GeneratorConfig(green_uplifts=(-0.1,))


@pytest.fixture()
def small_instance_file(tmp_path):
    path = tmp_path / "inst.json"
    rc = main(["generate", "--segments", "2", "--contracts", "2",
               "--seed", "7", "--out", str(path)])
    assert rc == 0
    return str(path)


def test_cli_generate_and_validate(small_instance_file, tmp_path, capsys):
    inst = load_instance(small_instance_file)
    assert validate(inst) == []
    assert main(["validate", small_instance_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["S"] == 2 and payload["W"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    assert "invalid instance" in capsys.readouterr().err

    d = json.loads(inst.to_json())
    del d["rho"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(d))
    assert main(["validate", str(missing)]) == 2
    assert "rho" in capsys.readouterr().err


def test_cli_solve_det_report_revalidates(small_instance_file, capsys):
    assert main(["solve", small_instance_file, "--model", "det"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["model"] == "det" and payload["method"] == "bnb"
    assert payload["status"] in ("optimal", "gap_reached")
    inst = load_instance(small_instance_file)
    x = np.array(payload["prices"], dtype=float)
    y = np.array(payload["response"], dtype=float)
    assert inst.polytope.contains(x, tol=1e-6)
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-9)
    assert set(np.unique(y)) <= {0.0, 1.0}
    margins = inst.margins(x)
    recomputed = float(sum(inst.rho[s] * y[s, 1:] @ margins[s] for s in range(inst.S)))
    assert recomputed == pytest.approx(payload["value"], abs=1e-8)


def test_cli_solve_quad_methods_agree(small_instance_file, capsys):
    beta = 0.01  # bills are in the hundreds, so keep 2/beta comparable
    values = {}
    for method in ("bnb", "qspc", "cell-enum"):
        rc = main(["solve", small_instance_file, "--model", "quad",
                   "--method", method, "--beta", str(beta), "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        values[method] = payload["value"]
        inst = load_instance(small_instance_file)
        x = np.array(payload["prices"], dtype=float)
        assert quad_profit(inst, x, beta) == pytest.approx(payload["value"], abs=1e-6)
    assert values["bnb"] == pytest.approx(values["cell-enum"],
                                          abs=0.03 * max(1.0, abs(values["cell-enum"])))
    assert values["qspc"] <= values["cell-enum"] + 1e-6


def test_cli_solve_rejections(small_instance_file, capsys):
    assert main(["solve", small_instance_file, "--model", "logit"]) == 2
    assert "sweep-profit" in capsys.readouterr().err
    assert main(["solve", small_instance_file, "--model", "det",
                 "--method", "qspc"]) == 2
    capsys.readouterr()
    assert main(["solve", small_instance_file, "--model", "quad"]) == 2
    assert "--beta" in capsys.readouterr().err


def test_cli_exit_three_without_incumbent(small_instance_file, capsys):
    rc = main(["solve", small_instance_file, "--model", "det",
               "--time-limit", "0"])
    assert rc == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "time_limit"
    assert payload["value"] is None


def test_report_exit_codes():
    def report(status, x):
        return SolveReport(status=status, objective=-np.inf if x is None else 1.0,
                           bound=None, gap=None, x=x, response=None, pattern=None,
                           node_count=1, wall_time_s=0.0)

    assert _report_exit(report("infeasible", None)) == 4
    assert _report_exit(report("time_limit", None)) == 3
    for status in ("optimal", "gap_reached", "time_limit", "heuristic"):
        assert _report_exit(report(status, np.ones((1, 1)))) == 0


def test_cli_reports_are_byte_identical(small_instance_file, tmp_path):
    outs = []
    for threads, name in (("1", "a.json"), ("4", "b.json"), ("1", "c.json")):
        path = tmp_path / name
        rc = main(["solve", small_instance_file, "--model", "quad",
                   "--method", "qspc", "--beta", "0.01", "--seed", "42",
                   "--threads", threads, "--out", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_cli_oracle_matches_solve(small_instance_file, capsys):
    assert main(["oracle", small_instance_file, "--model", "det"]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert main(["solve", small_instance_file, "--model", "det"]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert solved["value"] == pytest.approx(oracle["value"], abs=1e-6)
    assert oracle["n_feasible_patterns"] <= oracle["n_patterns"]
    assert main(["oracle", small_instance_file, "--model", "quad"]) == 2  # no beta


def test_cli_sweep_profit_csv(small_instance_file, capsys):
    rc = main(["sweep-profit", small_instance_file, "--axis", "0,2",
               "--points", "5", "--betas", "0.01,0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "param,model,beta,value"
    assert len(lines) == 1 + 5 * (1 + 2 * 2)
    for row in lines[1:]:
        param, model, beta, value = row.split(",")
        assert model in ("det", "logit", "quad")
        float(param), float(beta), float(value)  # parseable numerics


def test_cli_sweep_beta_csv(small_instance_file, capsys):
    rc = main(["sweep-beta", small_instance_file, "--betas", "0.01,0.05",
               "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "param,model,beta,value"
    rows = [line.split(",") for line in lines[1:]]
    models = {r[1] for r in rows}
    assert models == {"quad_opt", "logit_at_quad_opt", "det_prices_quad"}
    for b in ("0.01", "0.05"):
        opt = next(float(r[3]) for r in rows if r[1] == "quad_opt" and r[0] == b)
        fixed = next(float(r[3]) for r in rows
                     if r[1] == "det_prices_quad" and r[0] == b)
        assert fixed <= opt + 1e-9


def test_cli_compare_logit(small_instance_file, capsys):
    rc = main(["compare-logit", small_instance_file, "--beta", "0.02"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_ok"] is True
    assert len(payload["segments"]) == 2
    assert payload["beta_prime"] == pytest.approx(0.02 * np.e / 4.0, rel=1e-12)


def test_cli_missing_file_and_log_stream(small_instance_file, capsys, monkeypatch):
    assert main(["solve", "/no/such/file.json", "--model", "det"]) == 2
    assert capsys.readouterr().err
    monkeypatch.setenv("TARIFF_COMPLEX_LOG", "INFO")
    assert main(["validate", small_instance_file]) == 0
    out = capsys.readouterr().out
    json.loads(out)  # stdout stays pure JSON with logging enabled


def test_canonical_report_is_stable():
    a = canonical_report({"b": np.float64(1.5), "a": np.arange(3)})
    b = canonical_report({"a": np.arange(3), "b": 1.5})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"schema_version": 1, "a": [0, 1, 2], "b": 1.5}


def test_module_entry_point_runs_without_runpy_warning():
    # importing the package must not import the cli module ahead of runpy
    src = str(Path(tariff_complex.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "tariff_complex.cli", "generate",
         "--segments", "2", "--contracts", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    assert Instance.from_json(proc.stdout).S == 2


def test_console_script_entry_point(tmp_path):
    path = tmp_path / "g.json"
    # the child imports the package this process imports, installed or not
    src = str(Path(tariff_complex.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "tariff_complex.cli", "generate", "--segments",
         "1", "--contracts", "2", "--out", str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    inst = load_instance(str(path))
    assert isinstance(inst, Instance)
    assert inst.S == 1
