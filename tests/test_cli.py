import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spherelab import reporting
from spherelab.cli import main
from spherelab.experiments import (_SECTIONS, EXPERIMENTS, ExperimentConfig,
                                   config_from_resolved)
from spherelab.reporting import (CSV_HEADER, ExperimentReport, config_hash,
                                 emit_plotdata, load_config, resolve_config)


def run_cli(args):
    return main(args)


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run\nseed=1")
    out = tmp_path / "out"
    code = run_cli(["kernel-diag", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert not out.exists() or not any(out.iterdir())
    capsys.readouterr()
    # values that do not parse or are out of range: every selected
    # experiment's config is built before any file is written
    cases = [("kernel-diag", "[cutoff]\ndelta1 = 0.9\n"),
             ("equi-cr", "[mc]\ntrials = abc\n"),
             ("all", "[grid]\nk_grid =\n"),
             # rule sizes below what the rules accept
             ("variance-cr", "[quadrature]\nlevel = 3\n"),
             ("expectation-cr", "[expectation-cr]\nlevel = 3\n"),
             ("expectation-domain", "[quadrature]\nball_level = 1\n"),
             ("expectation-domain", "[quadrature]\nball_radial = 0\n"),
             ("lp-closed", "[quadrature]\ncell_base = 0\n"),
             ("lp-closed", "[quadrature]\ncell_nodes = 0\n"),
             ("lp-boundary", "[quadrature]\nrefine_depth = -1\n"),
             # numpy seeds are non-negative
             ("kernel-diag", "[run]\nseed = -1\n"),
             ("expectation-cr", "[expectation-cr]\nseed = -3\n"),
             # Richardson in sqrt(delta) needs distinct positive deltas
             ("lp-closed", "[currents]\ndeltas = -1e-2,1e-3\n"),
             ("lp-closed", "[currents]\ndeltas = 1e-2,0\n"),
             ("lp-closed", "[currents]\ndeltas = 1e-2,1e-3,1e-3\n"),
             ("equi-cr", "[currents]\nmc_deltas = 1e-2,-1e-3\n"),
             ("equi-cr", "[currents]\nmc_deltas = 1e-3,1e-3\n"),
             # the ensembles take kappa 0 or 1 and scales k >= 1
             ("expectation-cr", "[expectation-cr]\nkappa = 5\n"),
             ("kernel-diag", "[grid]\nk_grid = 0,16\n")]
    for i, (subcommand, text) in enumerate(cases):
        bad.write_text(text)
        out = tmp_path / f"out{i}"
        assert run_cli([subcommand, "--config", str(bad), "--out", str(out)]) == 2, text
        assert not out.exists(), text
        assert capsys.readouterr().err.startswith("config error: "), text
    out = tmp_path / "out-seed"
    assert run_cli(["kernel-diag", "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: ")


def test_default_section_exits_2(tmp_path, capsys):
    # configparser hands [DEFAULT] keys to no section when it stands alone,
    # and to every section otherwise: either way the run would not use
    # what the file says
    cfg = tmp_path / "default.ini"
    for i, text in enumerate(("[DEFAULT]\nseed = 5\n",
                              "[DEFAULT]\nseed = 5\n\n[grid]\nk_grid = 16,32\n")):
        cfg.write_text(text)
        out = tmp_path / f"out{i}"
        assert run_cli(["kernel-diag", "--config", str(cfg), "--out", str(out)]) == 2, text
        assert not out.exists(), text
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "[DEFAULT]" in err, err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a typo in an experiment section is as unknown as one in [run]; kappa
    # is read by expectation-cr alone; a section name is matched in full
    for text in ("[run]\nbananas = 7\n", "[expectation-cr]\ntrails = 100\n",
                 "[expectation-domain]\nkappa = 5\n", "[variance-cr]\nkappa = 0\n",
                 "[run:x]\nseed = 5\n"):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert run_cli(["kernel-diag", "--config", str(bad)]) == 2, text
    capsys.readouterr()
    bad.write_text("[expectation-cr]\nkappa = 1\n")
    assert config_from_resolved("expectation-cr", resolve_config(load_config(bad))).kappa == 1


def test_kernel_diag_run_and_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["kernel-diag", "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()
    csv_path = out / "kernel-diag.csv"
    body = csv_path.read_text()
    assert body.splitlines()[0] == ",".join(CSV_HEADER)
    payload = json.loads((out / "kernel-diag.json").read_text())
    assert payload["verdict"] == "PASS"
    assert payload["provenance"]["seed"] == 20240817
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == payload["provenance"]["config_hash"]
    captured = capsys.readouterr()
    assert "[PASS] kernel-diag" in captured.out
    # the run environment goes to the manifest alone: the CSV body is the
    # report's own, as the experiment makes it without a manifest
    env = manifest["env"]
    assert sorted(env) == ["blas", "blas_threads", "blas_version", "cpus", "numpy", "python"]
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["cpus"] >= 1 and env["blas_threads"] in (None, 1)
    report = EXPERIMENTS["kernel-diag"](config_from_resolved("kernel-diag", {}))
    assert body == report.csv_body()


def test_reruns_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["kernel-diag", "--out", str(out1)]) == 0
    assert run_cli(["kernel-diag", "--out", str(out2)]) == 0
    assert (out1 / "kernel-diag.csv").read_bytes() == (out2 / "kernel-diag.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]
    capsys.readouterr()


def test_fail_verdict_exits_1(tmp_path, capsys):
    # k = 2 and 4 come before the asymptotic regime: the fitted order of the
    # diagonal error (about 2.5) falls outside its band, an honest FAIL
    code = run_cli(["kernel-diag", "--k-grid", "2,4", "--out", str(tmp_path / "o")])
    assert code == 1
    capsys.readouterr()


def test_manifest_written_before_failure(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["kernel-diag", "--k-grid", "2,4", "--out", str(out)]) == 1
    assert (out / "manifest.json").exists()
    capsys.readouterr()


def test_emit_plotdata(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli(["kernel-diag", "--out", str(out), "--emit-plotdata"])
    assert code == 0
    plots = sorted(p.name for p in out.glob("kernel-diag__*.csv"))
    assert plots == ["kernel-diag__beta-reeb.csv", "kernel-diag__diag-ratio.csv"]
    header = (out / plots[0]).read_text().splitlines()[0]
    assert header == "k,value,reference,error"
    capsys.readouterr()


def test_emit_plotdata_empty_report_warns(tmp_path):
    report = ExperimentReport("empty")
    with pytest.warns(UserWarning):
        paths = emit_plotdata(report, tmp_path)
    assert paths == []
    assert not list(tmp_path.glob("*.csv"))


def test_env_var_output_dir(tmp_path, capsys):
    env = dict(os.environ, SPHERELAB_OUT=str(tmp_path / "envout"),
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "spherelab.cli", "kernel-diag", "--k-grid", "16,32"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "envout" / "kernel-diag.csv").exists()


def test_all_smoke_run(tmp_path, capsys):
    # plumbing smoke: every experiment runs, reports and manifest land on
    # disk; statistical verdicts at this tiny scale are not asserted
    out = tmp_path / "all"
    code = run_cli(["all", "--k-grid", "16,32", "--trials", "100",
                    "--level", "10", "--out", str(out)])
    assert code in (0, 1)
    assert (out / "manifest.json").exists()
    for name in ["kernel-diag", "embed-check", "lp-closed", "lp-boundary",
                 "expectation-cr", "equi-cr", "variance-cr", "equi-domain",
                 "expectation-domain"]:
        assert (out / f"{name}.csv").exists(), name
        assert (out / f"{name}.json").exists(), name
    capsys.readouterr()


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[grid]\nk_grid = 16,32\n\n[run]\nseed = 7\n")
    parser = load_config(cfg)
    resolved = resolve_config(parser)
    assert resolved == {"grid": {"k_grid": "16,32"}, "run": {"seed": "7"}}
    config = config_from_resolved("kernel-diag", resolved)
    assert (config.k_grid, config.seed) == ((16, 32), 7)
    h1 = config_hash([config])
    assert h1 == config_hash([config_from_resolved("kernel-diag",
                                                   resolve_config(load_config(cfg)))])
    out = tmp_path / "out"
    assert run_cli(["kernel-diag", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_config_hash_covers_what_runs(tmp_path, monkeypatch, capsys):
    # setting the global defaults explicitly overrides expectation-cr's own
    # (4000 trials at k = 48 on level 20), so the runs differ and so do the
    # hashes; the runner is stubbed, the hash is the CLI's
    monkeypatch.setitem(EXPERIMENTS, "expectation-cr",
                        lambda config: ExperimentReport("expectation-cr"))
    default, explicit = tmp_path / "default", tmp_path / "explicit"
    assert run_cli(["expectation-cr", "--out", str(default)]) == 0
    assert run_cli(["expectation-cr", "--trials", "400", "--k-grid", "16,32,64,128",
                    "--level", "16", "--out", str(explicit)]) == 0
    assert _manifest(default)["config_hash"] != _manifest(explicit)["config_hash"]
    capsys.readouterr()


def test_config_hash_ignores_spelling_and_out(tmp_path, capsys):
    hashes = []
    for i, deltas in enumerate(("1e-2,1e-3,1e-4", "0.01,0.001,0.0001")):
        cfg = tmp_path / f"run{i}.ini"
        cfg.write_text(f"[currents]\nmc_deltas = {deltas}\n")
        out = tmp_path / f"out{i}"
        run_cli(["kernel-diag", "--k-grid", "16,32", "--config", str(cfg), "--out", str(out)])
        hashes.append(_manifest(out)["config_hash"])
    assert hashes[0] == hashes[1]
    capsys.readouterr()


def test_provenance_seed_is_the_experiment_seed(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[kernel-diag]\nseed = 5\n")
    out = tmp_path / "out"
    run_cli(["kernel-diag", "--k-grid", "16,32", "--config", str(cfg), "--out", str(out)])
    payload = json.loads((out / "kernel-diag.json").read_text())
    assert payload["provenance"]["seed"] == 5
    assert _manifest(out)["seed"] == 20240817
    capsys.readouterr()


def test_readme_defaults_match_the_code():
    # the README's ini block lists every global key with its default; a
    # line without a [section] carries on the section above
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    overrides = {}
    section = None
    for line in block.splitlines():
        header = re.match(r"\[([^\]]+)\]", line)
        if header:
            section = header.group(1)
            line = line[header.end():]
        for key, value in re.findall(r"(\w+) =\s*(\S*)", line):
            overrides[f"{section}.{key}"] = value
    assert set(overrides) == {f"{s}.{k}" for s, keys in _SECTIONS.items() for k in keys}
    del overrides["run.out"]
    resolved = resolve_config(overrides=overrides)
    assert config_from_resolved("lp-closed", resolved) == ExperimentConfig("lp-closed")


def test_git_describe_runs_once_per_process(monkeypatch):
    spawned = []
    original = subprocess.run
    monkeypatch.setattr(subprocess, "run",
                        lambda *args, **kwargs: spawned.append(args) or original(*args, **kwargs))
    reporting.git_describe.cache_clear()
    try:
        first = reporting.git_describe()
        assert reporting.git_describe() == first
        assert len(spawned) == 1
    finally:
        reporting.git_describe.cache_clear()
