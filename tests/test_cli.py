"""End-to-end CLI behaviour: CSV contracts, exit codes, reproducibility."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from excitonsim import circuits, cli, noise, reference
from excitonsim.errors import ConfigError
from excitonsim.model import SystemHamiltonian

K = 2.0 * math.pi * 2.99792458e-5


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def coherent_config(tmp_path, **ensemble):
    defaults = {"t_max_fs": 300.0, "step_fs": 5.0, "shots": 0, "master_seed": 3}
    defaults.update(ensemble)
    return write_config(
        tmp_path,
        {
            "hamiltonian": {"preset": "near_resonant"},
            "ensemble": defaults,
            "output": {"directory": str(tmp_path), "basename": "coherent.csv"},
        },
    )


def dephasing_config(tmp_path, **overrides):
    noise = {"strength_cm1": 300.0, "switching_rate_thz": 125.0}
    ensemble = {"runs": 8, "shots": 400, "dt_fs": 2.0, "t_max_fs": 300.0, "master_seed": 12}
    noise.update(overrides.pop("noise", {}))
    ensemble.update(overrides.pop("ensemble", {}))
    return write_config(
        tmp_path,
        {
            "hamiltonian": {"preset": "near_resonant"},
            "noise": noise,
            "ensemble": ensemble,
            "output": {"directory": str(tmp_path), "basename": "dephasing.csv"},
        },
    )


def test_coherent_columns_and_peak(tmp_path, capsys):
    cfg = coherent_config(tmp_path, step_fs=0.5)
    assert cli.main(["coherent", "--config", cfg]) == 0
    capsys.readouterr()
    config, columns, data = cli.read_csv(tmp_path / "coherent.csv")
    assert columns == ["t_fs", "p0_analytic", "p1_analytic", "p0_circuit", "p1_circuit"]
    assert config["ensemble"]["master_seed"] == 3
    p1 = data[:, columns.index("p1_circuit")]
    t = data[:, 0]
    peak = p1.argmax()
    assert p1[peak] == pytest.approx(0.864, abs=5e-3)
    assert t[peak] == pytest.approx(61.5, abs=1.0)
    assert np.abs(data[:, 1] - data[:, 3]).max() < 1e-9  # analytic vs circuit columns


def test_coherent_sampled_columns_within_shot_noise(tmp_path, capsys):
    cfg = coherent_config(tmp_path, shots=2048)
    assert cli.main(["coherent", "--config", cfg]) == 0
    capsys.readouterr()
    _, columns, data = cli.read_csv(tmp_path / "coherent.csv")
    assert columns[-2:] == ["p0_sampled", "p1_sampled"]
    circuit = data[:, columns.index("p0_circuit")]
    sampled = data[:, columns.index("p0_sampled")]
    sigma = np.sqrt(np.maximum(circuit * (1 - circuit), 1e-9) / 2048)
    assert (np.abs(sampled - circuit) <= 3 * sigma + 1e-9).all()


def test_coherent_zero_horizon_single_row(tmp_path, capsys):
    cfg = coherent_config(tmp_path, t_max_fs=0.0)
    assert cli.main(["coherent", "--config", cfg]) == 0
    capsys.readouterr()
    _, columns, data = cli.read_csv(tmp_path / "coherent.csv")
    assert data.shape == (1, len(columns))
    assert data[0, :3].tolist() == [0.0, 1.0, 0.0]


def test_unknown_preset_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"hamiltonian": {"preset": "mystery"}, "ensemble": {"t_max_fs": 10.0, "step_fs": 5.0}},
    )
    assert cli.main(["coherent", "--config", cfg]) == 2
    assert "preset" in capsys.readouterr().err


def test_malformed_config_is_config_error(tmp_path, capsys):
    for name, text in (("broken.json", "{not json"), ("broken.toml", "[ensemble\nt_max_fs = ")):
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["coherent", "--config", str(path)]) == 2
        assert_one_line_error(capsys, "config error:")


def test_dephasing_outputs_and_fit_sidecar(tmp_path, capsys):
    cfg = dephasing_config(tmp_path)
    assert cli.main(["dephasing", "--config", cfg]) == 0
    capsys.readouterr()
    config, columns, data = cli.read_csv(tmp_path / "dephasing.csv")
    assert columns == [
        "t_fs",
        "p0_mean",
        "p1_mean",
        "p0_stderr",
        "p1_stderr",
        "p0_lindblad_fit",
        "p1_lindblad_fit",
    ]
    assert data.shape[0] == 151
    sidecar = json.loads((tmp_path / "dephasing.fit.json").read_text())
    assert sidecar["gamma_deph_thz"] > 0
    assert sidecar["residual_rms"] < 0.1
    assert sidecar["config"]["ensemble"]["master_seed"] == 12
    assert config["noise"]["switching_rate_thz"] == 125.0


def test_dephasing_waiting_time_mismatch_reports_suggestion(tmp_path, capsys):
    cfg = dephasing_config(tmp_path, ensemble={"dt_fs": 3.0, "t_max_fs": 300.0})
    assert cli.main(["dephasing", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "waiting time" in err
    assert "2.666" in err  # suggested dt 8/3


def test_dephasing_without_noise_fits_tiny_rate(tmp_path, capsys):
    cfg = dephasing_config(
        tmp_path,
        noise={"strength_cm1": 0.0},
        ensemble={"runs": 8, "shots": 2000, "master_seed": 9},
    )
    assert cli.main(["dephasing", "--config", cfg]) == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "dephasing.fit.json").read_text())
    assert sidecar["gamma_deph_thz"] < 0.2


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = dephasing_config(tmp_path)
    assert cli.main(["dephasing", "--config", cfg, "--seed", "777"]) == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "dephasing.fit.json").read_text())
    assert sidecar["config"]["ensemble"]["master_seed"] == 777


def test_reruns_and_worker_counts_are_byte_identical(tmp_path, capsys):
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    cfg = dephasing_config(tmp_path, ensemble={"runs": 6, "t_max_fs": 260.0})
    for out, workers in ((out1, 1), (out2, 1), (out3, 3)):
        code = cli.main(
            ["dephasing", "--config", cfg, "--output-dir", str(out), "--workers", str(workers)]
        )
        assert code == 0
    if sys.version_info >= (3, 11):  # tomllib
        # the TOML twin of the config writes the same bytes, config line included
        sections = json.loads(Path(cfg).read_text())
        toml = tmp_path / "config.toml"
        toml.write_text(
            "".join(
                f"[{name}]\n" + "".join(f"{key} = {json.dumps(value)}\n" for key, value in section.items())
                for name, section in sections.items()
            )
        )
        out4 = tmp_path / "d"
        assert cli.main(["dephasing", "--config", str(toml), "--output-dir", str(out4)]) == 0
        assert (out4 / "dephasing.csv").read_bytes() == (out1 / "dephasing.csv").read_bytes()
    capsys.readouterr()

    def numeric_region(path: Path) -> bytes:
        lines = path.read_bytes().splitlines()
        return b"\n".join(line for line in lines if not line.startswith(b"#"))

    ref = numeric_region(out1 / "dephasing.csv")
    assert numeric_region(out2 / "dephasing.csv") == ref
    assert numeric_region(out3 / "dephasing.csv") == ref


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_dephasing_rejects_workers_below_one_before_any_work(tmp_path, capsys, monkeypatch, workers):
    def no_work(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(cli.noise, "run_ensemble", no_work)
    cfg = dephasing_config(tmp_path)
    assert cli.main(["dephasing", "--config", cfg, "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "--workers" in err
    assert not (tmp_path / "dephasing.csv").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("coherent", "--out", "x"), ("dephasing", "--out", "x"), ("dephasing", "--work", "3")],
)
def test_abbreviated_flags_are_usage_errors(tmp_path, capsys, monkeypatch, command, flag, value):
    cfg = coherent_config(tmp_path) if command == "coherent" else dephasing_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_cli_import_leaves_the_process_pool_unloaded():
    import excitonsim

    src = str(Path(excitonsim.__file__).resolve().parent.parent)
    code = (
        "import sys, excitonsim.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing', 'socket') "
        "if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(target))
    cfg = write_config(
        tmp_path,
        {
            "hamiltonian": {"preset": "near_resonant"},
            "ensemble": {"t_max_fs": 10.0, "step_fs": 5.0},
        },
    )
    assert cli.main(["coherent", "--config", cfg]) == 0
    capsys.readouterr()
    assert (target / "coherent.csv").exists()


def test_resources_report_two_and_four_sites(tmp_path, capsys):
    assert cli.main(["resources", "--n-sites", "2", "--t-fs", "800", "--dt-fs", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qubits"] == 2
    assert payload["iterations"] == 400
    assert payload["per_iteration"]["PauliX"] == 4
    assert payload["per_iteration"]["ControlledRotZ"] == 4
    assert payload["per_iteration"]["RotY"] == 2

    assert cli.main(["resources", "--n-sites", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["qubits"] == 4

    assert cli.main(["resources", "--n-sites", "3"]) == 2
    capsys.readouterr()

    assert cli.main(["resources", "--n-sites", "2", "--dt-fs", "3", "--gamma-thz", "125"]) == 2
    assert "waiting time" in capsys.readouterr().err


def test_fit_subcommand_on_emitted_csv(tmp_path, capsys):
    cfg = dephasing_config(tmp_path, ensemble={"runs": 10, "t_max_fs": 400.0})
    assert cli.main(["dephasing", "--config", cfg]) == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "dephasing.fit.json").read_text())
    assert cli.main(["fit", str(tmp_path / "dephasing.csv")]) == 0
    refit = json.loads(capsys.readouterr().out)
    assert refit["gamma_deph_thz"] == pytest.approx(sidecar["gamma_deph_thz"], rel=1e-6)


LAPACK_ENTRY_POINTS = (
    "eigvalsh", "eigh", "eig", "eigvals", "solve", "inv", "det", "slogdet",
    "svd", "qr", "cholesky", "lstsq", "pinv", "matrix_rank", "cond",
)


def test_no_production_path_calls_lapack(tmp_path, capsys, monkeypatch):
    """Every command runs on numpy ufuncs, einsum and matmul alone, so a run
    maps none of LAPACK's code pages (they cost resident memory)."""

    def refuse(*args, **kwargs):
        raise AssertionError("a production path called a numpy.linalg LAPACK routine")

    for module in (np.linalg, getattr(np.linalg, "_linalg", np.linalg)):
        for name in LAPACK_ENTRY_POINTS:
            monkeypatch.setattr(module, name, refuse)
    cfg = dephasing_config(tmp_path)
    assert cli.main(["dephasing", "--config", cfg]) == 0
    assert cli.main(["fit", str(tmp_path / "dephasing.csv")]) == 0
    assert cli.main(["coherent", "--config", coherent_config(tmp_path, shots=100)]) == 0
    capsys.readouterr()
    rho = reference.lindblad_integrate(SystemHamiltonian.near_resonant(), 10.0, np.linspace(0, 50, 11))
    assert rho.shape == (11, 2, 2)


def test_numbers_are_serialized_with_nine_significant_digits(tmp_path, capsys):
    cfg = coherent_config(tmp_path, t_max_fs=10.0, step_fs=10.0)
    assert cli.main(["coherent", "--config", cfg]) == 0
    capsys.readouterr()
    lines = (tmp_path / "coherent.csv").read_text().splitlines()
    row = lines[3].split(",")
    assert row[0] == "10"
    # deterministic %.9g round trip for every cell
    assert all(cell == format(float(cell), ".9g") for cell in row)


def assert_one_line_error(capsys, prefix: str) -> str:
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


def test_dephasing_rejects_wrong_length_strength_list(tmp_path, capsys):
    cfg = dephasing_config(tmp_path, noise={"strength_cm1": [100.0, 200.0, 300.0]})
    assert cli.main(["dephasing", "--config", cfg]) == 2
    assert "strength_cm1" in assert_one_line_error(capsys, "config error:")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("ensemble", "runs", 2.7),
        ("ensemble", "shots", 10.9),
        ("ensemble", "runs", "2"),
        ("ensemble", "shots", True),
        ("ensemble", "master_seed", 12.0),
        ("noise", "fluctuators_per_site", 1.5),
    ],
)
def test_dephasing_rejects_non_integer_counts(tmp_path, capsys, section, key, value):
    cfg = dephasing_config(tmp_path, **{section: {key: value}})
    assert cli.main(["dephasing", "--config", cfg]) == 2
    err = assert_one_line_error(capsys, "config error:")
    assert key in err and "integer" in err
    assert not (tmp_path / "dephasing.csv").exists()


def test_dephasing_rejects_horizon_shorter_than_two_beating_periods(tmp_path, capsys):
    # two near-resonant beating periods are 246 fs
    cfg = dephasing_config(tmp_path, ensemble={"t_max_fs": 240.0})
    assert cli.main(["dephasing", "--config", cfg]) == 2
    assert "beating periods" in assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "dephasing.csv").exists()


def test_dephasing_unbracketed_fit_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # a g=300 ensemble dephases at ~6.5 THz, above this bracket's upper edge
    monkeypatch.setattr(reference, "BRACKET_THZ", (0.1, 1.0))
    cfg = dephasing_config(tmp_path, ensemble={"runs": 4, "t_max_fs": 260.0})
    assert cli.main(["dephasing", "--config", cfg]) == 3
    assert "bracket" in assert_one_line_error(capsys, "numerical validation failure:")


def test_dephasing_nan_amplitudes_are_a_numerical_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(noise, "_execute_packed", lambda amps, n, segments: np.full_like(amps, np.nan))
    assert cli.main(["dephasing", "--config", dephasing_config(tmp_path)]) == 3
    assert "leaked nan" in assert_one_line_error(capsys, "numerical validation failure:")
    assert not (tmp_path / "dephasing.csv").exists()


def test_dephasing_takes_its_fit_columns_from_the_fit(tmp_path, capsys, monkeypatch):
    calls = []
    integrate = reference._integrate_populations

    def counting(gens, *args):
        calls.append(len(gens))
        return integrate(gens, *args)

    def no_second_integration(*args):
        raise AssertionError("dephasing integrated the fitted rate again")

    monkeypatch.setattr(reference, "_integrate_populations", counting)
    monkeypatch.setattr(reference, "lindblad_integrate", no_second_integration)
    cfg = dephasing_config(tmp_path)
    assert cli.main(["dephasing", "--config", cfg]) == 0
    capsys.readouterr()
    # the scan, the opening golden pair and 15 golden steps: the fit's own calls
    assert len(calls) == 17
    assert sum(calls) == json.loads((tmp_path / "dephasing.fit.json").read_text())["n_evaluations"]


def test_dephasing_checks_every_point_of_the_fitted_rate(tmp_path, capsys, monkeypatch):
    fit_rate = reference.fit_dephasing_rate

    def fit_losing_positivity(t_fs, populations, h):
        fit = fit_rate(t_fs, populations, h)
        rho = fit.rho.copy()
        rho[60] = np.diag([1.5, -0.5])  # t = 120 fs; the fit checks only the last point
        return dataclasses.replace(fit, rho=rho)

    monkeypatch.setattr(reference, "fit_dephasing_rate", fit_losing_positivity)
    cfg = dephasing_config(tmp_path)
    assert cli.main(["dephasing", "--config", cfg]) == 3
    err = assert_one_line_error(capsys, "numerical validation failure:")
    assert "t = 120.0 fs" in err and "lost positivity" in err
    assert not (tmp_path / "dephasing.csv").exists()
    assert not (tmp_path / "dephasing.fit.json").exists()


def test_dephasing_rejects_runs_too_large_to_allocate(tmp_path, capsys):
    cfg = dephasing_config(tmp_path, ensemble={"runs": 10**15})
    payload = json.loads(Path(cfg).read_text())
    payload["output"]["directory"] = str(tmp_path / "out")
    cfg = write_config(tmp_path, payload)
    assert cli.main(["dephasing", "--config", cfg]) == 2
    assert "runs" in assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["resources", "fit"])
@pytest.mark.parametrize("out", ["directory", "missing_parent", "empty"])
def test_out_must_be_a_file_in_an_existing_directory(tmp_path, capsys, monkeypatch, command, out):
    target = {"directory": str(tmp_path), "missing_parent": str(tmp_path / "missing" / "report.json"), "empty": ""}[out]
    monkeypatch.chdir(tmp_path)
    if command == "resources":
        argv = ["resources", "--n-sites", "2"]
    else:
        # the destination is checked before the fit
        monkeypatch.setattr(reference, "fit_dephasing_rate", None)
        argv = ["fit", fit_csv(tmp_path, FROZEN_ROWS)]
    before = sorted(tmp_path.iterdir())
    assert cli.main(argv + ["--out", target]) == 2
    assert "--out" in assert_one_line_error(capsys, "config error:")
    assert sorted(tmp_path.iterdir()) == before


def test_resources_rejects_non_positive_switching_rate(capsys):
    assert cli.main(["resources", "--n-sites", "2", "--gamma-thz", "0"]) == 2
    assert "switching_rate_thz" in assert_one_line_error(capsys, "config error:")


def strict_json(text: str):
    """json.loads that also refuses NaN and Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_resources_switch_interval_on_a_huge_chain(capsys):
    # 2^62 sites: numpy refuses an array of that size without allocating it
    assert cli.main(["resources", "--n-sites", str(2**62), "--gamma-thz", "125"]) == 0
    out, err = capsys.readouterr()
    payload = strict_json(out)
    assert payload["n_sites"] == 2**62 and payload["switch_interval_steps"] == 4
    assert err == ""


@pytest.mark.parametrize("dt_fs", ["inf", "nan", "0", "-2"])
def test_resources_rejects_a_step_that_is_not_finite_and_positive(capsys, dt_fs):
    assert cli.main(["resources", "--n-sites", "2", f"--dt-fs={dt_fs}"]) == 2
    assert "dt_fs must be finite and positive" in assert_one_line_error(capsys, "config error:")


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("dephasing", "ensemble", "dt_fs", True),
        ("dephasing", "ensemble", "t_max_fs", "256"),
        ("dephasing", "ensemble", "t_max_fs", float("nan")),
        pytest.param("dephasing", "ensemble", "dt_fs", 10**400, id="dephasing-ensemble-dt_fs-1e400"),
        ("dephasing", "noise", "switching_rate_thz", "125"),
        ("dephasing", "noise", "strength_cm1", True),
        ("dephasing", "noise", "strength_cm1", ["300", 300.0]),
        ("coherent", "ensemble", "step_fs", True),
        ("coherent", "ensemble", "t_max_fs", "10"),
        ("coherent", "ensemble", "t_max_fs", float("inf")),
    ],
)
def test_float_fields_reject_bools_strings_and_non_finite(tmp_path, capsys, command, section, key, value):
    if command == "dephasing":
        cfg = dephasing_config(tmp_path, **{section: {key: value}})
    else:
        cfg = coherent_config(tmp_path, **{key: value})
    assert cli.main([command, "--config", cfg]) == 2
    assert key in assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / f"{command}.csv").exists()


def test_coherent_rejects_step_that_does_not_divide_horizon(tmp_path, capsys):
    cfg = coherent_config(tmp_path, t_max_fs=10, step_fs=3)
    assert cli.main(["coherent", "--config", cfg]) == 2
    assert "t_max_fs" in assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "coherent.csv").exists()
    # integers are accepted for float fields
    cfg = coherent_config(tmp_path, t_max_fs=10, step_fs=5)
    assert cli.main(["coherent", "--config", cfg]) == 0
    capsys.readouterr()
    _, _, data = cli.read_csv(tmp_path / "coherent.csv")
    assert data[:, 0].tolist() == [0.0, 5.0, 10.0]


def test_coherent_rejects_a_grid_too_large_for_memory(tmp_path, capsys):
    # the second grid has about 1e301 points, a count to print in short form
    for t_max_fs, step_fs in ((1e15, 1.0), (10.0, 1e-300)):
        payload = json.loads(Path(coherent_config(tmp_path, t_max_fs=t_max_fs, step_fs=step_fs)).read_text())
        payload["output"]["directory"] = str(tmp_path / "out")
        cfg = write_config(tmp_path, payload)
        assert cli.main(["coherent", "--config", cfg]) == 2
        err = assert_one_line_error(capsys, "config error:")
        assert "time points" in err and len(err) <= 160, err
        assert not (tmp_path / "out").exists()


def traced_peak_and_budget(monkeypatch, argv) -> tuple[int, int]:
    """A command's tracemalloc peak, and the largest need its pre-flight
    checked against physical memory."""
    needs = []
    check = noise.check_memory

    def recording(need, what):
        needs.append(need)
        check(need, what)

    monkeypatch.setattr(noise, "check_memory", recording)
    import numpy.random  # noqa: F401  loaded lazily; trace the command, not this import

    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, max(needs)


@pytest.mark.parametrize("shots", [0, 100])
def test_coherent_peak_memory_is_within_its_budget(tmp_path, capsys, monkeypatch, shots):
    cfg = coherent_config(tmp_path, t_max_fs=10_000.0, step_fs=0.5, shots=shots)  # 20 001 points
    peak, budget = traced_peak_and_budget(monkeypatch, ["coherent", "--config", cfg])
    # within the budget, and close enough to it that the budget means something
    assert 0.7 * budget < peak <= budget, peak / budget


@pytest.mark.parametrize("runs, steps", [(1, 5000), (250, 300)])
def test_dephasing_peak_memory_is_within_its_budget(tmp_path, capsys, monkeypatch, runs, steps):
    cfg = dephasing_config(tmp_path, ensemble={"runs": runs, "t_max_fs": 2.0 * steps})
    peak, budget = traced_peak_and_budget(monkeypatch, ["dephasing", "--config", cfg])
    assert 0.7 * budget < peak <= budget, peak / budget


def test_dephasing_rejects_a_fit_too_large_for_memory_before_the_ensemble(tmp_path, capsys, monkeypatch):
    """At 1 run x 5000 steps the ensemble needs about 0.7 MiB and the fit's
    stack of scan rates about 7 MiB; 4 MiB of memory fails the fit alone."""
    monkeypatch.setattr(noise, "_physical_memory_bytes", lambda: 4 * 2**20)
    noise_cfg = noise.FluctuatorConfig.uniform(300.0, 2, 125.0)
    ens = noise.EnsembleConfig(runs=1, shots=400, dt_fs=2.0, t_max_fs=10_000.0, master_seed=12)
    noise.check_ensemble_memory(noise_cfg, ens)

    def ensemble(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(noise, "run_ensemble", ensemble)
    payload = json.loads(Path(dephasing_config(tmp_path, ensemble={"runs": 1, "t_max_fs": 10_000.0})).read_text())
    payload["output"]["directory"] = str(tmp_path / "out")
    cfg = write_config(tmp_path, payload)
    assert cli.main(["dephasing", "--config", cfg]) == 2
    assert "5e+03 time points" in assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "out").exists()


def lindblad_series_csv(tmp_path: Path, n_points: int) -> str:
    """A fit CSV of exact near-resonant Lindblad populations at 6 THz, 2 fs apart."""
    t = 2.0 * np.arange(n_points)
    pops = reference.lindblad_populations(SystemHamiltonian.near_resonant(), 6.0, t)
    return fit_csv(tmp_path, np.column_stack([t, pops]).tolist())


def test_fit_peak_memory_is_within_its_budget(tmp_path, capsys, monkeypatch):
    path = lindblad_series_csv(tmp_path, 5001)
    peak, budget = traced_peak_and_budget(monkeypatch, ["fit", path])
    assert 0.7 * budget < peak <= budget, peak / budget


def test_fit_rejects_a_series_too_large_for_memory_before_fitting(tmp_path, capsys, monkeypatch):
    """At 5001 points the fit's stack of scan rates needs about 7 MiB."""
    path = lindblad_series_csv(tmp_path, 5001)
    monkeypatch.setattr(noise, "_physical_memory_bytes", lambda: 4 * 2**20)
    monkeypatch.setattr(reference, "fit_dephasing_rate", None)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["fit", path, "--out", "report.json"]) == 2
    assert "5e+03 time points" in assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "report.json").exists()


def test_write_csv_streams_its_rows(tmp_path):
    """write_csv's traced peak does not grow with the row count: each row is
    written as soon as it is formatted (about 28 KiB of buffers at 2 000 and
    at 20 000 rows)."""
    peaks = []
    for n_rows in (2_000, 20_000):
        rows = np.random.default_rng(n_rows).random((n_rows, 7))
        tracemalloc.start()
        try:
            cli.write_csv(tmp_path / "rows.csv", list("abcdefg"), rows, {"rows": n_rows})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096 and peaks[1] < 64 * 2**10, peaks


def test_read_csv_parses_rows_into_one_buffer(tmp_path):
    """read_csv holds the rows as one float64 buffer, not the file's text and
    its rows as Python floats: traced at 67 B per row of 7 columns at 2 000
    rows and 60 B at 20 000 (it was about 520 B per row when the whole file
    was read at once). A bad row is still named by its line."""
    for n_rows in (2_000, 20_000):
        rows = np.random.default_rng(n_rows).random((n_rows, 7))
        cli.write_csv(tmp_path / "rows.csv", list("abcdefg"), rows, {"rows": n_rows})
        tracemalloc.start()
        try:
            config, columns, data = cli.read_csv(tmp_path / "rows.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert config == {"rows": n_rows} and columns == list("abcdefg")
        assert data.shape == rows.shape and np.abs(data - rows).max() < 1e-8
        # 56 B of float64 per row, the buffer's growth margin and the file's read buffer
        assert peak <= 64 * n_rows + 32 * 2**10, (n_rows, peak)
    path = fit_csv(tmp_path, [[0.0, 1.0, 0.0], [2.0, 0.9]])
    with pytest.raises(ConfigError, match=re.escape(f"{path}:4: 2 cells under 3 columns")):
        cli.read_csv(path)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["coherent", "resources"])
def test_a_failed_write_is_one_line(tmp_path, capsys, command):
    if command == "coherent":
        payload = json.loads(Path(coherent_config(tmp_path)).read_text())
        payload["output"] = {"directory": "/dev", "basename": "full"}
        argv = ["coherent", "--config", write_config(tmp_path, payload)]
    else:
        argv = ["resources", "--n-sites", "2", "--out", "/dev/full"]
    assert cli.main(argv) == 2
    assert "cannot write /dev/full" in assert_one_line_error(capsys, "config error:")


def test_coherent_norm_drift_is_a_numerical_failure_naming_the_time(tmp_path, capsys, monkeypatch):
    execute = circuits._execute_packed

    def drifting(amps, num_qubits, segments):
        out = execute(amps, num_qubits, segments)
        out[:, 7] *= 1.001  # the column of t = 35 fs
        return out

    monkeypatch.setattr(circuits, "_execute_packed", drifting)
    cfg = coherent_config(tmp_path, shots=100)
    assert cli.main(["coherent", "--config", cfg]) == 3
    assert "t = 35.0 fs" in assert_one_line_error(capsys, "numerical validation failure:")
    assert not (tmp_path / "coherent.csv").exists()


@pytest.mark.parametrize(
    "command, settings",
    [
        ("coherent", {"t_max_fs": 1e300, "step_fs": 1e-10}),
        ("dephasing", {"dt_fs": 1e-320}),
        ("dephasing", {"dt_fs": 1e-320, "t_max_fs": 0.0}),
        ("dephasing", {"dt_fs": 1e-10, "t_max_fs": 1e300}),
        ("resources", ["--t-fs", "1e300", "--dt-fs", "1e-10"]),
        ("resources", ["--gamma-thz", "1e-320"]),
    ],
    ids=["coherent", "dephasing-dt", "dephasing-interval", "dephasing-horizon", "resources-t", "resources-gamma"],
)
def test_step_counts_beyond_a_float_are_config_errors(tmp_path, capsys, command, settings):
    if command == "coherent":
        argv = ["--config", coherent_config(tmp_path, **settings)]
    elif command == "dephasing":
        argv = ["--config", dephasing_config(tmp_path, ensemble=settings)]
    else:
        argv = ["--n-sites", "2"] + settings
    assert cli.main([command] + argv) == 2
    assert "finite" in assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["coherent", "dephasing"])
def test_phase_angles_beyond_a_float_are_config_errors(tmp_path, capsys, monkeypatch, command):
    """A phase angle that would overflow fails before any draw or file."""
    if command == "coherent":
        payload = {
            "hamiltonian": {"matrix": [[1e6, 0.5], [0.5, -1e6]]},
            "ensemble": {"t_max_fs": 1e308, "step_fs": 1e308},
        }
        named = ("t_max_fs", "1000000.0")
    else:
        payload = {
            "hamiltonian": {"preset": "near_resonant"},
            "noise": {"strength_cm1": 1e308, "switching_rate_thz": 0.1},
            "ensemble": {"runs": 1, "shots": 1, "dt_fs": 1e4, "t_max_fs": 2e4},
        }
        named = ("strength_cm1", "fluctuators_per_site", "dt_fs")
        monkeypatch.setattr(cli.noise, "_sign_patterns", None)
    payload["output"] = {"directory": str(tmp_path / "out")}
    assert cli.main([command, "--config", write_config(tmp_path, payload)]) == 2
    err = assert_one_line_error(capsys, "config error:")
    assert "phase angle" in err and all(name in err for name in named), err
    assert not (tmp_path / "out").exists()


def fit_csv(tmp_path: Path, rows) -> str:
    lines = ['# config = {"hamiltonian": {"preset": "near_resonant"}}', "t_fs,p0_mean,p1_mean"]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    path = tmp_path / "series.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# a frozen near-resonant series over 600 fs: a valid input the fit cannot bracket
FROZEN_ROWS = [[2.0 * i, 1.0, 0.0] for i in range(301)]


def test_fit_unbracketed_minimum_is_numerical_failure(tmp_path, capsys):
    assert cli.main(["fit", fit_csv(tmp_path, FROZEN_ROWS)]) == 3
    assert "bracket" in assert_one_line_error(capsys, "numerical validation failure:")


def test_fit_rejects_populations_that_overflow_the_objective(tmp_path, capsys):
    rows = [[t, 1e200, 0.0] for t, _, _ in FROZEN_ROWS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fit", fit_csv(tmp_path, rows)]) == 2
    assert "[0, 1]" in assert_one_line_error(capsys, "config error:")


@pytest.mark.parametrize(
    "case", ["missing", "directory", "non-numeric", "ragged", "non-finite", "short", "unordered"]
)
def test_fit_rejects_bad_input_with_one_line(tmp_path, capsys, case):
    rows = [list(row) for row in FROZEN_ROWS]
    if case == "non-numeric":
        rows[5][1] = "abc"
    elif case == "ragged":
        rows[5] = rows[5][:2]
    elif case == "non-finite":
        rows[5][1] = "nan"
    elif case == "short":
        rows = rows[:50]  # 98 fs, under two beating periods
    elif case == "unordered":
        rows[5][0] = rows[4][0]
    path = fit_csv(tmp_path, rows)
    if case == "missing":
        path = str(tmp_path / "absent.csv")
    elif case == "directory":
        path = str(tmp_path)
    assert cli.main(["fit", path]) == 2
    assert_one_line_error(capsys, "config error:")


@pytest.mark.parametrize(
    "matrix",
    [
        [[13000.0, 126.0], [126.0]],
        [[13000.0, "126"], ["126", 12900.0]],
        [[13000.0, True], [True, 12900.0]],
        [[13000.0, 126.0], [0.0, 12900.0]],
        [[13000.0, 126.0, 0.0], [126.0, 12900.0, 0.0], [0.0, 0.0, 12800.0]],
        [[0.0, 6.7e153], [6.7e153, 0.0]],
        "near_resonant",
    ],
)
def test_custom_hamiltonian_must_be_symmetric_2x2_numbers(tmp_path, capsys, matrix):
    cfg = write_config(
        tmp_path,
        {"hamiltonian": {"matrix": matrix}, "ensemble": {"t_max_fs": 10.0, "step_fs": 5.0}},
    )
    assert cli.main(["coherent", "--config", cfg]) == 2
    assert "matrix" in assert_one_line_error(capsys, "config error:")


def test_custom_hamiltonian_matches_its_preset(tmp_path, capsys):
    rows = {}
    hamiltonians = {"preset": {"preset": "near_resonant"}, "matrix": {"matrix": [[13000, 126], [126, 12900]]}}
    for name, ham in hamiltonians.items():
        cfg = write_config(
            tmp_path,
            {
                "hamiltonian": ham,
                "ensemble": {"t_max_fs": 300.0, "step_fs": 5.0},
                "output": {"directory": str(tmp_path), "basename": f"{name}.csv"},
            },
            name=f"{name}.json",
        )
        assert cli.main(["coherent", "--config", cfg]) == 0
        rows[name] = (tmp_path / f"{name}.csv").read_text().splitlines()[2:]
    capsys.readouterr()
    assert rows["matrix"] == rows["preset"]


@pytest.mark.parametrize("case", ["directory", "list"])
def test_config_must_be_a_readable_object(tmp_path, capsys, case):
    if case == "directory":
        path = str(tmp_path)
    else:
        path = write_config(tmp_path, [1, 2])
    assert cli.main(["coherent", "--config", path]) == 2
    assert_one_line_error(capsys, "config error:")


@pytest.mark.parametrize("command", ["coherent", "dephasing"])
@pytest.mark.parametrize("key", ["directory", "basename"])
def test_output_names_must_be_strings(tmp_path, capsys, monkeypatch, command, key):
    if command == "coherent":
        cfg = coherent_config(tmp_path)
    else:
        cfg = dephasing_config(tmp_path)
        # the name is checked before any work
        monkeypatch.setattr(cli.noise, "run_ensemble", None)
    payload = json.loads(Path(cfg).read_text())
    payload["output"][key] = 5
    cfg = write_config(tmp_path, payload)
    assert cli.main([command, "--config", cfg]) == 2
    assert key in assert_one_line_error(capsys, "config error:")


def test_preset_must_be_a_name(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"hamiltonian": {"preset": ["near_resonant"]}, "ensemble": {"t_max_fs": 10.0, "step_fs": 5.0}},
    )
    assert cli.main(["coherent", "--config", cfg]) == 2
    assert "preset" in assert_one_line_error(capsys, "config error:")


@pytest.mark.parametrize("command", ["coherent", "dephasing"])
@pytest.mark.parametrize("output", ["not_an_object", "directory_is_a_file"])
def test_bad_output_settings_fail_before_any_work(tmp_path, capsys, monkeypatch, command, output):
    if command == "coherent":
        cfg = coherent_config(tmp_path)
    else:
        cfg = dephasing_config(tmp_path)
        monkeypatch.setattr(cli.noise, "run_ensemble", None)
    payload = json.loads(Path(cfg).read_text())
    if output == "not_an_object":
        payload["output"] = 5
    else:
        (tmp_path / "taken").write_text("")
        payload["output"]["directory"] = str(tmp_path / "taken")
    cfg = write_config(tmp_path, payload)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert cli.main([command, "--config", cfg]) == 2
    assert "output" in assert_one_line_error(capsys, "config error:")
    assert not any(cwd.iterdir())


def test_dephasing_rejects_a_sidecar_path_that_is_a_directory(tmp_path, capsys, monkeypatch):
    cfg = dephasing_config(tmp_path)
    monkeypatch.setattr(cli.noise, "run_ensemble", None)
    (tmp_path / "dephasing.fit.json").mkdir()
    assert cli.main(["dephasing", "--config", cfg]) == 2
    assert "sidecar" in assert_one_line_error(capsys, "config error:")
    assert not (tmp_path / "dephasing.csv").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_coherent_rejects_negative_seed(tmp_path, capsys, where):
    cfg = coherent_config(tmp_path, shots=10, master_seed=-1 if where == "config" else 3)
    argv = ["coherent", "--config", cfg] + (["--seed", "-1"] if where == "flag" else [])
    assert cli.main(argv) == 2
    assert "master_seed" in assert_one_line_error(capsys, "config error:")



def _json_values():
    leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6,
    )


def _non_numbers():
    return _json_values().filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))


_ROWS = st.lists(st.one_of(st.floats(), _json_values()), min_size=2, max_size=2)
_MATRICES = st.one_of(st.lists(_ROWS, min_size=2, max_size=2), _json_values())
_DELETE = object()
_VALID_COHERENT = {
    "hamiltonian": {"preset": "near_resonant"},
    "ensemble": {"t_max_fs": 30.0, "step_fs": 1.5, "shots": 10, "master_seed": 7},
    "output": {"directory": "out", "basename": "run.csv"},
}
# what each config field may be replaced by: edge values, then any JSON
# value; output locations stay inside the working directory, and the horizon
# and step stay small enough that an accepted grid has at most 121 points
_FIELD_VALUES = {
    ("hamiltonian",): st.one_of(st.fixed_dictionaries({"matrix": _MATRICES}), _json_values()),
    ("hamiltonian", "preset"): st.one_of(st.sampled_from(sorted(cli.PRESETS)), _json_values()),
    ("hamiltonian", "matrix"): _MATRICES,
    ("ensemble",): _json_values(),
    ("ensemble", "t_max_fs"): st.one_of(st.floats(-60.0, 60.0), _non_numbers()),
    ("ensemble", "step_fs"): st.one_of(st.sampled_from([0.5, 5.0, 7.0, 0.0, -1.0]), _non_numbers()),
    ("ensemble", "shots"): st.one_of(st.sampled_from([0, 1, -1, 2**63, 2**80]), _json_values()),
    ("ensemble", "master_seed"): st.one_of(st.sampled_from([0, -1, 2**63, 2**80]), _json_values()),
    ("output",): st.one_of(st.none(), _json_values()),
    ("output", "directory"): st.one_of(
        st.sampled_from(["out/sub", "", ".", "taken", "taken/sub", "a\x00b"]),
        _json_values().filter(lambda v: not isinstance(v, str)),
    ),
    ("output", "basename"): st.one_of(
        st.sampled_from(["", ".", "..", "out", "a/b.csv", "a\x00b"]), _json_values()
    ),
}


@st.composite
def _configs(draw, valid, field_values):
    """A valid config with up to three fields replaced or deleted."""
    config = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(sorted(field_values)))
        value = draw(st.one_of(st.just(_DELETE), field_values[path]))
        *parents, key = path
        node = config
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if value is _DELETE:
            node.pop(key, None)
        else:
            node[key] = value
    return config


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(config=_configs(_VALID_COHERENT, _FIELD_VALUES), seed=st.sampled_from([None, 0, -1, 2**80]))
@example(config=dict(_VALID_COHERENT, output=5), seed=None)
@example(config=dict(_VALID_COHERENT, output={"directory": "taken"}), seed=None)
@example(config=_VALID_COHERENT, seed=-1)
@example(config=dict(_VALID_COHERENT, hamiltonian={"matrix": [[1.7e-221, 0.0], [0.0, 0.0]]}), seed=None)
@example(config=dict(_VALID_COHERENT, ensemble={"t_max_fs": 1e300, "step_fs": 1e-10}), seed=None)
@example(config=dict(_VALID_COHERENT, ensemble={"t_max_fs": 1e15, "step_fs": 1.0}), seed=None)
def test_fuzzed_coherent_configs_exit_cleanly(tmp_path, capsys, monkeypatch, config, seed):
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "taken").exists():
        (tmp_path / "taken").write_text("")
    path = write_config(tmp_path, config)
    argv = ["coherent", "--config", path] + ([] if seed is None else ["--seed", str(seed)])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err, err


# a series the fit accepts: projector-dephasing populations on a 2-fs grid
# over 300 fs, past the two near-resonant beating periods (246 fs) it needs
_FIT_T = np.arange(151) * 2.0
_FIT_POPS = reference.lindblad_populations(cli.PRESETS["near_resonant"](), 6.0, _FIT_T)
_VALID_FIT_LINES = [
    '# config = {"hamiltonian": {"preset": "near_resonant"}}',
    "t_fs,p0_mean,p1_mean",
    *(f"{t:.9g},{p0:.9g},{p1:.9g}" for t, (p0, p1) in zip(_FIT_T, _FIT_POPS)),
]
_CELLS = st.one_of(
    st.sampled_from(
        ["", "nan", "-inf", "1e200", "-1e200", "1e400", "1.7e308", "-0", "0", "1", "2",
         "-0.5", "1.0000001", "1e-320", "abc", "1,2"]
    ),
    st.floats().map(repr),
)
_HEADERS = st.one_of(
    st.sampled_from(
        ["t_fs,p0_mean", "p1_mean,t_fs,p0_mean", "t_fs,p0_mean,p0_mean",
         "t_fs,p0_mean,p1_mean,extra", "t_fs,p0_mean,p1_mean,", "", "#"]
    ),
    st.text(max_size=12),
)
_EMBEDDED = st.one_of(
    st.fixed_dictionaries({"hamiltonian": _FIELD_VALUES[("hamiltonian",)]}),
    st.fixed_dictionaries(
        {"hamiltonian": st.fixed_dictionaries({"preset": _FIELD_VALUES[("hamiltonian", "preset")]})}
    ),
    _json_values(),
).map(lambda value: "# config = " + json.dumps(value))


@st.composite
def _fit_csvs(draw):
    """The lines of a valid fit CSV with up to three cells, rows, the header or
    the embedded config replaced."""
    lines = list(_VALID_FIT_LINES)
    for _ in range(draw(st.integers(0, 3))):
        n_rows = len(lines) - 2
        kind = draw(st.sampled_from(["cell", "row", "header", "config"]))
        if kind == "cell" and n_rows > 0:
            i = draw(st.integers(2, len(lines) - 1))
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELLS)
            lines[i] = ",".join(cells)
        elif kind == "row" and n_rows > 0:
            i = draw(st.integers(2, len(lines) - 1))
            action = draw(st.sampled_from(["delete", "repeat", "truncate", "widen"]))
            if action == "delete":
                del lines[i]
            elif action == "repeat":
                lines.insert(i, lines[i])
            elif action == "truncate":
                del lines[i:]
            else:
                lines[i] += ",0.5"
        elif kind == "header":
            lines[1] = draw(_HEADERS)
        elif kind == "config":
            lines[0] = draw(st.one_of(_EMBEDDED, st.sampled_from(["", "# config = {", "# config ="])))
    return lines


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    lines=_fit_csvs(),
    preset=st.sampled_from([None, *sorted(cli.PRESETS)]),
    out=st.sampled_from([None, "fit.json", ".", "missing/fit.json"]),
)
@example(lines=_VALID_FIT_LINES[:2] + ["0,1e200,0"] + _VALID_FIT_LINES[3:], preset=None, out=None)
@example(lines=_VALID_FIT_LINES[:-1] + ["1.7e308,0.5,0.5"], preset=None, out=None)
@example(lines=_VALID_FIT_LINES, preset=None, out=".")
@example(
    lines=['# config = {"hamiltonian": {"matrix": [[5e-324, 0], [0, 0]]}}'] + _VALID_FIT_LINES[1:],
    preset=None,
    out=None,
)
@example(
    lines=['# config = {"hamiltonian": {"matrix": [[1000000, 126], [126, 12900]]}}'] + _VALID_FIT_LINES[1:],
    preset=None,
    out=None,
)
def test_fuzzed_fit_inputs_exit_cleanly(tmp_path, capsys, monkeypatch, lines, preset, out):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "series.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = ["fit", str(path)] + (["--preset", preset] if preset else []) + (["--out", out] if out else [])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err, err


_VALID_DEPHASING = {
    "hamiltonian": {"preset": "near_resonant"},
    "noise": {"strength_cm1": 300.0, "switching_rate_thz": 125.0, "fluctuators_per_site": 1},
    "ensemble": {"runs": 2, "shots": 10, "dt_fs": 2.0, "t_max_fs": 260.0, "master_seed": 7},
    "output": {"directory": "out", "basename": "run.csv"},
}
# as for coherent: edge values, then any JSON value; an accepted ensemble
# stays at most 4 runs of at most 300 steps
_DEPHASING_FIELD_VALUES = {
    **{path: values for path, values in _FIELD_VALUES.items() if path[0] != "ensemble"},
    ("noise",): _json_values(),
    ("noise", "strength_cm1"): st.one_of(
        st.sampled_from([0.0, 1000.0, -1.0, 1e300, [300.0, 100.0], [300.0], [1.0, 2.0, 3.0]]),
        _json_values(),
    ),
    ("noise", "switching_rate_thz"): st.one_of(
        st.sampled_from([250.0, 62.5, 0.0, -1.0, 1e-320, 1e300]), _non_numbers()
    ),
    ("noise", "fluctuators_per_site"): st.one_of(
        st.sampled_from([2, 3, 0, -1, 2**62, 2**80]), _json_values()
    ),
    ("ensemble",): _json_values(),
    ("ensemble", "runs"): st.one_of(st.sampled_from([1, 4, 0, -1, 10**15, 2**80]), _json_values()),
    ("ensemble", "shots"): st.one_of(st.sampled_from([1, 0, -1, 2**63 - 1, 2**63, 2**80]), _json_values()),
    ("ensemble", "dt_fs"): st.one_of(
        st.sampled_from([4.0, 1.0, 3.0, 0.0, -2.0, 1e-320, 1e-10]), _non_numbers()
    ),
    ("ensemble", "t_max_fs"): st.one_of(
        st.sampled_from([300.0, 100.0, 0.0, 261.0, -2.0, 1e300]), _non_numbers()
    ),
    ("ensemble", "master_seed"): _FIELD_VALUES[("ensemble", "master_seed")],
}


def _with_ensemble(**settings):
    return dict(_VALID_DEPHASING, ensemble=dict(_VALID_DEPHASING["ensemble"], **settings))


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    config=_configs(_VALID_DEPHASING, _DEPHASING_FIELD_VALUES),
    seed=st.sampled_from([None, 0, -1, 2**80]),
    workers=st.sampled_from([None, "1", "0"]),
)
@example(config=_with_ensemble(dt_fs=1e-320), seed=None, workers=None)
@example(config=_with_ensemble(dt_fs=1e-320, t_max_fs=0.0), seed=None, workers=None)
@example(config=_with_ensemble(dt_fs=1e-10, t_max_fs=1e300), seed=None, workers=None)
@example(
    config=dict(_VALID_DEPHASING, noise=dict(_VALID_DEPHASING["noise"], fluctuators_per_site=2**62)),
    seed=None,
    workers=None,
)
def test_fuzzed_dephasing_configs_exit_cleanly(tmp_path, capsys, monkeypatch, config, seed, workers):
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "taken").exists():
        (tmp_path / "taken").write_text("")
    path = write_config(tmp_path, config)
    argv = ["dephasing", "--config", path]
    argv += ([] if seed is None else ["--seed", str(seed)]) + ([] if workers is None else ["--workers", workers])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err, err


_RESOURCE_COUNTS = st.one_of(
    st.sampled_from([2, 4, 1, 3, 0, -1, 6, 2**31, 2**53, 2**62, 2**62 + 1, 2**63, 2**14000]), st.integers()
)
_RESOURCE_FLOATS = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0, 1e-320, 1e-10, 1e300, 2.0, 3.0, 8.0, 800.0, 125.0,
         2.0**53, 2.0**62]
    ),
    st.floats(),
)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n_sites=_RESOURCE_COUNTS,
    fluctuators=st.one_of(st.none(), _RESOURCE_COUNTS),
    t_fs=st.one_of(st.none(), _RESOURCE_FLOATS),
    dt_fs=st.one_of(st.none(), _RESOURCE_FLOATS),
    gamma_thz=st.one_of(st.none(), _RESOURCE_FLOATS),
)
@example(n_sites=2**62, fluctuators=None, t_fs=None, dt_fs=None, gamma_thz=125.0)
@example(n_sites=2, fluctuators=None, t_fs=None, dt_fs=math.inf, gamma_thz=None)
@example(n_sites=2**14000, fluctuators=None, t_fs=None, dt_fs=None, gamma_thz=None)
def test_fuzzed_resources_args_exit_cleanly(capsys, n_sites, fluctuators, t_fs, dt_fs, gamma_thz):
    argv = ["resources", f"--n-sites={n_sites}"]
    for flag, value in [("--fluctuators", fluctuators), ("--t-fs", t_fs), ("--dt-fs", dt_fs), ("--gamma-thz", gamma_thz)]:
        if value is not None:
            argv.append(f"{flag}={value!r}")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    if code == 0:
        strict_json(out)
