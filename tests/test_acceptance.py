"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ...: PASS|FAIL` line (run with -s to
see them live); the assertion carries the same detail.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from excitonsim import cli, circuits, model, noise, qcore, reference
from excitonsim.model import SystemHamiltonian
from excitonsim.noise import FluctuatorConfig, generate_trajectory

from conftest import MASTER_SEED, STRENGTHS_CM1, dephasing_config_payload, run_dephasing
from kron_oracle import basis, run

NEAR = SystemHamiltonian.near_resonant()
NON = SystemHamiltonian.non_resonant()

# Reported (strength cm^-1 -> dephasing rate THz) pairings checked by criterion 5.
# The pairing g=100: 2.3 THz is not asserted: the documented noise process
# cannot produce it. Each site carries xi = +-1/2, re-drawn by a fair coin every
# tau = 1/switching_rate, with site shift g*xi. The site coherence then decays
# by exactly 1/2 + 1/2*cos(2*sigma*tau) = cos^2(sigma*tau) per interval, with
# sigma = 2*pi*c*g/2, when the coupling is off (no Gaussian or weak-coupling
# step), so the site-projector Lindblad rate is -2*ln(cos(sigma*tau))/tau, about
# sigma^2*tau while sigma*tau is small: 0.71 THz at g=100 and 2.3 THz only near
# g=180. The pairings are not consistent with each other either: from g=100 to
# g=300 the process is motionally narrowed and its rate must rise ~9x (g^2),
# while the reported values rise 4.3x.
REPORTED_RATES_THZ = {300.0: 10.0, 700.0: 41.0, 1000.0: 70.0}

# 2*pi*c in rad/fs per cm^-1, built here so the rate oracle below shares no
# constant with the code under test.
SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
TWO_PI_C_RAD_PER_FS_PER_CM1 = 2.0 * math.pi * SPEED_OF_LIGHT_M_PER_S * 1e2 * 1e-15


def report(criterion: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _coherent_csv(tmp_path: Path, preset: str, step_fs: float = 0.25):
    config = {
        "hamiltonian": {"preset": preset},
        "ensemble": {"t_max_fs": 300.0, "step_fs": step_fs, "shots": 0, "master_seed": 1},
        "output": {"directory": str(tmp_path), "basename": f"{preset}.csv"},
    }
    path = tmp_path / f"{preset}.json"
    path.write_text(json.dumps(config))
    assert cli.main(["coherent", "--config", str(path)]) == 0
    _, columns, data = cli.read_csv(tmp_path / f"{preset}.csv")
    return data[:, 0], data[:, columns.index("p1_circuit")]


def _peak_times(t: np.ndarray, y: np.ndarray) -> list[float]:
    peaks = []
    for i in range(1, len(y) - 1):
        if y[i] >= y[i - 1] and y[i] >= y[i + 1] and y[i] > 0.5 * y.max():
            denom = y[i - 1] - 2 * y[i] + y[i + 1]
            shift = 0.5 * (y[i - 1] - y[i + 1]) / denom if denom else 0.0
            peaks.append(t[i] + shift * (t[1] - t[0]))
    return peaks


@pytest.mark.parametrize(
    "preset,expected_period",
    [("near_resonant", 123.0), ("non_resonant", 50.9)],
)
def test_criterion_01_beating_periods(tmp_path, preset, expected_period):
    t, p1 = _coherent_csv(tmp_path, preset)
    peaks = _peak_times(t, p1)
    assert len(peaks) >= 2
    period = float(np.mean(np.diff(peaks)))
    ok = abs(period - expected_period) <= 1.0
    detail = f"{preset}: measured {period:.2f} fs vs {expected_period} +- 1 fs"
    line = report("1 beating period", ok, detail)
    assert ok, line


@pytest.mark.parametrize(
    "preset,expected_max",
    [("near_resonant", 0.864), ("non_resonant", 0.162)],
)
def test_criterion_02_transfer_maxima(tmp_path, preset, expected_max):
    _, p1 = _coherent_csv(tmp_path, preset)
    ok = abs(p1.max() - expected_max) <= 0.005
    line = report(
        "2 transfer maximum", ok, f"{preset}: max P1 {p1.max():.4f} vs {expected_max} +- 0.005"
    )
    assert ok, line


def test_criterion_03_circuit_oracle_equivalence():
    worst = 0.0
    init = basis(2, 2)
    for h in (NEAR, NON):
        for t in np.linspace(0.0, 300.0, 60):
            state = run(circuits.build_coherent_circuit(h, t), init)
            probs = qcore._site_probs(state, 1)
            p0, p1 = model.analytic_populations(h, t)
            worst = max(worst, abs(probs[0] - p0), abs(probs[1] - p1))
    ok = worst < 1e-9
    line = report("3 circuit vs closed form", ok, f"max |dP| = {worst:.3e} over both presets")
    assert ok, line


def test_criterion_04_trotter_order():
    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0)
    total_fs = 200.0
    ratios = []
    for k in range(20):
        seed = np.random.SeedSequence([MASTER_SEED, k])
        errors = {}
        for dt in (2.0, 1.0):
            n_steps = int(round(total_fs / dt))
            # the same 25 switch intervals at either step
            shifts = generate_trajectory(cfg, n_steps, dt, seed)
            exact = reference.exact_trajectory_series(NEAR, shifts, dt)
            # each distinct per-site sum's iteration circuit runs once, as a
            # system unitary; the steps then multiply 2x2 matrices
            sums, step_index = np.unique(shifts.T / cfg.strengths_cm1, axis=0, return_inverse=True)
            steps = noise._step_unitaries(NEAR, cfg, dt, sums)[step_index.ravel()]
            psi = np.array([1.0, 0.0], dtype=np.complex128)
            stride = int(round(2.0 / dt))
            worst = 0.0
            for i, u in enumerate(steps):
                psi = u @ psi
                if (i + 1) % stride == 0:
                    worst = max(worst, np.abs(np.abs(psi) ** 2 - exact[i + 1]).max())
            errors[dt] = worst
        ratios.append(errors[2.0] / errors[1.0])
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    line = report(
        "4 Trotter order",
        ok,
        f"error ratios over 20 trajectories in [{min(ratios):.2f}, {max(ratios):.2f}]",
    )
    assert ok, line


def _fitted_rates(dephasing_experiments):
    return {g: dephasing_experiments[g]["fit"]["gamma_deph_thz"] for g in STRENGTHS_CM1}


def test_criterion_05_ensemble_vs_lindblad_rms_and_ordering(dephasing_experiments):
    details = []
    ok = True
    for g in STRENGTHS_CM1:
        exp = dephasing_experiments[g]
        cols, data = exp["columns"], exp["data"]
        mean = data[:, [cols.index("p0_mean"), cols.index("p1_mean")]]
        lind = data[:, [cols.index("p0_lindblad_fit"), cols.index("p1_lindblad_fit")]]
        rms = float(np.sqrt(((mean - lind) ** 2).mean()))
        ok &= rms < 0.05
        details.append(f"g={g:.0f}: rms={rms:.4f}")
    rates = _fitted_rates(dephasing_experiments)
    ordered = [rates[g] for g in STRENGTHS_CM1]
    increasing = all(a < b for a, b in zip(ordered, ordered[1:]))
    ok &= increasing
    details.append("strictly increasing" if increasing else f"not increasing: {ordered}")
    line = report("5 ensemble vs Lindblad", ok, "; ".join(details))
    assert ok, line


def telegraph_dephasing_rate_thz(strength_cm1: float, switching_rate_thz: float) -> float:
    """Exact site-coherence decay rate of one +-1/2 telegraph fluctuator per site.

    Per interval tau the coherence is multiplied by cos^2(sigma*tau), with
    sigma = 2*pi*c*g/2, so the rate is -2*ln(cos(sigma*tau))/tau.
    """
    sigma_rad_per_fs = TWO_PI_C_RAD_PER_FS_PER_CM1 * strength_cm1 / 2.0
    tau_fs = 1e3 / switching_rate_thz
    phase = sigma_rad_per_fs * tau_fs
    assert phase < math.pi / 2, f"sigma*tau = {phase:.3f} is past the first zero of cos(sigma*tau)"
    return -2.0 * math.log(math.cos(phase)) / tau_fs * 1e3


def _within_factor_two(value: float, target: float) -> bool:
    return target / 2.0 <= value <= target * 2.0


def test_criterion_05_fitted_rates_within_factor_two_of_reported(dephasing_experiments):
    rates = _fitted_rates(dephasing_experiments)
    details = []
    ok = True
    for g in STRENGTHS_CM1:
        noise = dephasing_experiments[g]["config"]["noise"]
        assert noise.get("fluctuators_per_site", 1) == 1
        exact = telegraph_dephasing_rate_thz(noise["strength_cm1"], noise["switching_rate_thz"])
        fitted = rates[g]
        exact_ok = _within_factor_two(fitted, exact)
        ok &= exact_ok
        detail = (
            f"g={g:.0f}: fitted {fitted:.2f} THz vs exact {exact:.2f} "
            f"(ratio {fitted / exact:.3f}, {'ok' if exact_ok else 'out'})"
        )
        if g in REPORTED_RATES_THZ:
            target = REPORTED_RATES_THZ[g]
            reported_ok = _within_factor_two(fitted, target)
            ok &= reported_ok
            detail += f", reported {target} ({'ok' if reported_ok else 'out'})"
        details.append(detail)
    line = report("5 fitted rates vs exact and reported", ok, "; ".join(details))
    assert ok, line


def test_criterion_06_thermalization(dephasing_experiments):
    exp = dephasing_experiments[1000.0]
    cols, data = exp["columns"], exp["data"]
    t = data[:, 0]
    window = (t >= 400.0) & (t <= 600.0)
    mean_p0 = float(data[window, cols.index("p0_mean")].mean())
    ok = abs(mean_p0 - 0.5) < 0.05
    line = report("6 thermalization", ok, f"g=1000: mean P0 over [400,600] fs = {mean_p0:.4f}")
    assert ok, line


def test_criterion_07_lindblad_integrator_properties(dephasing_experiments):
    worst_trace = worst_herm = 0.0
    worst_eig = np.inf
    grid = np.arange(0.0, 601.0, 2.0)
    for g in STRENGTHS_CM1:
        gamma = dephasing_experiments[g]["fit"]["gamma_deph_thz"]
        series = reference.lindblad_integrate(NEAR, gamma, grid)
        for m in series:
            worst_trace = max(worst_trace, abs(np.trace(m).real - 1.0))
            worst_herm = max(worst_herm, float(np.abs(m - m.conj().T).max()))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(m).min()))
    reduction = 0.0
    t = np.linspace(0.0, 300.0, 151)
    for h in (NEAR, NON):
        pops = reference.lindblad_populations(h, 0.0, t)
        p0, p1 = model.analytic_populations(h, t)
        reduction = max(reduction, np.abs(pops - np.column_stack([p0, p1])).max())
    ok = worst_trace < 1e-9 and worst_herm < 1e-10 and worst_eig >= -1e-8 and reduction < 1e-6
    line = report(
        "7 Lindblad integrator",
        ok,
        f"trace drift {worst_trace:.1e}, hermiticity {worst_herm:.1e}, "
        f"min eig {worst_eig:.1e}, coherent reduction {reduction:.1e}",
    )
    assert ok, line


def test_criterion_08_fit_round_trip():
    t = np.arange(0.0, 601.0, 2.0)
    synthetic = reference.lindblad_populations(NEAR, 10.0, t)
    fit = reference.fit_dephasing_rate(t, synthetic, NEAR)
    ok = abs(fit.gamma_deph_thz - 10.0) <= 0.5
    line = report("8 fit round trip", ok, f"recovered {fit.gamma_deph_thz:.3f} THz for true 10 THz")
    assert ok, line


def test_criterion_09_reproducibility_across_workers(tmp_path):
    outputs = []
    for label, workers in (("first", 1), ("second", 1), ("parallel", 4)):
        out_dir = tmp_path / label
        payload = dephasing_config_payload(300.0, out_dir)
        result = run_dephasing(payload, tmp_path / f"{label}.json", workers=workers)
        lines = Path(result["csv_path"]).read_bytes().splitlines()
        outputs.append(b"\n".join(line for line in lines if not line.startswith(b"#")))
    ok = outputs[0] == outputs[1] == outputs[2]
    line = report("9 reproducibility", ok, "rerun and 4-worker run byte-identical to the first")
    assert ok, line


def test_criterion_10_resource_report(capsys):
    assert cli.main(["resources", "--n-sites", "2", "--t-fs", "800", "--dt-fs", "2"]) == 0
    two = json.loads(capsys.readouterr().out)
    assert cli.main(["resources", "--n-sites", "4"]) == 0
    four = json.loads(capsys.readouterr().out)
    tally = two["per_iteration"]
    ok = (
        two["qubits"] == 2
        and four["qubits"] == 4
        and tally["PauliX"] == 4
        and tally["ControlledRotZ"] == 4
        and tally["RotY"] == 2
    )
    line = report(
        "10 resource report",
        ok,
        f"N=2 qubits={two['qubits']} tally X={tally['PauliX']} CRotZ={tally['ControlledRotZ']} "
        f"RotY={tally['RotY']}; N=4 qubits={four['qubits']}",
    )
    assert ok, line
