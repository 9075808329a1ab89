"""Configuration-driven experiment runner.

Subcommands: ``coherent`` (isolated-chain beating), ``dephasing``
(telegraph-noise ensemble plus Lindblad fit), ``resources`` (qubit/gate
report), ``fit`` (refit a previously emitted ensemble CSV).

Configs are JSON (TOML accepted on Python 3.11+) with sections
[hamiltonian], [noise], [ensemble], [output]. Every emitted file embeds the
fully resolved physics configuration, so re-running a command with the same
config reproduces the numeric columns byte for byte; ``--seed`` overrides
the configured master seed. Exit codes: 0 ok, 2 bad configuration, 3
numerical validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from excitonsim import circuits, model, noise, qcore, reference
from excitonsim.errors import ConfigError, NumericalValidationError

ENV_OUTPUT_DIR = "EXCITONSIM_OUTPUT_DIR"
# largest custom matrix entry (about 124 eV); squares of larger ones can overflow
MAX_ENTRY_CM1 = 1e6

PRESETS = {
    "near_resonant": model.SystemHamiltonian.near_resonant,
    "non_resonant": model.SystemHamiltonian.non_resonant,
}


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if p.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:
            raise ConfigError("TOML configs need Python >= 3.11; use JSON") from exc
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"malformed TOML config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be an object of sections, got {type(cfg).__name__}")
    return cfg


def _finite_number(value) -> float | None:
    """A JSON/TOML number (an int or a float, never a bool or a string) as a
    finite float, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def resolve_hamiltonian(section: dict) -> model.SystemHamiltonian:
    if not isinstance(section, dict):
        raise ConfigError("missing [hamiltonian] section")
    preset = section.get("preset")
    matrix = section.get("matrix")
    if (preset is None) == (matrix is None):
        raise ConfigError("hamiltonian needs exactly one of 'preset' or 'matrix'")
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        return PRESETS[preset]()
    rows = matrix if isinstance(matrix, list) else []
    entries = [
        _finite_number(x) for row in rows if isinstance(row, list) and len(row) == 2 for x in row
    ]
    bounded = None not in entries and max(map(abs, entries), default=0.0) <= MAX_ENTRY_CM1
    if len(rows) != 2 or len(entries) != 4 or not bounded:
        raise ConfigError(
            f"custom hamiltonian matrix must be 2x2 numbers of at most {MAX_ENTRY_CM1:g} "
            f"cm^-1 in magnitude, got {matrix!r}"
        )
    eps0, coupling, coupling_t, eps1 = entries
    if coupling != coupling_t:
        raise ConfigError(f"custom hamiltonian matrix must be symmetric, got {matrix!r}")
    return model.SystemHamiltonian.two_site(eps0, eps1, coupling)


def _hamiltonian_echo(h: model.SystemHamiltonian) -> dict:
    return {"matrix": h.matrix().tolist()}


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"missing [{name}] section")
    return sec


def _get(section: dict, key: str, kind, default=None, where: str = ""):
    """Config value of ``kind`` int or float; ints are accepted as floats."""
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing '{key}' in [{where}]")
    value = section[key]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"bad '{key}' in [{where}]: expected an integer, got {value!r}")
        return value
    number = _finite_number(value)
    if number is None:
        raise ConfigError(f"bad '{key}' in [{where}]: expected a finite number, got {value!r}")
    return number


def _output_path(cfg: dict, args, default_name: str) -> Path:
    """The output file, its directory created; a null [output] means the defaults."""
    out = {} if cfg.get("output") is None else cfg["output"]
    if not isinstance(out, dict):
        raise ConfigError(f"bad [output]: expected an object, got {out!r}")
    for key in ("directory", "basename"):
        if out.get(key) is not None and not isinstance(out[key], str):
            raise ConfigError(f"bad '{key}' in [output]: expected a string, got {out[key]!r}")
    directory = (
        args.output_dir
        or out.get("directory")
        or os.environ.get(ENV_OUTPUT_DIR)
        or "."
    )
    base = out.get("basename") or default_name
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory {directory!r}: {exc}") from exc
    if Path(base).name != base or "\0" in base or (path / base).is_dir():
        raise ConfigError(f"bad 'basename' in [output]: {base!r} is not a file name")
    return path / base


def _out_file(out: str | None) -> Path | None:
    """The --out file, checked before any work: a path in an existing
    directory that is not itself a directory."""
    if not out:
        return None
    path = Path(out)
    if "\0" in out or path.is_dir() or not path.parent.is_dir():
        raise ConfigError(f"bad --out {out!r}: not a file in an existing directory")
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path: Path, columns: list[str], rows, config_echo: dict) -> None:
    lines = ["# config = " + json.dumps(config_echo, sort_keys=True)]
    lines.append(",".join(columns))
    for row in np.asarray(rows, dtype=np.float64).tolist():
        lines.append(",".join(format(x, ".9g") for x in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str):
    """Read back an emitted CSV: (embedded config or None, columns, data).

    A file that cannot be read or parsed is a ConfigError naming the line."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    config = None
    columns = None
    data: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            _, _, payload = line.partition("=")
            if config is None and payload.strip():
                try:
                    config = json.loads(payload)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{path}:{lineno}: malformed embedded config: {exc}") from exc
            continue
        if columns is None:
            columns = line.split(",")
            continue
        if line:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ConfigError(
                    f"{path}:{lineno}: {len(cells)} cells under {len(columns)} columns"
                )
            try:
                data.append([float(x) for x in cells])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if columns is None:
        raise ConfigError(f"no header row in {path}")
    return config, columns, np.asarray(data, dtype=np.float64).reshape(-1, len(columns))


def cmd_coherent(args) -> int:
    cfg = load_config(args.config)
    h = resolve_hamiltonian(_section(cfg, "hamiltonian"))
    ens = _section(cfg, "ensemble")
    t_max = _get(ens, "t_max_fs", float, where="ensemble")
    step = _get(ens, "step_fs", float, where="ensemble")
    shots = _get(ens, "shots", int, default=0, where="ensemble")
    seed = args.seed if args.seed is not None else _get(ens, "master_seed", int, default=0, where="ensemble")
    if step <= 0 or t_max < 0:
        raise ConfigError("need step_fs > 0 and t_max_fs >= 0")
    if not 0 <= shots <= noise.MAX_SHOTS:
        raise ConfigError(f"shots must be between 0 and {noise.MAX_SHOTS}")
    if seed < 0:
        raise ConfigError("master_seed must be non-negative")
    n = model.exact_steps(t_max, step, "t_max_fs")
    if not math.isfinite(circuits.coherent_angle(h, n * step)):
        raise ConfigError(
            f"t_max_fs={t_max} overflows a phase angle of the hamiltonian {h.matrix().tolist()}"
        )
    columns = ["t_fs", "p0_analytic", "p1_analytic", "p0_circuit", "p1_circuit"]
    if shots > 0:
        columns += ["p0_sampled", "p1_sampled"]
    # per time point: the circuit's complex128 amplitudes and the float64 output columns
    need = (n + 1) * (16 * (2 << h.n_system_qubits) + 8 * len(columns))
    noise.check_memory(need, f"t_max_fs / step_fs gives {n + 1:.3g} time points")
    path = _output_path(cfg, args, "coherent.csv")
    t_grid = np.arange(n + 1) * step

    p0_a, p1_a = model.analytic_populations(h, t_grid)
    pc = circuits.coherent_site_populations(h, t_grid)
    data = [t_grid, p0_a, p1_a, pc[:, 0], pc[:, 1]]
    if shots > 0:
        counts = qcore.sample_shots(pc, shots, seed)
        data += [counts[:, 0] / shots, counts[:, 1] / shots]

    echo = {
        "hamiltonian": _hamiltonian_echo(h),
        "ensemble": {"t_max_fs": t_max, "step_fs": step, "shots": shots, "master_seed": seed},
    }
    write_csv(path, columns, np.column_stack(data), echo)
    print(path)
    return 0


def _resolve_noise(cfg_noise: dict, h: model.SystemHamiltonian) -> noise.FluctuatorConfig:
    strength = cfg_noise.get("strength_cm1")
    if strength is None:
        raise ConfigError("missing 'strength_cm1' in [noise]")
    gamma = _get(cfg_noise, "switching_rate_thz", float, where="noise")
    f = _get(cfg_noise, "fluctuators_per_site", int, default=1, where="noise")
    values = strength if isinstance(strength, list) else [strength]
    strengths = [_finite_number(v) for v in values]
    if None in strengths or len(strengths) not in (1, h.n_sites):
        raise ConfigError(
            f"'strength_cm1' in [noise] must be a number or a list of {h.n_sites} "
            f"numbers, got {strength!r}"
        )
    return noise.FluctuatorConfig(np.broadcast_to(strengths, h.n_sites).copy(), gamma, f)


def cmd_dephasing(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_config(args.config)
    h = resolve_hamiltonian(_section(cfg, "hamiltonian"))
    noise_cfg = _resolve_noise(_section(cfg, "noise"), h)
    ens_sec = _section(cfg, "ensemble")
    seed = args.seed if args.seed is not None else _get(ens_sec, "master_seed", int, default=0, where="ensemble")
    ens = noise.EnsembleConfig(
        runs=_get(ens_sec, "runs", int, where="ensemble"),
        shots=_get(ens_sec, "shots", int, where="ensemble"),
        dt_fs=_get(ens_sec, "dt_fs", float, where="ensemble"),
        t_max_fs=_get(ens_sec, "t_max_fs", float, where="ensemble"),
        master_seed=seed,
    )
    # surface what would fail the ensemble or the fit before doing any work
    noise.check_ensemble_memory(noise_cfg, ens)
    noise.check_phase_angles(h, noise_cfg, ens.dt_fs)
    reference.check_fit_span(h, ens.n_steps * ens.dt_fs)
    path = _output_path(cfg, args, "dephasing.csv")
    sidecar = path.with_suffix(".fit.json")
    if sidecar.is_dir():
        raise ConfigError(f"bad [output]: the fit sidecar {str(sidecar)!r} is a directory")

    result = noise.run_ensemble(h, noise_cfg, ens, workers=args.workers)
    fit = reference.fit_dephasing_rate(result.t_fs, result.p_mean, h)
    # the fit checked its rate at the last point only; the CSV reports every point
    reference.check_density_matrices(fit.rho, result.t_fs)
    lind = fit.rho.diagonal(axis1=1, axis2=2).real

    echo = {
        "hamiltonian": _hamiltonian_echo(h),
        "noise": {
            "strength_cm1": noise_cfg.strengths_cm1.tolist(),
            "switching_rate_thz": noise_cfg.switching_rate_thz,
            "fluctuators_per_site": noise_cfg.fluctuators_per_site,
        },
        "ensemble": {
            "runs": ens.runs,
            "shots": ens.shots,
            "dt_fs": ens.dt_fs,
            "t_max_fs": ens.t_max_fs,
            "master_seed": ens.master_seed,
        },
    }
    rows = np.column_stack([result.t_fs, result.p_mean, result.p_stderr, lind])
    columns = [
        "t_fs",
        "p0_mean",
        "p1_mean",
        "p0_stderr",
        "p1_stderr",
        "p0_lindblad_fit",
        "p1_lindblad_fit",
    ]
    write_csv(path, columns, rows, echo)
    _write_text(
        sidecar,
        json.dumps(
            {
                "gamma_deph_thz": fit.gamma_deph_thz,
                "residual_rms": fit.residual_rms,
                "n_evaluations": fit.n_evaluations,
                "config": echo,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n",
    )
    print(path)
    print(sidecar)
    return 0


def cmd_resources(args) -> int:
    out = _out_file(args.out)
    report = model.estimate_resources(args.n_sites, args.fluctuators, args.t_fs, args.dt_fs)
    if args.gamma_thz is not None:
        # the switch interval does not depend on the chain, so one site checks it
        fluctuators = noise.FluctuatorConfig.uniform(0.0, 1, args.gamma_thz)
        report["switch_interval_steps"] = fluctuators.switch_interval_steps(args.dt_fs)
    try:
        text = json.dumps(report, indent=2, sort_keys=True)
    except ValueError as exc:  # an integer beyond Python's int-to-text digit limit
        raise ConfigError("resource counts have too many digits to print as JSON") from exc
    if out:
        _write_text(out, text + "\n")
    print(text)
    return 0


def cmd_fit(args) -> int:
    out = _out_file(args.out)
    config, columns, data = read_csv(args.csv)
    needed = ("t_fs", "p0_mean", "p1_mean")
    if any(c not in columns for c in needed):
        raise ConfigError(f"{args.csv} lacks the ensemble columns {needed}")
    if args.preset:
        h = PRESETS[args.preset]()
    elif isinstance(config, dict) and "hamiltonian" in config:
        h = resolve_hamiltonian(config["hamiltonian"])
    else:
        raise ConfigError("no embedded hamiltonian; pass --preset")
    t = data[:, columns.index("t_fs")]
    pops = data[:, [columns.index("p0_mean"), columns.index("p1_mean")]]
    fit = reference.fit_dephasing_rate(t, pops, h)
    text = json.dumps(
        {"gamma_deph_thz": fit.gamma_deph_thz, "residual_rms": fit.residual_rms},
        indent=2,
        sort_keys=True,
    )
    if out:
        _write_text(out, text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excitonsim",
        description="Exciton-transfer circuit simulations with telegraph-noise dephasing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON (or TOML) config file")
        p.add_argument("--seed", type=int, default=None, help="override the config master seed")
        p.add_argument("--output-dir", default=None, help="output directory (else config, else $" + ENV_OUTPUT_DIR + ")")

    p = sub.add_parser("coherent", help="isolated-chain evolution CSV")
    add_common(p)
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser("dephasing", help="telegraph-noise ensemble CSV + Lindblad fit")
    add_common(p)
    p.add_argument("--workers", type=int, default=1, help="accepted and checked (>= 1); has no effect")
    p.set_defaults(func=cmd_dephasing)

    p = sub.add_parser("resources", help="qubit/gate resource report (JSON)")
    p.add_argument("--n-sites", type=int, required=True)
    p.add_argument("--fluctuators", type=int, default=1)
    p.add_argument("--t-fs", type=float, default=0.0)
    p.add_argument("--dt-fs", type=float, default=2.0)
    p.add_argument("--gamma-thz", type=float, default=None, help="validate dt against this switching rate")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("fit", help="refit the dephasing rate of an emitted ensemble CSV")
    p.add_argument("csv")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalValidationError as exc:
        print(f"numerical validation failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
