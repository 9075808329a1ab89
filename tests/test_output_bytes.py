"""The same configuration gives the same output bytes, pinned by SHA-256.

``output_digests.json`` holds the digest of every output checked here and
the numpy version they were taken with. The bytes rest on numpy's Generator
streams and rounding, so on another numpy version the check fails and names
both versions. A change that alters these bytes on purpose updates the
manifest in the same commit and lists each changed digest in CHANGES.md;
a failing check prints the new digests.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from conftest import MASTER_SEED, STRENGTHS_CM1
from excitonsim import cli, noise
from excitonsim.model import SystemHamiltonian

MANIFEST = json.loads(Path(__file__).with_name("output_digests.json").read_text())


def check_digests(outputs: dict[str, bytes]) -> None:
    assert np.__version__ == MANIFEST["numpy"], (
        f"the output digests were taken with numpy {MANIFEST['numpy']}, "
        f"this is numpy {np.__version__}: retake them on this version"
    )
    actual = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    changed = {name: d for name, d in actual.items() if d != MANIFEST["sha256"][name]}
    assert not changed, "output bytes changed; new digests:\n" + json.dumps(changed, indent=2)


def test_dephasing_and_fit_bytes(dephasing_experiments, tmp_path):
    """The acceptance CSVs, their .fit.json sidecars and `fit` of each CSV."""
    outputs = {}
    for g in STRENGTHS_CM1:
        csv_path = dephasing_experiments[g]["csv_path"]
        fit_path = tmp_path / f"fit_g{int(g)}.json"
        assert cli.main(["fit", str(csv_path), "--out", str(fit_path)]) == 0
        for path in (csv_path, csv_path.with_suffix(".fit.json"), fit_path):
            outputs[path.name] = path.read_bytes()
    check_digests(outputs)


def test_coherent_bytes(tmp_path):
    """Both presets over 600 fs in 1.5 fs steps, exact and with 2000 shots."""
    outputs = {}
    for preset in ("near_resonant", "non_resonant"):
        for shots in (0, 2000):
            name = f"coherent_{preset}_shots{shots}.csv"
            config = tmp_path / f"{name}.json"
            ensemble = {"t_max_fs": 600.0, "step_fs": 1.5, "shots": shots, "master_seed": MASTER_SEED}
            output = {"directory": str(tmp_path), "basename": name}
            config.write_text(json.dumps({"hamiltonian": {"preset": preset}, "ensemble": ensemble, "output": output}))
            assert cli.main(["coherent", "--config", str(config)]) == 0
            outputs[name] = (tmp_path / name).read_bytes()
    check_digests(outputs)


def test_resources_bytes(tmp_path):
    outputs = {}
    for name, argv in [
        ("resources_n2.json", ["--n-sites", "2"]),
        ("resources_n4_f2.json", ["--n-sites", "4", "--fluctuators", "2"]),
    ]:
        assert cli.main(["resources", *argv, "--out", str(tmp_path / name)]) == 0
        outputs[name] = (tmp_path / name).read_bytes()
    check_digests(outputs)


def test_four_site_ensemble_bytes():
    """run_ensemble on a 4-site chain with 2 fluctuators per site, which
    compiles through DenseUnitary gates."""
    j = np.diag(np.full(3, 126.0), 1)
    h = SystemHamiltonian(np.array([13000.0, 12900.0, 13000.0, 12900.0]), j + j.T)
    noise_cfg = noise.FluctuatorConfig.uniform(300.0, 4, 125.0, 2)
    result = noise.run_ensemble(h, noise_cfg, noise.EnsembleConfig(50, 5000, 2.0, 600.0, 12345))
    check_digests(
        {
            "ensemble_n4_f2_p_mean": np.ascontiguousarray(result.p_mean).tobytes(),
            "ensemble_n4_f2_p_stderr": np.ascontiguousarray(result.p_stderr).tobytes(),
        }
    )
