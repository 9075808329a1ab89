"""Digital quantum-circuit simulation of excitonic energy transfer.

A two-site (extensible to N-site) molecular chain is evolved either
coherently or under pure dephasing driven by classical telegraph noise,
via explicit gate circuits on a small statevector register. Classical
references (closed-form populations, piecewise-exact propagation, a
Haken-Stroebl-type Lindblad solver with a dephasing-rate fit) validate
every path.
"""

from excitonsim.circuits import build_coherent_circuit, build_iteration_circuit
from excitonsim.model import (
    PHASE_PER_CM1_FS,
    SystemHamiltonian,
    analytic_populations,
    beating_period,
    eigendecompose,
    estimate_resources,
    mixing_angle,
)
from excitonsim.noise import EnsembleConfig, FluctuatorConfig, generate_trajectory, run_ensemble
from excitonsim.qcore import Gate, QuantumCircuit, sample_shots
from excitonsim.reference import fit_dephasing_rate, lindblad_integrate

__version__ = "0.1.0"

# the one execution path: numpy statevector kernels in qcore
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "PHASE_PER_CM1_FS",
    "SystemHamiltonian",
    "analytic_populations",
    "beating_period",
    "eigendecompose",
    "estimate_resources",
    "mixing_angle",
    "build_coherent_circuit",
    "build_iteration_circuit",
    "EnsembleConfig",
    "FluctuatorConfig",
    "generate_trajectory",
    "run_ensemble",
    "Gate",
    "QuantumCircuit",
    "sample_shots",
    "fit_dephasing_rate",
    "lindblad_integrate",
]
