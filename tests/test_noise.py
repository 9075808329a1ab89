"""Telegraph-noise trajectories and the stochastic ensemble engine."""

import itertools
import tracemalloc

import numpy as np
import pytest

from excitonsim import model, noise, reference
from excitonsim.errors import ConfigError, NumericalValidationError
from excitonsim.qcore import Gate, QuantumCircuit
from excitonsim.model import SystemHamiltonian
from excitonsim.noise import EnsembleConfig, FluctuatorConfig

from kron_oracle import basis, circuit_matrix, run

NEAR = SystemHamiltonian.near_resonant()


def test_switch_interval_from_rate():
    cfg = FluctuatorConfig.uniform(100.0, 2, switching_rate_thz=125.0)
    assert cfg.waiting_time_fs == pytest.approx(8.0)
    assert cfg.switch_interval_steps(2.0) == 4
    assert cfg.switch_interval_steps(8.0) == 1


def test_non_integer_switch_interval_rejected():
    cfg = FluctuatorConfig.uniform(100.0, 2, switching_rate_thz=125.0)
    with pytest.raises(ConfigError):
        cfg.switch_interval_steps(3.0)
    with pytest.raises(ConfigError):
        cfg.switch_interval_steps(16.0)  # waiting time shorter than the step


def test_trajectory_deterministic_and_piecewise_constant():
    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0)
    s1 = noise.generate_trajectory(cfg, 40, 2.0, seed=123)
    s2 = noise.generate_trajectory(cfg, 40, 2.0, seed=123)
    assert np.array_equal(s1, s2)
    assert s1.shape == (2, 40) and s1.dtype == np.float64
    assert set(np.unique(s1)) <= {-150.0, 150.0}
    # constant within each 4-iteration interval
    blocks = s1.reshape(2, 10, 4)
    assert (blocks == blocks[..., :1]).all()
    s3 = noise.generate_trajectory(cfg, 40, 2.0, seed=124)
    assert not np.array_equal(s1, s3)


def test_fair_coin_fraction():
    cfg = FluctuatorConfig.uniform(100.0, 1, 125.0)
    # dt = the 8 fs waiting time: one interval, one fair-coin draw, per step
    shifts = noise.generate_trajectory(cfg, 100_000, 8.0, seed=2026)
    assert shifts.shape == (1, 100_000)
    fraction = (shifts > 0).mean()
    assert 0.497 <= fraction <= 0.503


def test_multi_fluctuator_shifts_sum():
    cfg = FluctuatorConfig.uniform(200.0, 2, 125.0, fluctuators_per_site=2)
    shifts = noise.generate_trajectory(cfg, 12, 2.0, seed=5)
    assert shifts.shape == (2, 12)
    assert set(np.unique(shifts)) <= {-200.0, 0.0, 200.0}


def test_ensemble_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(runs=0, shots=10, dt_fs=2.0, t_max_fs=10.0, master_seed=1)
    with pytest.raises(ConfigError):
        EnsembleConfig(runs=1, shots=0, dt_fs=2.0, t_max_fs=10.0, master_seed=1)
    with pytest.raises(ConfigError):
        EnsembleConfig(runs=1, shots=10, dt_fs=2.0, t_max_fs=11.0, master_seed=1)
    with pytest.raises(ConfigError):
        EnsembleConfig(runs=1, shots=10, dt_fs=2.0, t_max_fs=-2.0, master_seed=1)


def test_noise_free_ensemble_matches_analytic_within_shot_noise():
    cfg = FluctuatorConfig.uniform(0.0, 2, 125.0)
    ens = EnsembleConfig(runs=20, shots=2000, dt_fs=2.0, t_max_fs=200.0, master_seed=7)
    result = noise.run_ensemble(NEAR, cfg, ens)
    p0, _ = model.analytic_populations(NEAR, result.t_fs)
    sigma = np.sqrt(np.maximum(p0 * (1 - p0), 1e-12) / (ens.shots * ens.runs))
    assert (np.abs(result.p_mean[:, 0] - p0) <= 3 * sigma + 1e-9).all()


def assert_blocks_join_to_one(h, cfg, ens, k):
    """The seed contract: a run's frequencies do not depend on its block."""
    one = noise._run_frequencies(h, cfg, ens, range(ens.runs))
    split = [noise._run_frequencies(h, cfg, ens, block) for block in (range(0, k), range(k, ens.runs))]
    assert np.array_equal(np.concatenate(split), one)


def test_ensemble_reproducible_and_worker_independent():
    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0)
    ens = EnsembleConfig(runs=12, shots=400, dt_fs=2.0, t_max_fs=80.0, master_seed=99)
    serial_a = noise.run_ensemble(NEAR, cfg, ens, workers=1)
    serial_b = noise.run_ensemble(NEAR, cfg, ens, workers=1)
    parallel = noise.run_ensemble(NEAR, cfg, ens, workers=3)
    assert np.array_equal(serial_a.p_mean, serial_b.p_mean)
    assert np.array_equal(serial_a.p_mean, parallel.p_mean)
    assert np.array_equal(serial_a.p_stderr, parallel.p_stderr)
    assert_blocks_join_to_one(NEAR, cfg, ens, 5)


def test_ensemble_mean_shift_is_unbiased():
    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0)
    total = 0.0
    count = 0
    for run in range(200):
        seed = np.random.SeedSequence([31, run])
        shifts = noise.generate_trajectory(cfg, 100, 2.0, seed)
        total += shifts.sum()
        count += shifts.size
    mean_shift = total / count
    # 3 sigma of the mean of count/4 independent +-150 values
    assert abs(mean_shift) < 3 * 150.0 / np.sqrt(count / 4)


def test_beating_suppression_is_monotone_in_strength():
    ens = EnsembleConfig(runs=40, shots=2000, dt_fs=2.0, t_max_fs=600.0, master_seed=11)
    window = int(round(model.beating_period(NEAR) / ens.dt_fs))

    def settle_time(g):
        """First time after which the windowed oscillation amplitude of
        P0 - P1 stays below 0.1; capped at the horizon."""
        cfg = FluctuatorConfig.uniform(g, 2, 125.0)
        result = noise.run_ensemble(NEAR, cfg, ens)
        diff = result.p_mean[:, 0] - result.p_mean[:, 1]
        amp = np.array(
            [0.5 * np.ptp(diff[i : i + window]) for i in range(diff.size - window)]
        )
        quiet = amp < 0.1
        for i in range(quiet.size):
            if quiet[i:].all():
                return result.t_fs[i]
        return result.t_fs[-1]

    times = [settle_time(g) for g in (100.0, 300.0, 700.0, 1000.0)]
    assert all(a >= b for a, b in zip(times, times[1:])), times


def test_ensemble_with_zero_horizon_has_single_point():
    cfg = FluctuatorConfig.uniform(100.0, 2, 125.0)
    ens = EnsembleConfig(runs=3, shots=50, dt_fs=2.0, t_max_fs=0.0, master_seed=4)
    result = noise.run_ensemble(NEAR, cfg, ens)
    assert result.t_fs.tolist() == [0.0]
    assert result.p_mean.tolist() == [[1.0, 0.0]]


def test_ensemble_rejects_mismatched_sites():
    cfg = FluctuatorConfig.uniform(100.0, 4, 125.0)
    ens = EnsembleConfig(runs=1, shots=10, dt_fs=2.0, t_max_fs=10.0, master_seed=0)
    with pytest.raises(ConfigError):
        noise.run_ensemble(NEAR, cfg, ens)


def four_site_chain() -> SystemHamiltonian:
    j = np.zeros((4, 4))
    for k in range(3):
        j[k, k + 1] = j[k + 1, k] = 126.0
    return SystemHamiltonian(np.array([13000.0, 12900.0, 13000.0, 12900.0]), j)


def test_four_site_two_fluctuator_ensemble_matches_exact_mean():
    h = four_site_chain()
    cfg = FluctuatorConfig.uniform(300.0, 4, 125.0, fluctuators_per_site=2)
    ens = EnsembleConfig(runs=6, shots=200, dt_fs=2.0, t_max_fs=100.0, master_seed=21)
    serial = noise.run_ensemble(h, cfg, ens, workers=1)
    parallel = noise.run_ensemble(h, cfg, ens, workers=2)
    assert np.array_equal(serial.p_mean, parallel.p_mean)
    assert np.array_equal(serial.p_stderr, parallel.p_stderr)
    assert_blocks_join_to_one(h, cfg, ens, 2)

    # piecewise-exact populations of the same trajectories (first seed child)
    exact = []
    for r in range(ens.runs):
        traj_ss, _ = np.random.SeedSequence([ens.master_seed, r]).spawn(2)
        shifts = noise.generate_trajectory(cfg, ens.n_steps, ens.dt_fs, traj_ss)
        exact.append(reference.exact_trajectory_series(h, shifts, ens.dt_fs))
    exact = np.array(exact)
    # shot noise of the run mean, plus a Trotter allowance at dt = 2 fs
    sigma = np.sqrt((exact * (1.0 - exact)).sum(axis=0) / ens.shots) / ens.runs
    assert (np.abs(serial.p_mean - exact.mean(axis=0)) <= 5.0 * sigma + 0.01).all()


def test_ancilla_leak_in_iteration_circuit_is_rejected(monkeypatch):
    build = noise.build_iteration_circuit

    def leaky(h, dt_fs, signs, strengths_cm1):
        circuit = build(h, dt_fs, signs, strengths_cm1)
        ancilla = h.n_system_qubits
        return QuantumCircuit(circuit.num_qubits, circuit.gates + (Gate.x(ancilla),))

    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0)
    ens = EnsembleConfig(runs=2, shots=10, dt_fs=2.0, t_max_fs=8.0, master_seed=3)
    with monkeypatch.context() as patch:
        patch.setattr(noise, "build_iteration_circuit", leaky)
        with pytest.raises(NumericalValidationError, match="ancilla"):
            noise.run_ensemble(NEAR, cfg, ens)
    # NaN compares false with any tolerance, so each check asks for "within"
    with monkeypatch.context() as patch:
        patch.setattr(noise, "_execute_packed", lambda amps, n, segments: np.full_like(amps, np.nan))
        with pytest.raises(NumericalValidationError, match="leaked nan into the ancilla"):
            noise.run_ensemble(NEAR, cfg, ens)
    nan_steps = lambda h, cfg, dt_fs, patterns: np.full((len(patterns), 2, 2), np.nan, complex)
    monkeypatch.setattr(noise, "_step_unitaries", nan_steps)
    with pytest.raises(NumericalValidationError, match=r"norm\^2 drifted to nan"):
        noise.run_ensemble(NEAR, cfg, ens)


def test_step_unitaries_match_per_column_circuit_runs():
    h = four_site_chain()
    cfg = FluctuatorConfig.uniform(300.0, 4, 125.0, fluctuators_per_site=2)
    signs = np.array(list(itertools.product([0.5, -0.5], repeat=8)))
    patterns = signs.reshape(-1, 4, 2).sum(axis=-1)
    unitaries = noise._step_unitaries(h, cfg, 2.0, patterns)
    assert unitaries.shape == (256, 4, 4)

    n_sys = h.n_system_qubits
    dim = 1 << n_sys
    worst = 0.0
    for pattern, u in zip(patterns, unitaries):
        circuit = noise.build_iteration_circuit(h, 2.0, pattern, cfg.strengths_cm1)
        for m in range(dim):
            column = run(circuit, basis(n_sys + 1, dim | m))[dim:]
            worst = max(worst, np.abs(u[:, m] - column).max())
    assert worst <= 1e-14
    # the pattern-batched circuit's kron-oracle matrix keeps the ancilla at
    # |1>, and its |1>-block is each pattern's step unitary
    batched = noise.build_iteration_circuit(h, 2.0, patterns, cfg.strengths_cm1)
    oracle = circuit_matrix(batched)
    assert np.abs(oracle[:, dim:, dim:] - unitaries).max() <= 1e-14
    assert np.abs(oracle[:, :dim, dim:]).max() <= 1e-14
    gram = np.einsum("pki,pkj->pij", unitaries.conj(), unitaries)
    assert np.abs(gram - np.eye(dim)).max() <= 1e-12


@pytest.mark.parametrize(
    "n_sites, per_site, t_max_fs",
    [
        (2, 1, 120.0),  # 1-byte key of 2 counts
        (4, 2, 120.0),  # 4 sites
        (2, 40, 120.0),  # 80 signs per interval
        (2, 300, 120.0),  # 2-byte key: F does not fit in a byte
        (2, 512, 120.0),  # 2-byte key whose counts straddle 256
        (2, 3, 102.0),  # 51 steps: the last interval is cut short
        (2, 3, 0.0),  # no steps, no intervals
    ],
)
def test_sign_patterns_match_generated_trajectories(n_sites, per_site, t_max_fs):
    cfg = FluctuatorConfig.uniform(300.0, n_sites, 125.0, fluctuators_per_site=per_site)
    ens = EnsembleConfig(runs=9, shots=10, dt_fs=2.0, t_max_fs=t_max_fs, master_seed=17)
    runs = range(3, 12)
    patterns, pattern_index, shot_seeds = noise._sign_patterns(cfg, ens, runs)
    interval = cfg.switch_interval_steps(ens.dt_fs)
    assert patterns.shape[1] == n_sites and pattern_index.dtype == np.int32
    assert pattern_index.shape == (len(runs), -(-ens.n_steps // interval))

    rows = []
    for k, r in enumerate(runs):
        traj_ss, shot_ss = np.random.SeedSequence([ens.master_seed, r]).spawn(2)
        assert shot_seeds[k].spawn_key == shot_ss.spawn_key
        shifts = noise.generate_trajectory(cfg, ens.n_steps, ens.dt_fs, traj_ss)
        assert shifts.shape == (n_sites, ens.n_steps)
        for i in range(ens.n_steps):
            assert np.array_equal(patterns[pattern_index[k, i // interval]] * 300.0, shifts[:, i])
        rows.append(shifts[:, ::interval].T)
    # the distinct rows of per-site shifts, sorted as np.unique sorts them
    expected, inverse = np.unique(
        np.concatenate(rows).reshape(-1, n_sites), axis=0, return_inverse=True
    )
    assert np.array_equal(patterns * 300.0, expected)
    assert np.array_equal(pattern_index.reshape(-1), inverse.reshape(-1))


@pytest.mark.parametrize("master_seed", [0, 20260810, 2**64, 2**70 + 3])
def test_shot_seeds_are_the_second_spawned_child(master_seed):
    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0)
    ens = EnsembleConfig(runs=4, shots=10, dt_fs=2.0, t_max_fs=16.0, master_seed=master_seed)
    runs = range(5, 9)
    _, _, shot_seeds = noise._sign_patterns(cfg, ens, runs)
    assert len(shot_seeds) == len(runs)
    for r, seed in zip(runs, shot_seeds):
        expected = np.random.SeedSequence([master_seed, r]).spawn(2)[1]
        assert seed.entropy == expected.entropy
        assert seed.spawn_key == expected.spawn_key
        assert np.array_equal(seed.generate_state(8), expected.generate_state(8))


def per_step_frequencies(h, cfg, ens, runs):
    """The ensemble's shot frequencies with one gather per step, one
    normalisation over the whole block and then each run's multinomial."""
    interval = cfg.switch_interval_steps(ens.dt_fs)
    patterns, pattern_index, shot_seeds = noise._sign_patterns(cfg, ens, runs)
    unitaries = noise._step_unitaries(h, cfg, ens.dt_fs, patterns)
    states = np.zeros((len(runs), 1 << h.n_system_qubits), dtype=np.complex128)
    states[:, 0] = 1.0
    probs = [states.real**2 + states.imag**2]
    for i in range(ens.n_steps):
        states = np.einsum("rij,rj->ri", unitaries[pattern_index[:, i // interval]], states)
        probs.append(states.real**2 + states.imag**2)
    probs = np.clip(np.stack(probs, axis=1), 0.0, None)
    probs /= probs.sum(axis=2, keepdims=True)
    return np.stack(
        [
            np.random.default_rng(seed).multinomial(ens.shots, p) / ens.shots
            for seed, p in zip(shot_seeds, probs)
        ]
    )


@pytest.mark.parametrize(
    "n_sites, per_site, rate_thz, t_max_fs",
    [
        (2, 1, 125.0, 102.0),  # interval 4, 51 steps: the last interval is cut short
        (2, 1, 500.0, 40.0),  # interval 1
        (2, 1, 12.5, 60.0),  # interval 40 over 30 steps
        (2, 1, 12.5, 80.0),  # interval 40 over exactly 40 steps
        (2, 1, 125.0, 0.0),  # no steps
        (4, 2, 125.0, 60.0),  # 8 signs, dense 4-site gates
    ],
)
def test_run_frequencies_match_a_per_step_loop(n_sites, per_site, rate_thz, t_max_fs):
    h = NEAR if n_sites == 2 else four_site_chain()
    cfg = FluctuatorConfig.uniform(300.0, n_sites, rate_thz, fluctuators_per_site=per_site)
    ens = EnsembleConfig(runs=7, shots=300, dt_fs=2.0, t_max_fs=t_max_fs, master_seed=23)
    runs = range(2, 9)
    freqs = noise._run_frequencies(h, cfg, ens, runs)
    assert freqs.shape == (len(runs), ens.n_steps + 1, n_sites)
    assert np.array_equal(freqs, per_step_frequencies(h, cfg, ens, runs))


def test_ensemble_peak_memory_is_near_one_copy_of_the_frequencies():
    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0)
    ens = EnsembleConfig(runs=400, shots=5000, dt_fs=2.0, t_max_fs=600.0, master_seed=6)
    freq_bytes = ens.runs * (ens.n_steps + 1) * cfg.n_sites * 8
    import numpy.random  # noqa: F401  loaded lazily; trace the ensemble, not this import

    for workers in (1, 4):
        tracemalloc.start()
        try:
            result = noise.run_ensemble(NEAR, cfg, ens, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.p_mean.shape == (301, 2)
        # about 1.2x: the standard error is formed in the frequencies' own buffer
        assert peak < 1.4 * freq_bytes, (workers, peak / freq_bytes)


@pytest.mark.parametrize(
    "n_sites, per_site, rate_thz, runs",
    [(2, 1, 125.0, 250), (2, 1, 500.0, 100), (2, 40, 125.0, 100), (4, 2, 125.0, 50)],
    ids=["acceptance", "one-step-interval", "many-fluctuators", "four-sites"],
)
def test_ensemble_peak_memory_is_within_its_budget(monkeypatch, n_sites, per_site, rate_thz, runs):
    """check_ensemble_memory's need bounds the traced peak whichever phase
    sets it: the steps, the draw of one-step intervals, or the compile of
    many distinct patterns."""
    h = NEAR if n_sites == 2 else four_site_chain()
    cfg = FluctuatorConfig.uniform(300.0, n_sites, rate_thz, fluctuators_per_site=per_site)
    ens = EnsembleConfig(runs=runs, shots=100, dt_fs=2.0, t_max_fs=600.0, master_seed=6)
    needs = []
    monkeypatch.setattr(noise, "check_memory", lambda need, what: needs.append(need))
    import numpy.random  # noqa: F401  loaded lazily; trace the ensemble, not this import

    tracemalloc.start()
    try:
        noise.run_ensemble(h, cfg, ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(needs) == 1 and peak <= needs[0], peak / needs[0]


def test_sign_patterns_hold_one_run_of_bits_at_a_time():
    """check_ensemble_memory budgets one run's int64 sign bits for the draw."""
    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0, fluctuators_per_site=20_000)
    ens = EnsembleConfig(runs=3, shots=10, dt_fs=2.0, t_max_fs=300.0, master_seed=9)
    n_intervals = -(-ens.n_steps // cfg.switch_interval_steps(ens.dt_fs))
    bits_bytes = cfg.n_sites * cfg.fluctuators_per_site * n_intervals * 8
    tracemalloc.start()
    try:
        noise._sign_patterns(cfg, ens, range(ens.runs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * bits_bytes, peak / bits_bytes


def test_workers_below_one_rejected():
    cfg = FluctuatorConfig.uniform(100.0, 2, 125.0)
    ens = EnsembleConfig(runs=2, shots=10, dt_fs=2.0, t_max_fs=8.0, master_seed=0)
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="workers"):
            noise.run_ensemble(NEAR, cfg, ens, workers=workers)


def test_no_process_pool_is_started(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    calls = []
    run_frequencies = noise._run_frequencies

    def counted(*args):
        calls.append(args[-1])
        return run_frequencies(*args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(noise, "_run_frequencies", counted)
    cfg = FluctuatorConfig.uniform(300.0, 2, 125.0)
    ens = EnsembleConfig(runs=5, shots=50, dt_fs=2.0, t_max_fs=40.0, master_seed=8)
    many = noise.run_ensemble(NEAR, cfg, ens, workers=1000)
    one = noise.run_ensemble(NEAR, cfg, ens, workers=1)
    assert calls == [range(5), range(5)]
    assert np.array_equal(many.p_mean, one.p_mean)
    assert np.array_equal(many.p_stderr, one.p_stderr)
