"""Network training, the gradient oracle, and predictor serialization."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hra_forge import ann
from hra_forge.ann import (
    PLATEAU_WINDOW,
    Topology,
    EnsembleMember,
    TrainedPredictor,
    TrainingConfig,
    WeightSet,
    default_topology,
    forward,
    forward_batch,
    init_weights,
    load_predictor,
    loss_and_gradient,
    metrics,
    parse_training_config,
    save_predictor,
    train_one,
    train_replicated,
)
from hra_forge.dataset import bundled_reference_fit, bundled_table2
from hra_forge.errors import InputError, NumericalError, TrainingDivergedError
from hra_forge.psf import PSF_ORDER


def numeric_gradient(weights, X, y, step=1e-5):
    """Central-difference gradient over every parameter, flattened."""

    def loss_at(flat):
        w1 = flat[: weights.w_hidden.size].reshape(weights.w_hidden.shape)
        used = weights.w_hidden.size
        b1 = flat[used : used + weights.b_hidden.size]
        used += weights.b_hidden.size
        w2 = flat[used : used + weights.w_output.size]
        used += weights.w_output.size
        b2 = float(flat[used])
        ws = WeightSet(w1, b1, w2, b2)
        pred = forward_batch(ws, X)
        return float(np.mean((pred - y) ** 2))

    flat = np.concatenate(
        [
            weights.w_hidden.ravel(),
            weights.b_hidden,
            weights.w_output,
            [weights.b_output],
        ]
    )
    grad = np.empty_like(flat)
    for i in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (loss_at(hi) - loss_at(lo)) / (2 * step)
    return grad


def serial_train_one(X, y, topology, config, seed):
    """Reference trainer: one network, one epoch loop, no batching.

    The batched trainer must reproduce it bit for bit. Returns
    (weights, trace) or raises TrainingDivergedError like ``train_one``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    ws = init_weights(topology, seed)
    w1 = ws.w_hidden.copy()
    b1 = ws.b_hidden.copy()
    w2 = ws.w_output.copy()
    b2 = ws.b_output
    lr = config.learning_rate
    n = X.shape[0]
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            hidden = 1.0 / (1.0 + np.exp(-(X @ w1.T + b1)))
            out = 1.0 / (1.0 + np.exp(-(hidden @ w2 + b2)))
            err = out - y
            loss = float(err @ err) / n
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, seed)
            trace.append(loss)
            if epoch >= PLATEAU_WINDOW and trace[epoch - PLATEAU_WINDOW] - loss < config.loss_tolerance:
                break
            d_out = (2.0 / n) * err * out * (1.0 - out)
            d_hidden = np.outer(d_out, w2) * hidden * (1.0 - hidden)
            w1 -= lr * (d_hidden.T @ X)
            b1 -= lr * d_hidden.sum(axis=0)
            w2 -= lr * (hidden.T @ d_out)
            b2 -= lr * float(d_out.sum())
    return WeightSet(w1, b1, w2, b2), trace


def assert_same_weights(a, b):
    assert np.array_equal(a.w_hidden, b.w_hidden)
    assert np.array_equal(a.b_hidden, b.b_hidden)
    assert np.array_equal(a.w_output, b.w_output)
    assert a.b_output == b.b_output


def assert_matches_serial(X, y, topology, config):
    """Every ensemble member and every ``train_one`` run equals the oracle.

    Returns the oracle's trace length per seed (None for a diverged seed).
    """
    seeds = [config.seed + k for k in range(config.n_replications)]
    oracle = {}
    for seed in seeds:
        try:
            oracle[seed] = serial_train_one(X, y, topology, config, seed)
        except TrainingDivergedError as exc:
            oracle[seed] = exc
    for seed in seeds:
        expected = oracle[seed]
        if isinstance(expected, TrainingDivergedError):
            with pytest.raises(TrainingDivergedError) as err:
                train_one(X, y, topology, config, seed)
            assert (err.value.epoch, err.value.seed) == (expected.epoch, seed)
        else:
            weights, trace = train_one(X, y, topology, config, seed)
            assert_same_weights(weights, expected[0])
            assert trace == expected[1]
    kept = [s for s in seeds if not isinstance(oracle[s], TrainingDivergedError)]
    active = PSF_ORDER[: topology.n_inputs]
    maxima = {p: 1.0 for p in active}
    config = replace(config, hidden_nodes=topology.n_hidden)
    if not kept:
        with pytest.raises(NumericalError):
            train_replicated(X, y, config, active, maxima)
        return {s: None for s in seeds}
    pred = train_replicated(X, y, config, active, maxima)
    assert pred.topology == topology
    assert [m.seed for m in pred.members] == kept
    assert pred.dropped_seeds == tuple(s for s in seeds if s not in kept)
    for member in pred.members:
        weights, trace = oracle[member.seed]
        assert_same_weights(member.weights, weights)
        assert member.final_loss == trace[-1]
    return {s: None if s not in kept else len(oracle[s][1]) for s in seeds}


def flatten_grads(grads):
    gw1, gb1, gw2, gb2 = grads
    return np.concatenate([gw1.ravel(), gb1, gw2, [gb2]])


class TestGradient:
    def test_matches_central_differences_on_20_networks(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n_in = int(rng.integers(1, 6))
            n_hid = int(rng.integers(1, 7))
            n = int(rng.integers(2, 9))
            topo = Topology(n_in, n_hid)
            weights = init_weights(topo, 1000 + trial)
            X = rng.uniform(0.0, 1.0, (n, n_in))
            y = rng.uniform(0.05, 0.95, n)
            loss, grads = loss_and_gradient(weights, X, y)
            analytic = flatten_grads(grads)
            numeric = numeric_gradient(weights, X, y)
            denom = max(float(np.linalg.norm(analytic) + np.linalg.norm(numeric)), 1e-8)
            rel = float(np.linalg.norm(analytic - numeric)) / denom
            assert rel <= 1e-6, f"trial {trial}: relative gradient error {rel}"

    def test_loss_value_matches_forward(self):
        topo = Topology(2, 3)
        weights = init_weights(topo, 9)
        X = np.array([[0.1, 0.9], [0.5, 0.5]])
        y = np.array([0.3, 0.7])
        loss, _ = loss_and_gradient(weights, X, y)
        pred = forward_batch(weights, X)
        assert loss == pytest.approx(float(np.mean((pred - y) ** 2)), rel=1e-14)

    @pytest.mark.parametrize("n_in, n_hid, n, seed", [(1, 1, 2, 3), (3, 5, 7, 8), (8, 8, 15, 21)])
    def test_one_training_epoch_applies_the_checked_gradient(self, n_in, n_hid, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (n, n_in))
        y = rng.uniform(0.05, 0.95, n)
        topo = Topology(n_in, n_hid)
        config = TrainingConfig(max_epochs=1)
        trained, trace = train_one(X, y, topo, config, seed)
        start = init_weights(topo, seed)
        loss, (g_w1, g_b1, g_w2, g_b2) = loss_and_gradient(start, X, y)
        lr = config.learning_rate
        assert trace == [loss]
        assert np.array_equal(trained.w_hidden, start.w_hidden - lr * g_w1)
        assert np.array_equal(trained.b_hidden, start.b_hidden - lr * g_b1)
        assert np.array_equal(trained.w_output, start.w_output - lr * g_w2)
        assert trained.b_output == start.b_output - lr * g_b2


class TestInit:
    def test_deterministic(self):
        a = init_weights(Topology(4, 4), 7)
        b = init_weights(Topology(4, 4), 7)
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert np.array_equal(a.b_hidden, b.b_hidden)
        assert np.array_equal(a.w_output, b.w_output)
        assert a.b_output == b.b_output

    def test_seed_changes_weights(self):
        a = init_weights(Topology(4, 4), 7)
        b = init_weights(Topology(4, 4), 8)
        assert not np.array_equal(a.w_hidden, b.w_hidden)

    def test_bounds(self):
        w = init_weights(Topology(6, 6), 3)
        for arr in (w.w_hidden, w.b_hidden, w.w_output, [w.b_output]):
            assert np.all(np.asarray(arr) >= -0.5)
            assert np.all(np.asarray(arr) < 0.5)

    def test_default_topology(self):
        topo = default_topology(8)
        assert (topo.n_inputs, topo.n_hidden) == (8, 8)
        assert default_topology(7, 3).n_hidden == 3


class TestForward:
    def test_zero_weights_give_half(self):
        topo = Topology(3, 2)
        w = WeightSet(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.0)
        assert forward(w, [0.2, 0.4, 0.9]) == 0.5

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(0)
        w = init_weights(Topology(5, 4), 11)
        X = rng.uniform(0, 1, (50, 5))
        out = forward_batch(w, X)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dimension_mismatch(self):
        w = init_weights(Topology(3, 2), 1)
        with pytest.raises(InputError):
            forward(w, [0.1, 0.2])


class TestTrainOne:
    def test_single_pair_interpolates(self):
        X = np.array([[0.3, 0.7]])
        y = np.array([0.4])
        cfg = TrainingConfig(max_epochs=20000, learning_rate=2.0, loss_tolerance=1e-12)
        _, trace = train_one(X, y, Topology(2, 2), cfg, 1)
        assert trace[-1] < 1e-6

    def test_trace_starts_at_initial_loss(self):
        X = np.array([[0.2, 0.8], [0.9, 0.1]])
        y = np.array([0.3, 0.6])
        topo = Topology(2, 2)
        cfg = TrainingConfig(max_epochs=5)
        w0 = init_weights(topo, 4)
        pred0 = forward_batch(w0, X)
        _, trace = train_one(X, y, topo, cfg, 4)
        assert trace[0] == pytest.approx(float(np.mean((pred0 - y) ** 2)), rel=1e-14)
        assert len(trace) == 5

    def test_duplicated_rows_do_not_change_training(self):
        X = np.array([[0.2, 0.8], [0.9, 0.1], [0.4, 0.4]])
        y = np.array([0.3, 0.6, 0.5])
        cfg = TrainingConfig(max_epochs=500)
        topo = Topology(2, 3)
        w_once, _ = train_one(X, y, topo, cfg, 5)
        w_twice, _ = train_one(np.vstack([X, X]), np.concatenate([y, y]), topo, cfg, 5)
        assert np.allclose(w_once.w_hidden, w_twice.w_hidden, atol=1e-12)
        assert np.allclose(w_once.w_output, w_twice.w_output, atol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (8, 3))
        y = rng.uniform(0.1, 0.9, 8)
        perm = rng.permutation(8)
        cfg = TrainingConfig(max_epochs=300)
        topo = Topology(3, 3)
        a, _ = train_one(X, y, topo, cfg, 2)
        b, _ = train_one(X[perm], y[perm], topo, cfg, 2)
        assert np.allclose(a.w_hidden, b.w_hidden, atol=1e-12)

    def test_plateau_stop(self):
        X = np.array([[0.3, 0.7], [0.6, 0.2]])
        y = np.array([0.4, 0.5])
        cfg = TrainingConfig(max_epochs=50000, loss_tolerance=1e-4)
        _, trace = train_one(X, y, Topology(2, 2), cfg, 1)
        assert len(trace) < 50000
        assert trace[len(trace) - 1 - PLATEAU_WINDOW] - trace[-1] < 1e-4

    def test_divergence_raises(self):
        X = np.array([[0.5, 0.5]])
        y = np.array([1e300])
        cfg = TrainingConfig(max_epochs=50)
        with pytest.raises(TrainingDivergedError) as err:
            train_one(X, y, Topology(2, 2), cfg, 7)
        assert err.value.seed == 7

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            train_one(np.zeros((0, 2)), np.zeros(0), Topology(2, 2), TrainingConfig(), 1)


class TestEnsemble:
    def test_member_seeds_and_averaging(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (10, 3))
        y = rng.uniform(0.1, 0.9, 10)
        cfg = TrainingConfig(seed=5, max_epochs=200, n_replications=4)
        active = PSF_ORDER[:3]
        maxima = {p: 1.0 for p in active}
        pred = train_replicated(X, y, cfg, active, maxima)
        assert [m.seed for m in pred.members] == [5, 6, 7, 8]
        assert pred.dropped_seeds == ()
        mean = np.mean([forward_batch(m.weights, X) for m in pred.members], axis=0)
        assert np.allclose(pred.predict_normalized(X), mean, atol=1e-15)

    def test_all_divergent_raises(self):
        X = np.array([[0.5, 0.5]])
        y = np.array([1e300])
        cfg = TrainingConfig(max_epochs=20, n_replications=3)
        active = PSF_ORDER[:2]
        with pytest.raises(NumericalError):
            train_replicated(X, y, cfg, active, {p: 1.0 for p in active})

    def test_members_match_train_one(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (12, 4))
        y = rng.uniform(0.1, 0.9, 12)
        cfg = TrainingConfig(seed=3, max_epochs=300, n_replications=5)
        active = PSF_ORDER[:4]
        pred = train_replicated(X, y, cfg, active, {p: 1.0 for p in active})
        assert [m.seed for m in pred.members] == [3, 4, 5, 6, 7]
        for k, member in enumerate(pred.members):
            weights, trace = train_one(X, y, pred.topology, cfg, cfg.seed + k)
            assert np.array_equal(member.weights.w_hidden, weights.w_hidden)
            assert np.array_equal(member.weights.b_hidden, weights.b_hidden)
            assert np.array_equal(member.weights.w_output, weights.w_output)
            assert member.weights.b_output == weights.b_output
            assert member.final_loss == trace[-1]

    def test_training_buffers_do_not_leak(self, monkeypatch):
        # training works in place; what it returns must own its memory
        made = []

        class RecordingWorkspace(ann._Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(ann, "_Workspace", RecordingWorkspace)
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (7, 3))
        y = rng.uniform(0.1, 0.9, 7)
        X_before, y_before = X.copy(), y.copy()
        cfg = TrainingConfig(seed=1, max_epochs=400, learning_rate=1.0,
                             loss_tolerance=1e-3, n_replications=4)
        active = PSF_ORDER[:3]
        pred = train_replicated(X, y, cfg, active, {p: 1.0 for p in active})
        one, _ = train_one(X, y, pred.topology, cfg, 9)
        assert np.array_equal(X, X_before) and np.array_equal(y, y_before)
        # three members stopped early, at three epochs: three rebuilds
        assert len(made) == 5
        weights = [m.weights for m in pred.members] + [one]
        arrays = [a for w in weights for a in (w.w_hidden, w.b_hidden, w.w_output)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        buffers = [v for ws in made for v in vars(ws).values() if isinstance(v, np.ndarray)]
        for a in arrays:
            for b in buffers:
                assert not np.shares_memory(a, b)

    def test_predict_rejects_wrong_input_width(self):
        active = PSF_ORDER[:3]
        member = EnsembleMember(1, init_weights(Topology(3, 2), 1), 0.0)
        pred = TrainedPredictor(Topology(3, 2), (member,), active, {p: 1.0 for p in active})
        with pytest.raises(InputError, match="input has 2 components, network expects 3"):
            pred.predict_normalized(np.zeros((4, 2)))

    def test_predict_instances_uses_maxima(self):
        obs = bundled_table2()
        X, maxima = obs.normalized(PSF_ORDER)
        cfg = TrainingConfig(max_epochs=500, n_replications=2)
        pred = train_replicated(X, obs.targets(), cfg, PSF_ORDER, maxima)
        direct = pred.predict_normalized(X)
        via_instances = pred.predict_instances(obs)
        assert np.allclose(direct, via_instances, atol=1e-15)


class TestBatchedMatchesSerial:
    """The batched trainer against the serial one-network oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 20),
        n_inputs=st.integers(1, 8),
        n_hidden=st.integers(1, 8),
        replications=st.integers(1, 6),
        max_epochs=st.integers(1, 400),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 10_000),
        learning_rate=st.floats(0.1, 20.0),
        tolerance_exponent=st.floats(-8.0, -2.0),
    )
    def test_random_problems(self, n, n_inputs, n_hidden, replications, max_epochs,
                             data_seed, seed, learning_rate, tolerance_exponent):
        rng = np.random.default_rng(data_seed)
        X = rng.uniform(0, 1, (n, n_inputs))
        y = rng.uniform(0, 1, n)
        cfg = TrainingConfig(
            seed=seed,
            max_epochs=max_epochs,
            learning_rate=learning_rate,
            loss_tolerance=10.0 ** tolerance_exponent,
            n_replications=replications,
        )
        assert_matches_serial(X, y, Topology(n_inputs, n_hidden), cfg)

    def test_staggered_stops_and_epoch_cap(self):
        # members stop at five different epochs, two run to the cap, so the
        # live set is compacted several times before the loop ends
        rng = np.random.default_rng(14)
        X = rng.uniform(0, 1, (5, 2))
        y = rng.uniform(0.1, 0.9, 5)
        cfg = TrainingConfig(seed=1, max_epochs=300, learning_rate=0.5,
                             loss_tolerance=1e-4, n_replications=6)
        lengths = assert_matches_serial(X, y, Topology(2, 2), cfg)
        assert sorted(lengths.values()) == [101, 116, 139, 223, 300, 300]

    def test_all_diverge_at_once(self):
        X = np.array([[0.5, 0.5], [0.1, 0.9]])
        y = np.array([1e300, 0.5])
        cfg = TrainingConfig(max_epochs=20, n_replications=3)
        lengths = assert_matches_serial(X, y, Topology(2, 3), cfg)
        assert set(lengths.values()) == {None}

    def test_epoch_cap_far_above_the_epochs_run(self):
        # the trace grows with the epochs run: a cap of 10**12 epochs would
        # need terabytes up front, and these stops cross several doublings
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (6, 3))
        y = rng.uniform(0.1, 0.9, 6)
        topology = Topology(3, 3)
        cfg = TrainingConfig(seed=1, max_epochs=10**12, learning_rate=1.0,
                             loss_tolerance=1e-4, n_replications=4)
        seeds = [1, 2, 3, 4]
        lengths = []
        for seed, (weights, trace) in zip(seeds, ann._train_seeds(X, y, topology, cfg, seeds)):
            expected_weights, expected_trace = serial_train_one(X, y, topology, cfg, seed)
            assert_same_weights(weights, expected_weights)
            assert trace.tolist() == expected_trace
            lengths.append(len(trace))
        assert sorted(lengths) == [2024, 4809, 6207, 7065]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (9, 3))
        y = rng.uniform(0.1, 0.9, 9)
        cfg = TrainingConfig(max_epochs=200, n_replications=3)
        active = PSF_ORDER[:3]
        pred = train_replicated(X, y, cfg, active, {p: float(i + 1) for i, p in enumerate(active)})
        path = tmp_path / "net.txt"
        save_predictor(pred, path)
        again = load_predictor(path)
        assert again.active_psfs == pred.active_psfs
        assert again.maxima == pred.maxima
        assert len(again.members) == 3
        for a, b in zip(pred.members, again.members):
            assert a.seed == b.seed
            assert np.array_equal(a.weights.w_hidden, b.weights.w_hidden)
            assert np.array_equal(a.weights.b_hidden, b.weights.b_hidden)
            assert np.array_equal(a.weights.w_output, b.weights.w_output)
            assert a.weights.b_output == b.weights.b_output
        assert np.array_equal(again.predict_normalized(X), pred.predict_normalized(X))

    @pytest.mark.parametrize("values", ["1", "1 2 3"], ids=["short", "long"])
    def test_maxima_must_match_active(self, tmp_path, values):
        rng = np.random.default_rng(2)
        active = PSF_ORDER[:2]
        pred = train_replicated(
            rng.uniform(0, 1, (5, 2)), rng.uniform(0.1, 0.9, 5),
            TrainingConfig(max_epochs=50, n_replications=1), active,
            {p: 1.0 for p in active},
        )
        with pytest.raises(InputError, match="one value per active PSF"):
            replace(pred, maxima={PSF_ORDER[0]: 1.0})
        with pytest.raises(InputError, match="one value per active PSF"):
            replace(pred, maxima={PSF_ORDER[0]: 1.0, PSF_ORDER[2]: 1.0})
        path = tmp_path / "net.txt"
        save_predictor(pred, path)
        lines = path.read_text().splitlines()
        lines[3] = "maxima " + values
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=r"net\.txt: "):
            load_predictor(path)

    def test_member_weights_must_match_topology(self, tmp_path):
        rng = np.random.default_rng(2)
        active = PSF_ORDER[:3]
        pred = train_replicated(
            rng.uniform(0, 1, (5, 3)), rng.uniform(0.1, 0.9, 5),
            TrainingConfig(max_epochs=50, n_replications=2), active,
            {p: 1.0 for p in active},
        )
        with pytest.raises(InputError, match="has weights for 3 inputs and 3 hidden units, "
                                             "topology is 3 inputs and 4 hidden units"):
            replace(pred, topology=Topology(3, 4))
        path = tmp_path / "net.txt"
        save_predictor(pred, path)
        lines = [" ".join(line.split()[:-1]) if line.startswith("wh ") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=r"net\.txt: member 1 has weights for 2 inputs"):
            load_predictor(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a predictor\n")
        with pytest.raises(InputError):
            load_predictor(path)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (5, 2))
        y = rng.uniform(0.1, 0.9, 5)
        cfg = TrainingConfig(max_epochs=50, n_replications=1)
        active = PSF_ORDER[:2]
        pred = train_replicated(X, y, cfg, active, {p: 1.0 for p in active})
        path = tmp_path / "net.txt"
        save_predictor(pred, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(InputError, match="malformed predictor file: line 10: cannot "
                                             "read a 'wo' line from the end of the file$"):
            load_predictor(path)

    @pytest.mark.parametrize("lineno, line, message", [
        (2, "topology 8 8 2", "line 2: only single-output networks are supported"),
        (2, "topology 2 2", "line 2: cannot read a 'topology' line from 'topology 2 2'"),
        (5, "ensemble x", "line 5: cannot read a 'ensemble' line from 'ensemble x'"),
        (7, "bh 0.1 0.2", "line 7: cannot read a 'wh' line from 'bh 0.1 0.2'"),
        (8, "wh 0.1", "line 8: cannot read a 'wh' line from 'wh 0.1'"),
    ], ids=["two-outputs", "short-topology", "bad-count", "wrong-key", "ragged-weights"])
    def test_malformed_line_is_named(self, tmp_path, lineno, line, message):
        rng = np.random.default_rng(2)
        active = PSF_ORDER[:2]
        pred = train_replicated(
            rng.uniform(0, 1, (5, 2)), rng.uniform(0.1, 0.9, 5),
            TrainingConfig(max_epochs=50, n_replications=1), active,
            {p: 1.0 for p in active},
        )
        path = tmp_path / "net.txt"
        save_predictor(pred, path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError) as info:
            load_predictor(path)
        assert str(info.value) == f"{path}: malformed predictor file: {message}"


class TestConfigParsing:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.seed == 1
        assert cfg.max_epochs == 50000
        assert cfg.learning_rate == 2.0
        assert cfg.loss_tolerance == 1e-6
        assert cfg.n_replications == 10
        assert cfg.hidden_nodes is None

    def test_parse_overrides(self):
        cfg = parse_training_config(
            "seed=9\nepochs=100\nlearning_rate=0.5\n"
            "tolerance=1e-8\nreplications=3\nhidden_nodes=4\n"
        )
        assert cfg.seed == 9
        assert cfg.max_epochs == 100
        assert cfg.learning_rate == 0.5
        assert cfg.loss_tolerance == 1e-8
        assert cfg.n_replications == 3
        assert cfg.hidden_nodes == 4

    def test_comments_and_blanks(self):
        cfg = parse_training_config("# comment\n\nseed=3\n")
        assert cfg.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError) as err:
            parse_training_config("sead=3\n")
        assert "sead" in str(err.value)

    def test_bad_value_rejected(self):
        with pytest.raises(InputError):
            parse_training_config("epochs=many\n")

    def test_invalid_config_values(self):
        with pytest.raises(InputError):
            TrainingConfig(max_epochs=0)
        with pytest.raises(InputError):
            TrainingConfig(learning_rate=-1.0)
        with pytest.raises(InputError):
            TrainingConfig(n_replications=0)
        with pytest.raises(InputError, match="seed must be >= 0, got -4"):
            TrainingConfig(seed=-4)


class TestTrainingCaps:
    @pytest.mark.parametrize("field, key, cap", [
        ("n_replications", "replications", ann.MAX_REPLICATIONS),
        ("hidden_nodes", "hidden_nodes", ann.MAX_HIDDEN_NODES),
    ])
    def test_cap_plus_one_rejected(self, field, key, cap):
        # only cap + 1: the check comes before any allocation
        with pytest.raises(InputError) as err:
            TrainingConfig(**{field: cap + 1})
        assert f"{field} (config key {key}" in str(err.value)
        assert str(err.value).endswith(f") must be at most {cap}, got {cap + 1}")
        with pytest.raises(InputError, match=f"config key {key}"):
            parse_training_config(f"{key}={cap + 1}\n")


class TestMetrics:
    def test_reference_columns(self):
        observed, predicted = bundled_reference_fit()
        report = metrics(np.array(predicted), np.array(observed))
        assert report.mse == pytest.approx(5.2316e-4, abs=1e-8)
        assert len(report.se) == 15
        assert report.se[0] == pytest.approx((0.134 - 0.155) ** 2, rel=1e-12)

    def test_perfect_fit(self):
        y = np.array([0.2, 0.4, 0.6])
        report = metrics(y, y)
        assert report.mse == 0.0
        assert report.r2 == 1.0

    def test_r2_none_on_constant_observed(self):
        report = metrics(np.array([0.2, 0.3]), np.array([0.5, 0.5]))
        assert report.r2 is None

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            metrics(np.array([0.1]), np.array([0.1, 0.2]))
