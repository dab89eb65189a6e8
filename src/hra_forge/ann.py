"""Small feedforward regressor mapping normalized PSF vectors to HEP.

One hidden layer, logistic squashing on hidden and output units (the output
squash keeps every prediction a valid probability), trained by full-batch
gradient descent on mean squared error. Because random initialization gives
the tiny network visibly different fits, training is replicated from several
seeds and the ensemble predicts with the arithmetic mean of its members'
outputs. Averaging weights instead would be meaningless: hidden units can be
permuted freely, so weight vectors from different runs do not correspond.

All replicas train together. Their parameters are one (R, P) block, one
row per network (``_block``), and a ``_Workspace`` holds that block, views of
it as stacked weight arrays, and every activation, error, delta, loss and
gradient array an epoch writes. One forward pass (``_forward``), one loss
(``_loss``) and one backward pass (``_gradients``) work in place in a
workspace and serve training, prediction and the gradient check; prediction
and the gradient check build a fresh workspace per call, training builds one
per live set (see ``_train_seeds``). ``train_one`` is the one-seed case of
the one training loop, and each ensemble member is bit-for-bit the network
``train_one`` trains from the same seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError, TrainingDivergedError
from .ioutil import atomic_write_text, fmt_full, load
from .psf import PsfId

#: Epoch window for the plateau stopping rule: training stops when the loss
#: improvement over this many epochs falls below the configured tolerance.
PLATEAU_WINDOW = 100

#: Epochs the loss trace has room for before its first doubling.
_TRACE_BLOCK = 1024

_PREDICTOR_MAGIC = "hra-forge predictor v1"


@dataclass(frozen=True)
class Topology:
    """Layer sizes: inputs = active PSFs, hidden defaults to inputs, one output."""

    n_inputs: int
    n_hidden: int

    def __post_init__(self):
        if self.n_inputs < 1 or self.n_hidden < 1:
            raise InputError("topology layer sizes must be >= 1")


def default_topology(n_inputs: int, n_hidden: Optional[int] = None) -> Topology:
    """Hidden-layer width equals the input count unless overridden."""
    return Topology(n_inputs, n_inputs if n_hidden is None else n_hidden)


@dataclass(frozen=True)
class WeightSet:
    """All network parameters. Arrays are read-only after construction."""

    w_hidden: np.ndarray  # (n_hidden, n_inputs)
    b_hidden: np.ndarray  # (n_hidden,)
    w_output: np.ndarray  # (n_hidden,)
    b_output: float

    def __post_init__(self):
        w1 = np.asarray(self.w_hidden, dtype=float)
        b1 = np.asarray(self.b_hidden, dtype=float)
        w2 = np.asarray(self.w_output, dtype=float)
        if w1.ndim != 2 or b1.shape != (w1.shape[0],) or w2.shape != (w1.shape[0],):
            raise InputError("weight array shapes are inconsistent")
        if not (np.isfinite(w1).all() and np.isfinite(b1).all()
                and np.isfinite(w2).all() and np.isfinite(self.b_output)):
            raise InputError("weights must be finite")
        for arr in (w1, b1, w2):
            arr.setflags(write=False)
        object.__setattr__(self, "w_hidden", w1)
        object.__setattr__(self, "b_hidden", b1)
        object.__setattr__(self, "w_output", w2)
        object.__setattr__(self, "b_output", float(self.b_output))

    @property
    def topology(self) -> Topology:
        return Topology(self.w_hidden.shape[1], self.w_hidden.shape[0])


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for one training campaign.

    ``loss_tolerance`` feeds the plateau rule: stop once the loss improves by
    less than this over PLATEAU_WINDOW epochs. ``hidden_nodes`` overrides the
    hidden-equals-inputs default when set.
    """

    seed: int = 1
    max_epochs: int = 50000
    learning_rate: float = 2.0
    loss_tolerance: float = 1e-6
    n_replications: int = 10
    hidden_nodes: Optional[int] = None

    def __post_init__(self):
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.max_epochs < 1:
            raise InputError("max_epochs must be >= 1")
        if not self.learning_rate > 0:
            raise InputError("learning_rate must be positive")
        if not self.loss_tolerance > 0:
            raise InputError("loss_tolerance must be positive")
        if self.n_replications < 1:
            raise InputError("n_replications must be >= 1")
        if self.hidden_nodes is not None and self.hidden_nodes < 1:
            raise InputError("hidden_nodes must be >= 1")


@dataclass(frozen=True)
class EnsembleMember:
    seed: int
    weights: WeightSet
    final_loss: float


@dataclass(frozen=True)
class TrainedPredictor:
    """A replicated-restart ensemble plus the context needed to apply it."""

    topology: Topology
    members: tuple[EnsembleMember, ...]
    active_psfs: tuple[PsfId, ...]
    maxima: dict[PsfId, float]
    dropped_seeds: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.members:
            raise InputError("ensemble must have at least one member")
        if len(self.active_psfs) != self.topology.n_inputs:
            raise InputError("active PSF count must equal the input count")
        if self.maxima.keys() != set(self.active_psfs):
            raise InputError("maxima must hold one value per active PSF")
        for m in self.members:
            if m.weights.topology != self.topology:
                have, want = m.weights.topology, self.topology
                raise InputError(
                    f"member {m.seed} has weights for {have.n_inputs} inputs and "
                    f"{have.n_hidden} hidden units, topology is {want.n_inputs} "
                    f"inputs and {want.n_hidden} hidden units"
                )

    def predict_normalized(self, X) -> np.ndarray:
        """Ensemble-mean HEP for rows of normalized inputs."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # one member at a time: stacking all members multiplies the size of
        # the (members, rows, hidden) temporaries by the member count
        preds = [forward_batch(m.weights, X) for m in self.members]
        return np.mean(preds, axis=0)

    def predict_instances(self, obs) -> np.ndarray:
        """Predict HEP for raw-multiplier instances using the stored maxima."""
        X = obs.matrix(self.active_psfs)
        scale = np.array([self.maxima[p] for p in self.active_psfs])
        return self.predict_normalized(X / scale)


@dataclass(frozen=True)
class MetricReport:
    """Per-instance squared errors plus their mean and the determination
    coefficient (None when the observed values have zero variance)."""

    se: tuple[float, ...]
    mse: float
    r2: Optional[float]


def init_weights(topology: Topology, seed: int) -> WeightSet:
    """Uniform [-0.5, 0.5] initialization, deterministic per (topology, seed).

    Draw order is fixed (hidden weights, hidden biases, output weights,
    output bias) so serialized runs replay exactly.
    """
    rng = np.random.default_rng(seed)
    return WeightSet(
        w_hidden=rng.uniform(-0.5, 0.5, size=(topology.n_hidden, topology.n_inputs)),
        b_hidden=rng.uniform(-0.5, 0.5, size=topology.n_hidden),
        w_output=rng.uniform(-0.5, 0.5, size=topology.n_hidden),
        b_output=rng.uniform(-0.5, 0.5),
    )


def _block(weight_sets: Sequence[WeightSet]) -> np.ndarray:
    """The networks' parameters as one (R, P) block, P = H*I + 2H + 1: one
    row per network, holding w_hidden (row-major), b_hidden, w_output and
    b_output in that order."""
    return np.array([
        np.concatenate((w.w_hidden.ravel(), w.b_hidden, w.w_output, (w.b_output,)))
        for w in weight_sets
    ])


def _unpack(block: np.ndarray, topology: Topology):
    """Views of a ``_block``-shaped array as stacked (R, H, I), (R, H), (R, H)
    and (R,) arrays, in WeightSet field order. Writing a view writes the block."""
    h, a = topology.n_hidden, topology.n_hidden * topology.n_inputs
    return (
        block[:, :a].reshape(-1, h, topology.n_inputs),
        block[:, a:a + h],
        block[:, a + h:a + 2 * h],
        block[:, a + 2 * h],
    )


class _Workspace:
    """R stacked networks on n rows: their parameter block and every array
    the passes write, allocated once.

    ``params`` is the (R, P) block of ``_block`` and ``w1``, ``b1``, ``w2``
    and ``b2`` are views into it; ``grads`` has the same layout and
    ``_gradients`` fills it through ``g_w1`` ... ``g_b2``, so one training
    update is one subtraction of blocks. The transposed and broadcast views
    the passes read are made here as well, so a pass allocates nothing.
    ``backward=False`` leaves out the arrays only ``_gradients`` needs.
    """

    def __init__(self, params: np.ndarray, topology: Topology, n: int,
                 backward: bool = True):
        r, h = params.shape[0], topology.n_hidden
        self.topology = topology
        self.n = n
        self.params = params
        self.w1, self.b1, self.w2, self.b2 = _unpack(params, topology)
        self.w1_t = self.w1.transpose(0, 2, 1)
        self.b1_row = self.b1[:, None, :]
        self.w2_col = self.w2[:, :, None]
        self.b2_col = self.b2[:, None]
        self.hidden = np.empty((r, n, h))
        self.out_col = np.empty((r, n, 1))
        self.out = self.out_col[:, :, 0]
        self.err = np.empty((r, n))
        self.err_row = self.err[:, None, :]
        self.err_col = self.err[:, :, None]
        self.loss_cell = np.empty((r, 1, 1))
        self.loss = self.loss_cell[:, 0, 0]
        if not backward:
            return
        self.gain = np.empty(r)  # each replica's loss drop over the plateau window
        self.grads = np.empty_like(params)
        self.g_w1, self.g_b1, self.g_w2, self.g_b2 = _unpack(self.grads, topology)
        self.g_w2_col = self.g_w2[:, :, None]
        self.w2_row = self.w2[:, None, :]
        self.hidden_t = self.hidden.transpose(0, 2, 1)
        self.out_slope = np.empty((r, n))  # 1 - out
        self.d_out_col = np.empty((r, n, 1))
        self.d_out = self.d_out_col[:, :, 0]
        self.hidden_slope = np.empty((r, n, h))  # 1 - hidden
        self.d_hidden = np.empty((r, n, h))
        self.d_hidden_t = self.d_hidden.transpose(0, 2, 1)

    def keep(self, rows) -> "_Workspace":
        """A new workspace for the networks that the boolean ``rows`` selects,
        holding their parameters, activations and errors."""
        kept = _Workspace(self.params[rows], self.topology, self.n)
        kept.hidden[...] = self.hidden[rows]
        kept.out[...] = self.out[rows]
        kept.err[...] = self.err[rows]
        return kept


def _squash(z):
    """The logistic 1 / (1 + exp(-z)), in place, one operation at a time."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(z, 1.0, out=z)
    np.divide(1.0, z, out=z)


def _forward(X, ws: _Workspace) -> None:
    """Hidden (R, n, H) and output (R, n) activations of the workspace's
    networks into ``ws.hidden`` and ``ws.out``. Per replica, each
    ``np.matmul`` makes the BLAS call one unstacked network would, so replica
    r's values are exactly those of network r alone."""
    if X.shape[1] != ws.w1.shape[2]:
        raise InputError(
            f"input has {X.shape[1]} components, network expects {ws.w1.shape[2]}"
        )
    np.matmul(X, ws.w1_t, out=ws.hidden)
    np.add(ws.hidden, ws.b1_row, out=ws.hidden)
    _squash(ws.hidden)
    np.matmul(ws.hidden, ws.w2_col, out=ws.out_col)
    np.add(ws.out, ws.b2_col, out=ws.out)
    _squash(ws.out)


def _loss(ws: _Workspace, y) -> None:
    """The errors ``out - y`` into ``ws.err`` and each network's mean squared
    error into ``ws.loss``, as a per-replica dot product: einsum can differ in
    the last ulp, which could move a plateau stop."""
    np.subtract(ws.out, y, out=ws.err)
    np.matmul(ws.err_row, ws.err_col, out=ws.loss_cell)
    np.divide(ws.loss, ws.n, out=ws.loss)


def _gradients(X, ws: _Workspace) -> None:
    """Backward pass: the mean-squared-error gradients of the workspace's
    networks into ``ws.grads``, from ``_forward``'s activations and
    ``_loss``'s errors."""
    # d loss / d preactivation of the output unit: 2/n * err * out * (1 - out)
    np.multiply(2.0 / ws.n, ws.err, out=ws.d_out)
    np.multiply(ws.d_out, ws.out, out=ws.d_out)
    np.subtract(1.0, ws.out, out=ws.out_slope)
    np.multiply(ws.d_out, ws.out_slope, out=ws.d_out)
    # d_out * w2 * hidden * (1 - hidden)
    np.multiply(ws.d_out_col, ws.w2_row, out=ws.d_hidden)
    np.multiply(ws.d_hidden, ws.hidden, out=ws.d_hidden)
    np.subtract(1.0, ws.hidden, out=ws.hidden_slope)
    np.multiply(ws.d_hidden, ws.hidden_slope, out=ws.d_hidden)
    np.matmul(ws.d_hidden_t, X, out=ws.g_w1)
    np.add.reduce(ws.d_hidden, axis=1, out=ws.g_b1)
    np.matmul(ws.hidden_t, ws.d_out_col, out=ws.g_w2_col)
    np.add.reduce(ws.d_out, axis=1, out=ws.g_b2)


def forward_batch(weights: WeightSet, X) -> np.ndarray:
    """Network output for each row of X; every value strictly inside (0, 1)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ws = _Workspace(_block([weights]), weights.topology, X.shape[0], backward=False)
    _forward(X, ws)
    return ws.out[0]


def forward(weights: WeightSet, x) -> float:
    """Network output for a single normalized PSF vector."""
    return float(forward_batch(weights, np.asarray(x, dtype=float).reshape(1, -1))[0])


def loss_and_gradient(weights: WeightSet, X, y):
    """Mean-squared-error loss and its exact gradient in one backward pass.

    Returns (loss, gradients) where gradients mirrors the WeightSet fields.
    It runs the trainer's own passes, so checking it against finite
    differences checks the gradient that training applies.
    """
    X = np.asarray(X, dtype=float)
    ws = _Workspace(_block([weights]), weights.topology, X.shape[0])
    _forward(X, ws)
    _loss(ws, np.asarray(y, dtype=float))
    _gradients(X, ws)
    return float(ws.loss[0]), (ws.g_w1[0], ws.g_b1[0], ws.g_w2[0], float(ws.g_b2[0]))


def _grown(trace: np.ndarray, cap: int) -> np.ndarray:
    """``trace`` copied into the first rows of an array with twice its rows,
    or ``cap`` rows if that is fewer; the rows after the copy are unset."""
    grown = np.empty((min(2 * trace.shape[0], cap), trace.shape[1]))
    grown[:trace.shape[0]] = trace
    return grown


def _train_seeds(X, y, topology: Topology, config: TrainingConfig, seeds):
    """Train one replica per seed, all replicas as one batched program.

    The live replicas' parameters are one (R, P) block in a ``_Workspace``
    (w_hidden, b_hidden, w_output and b_output are views into it), together
    with every activation, error, delta, loss and gradient array an epoch
    writes. An epoch is ``_forward``, ``_loss`` and ``_gradients`` into those
    arrays, then one multiply of the gradient block by the learning rate and
    one subtraction from the parameter block, so it allocates nothing; every
    replica's arithmetic is exactly that of training it alone. A replica
    leaves the live set when it meets the plateau rule or its loss is not
    finite. Only on an epoch where some replica stops is a new workspace
    built, and the trace's columns copied, for the replicas still live.

    The loss trace holds one row per epoch and one column per live replica.
    It starts with room for a block of epochs and doubles, up to
    PLATEAU_WINDOW + max_epochs rows, whenever the epochs run fill it, so its
    memory follows the epochs run, not the epoch cap.

    Returns one entry per seed, in seed order: ``(weights, loss trace)`` with
    the trace as an array, or the TrainingDivergedError of a replica whose
    loss became non-finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[0] != y.shape[0]:
        raise InputError("training data must be a non-empty (X, y) pair")
    if X.shape[1] != topology.n_inputs:
        raise InputError(
            f"training data has {X.shape[1]} inputs, topology expects "
            f"{topology.n_inputs}"
        )
    ws = _Workspace(_block([init_weights(topology, seed) for seed in seeds]),
                    topology, X.shape[0])
    live = np.arange(len(seeds))  # seed index of each live replica
    results: list = [None] * len(seeds)
    lr = config.learning_rate
    tol = config.loss_tolerance
    cap = PLATEAU_WINDOW + config.max_epochs
    # trace[PLATEAU_WINDOW + e, k] is the loss of live replica k before epoch
    # e's update. The first PLATEAU_WINDOW rows hold +inf, so one test covers
    # both stop rules from epoch 0: inf - loss >= tol holds for every finite
    # loss, and (earlier - loss >= tol) fails for an inf or nan loss.
    trace = np.empty((min(PLATEAU_WINDOW + _TRACE_BLOCK, cap), len(seeds)))
    trace[:PLATEAU_WINDOW] = np.inf

    def finish(k, epochs):
        results[live[k]] = (
            WeightSet(ws.w1[k].copy(), ws.b1[k].copy(), ws.w2[k].copy(), ws.b2[k]),
            trace[PLATEAU_WINDOW:PLATEAU_WINDOW + epochs, k].copy(),
        )

    # overflow here is the divergence signal, caught via the finiteness test
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            if PLATEAU_WINDOW + epoch == trace.shape[0]:
                trace = _grown(trace, cap)
            _forward(X, ws)
            _loss(ws, y)
            trace[PLATEAU_WINDOW + epoch] = ws.loss
            np.subtract(trace[epoch], ws.loss, out=ws.gain)
            # one reduction decides the common case; a nan gain fails it too
            if not np.minimum.reduce(ws.gain) >= tol:
                going = ws.gain >= tol
                for k in np.flatnonzero(~going):
                    if np.isfinite(ws.loss[k]):
                        finish(k, epoch + 1)
                    else:
                        results[live[k]] = TrainingDivergedError(epoch, seeds[live[k]])
                if not going.any():
                    break
                live = live[going]
                trace = trace[:PLATEAU_WINDOW + epoch + 1, going]
                ws = ws.keep(going)
            _gradients(X, ws)
            np.multiply(ws.grads, lr, out=ws.grads)
            np.subtract(ws.params, ws.grads, out=ws.params)
        else:
            for k in range(live.size):
                finish(k, config.max_epochs)
    return results

def train_one(X, y, topology: Topology, config: TrainingConfig, seed: int):
    """Full-batch gradient descent from one seed: the one-replica ensemble.

    Stops at max_epochs or when the loss improvement over PLATEAU_WINDOW
    epochs drops below config.loss_tolerance. Returns (weights, loss trace);
    the trace entry for an epoch is the loss measured before that epoch's
    update. After a plateau stop the weights are the ones the final trace
    entry measured; at the epoch cap they have had that epoch's update too.
    Raises TrainingDivergedError when the loss becomes non-finite.
    """
    (result,) = _train_seeds(X, y, topology, config, [seed])
    if isinstance(result, TrainingDivergedError):
        raise result
    weights, trace = result
    return weights, trace.tolist()


def train_replicated(
    X,
    y,
    config: TrainingConfig,
    active_psfs: Sequence[PsfId],
    maxima: dict[PsfId, float],
) -> TrainedPredictor:
    """Train n_replications runs from seeds seed, seed+1, ... and ensemble them.

    The topology is ``default_topology(X.shape[1], config.hidden_nodes)``.
    All replications train together in one batched program; member k is
    exactly ``train_one(X, y, topology, config, config.seed + k)``, bit for
    bit. A replication that diverges is dropped with its seed recorded; if
    every replication diverges the whole training fails.
    """
    X = np.asarray(X, dtype=float)
    topology = default_topology(X.shape[1], config.hidden_nodes)
    seeds = [config.seed + k for k in range(config.n_replications)]
    members = []
    dropped = []
    for seed, result in zip(seeds, _train_seeds(X, y, topology, config, seeds)):
        if isinstance(result, TrainingDivergedError):
            dropped.append(seed)
        else:
            members.append(EnsembleMember(seed, result[0], float(result[1][-1])))
    if not members:
        raise NumericalError(
            f"all {len(seeds)} training replications diverged (seeds {seeds})"
        )
    return TrainedPredictor(
        topology=topology,
        members=tuple(members),
        active_psfs=tuple(active_psfs),
        maxima=dict(maxima),
        dropped_seeds=tuple(dropped),
    )


def metrics(predicted, observed) -> MetricReport:
    """Squared error per instance, their mean, and the determination coefficient.

    R-squared is 1 - sum((pred-obs)^2) / sum((obs-mean)^2); when the observed
    values have zero variance it is undefined and reported as None.
    """
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape or pred.ndim != 1 or pred.size == 0:
        raise InputError("predicted and observed must be equal-length non-empty lists")
    se = (pred - obs) ** 2
    mse = float(se.mean())
    denom = float(((obs - obs.mean()) ** 2).sum())
    r2 = None if denom == 0.0 else 1.0 - float(se.sum()) / denom
    return MetricReport(tuple(float(v) for v in se), mse, r2)


# --- predictor and training-config files ------------------------------------

def save_predictor(pred: TrainedPredictor, path) -> None:
    """Serialize a trained predictor to its versioned plain-text format."""
    lines = [_PREDICTOR_MAGIC]
    t = pred.topology
    lines.append(f"topology {t.n_inputs} {t.n_hidden} 1")
    lines.append("active " + ",".join(p.letter for p in pred.active_psfs))
    lines.append("maxima " + " ".join(fmt_full(pred.maxima[p]) for p in pred.active_psfs))
    lines.append(f"ensemble {len(pred.members)}")
    for m in pred.members:
        lines.append(f"member {m.seed} {fmt_full(m.final_loss)}")
        for row in m.weights.w_hidden:
            lines.append("wh " + " ".join(fmt_full(v) for v in row))
        lines.append("bh " + " ".join(fmt_full(v) for v in m.weights.b_hidden))
        lines.append("wo " + " ".join(fmt_full(v) for v in m.weights.w_output))
        lines.append("bo " + fmt_full(m.weights.b_output))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_predictor(path) -> TrainedPredictor:
    """Load a predictor written by :func:`save_predictor`."""
    return load(path, _parse_predictor)


def _parse_predictor(text: str) -> TrainedPredictor:
    lines = text.splitlines()
    if not lines or lines[0] != _PREDICTOR_MAGIC:
        raise InputError("not a recognized predictor file")
    pos, key = 0, ""  # the index of the line being read and its expected key

    def values(expected: str, cast=float, count=None) -> list:
        """The values after ``expected`` on the next line, which must start with
        it and, when ``count`` is given, hold that many."""
        nonlocal pos, key
        pos, key = pos + 1, expected
        head, *words = lines[pos].split()
        if head != expected or count not in (None, len(words)):
            raise ValueError(head)
        return [cast(w) for w in words]

    try:
        n_in, n_hid, n_out = values("topology", int)
        if n_out != 1:
            raise InputError("malformed predictor file: line 2: "
                             "only single-output networks are supported")
        topology = Topology(n_in, n_hid)
        (letters,) = values("active", str)
        active = tuple(PsfId.from_letter(l) for l in letters.split(","))
        maxima = dict(zip(active, values("maxima"), strict=True))
        (n_members,) = values("ensemble", int)
        members = []
        for _ in range(n_members):
            seed, loss = values("member", str)
            seed, loss = int(seed), float(loss)
            w_hidden = [values("wh")]  # later rows as long as the first
            w_hidden += [values("wh", count=len(w_hidden[0])) for _ in range(n_hid - 1)]
            b_hidden = values("bh")
            w_output = values("wo")
            (b_output,) = values("bo")
            weights = WeightSet(w_hidden, b_hidden, w_output, b_output)
            members.append(EnsembleMember(seed, weights, loss))
    except (IndexError, ValueError):
        got = repr(lines[pos]) if pos < len(lines) else "the end of the file"
        raise InputError(f"malformed predictor file: line {pos + 1}: cannot read a "
                         f"{key!r} line from {got}") from None
    return TrainedPredictor(topology, tuple(members), active, maxima)


_CONFIG_KEYS = {
    "seed": ("seed", int),
    "epochs": ("max_epochs", int),
    "learning_rate": ("learning_rate", float),
    "tolerance": ("loss_tolerance", float),
    "replications": ("n_replications", int),
    "hidden_nodes": ("hidden_nodes", int),
}


def parse_training_config(text: str) -> TrainingConfig:
    """Parse a flat key=value training configuration.

    Recognized keys: seed, epochs, learning_rate, tolerance, replications,
    hidden_nodes. Unknown keys are rejected so typos do not silently fall
    back to defaults.
    """
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"training config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise InputError(
                f"training config line {lineno}: unknown key {key!r} "
                f"(expected one of {', '.join(sorted(_CONFIG_KEYS))})"
            )
        field_name, cast = _CONFIG_KEYS[key]
        try:
            overrides[field_name] = cast(value.strip())
        except ValueError:
            raise InputError(
                f"training config line {lineno}: cannot parse {value.strip()!r}"
            ) from None
    return TrainingConfig(**overrides)


def load_training_config(path) -> TrainingConfig:
    return load(path, parse_training_config)
