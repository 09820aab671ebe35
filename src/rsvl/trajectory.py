"""Recurrent trajectory decoder: forward pass, losses, gradients, fitting.

A compressed trajectory embedding ``h_tra`` (length ``d_e``) expands into a
sequence of 6-component states ``S_t``, each component in (0, 1):

    h_0 = W_latent h_tra + b_latent
    f_t = W_state h_{t-1} + b_state      for t = 1..T
    h_t = GRU(f_t, h_{t-1})
    S_t = sigmoid(W_out h_t + b_out)

with the gated update

    z = sigmoid(W_z f + U_z h + b_z)
    r = sigmoid(W_r f + U_r h + b_r)
    c = tanh(W_c f + U_c (r * h) + b_c)
    h' = (1 - z) * h + z * c

Decoding appends S_t step by step and stops early once two consecutive states
come closer than the threshold ``p`` in L2 norm (first checked at t = 2), or
at the step cap T.

``backward`` differentiates the trajectory regression loss through the
unrolled recurrence with the realized number of steps held fixed: the stop
decision itself is not differentiated.  ``grad_fd`` provides the central
finite-difference oracle used to cross-check it, and ``fit`` runs plain
gradient descent from a seeded uniform [-0.1, 0.1] initialization.

The kernels match the per-step reference loop in ``tests/helpers.py`` bit
for bit: one sigmoid call serves both gates, and the backward loop carries only
the dh chain, each weight gradient being one in-order sum over the stored steps.
The z and r gates keep separate (d_h, d_h) matrix-vector products: a stacked
(2 d_h, d_h) one sums in another order inside BLAS and changes the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyGroundTruth,
    InvariantViolation,
)
from .markup import _require, _require_finite_float, _require_items

__all__ = [
    "STATE_DIM",
    "PARAM_FIELDS",
    "DecoderConfig",
    "DecoderWeights",
    "Termination",
    "TrajState",
    "Trajectory",
    "latent_projection",
    "gru_step",
    "decode",
    "mse_loss",
    "grad_fd",
    "backward",
    "init_weights",
    "zero_weights",
    "fit",
]

STATE_DIM = 6


class Termination(str, Enum):
    THRESHOLD = "threshold"
    MAX_STEPS = "max_steps"


@dataclass(unsafe_hash=True)
class DecoderConfig:
    """Decoder dimensions and stopping rule.

    ``max_steps`` is the unroll cap T; ``termination_threshold`` is the
    distance p below which decoding stops.
    """

    d_e: int
    d_h: int
    max_steps: int
    termination_threshold: float = 1e-3

    def __post_init__(self):
        d_e, d_h, steps, p = self.d_e, self.d_h, self.max_steps, self.termination_threshold
        if not (type(d_e) is int and type(d_h) is int and type(steps) is int and type(p) is float):
            _require("d_e", d_e, int)
            _require("d_h", d_h, int)
            _require("max_steps", steps, int)
            _require("termination_threshold", p, Real)
        if d_e < 1 or d_h < 1:
            raise InvariantViolation("d_e and d_h must be at least 1")
        if steps < 1:
            raise InvariantViolation("max_steps must be at least 1")
        if not 0 < p < math.inf:
            raise InvariantViolation(f"termination_threshold must be finite and positive, got {p}")


@dataclass
class DecoderWeights:
    """All decoder parameters as float64 arrays.

    Shapes for config (d_e, d_h): W_latent (d_h, d_e); W_state and the six
    GRU matrices (d_h, d_h); W_out (6, d_h); every bias matches its matrix
    rows.  The same structure doubles as the gradient container returned by
    ``backward`` and ``grad_fd``.
    """

    W_latent: np.ndarray
    b_latent: np.ndarray
    W_state: np.ndarray
    b_state: np.ndarray
    W_z: np.ndarray
    U_z: np.ndarray
    b_z: np.ndarray
    W_r: np.ndarray
    U_r: np.ndarray
    b_r: np.ndarray
    W_c: np.ndarray
    U_c: np.ndarray
    b_c: np.ndarray
    W_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        for name in PARAM_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    def check(self, cfg: DecoderConfig) -> None:
        """Raise DimensionMismatch naming every field whose shape is off."""
        bad = []
        for name, expected in _expected_shapes(cfg).items():
            actual = getattr(self, name).shape
            if actual != expected:
                bad.append(f"{name}: expected {expected}, got {actual}")
        if bad:
            raise DimensionMismatch("; ".join(bad))

    def copy(self) -> "DecoderWeights":
        return _map_params(np.copy, self)


# declaration order: weight files list the fields in it, and init_weights draws in it
PARAM_FIELDS = tuple(f.name for f in fields(DecoderWeights))


def _expected_shapes(cfg: DecoderConfig) -> dict[str, tuple[int, ...]]:
    d_e, d_h = cfg.d_e, cfg.d_h
    shapes: dict[str, tuple[int, ...]] = {"W_latent": (d_h, d_e), "b_latent": (d_h,)}
    for gate in ("state", "z", "r", "c"):
        if gate != "state":
            shapes[f"U_{gate}"] = (d_h, d_h)
        shapes[f"W_{gate}"] = (d_h, d_h)
        shapes[f"b_{gate}"] = (d_h,)
    shapes["W_out"] = (STATE_DIM, d_h)
    shapes["b_out"] = (STATE_DIM,)
    return shapes


def _map_params(fn, *weights: DecoderWeights) -> DecoderWeights:
    return DecoderWeights(
        **{name: fn(*(getattr(w, name) for w in weights)) for name in PARAM_FIELDS}
    )


@dataclass(unsafe_hash=True)
class TrajState:
    """One decoded step: six components, each strictly inside (0, 1)."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = self.values
        if type(values) is tuple and all(map(float.__instancecheck__, values)):
            values = self.values = tuple(map(float, values))
        else:
            values = self.values = tuple(_require_finite_float(v, "state component")
                                         for v in _require_items("values", values, Real, "numbers"))
        if len(values) != STATE_DIM:
            raise InvariantViolation(f"state needs {STATE_DIM} components, got {len(values)}")
        if any(not 0.0 < v < 1.0 for v in values):
            raise InvariantViolation("state components must lie strictly inside (0, 1)")


@dataclass(unsafe_hash=True)
class Trajectory:
    states: tuple[TrajState, ...]
    terminated_by: Termination

    def __post_init__(self):
        self.states = tuple(self.states)
        if not self.states:
            raise InvariantViolation("trajectory must hold at least one state")
        if self.terminated_by is Termination.THRESHOLD and len(self.states) < 2:
            raise InvariantViolation("threshold stop needs at least two states")

    def as_array(self) -> np.ndarray:
        return np.array([s.values for s in self.states], dtype=np.float64)


# --- Forward pass ------------------------------------------------------------

_S_LO = float(np.nextafter(0.0, 1.0))
_S_HI = float(np.nextafter(1.0, 0.0))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; min(x, -x) rather than -abs(x) keeps a NaN's sign
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def latent_projection(h_tra: np.ndarray, weights: DecoderWeights) -> np.ndarray:
    """Affine map from the trajectory embedding to the initial hidden state."""
    return weights.W_latent @ np.asarray(h_tra, dtype=np.float64) + weights.b_latent


def _gated_update(f: np.ndarray, h: np.ndarray, weights: DecoderWeights):
    """The gates z, r, the candidate c and the next hidden state, for the backward pass."""
    zr = _sigmoid(np.concatenate((weights.W_z @ f + weights.U_z @ h + weights.b_z,
                                  weights.W_r @ f + weights.U_r @ h + weights.b_r)))
    z, r = zr[:len(h)], zr[len(h):]
    c = np.tanh(weights.W_c @ f + weights.U_c @ (r * h) + weights.b_c)
    return z, r, c, (1.0 - z) * h + z * c


def gru_step(f_t: np.ndarray, h_prev: np.ndarray, weights: DecoderWeights) -> np.ndarray:
    """One gated update; every output component lies between h_prev and the candidate."""
    f_t = np.asarray(f_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    return _gated_update(f_t, h_prev, weights)[3]


def _forward(h_tra: np.ndarray, weights: DecoderWeights, cfg: DecoderConfig) -> dict:
    """Unrolled forward pass keeping every intermediate for the backward pass."""
    x = np.asarray(h_tra, dtype=np.float64)
    if x.shape != (cfg.d_e,):
        raise DimensionMismatch(f"h_tra: expected ({cfg.d_e},), got {x.shape}")
    weights.check(cfg)

    h = latent_projection(x, weights)
    hs, fs, zs, rs, cs, states = [h], [], [], [], [], []
    terminated = Termination.MAX_STEPS
    for _ in range(cfg.max_steps):
        f = weights.W_state @ h + weights.b_state
        z, r, c, h = _gated_update(f, h, weights)
        s = np.minimum(np.maximum(_sigmoid(weights.W_out @ h + weights.b_out), _S_LO), _S_HI)
        for seq, value in ((fs, f), (zs, z), (rs, r), (cs, c), (states, s), (hs, h)):
            seq.append(value)
        if len(states) >= 2:
            d = s - states[-2]
            if math.sqrt(d.dot(d)) < cfg.termination_threshold:  # np.linalg.norm's own sum
                terminated = Termination.THRESHOLD
                break
    return {"x": x, "h": hs, "f": fs, "z": zs, "r": rs, "c": cs, "S": states,
            "terminated_by": terminated}


def decode(h_tra: np.ndarray, weights: DecoderWeights, cfg: DecoderConfig) -> Trajectory:
    """Expand an embedding into a state sequence of length 1..max_steps."""
    trace = _forward(h_tra, weights, cfg)
    states = tuple(TrajState(tuple(s)) for s in trace["S"])
    return Trajectory(states=states, terminated_by=trace["terminated_by"])


# --- Losses -------------------------------------------------------------------


def _gt_array(gt: Sequence[Sequence[float]]) -> np.ndarray:
    arr = np.asarray(gt, dtype=np.float64)
    if arr.size == 0:
        raise EmptyGroundTruth("ground-truth trajectory is empty")
    if arr.ndim != 2 or arr.shape[1] != STATE_DIM:
        raise DimensionMismatch(f"ground truth must be (steps, {STATE_DIM}), got {arr.shape}")
    return arr


def _mse(states: Sequence[np.ndarray], gt: np.ndarray) -> float:
    # one sum per step, then over the steps in order, so fit's loss curve and mse_loss agree
    # to the last bit; a row of 6 sums in the same order as np.sum of that step alone
    k = min(len(states), len(gt))
    S = np.asarray(states)
    loss = sum(((S[:k] - gt[:k]) ** 2).sum(axis=1).tolist()) / (STATE_DIM * k)
    for t in range(k, len(gt)):
        loss += float(np.mean((0.5 - gt[t]) ** 2))
    return loss


def mse_loss(pred: Trajectory, gt: Sequence[Sequence[float]]) -> float:
    """Per-component squared error over aligned steps plus a tail penalty.

    The first min(len(pred), len(gt)) steps are compared directly and the
    squared error is averaged over all 6 * steps components.  Every ground
    truth step the prediction never reached adds the mean squared error of a
    flat 0.5 state against it; surplus predicted steps carry no penalty.
    """
    return _mse(pred.as_array(), _gt_array(gt))


# --- Gradients ----------------------------------------------------------------


def grad_fd(
    loss_fn: Callable[[DecoderWeights], float],
    weights: DecoderWeights,
    eps: float = 1e-5,
) -> DecoderWeights:
    """Central finite differences of ``loss_fn`` over every weight entry."""
    work = weights.copy()
    grads = _map_params(np.zeros_like, weights)
    for name in PARAM_FIELDS:
        flat = getattr(work, name).reshape(-1)
        gflat = getattr(grads, name).reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = loss_fn(work)
            flat[i] = saved - eps
            lo = loss_fn(work)
            flat[i] = saved
            gflat[i] = (hi - lo) / (2.0 * eps)
    return grads


def _steps_sum(terms: np.ndarray) -> np.ndarray:
    # the sum over axis 0 that a loop of += from zeros makes: cumsum adds row by row, where
    # np.sum may switch to pairwise sums; + 0.0 turns a sum of -0.0 into the loop's +0.0
    return np.cumsum(terms, axis=0)[-1] + 0.0


def _loss_and_grads(
    h_tra: np.ndarray,
    weights: DecoderWeights,
    cfg: DecoderConfig,
    gt: np.ndarray,
) -> tuple[float, DecoderWeights]:
    trace = _forward(h_tra, weights, cfg)
    S = np.array(trace["S"])
    n = len(S)
    k = min(n, len(gt))
    loss = _mse(S, gt)

    # The loop runs t = n..1 and carries only the dh chain; every row is in its order.
    H, F, Z, R, C = (np.array(trace[key])[::-1] for key in ("h", "f", "z", "r", "c"))
    H_prev, H = H[1:], H[:-1]
    ds = np.zeros_like(S)
    ds[:k] = 2.0 * (S[:k] - gt[:k]) / (STATE_DIM * k)
    da_out = (ds * S * (1.0 - S))[::-1]
    W_outT, W_cT, U_cT, W_rT, U_rT, W_zT, U_zT, W_stateT = (getattr(weights, name).T for name in (
        "W_out", "W_c", "U_c", "W_r", "U_r", "W_z", "U_z", "W_state"))
    rows = []
    dh_next = np.zeros(cfg.d_h)
    for da_o, h_prev, z, r, c_minus_h, one_minus_z, one_minus_cc, one_minus_r in zip(
            da_out, H_prev, Z, R, C - H_prev, 1.0 - Z, 1.0 - C * C, 1.0 - R):
        dh = dh_next + W_outT @ da_o
        da_c = dh * z * one_minus_cc
        d_rh = U_cT @ da_c
        dh_prev = dh * one_minus_z + d_rh * r
        da_r = d_rh * h_prev * r * one_minus_r
        dh_prev += U_rT @ da_r
        da_z = dh * c_minus_h * z * one_minus_z
        df = W_cT @ da_c
        df += W_rT @ da_r
        df += W_zT @ da_z
        dh_prev += U_zT @ da_z
        dh_prev += W_stateT @ df
        rows.append((da_c, da_r, da_z, df))
        dh_next = dh_prev

    G = np.array(rows)  # (n, 4, d_h): da_c, da_r, da_z, df
    W_c, W_r, W_z = _steps_sum(G[:, :3, :, None] * F[:, None, None, :])
    U_r, U_z, W_state = _steps_sum(G[:, 1:, :, None] * H_prev[:, None, None, :])
    b_c, b_r, b_z, b_state = _steps_sum(G)
    return loss, DecoderWeights(
        W_latent=np.outer(dh_next, trace["x"]) + 0.0, b_latent=dh_next + 0.0,
        W_state=W_state, b_state=b_state, W_z=W_z, U_z=U_z, b_z=b_z, W_r=W_r, U_r=U_r, b_r=b_r,
        W_c=W_c, U_c=_steps_sum(G[:, 0, :, None] * (R * H_prev)[:, None, :]), b_c=b_c,
        W_out=_steps_sum(da_out[:, :, None] * H[:, None, :]), b_out=_steps_sum(da_out))


def backward(
    h_tra: np.ndarray,
    weights: DecoderWeights,
    cfg: DecoderConfig,
    gt: Sequence[Sequence[float]],
) -> DecoderWeights:
    """Analytic gradient of ``mse_loss(decode(h_tra, w, cfg), gt)`` in ``w``.

    The number of decoded steps is taken from the forward pass and treated as
    constant, matching what finite differences see away from the stopping
    boundary.
    """
    _, grads = _loss_and_grads(h_tra, weights, cfg, _gt_array(gt))
    return grads


# --- Fitting ------------------------------------------------------------------


def init_weights(cfg: DecoderConfig, seed: int) -> DecoderWeights:
    """Uniform [-0.1, 0.1] initialization, drawn field by field in PARAM_FIELDS order."""
    rng = np.random.default_rng(seed)
    shapes = _expected_shapes(cfg)
    return DecoderWeights(**{
        name: rng.uniform(-0.1, 0.1, size=shapes[name]) for name in PARAM_FIELDS
    })


def zero_weights(cfg: DecoderConfig) -> DecoderWeights:
    shapes = _expected_shapes(cfg)
    return DecoderWeights(**{name: np.zeros(shapes[name]) for name in PARAM_FIELDS})


@np.errstate(all="ignore")  # a diverging fit ends in DivergenceDetected, not in warnings
def fit(
    h_tra: np.ndarray,
    gt: Sequence[Sequence[float]],
    cfg: DecoderConfig,
    lr: float,
    iters: int,
    seed: int,
) -> tuple[DecoderWeights, list[float]]:
    """Plain gradient descent on ``mse_loss(decode(...), gt)``.

    Returns the final weights and the loss curve with ``iters + 1`` points
    (the loss before each update, then the final loss).  With ``iters=0`` the
    weights are exactly the seeded initialization.  A non-finite loss raises
    DivergenceDetected.
    """
    if lr <= 0:
        raise InvariantViolation("learning rate must be positive")
    if iters < 0:
        raise InvariantViolation("iteration count must be non-negative")
    target = _gt_array(gt)
    weights = init_weights(cfg, seed)
    curve: list[float] = []
    for _ in range(iters):
        loss, grads = _loss_and_grads(h_tra, weights, cfg, target)
        if not np.isfinite(loss):
            raise DivergenceDetected(f"loss became {loss!r} after {len(curve)} updates")
        curve.append(loss)
        weights = _map_params(lambda w, g: w - lr * g, weights, grads)
    final_loss = _mse(_forward(h_tra, weights, cfg)["S"], target)
    if not np.isfinite(final_loss):
        raise DivergenceDetected(f"loss became {final_loss!r} after {iters} updates")
    curve.append(final_loss)
    return weights, curve
