"""Closed-loop assembly and exact LTI simulation.

The plant-controller-exosystem interconnection is assembled by directly
eliminating u and y. Its dense form and the similar transformed form of the
boundary-system construction, the cross-validation oracles, live in :mod:`wavereg.checks`.

The plant, reference and disturbance are real, and the exosystem and the
internal model come in conjugate +-omega pairs, so the unitary map U that
pairs each controller copy (and exosystem coordinate) with its partner makes
the loop real. A :class:`ClosedLoop`, built only from its plant, controller
and exosystem, holds the diagonal blocks of its generator in these pair
coordinates (``parts``), the plant's channel blocks joined through the copies;
its spectrum, the regulator solve and the sampler all read them. :func:`simulate_chunks` maps the other
operands the same way and samples in their common dtype, float64 when all
are exactly real, in chunks of ``_CHUNK`` samples. In each chunk the sampler
steps each block on its own with its own copy of the exosystem, filling the
samples by doubling (samples [k, 2k) are samples [0, k) times step^k, one
GEMM per pass), and reduces each block to outputs and weighted squared norms
once filled, so memory does not grow with the horizon beyond the outputs.
The samples are exact up to the exponential's tolerance and roundoff; only
the sliding-window error integrals depend on dt.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg, synthesis

# Hard cap on trajectory growth relative to the initial data.
_GROWTH_CAP = 1e12
# Samples per chunk (the preset's 2,001 are one), and a later chunk starts from the last
# 2^_HEAD samples of the one before: from its last sample alone, each chunk took 11
# doubling passes, not 3, and delta-sweep ran 11 % slower on 2 BLAS threads.
_CHUNK, _HEAD = 2048, 8


@dataclass(frozen=True)
class ClosedLoop:
    """The interconnection x_e' = Acl x_e + Bcl v, e = Ccl x_e + Dcl v of ``plant``, ``ctrl``
    and ``exo`` (:func:`assemble_direct`), x_e the plant state over the controller state; Bcl,
    Ccl and Dcl are derived from the three, Acl is never formed. ``pairs`` (f, s) are the state
    indices of the controller copies at +-omega, U the pair map on them. ``parts`` are the
    diagonal blocks of U Acl U^H (float64 when exactly real) as (state indices, matrix, plant
    block number or None), built by :func:`_channel_blocks`."""

    plant: object = field(repr=False)
    ctrl: object = field(repr=False)
    exo: object = field(repr=False)
    Bcl: np.ndarray = field(init=False, repr=False)
    Ccl: np.ndarray = field(init=False, repr=False)
    Dcl: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        plant, ctrl, exo = self.plant, self.ctrl, self.exo
        for name, dim in (("controller", ctrl.dim_y), ("exosystem", exo.F.shape[0])):
            if dim != plant.output_dim:
                raise ValueError(f"{name} output dimension does not match the plant")
        E_s = synthesis.stabilized_disturbance(plant, exo)
        zeros = np.zeros((plant.output_dim, ctrl.dim_z))
        for name, M in (("Bcl", np.vstack([plant.B @ E_s, ctrl.G2 @ exo.F])), ("Dcl", exo.F.copy()),
                        ("Ccl", np.hstack([plant.C, zeros]))):
            object.__setattr__(self, name, M)

    @property
    def state_dim(self):
        return self.plant.state_dim + self.ctrl.dim_z

    @functools.cached_property
    def pairs(self):
        bd, offset = self.ctrl.block_dim, self.plant.state_dim
        return tuple(offset + (k[:, None] * bd + np.arange(bd)).ravel()
                     for k in _pairs(self.ctrl.omegas))

    @functools.cached_property
    def parts(self):
        return _channel_blocks(self)

    @functools.cached_property
    def norm(self):
        """||Acl||_F from the plant's blocks, B K, G2 C and G1, refusing a NaN or Inf."""
        plant, ctrl = self.plant, self.ctrl  # each row of B and column of C lies on one channel
        BK = np.linalg.norm(plant.B, axis=0)[:, None] * ctrl.K
        G2C = ctrl.G2 * np.linalg.norm(plant.C, axis=1)
        entries = [M.ravel() for _, M, _ in plant.blocks] + [BK.ravel(), G2C.ravel(), ctrl.copies]
        return linalg.frobenius_norm(linalg.as_matrix(np.concatenate(entries), "closed loop"))

    @property
    def blocks(self):
        return [idx for idx, _, _ in self.parts]

    @functools.cached_property
    def spectrum(self):
        w = np.concatenate([linalg.eig(M) if u is None else self.plant.spectrum(u)
                            for _, M, u in self.parts])
        return w[np.lexsort((w.imag, w.real))]

    def blockwise(self, fn, X):
        """U^H Y for Y[idx] = fn(M, (U X)[idx]) on each part: ``blockwise(np.matmul, X)`` is Acl X."""
        P, Y = _mapped(X, self.pairs, _NO_PAIRS), np.empty(X.shape, dtype=complex)
        for idx, M, _ in self.parts:
            Y[idx] = fn(M, P[idx])
        return _pair(Y.T, *self.pairs, _U.conj()).T

    @functools.cached_property
    def abscissa(self):
        return float(self.spectrum.real.max())

    @property
    def is_stable(self):
        return self.abscissa < 0.0

    def require_stable(self):
        """Refuse, naming the abscissa, a loop that is not exponentially stable."""
        if not self.is_stable:
            raise ValueError(
                f"closed loop is unstable (spectral abscissa {self.abscissa:+.4e} >= 0)"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: tracking errors and plant energy at each time ``t``, the
    errors in the dtype the sampler ran in. ``states`` is the last state
    alone, a (1, n) row: x_e(t_end), complex and in the loop's coordinates,
    from :func:`simulate_exact`; x(t_end) in the plant's coordinates and the
    dtype of the initial state (real for a real one) from
    :func:`free_response`."""

    t: np.ndarray
    states: np.ndarray
    errors: np.ndarray
    energies: np.ndarray

    def error_norms_sq(self, weights=None):
        """Squared norms ||W e(t)||^2 of the errors, W = ``weights`` or the identity."""
        rows = range(0, self.errors.shape[0], _CHUNK)  # no full-length temporaries
        return np.concatenate([norms_sq(self.errors[i : i + _CHUNK], weights) for i in rows])


def norms_sq(errors, weights=None):
    """Squared norms ||W e||^2 of the rows e of ``errors``, W = ``weights`` or the identity."""
    err = errors if weights is None else errors @ np.asarray(weights).T
    return np.sum(np.abs(err) ** 2, axis=1)


@dataclass(frozen=True)
class ErrorSeries:
    """Sliding-window error integrals J(t) = int_t^{t+window} ||e||^2 ds."""

    t: np.ndarray
    values: np.ndarray


def assemble_direct(plant, ctrl, exo):
    """Assemble the closed loop by direct elimination of u and y.

    The plant input u = K z - Q e and disturbance w = E v are substituted
    into the pre-stabilized dynamics, giving

        Acl = [[A_s, B K], [G2 C, G1]],   Bcl = [[B E_s], [G2 F]],
        Ccl = [C, 0],  Dcl = F,   E_s = E - Q F,

    but forms no dense ``Acl``: the loop builds its parts from these.
    """
    return ClosedLoop(plant, ctrl, exo)


def _channel_blocks(cl):
    """The ``parts`` of a loop: the plant's blocks joined through the copies that reach them, at
    their channel's row of K U^H and column of U G2, and each copy to its partner. An entry of at
    most eps ||Acl||_F (``cl.norm``, which refuses a NaN or Inf) counts as zero, as in the dense
    entry search of the oracles. An unreached block keeps the plant's matrix and spectrum."""
    plant, ctrl, n_u = cl.plant, cl.ctrl, len(cl.plant.blocks)
    n_p, K, G2, copies = plant.state_dim, ctrl.K, ctrl.G2, ctrl.copies
    tol = np.finfo(float).eps * cl.norm
    f, s = (p - n_p for p in cl.pairs)
    KU, G2U = _pair(K.astype(complex), f, s, _U.conj().T), _pair(G2.T.astype(complex), f, s, _U.T)
    # each block's largest |B| and |C|; every row of B and column of C lies on one channel
    order, sizes = np.concatenate([i for i, _, _ in plant.blocks]), [i.size for i, _, _ in plant.blocks]
    starts, channel = np.cumsum([0] + sizes[:-1]), [ch for _, _, ch in plant.blocks]
    b = np.maximum.reduceat(np.abs(plant.B).max(axis=1)[order], starts)[:, None]
    c = np.maximum.reduceat(np.abs(plant.C).max(axis=0)[order], starts)[:, None]
    linked = np.zeros((n_u + ctrl.dim_z,) * 2, dtype=bool)
    linked[:n_u, n_u:] = ~(b * np.abs(KU[channel]) <= tol) | ~(c * np.abs(G2U[channel]) <= tol)
    linked[n_u + f, n_u + s] = True  # at any omega: the pair map acts inside one block
    parts, here = [], np.zeros(ctrl.dim_z, dtype=bool)
    for comp in _components(linked | linked.T):
        units, z = [plant.blocks[u] for u in comp[comp < n_u]], comp[comp >= n_u] - n_u
        if z.size == 0:  # one plant block
            parts.append((*units[0][:2], comp[0]))
            continue
        idx = np.sort(np.concatenate([i for i, _, _ in units] + [z[:0]]))
        M, m = np.zeros((idx.size + z.size,) * 2, dtype=complex), idx.size
        for i, As, _ in units:
            M[np.ix_(np.searchsorted(idx, i), np.searchsorted(idx, i))] = As
        M[:m, m:], M[m:, :m] = plant.B[idx] @ K[:, z], G2[z] @ plant.C[:, idx]
        M[m:, m:] = np.diag(1j * copies[z])
        here[:], here[z] = False, True  # a pair is in z whole, so f and s stay aligned
        loc = [m + np.searchsorted(z, p[here[p]]) for p in (f, s)]
        parts.append((np.concatenate([idx, n_p + z]), _mapped(M, loc, loc), None))
    return parts


def _components(linked):
    """Connected components of the symmetric boolean ``linked``, by reachability from the
    lowest free index."""
    free = np.ones(linked.shape[0], dtype=bool)
    blocks = []
    while free.any():
        block = np.zeros_like(free)
        new = block.copy()
        new[np.argmax(free)] = True
        while new.any():
            block |= new
            new = linked[new].any(axis=0) & ~block
        free &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def whole_steps(span, dt, name):
    """Number of steps of size ``dt`` > 0 in ``span`` >= dt, which must be a multiple of dt."""
    if not dt > 0 or span < dt:
        raise ValueError(f"need dt > 0 and {name} >= dt, got dt={dt} and {name}={span}")
    if not np.isfinite(span / dt):
        raise ValueError(f"{name}/dt is not a finite step count, got dt={dt} and {name}={span}")
    steps = int(round(span / dt))
    if abs(steps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"{name} must be an integer multiple of dt")
    return steps


def window_steps(window, dt, t_end):
    """Steps of size ``dt`` in the window of J(t), which must fit into [0, t_end]."""
    steps = whole_steps(window, dt, "window")
    if steps > whole_steps(t_end, dt, "t_end"):
        raise ValueError(f"window {window} does not fit into the horizon {t_end}")
    return steps


def _time_grid(t_end, dt):
    """Sample times 0, dt, ..., t_end; t_end must be a multiple of dt > 0."""
    return dt * np.arange(whole_steps(t_end, dt, "t_end") + 1)


def _propagate(powers, X, filled, j=0):
    """Fill the columns of the state-major ``X`` by doubling: the first
    ``filled`` columns hold 2^j samples, and each pass writes columns
    ``[k, 2k)`` as columns ``[0, k)`` times ``powers[j]``, the step to the
    power 2^j, one GEMM per pass, j one higher for the next. The list
    ``powers`` starts at [step] and keeps each power a pass squares onto it."""
    n_cols, k = X.shape[1], filled
    while k < n_cols:
        if j == len(powers):
            powers.append(powers[-1] @ powers[-1])
        np.matmul(powers[j], X[:, : min(k, n_cols - k)], out=X[:, k : 2 * k])
        k, j = 2 * k, j + 1


def _initial_rows(x0, n, batch=False):
    """``x0`` as rows (r, n): one state of shape (n,) or, with ``batch``, rows
    of them. Raises ``ValueError`` on any other shape or a non-finite entry."""
    x0 = np.asarray(x0)
    if x0.shape[-1:] != (n,) or x0.ndim > 1 + batch or x0.size == 0 or not np.isfinite(x0).all():
        rows = f" or rows of shape (r, {n})" if batch else ""
        raise ValueError(f"x0 must be a finite vector of shape ({n},){rows}")
    return np.atleast_2d(x0)


def _sample(parts, B, S, x0, v0, n_rows, dt, C, D, w):
    """Reduced samples of x' = A x + B v, v' = S v, at k dt for k < ``n_rows``,
    from each initial state of the rows ``x0`` (r, n) with the same ``v0``,
    in chunks of at most ``_CHUNK`` samples.

    Runs in the dtype of its operands. Each diagonal block ``(idx, A[idx,
    idx], ...)`` in ``parts``, a partition of A into uncoupled blocks, steps
    with the exponential of ``[[A[idx, idx], B[idx]], [0, S]]`` over dt, so every block
    carries its own copy of v. In each chunk, block after block is stored
    state-major as ``(m + q, rows * r)``, the r states of each sample side by
    side, filled by doubling (:func:`_propagate`) from the initial states or
    2^_HEAD steps on from its last 2^_HEAD samples in the chunk before, and
    reduced by two GEMMs to the outputs ``C x`` and the rows ``sum_j w_j
    |x_j|^2`` and ``||x||^2``; the last block's copy of v adds ``D v`` to the
    outputs. Yields these per chunk, (p, rows, r) and (2, rows, r), with the
    chunk's last samples (r, n)."""
    (r, n), q, blocks = x0.shape, S.shape[0], [idx for idx, _, _ in parts]
    dtype = np.result_type(*(M for _, M, _ in parts), B, S, C, D, x0, v0)
    # all expm calls before any filling: with each expm inside the fill loop, delta-sweep
    # ran about 3 % slower on 2 vCPUs (25.0-25.8 against 25.2-26.9 operations/s)
    gens = [np.block([[M, B[i]], [np.zeros((q, i.size)), S]]) for i, M, _ in parts]
    powers = [[linalg.expm(gen, dt)] for gen in gens]  # step^(2^j) per block, squared once
    carry = [np.vstack([x0[:, idx].T, np.repeat(v0[:, None], r, axis=1)]) for idx in blocks]
    outputs = [np.flatnonzero(C[:, idx].any(axis=1)) for idx in blocks]
    reduce = [(C[np.ix_(o, i)], np.stack([w[i], np.ones(i.size)])) for o, i in zip(outputs, blocks)]

    def chunk(start):  # its fill buffer is freed before the chunk is yielded
        rows = min(_CHUNK, n_rows - start)
        cols = rows * r
        y, sq, last = np.zeros((len(C), cols), dtype), np.zeros((2, cols)), np.empty((r, n), dtype)
        buf = np.empty((max(idx.size for idx in blocks) + q) * cols, dtype=dtype)
        for k, idx in enumerate(blocks):
            m, j = idx.size, 0 if start == 0 else _HEAD
            X = buf[: (m + q) * cols].reshape(m + q, cols)  # one buffer for all blocks
            head = min(r << j, cols)  # the carried samples, 2^j steps on
            X[:, :head] = carry[k] if start == 0 else (powers[k][j] @ carry[k])[:, :head]
            _propagate(powers[k], X, head, j)
            if start + rows == n_rows:  # the last chunk: the block's powers are done
                del powers[k][1:]
            y[outputs[k]] += reduce[k][0] @ X[:m]
            sq += reduce[k][1] @ (X[:m] * X[:m].conj()).real
            carry[k] = X[:, max(0, cols - (r << _HEAD)) :].copy()
            last[:, idx] = carry[k][:m, -r:].T
        y += D @ X[m:]
        return y.reshape(-1, rows, r), sq.reshape(2, rows, r), last

    for start in range(0, n_rows, _CHUNK):
        yield chunk(start)


def _fill(chunks, n_rows):
    """The outputs (p, n_rows, r), energies (n_rows, r) and last samples of
    the chunks of :func:`_sample`, gathered into arrays allocated once."""
    start = 0
    for y, sq, last in chunks:
        if start == 0:
            outputs = np.empty((y.shape[0], n_rows, y.shape[2]), dtype=y.dtype)
            energies = np.empty((n_rows, y.shape[2]))
        outputs[:, start : start + y.shape[1]], energies[start : start + y.shape[1]] = y, sq[0]
        start += y.shape[1]
    return outputs, energies, last


def _pairs(omegas):
    """Index pairs (f, s), f < s, with ``omegas[s] = -omegas[f]``. A frequency
    without a partner, and omega = 0, is in no pair."""
    index = {w: k for k, w in enumerate(omegas)}
    partner = np.array([index.get(-w, -1) for w in omegas], dtype=int)
    first = np.flatnonzero(partner > np.arange(partner.size))
    return first, partner[first]


_NO_PAIRS = (np.zeros(0, dtype=int),) * 2

# sqrt 2 times the unitary pair map U on one pair (f, s): U x has the
# entries (x_f + x_s) / sqrt 2 and i (x_s - x_f) / sqrt 2 there
_U = np.array([[1, 1], [-1j, 1j]])


def _pair(M, f, s, T):
    """In place, the entries f and s of the last axis of the complex ``M``
    become ``[M_f, M_s] T / sqrt 2``, pair by pair; returns M. ``T = _U.T``
    gives M U^T, ``_U.conj().T`` gives M U^H, and ``_U.conj()`` undoes M U^T."""
    a, b = M[..., f], M[..., s]
    M[..., f] = (a * T[0, 0] + b * T[1, 0]) / np.sqrt(2.0)
    M[..., s] = (a * T[0, 1] + b * T[1, 1]) / np.sqrt(2.0)
    return M


def _mapped(M, rows, cols):
    """U M U^H for the 2-D ``M``, U the pair map on the pairs ``rows`` (f, s)
    of its rows and on the pairs ``cols`` of its columns, in one complex
    copy; a float64 copy of the result when it is exactly real."""
    P = _pair(_pair(np.array(M, dtype=complex), *cols, _U.conj().T).T, *rows, _U.T).T
    return P if P.imag.any() else P.real.copy()


def simulate_chunks(cl, exo, x0=None, t_end=20.0, dt=0.01):
    """Sample the closed loop driven by the exosystem, in chunks of samples.

    :func:`_sample` steps ``cl.parts`` one block at a time, so the samples
    are exact for the LTI system up to roundoff; halving dt only refines the
    sampling. The other operands and x0, v0 are mapped to the same pair
    coordinates (the exosystem's own +-omega pairs for v), each a float64
    copy when exactly real. ``x0`` is the initial closed-loop state x_e(0),
    zero by default; the exosystem starts from its own v0. Yields per chunk
    the errors C x + D v (p, rows, 1), the rows (plant energy, ||x_e||^2)
    (2, rows, 1) and x_e at the chunk's last sample (1, n), mapped back to
    the loop's coordinates. Raises ``ValueError`` for an ``x0`` of the wrong
    shape or with a non-finite entry, and at the first chunk with a sample
    over the growth cap (an unstable loop on a long horizon), naming that
    sample, before any later chunk is sampled.
    """
    n_rows, n = whole_steps(t_end, dt, "t_end") + 1, cl.state_dim
    x0 = _initial_rows(np.zeros(n) if x0 is None else x0, n)
    w = np.pad(cl.plant.energy_weights, (0, cl.ctrl.dim_z))  # zero on controller states
    pc, pq, no = cl.pairs, _pairs(exo.omegas), _NO_PAIRS
    B, S = _mapped(cl.Bcl, pc, pq), _mapped(exo.S, pq, pq)
    C, D = _mapped(cl.Ccl, no, pc), _mapped(cl.Dcl, no, pq)
    x, v = _mapped(x0.T, pc, no).T, _mapped(exo.v0[:, None], pq, no)[:, 0]
    start, cap = 0, None
    for errors, sq, last in _sample(cl.parts, B, S, x, v, n_rows, dt, C, D, w):
        # the cap bounds ||(x_e, v)||, |v_k(t)| = |v0_k|; a non-finite sample is over it
        norms = np.hypot(np.sqrt(sq[1, :, 0]), np.linalg.norm(exo.v0))
        cap = _GROWTH_CAP * (1.0 + norms[0]) if cap is None else cap
        over = ~(norms <= cap)
        if over.any():
            t = dt * (start + np.argmax(over))
            raise ValueError(f"trajectory exceeded the growth cap at t={t:.3f} "
                             f"(abscissa {cl.abscissa:+.3e})")
        start += norms.size
        yield errors, sq, _pair(last.astype(complex), *pc, _U.conj())


def simulate_exact(cl, exo, x0=None, t_end=20.0, dt=0.01):
    """Simulate the closed loop driven by the exosystem: the chunks of
    :func:`simulate_chunks`, with its parameters and errors, gathered into one
    :class:`Trajectory` of the errors, the plant energy and the last state."""
    t = _time_grid(t_end, dt)
    errors, energies, states = _fill(simulate_chunks(cl, exo, x0, t_end, dt), t.size)
    return Trajectory(t=t, states=states, errors=errors[:, :, 0].T, energies=energies[:, 0])


def windowed_error(traj, window=1.0, weights=None):
    """Sliding-window integrals J(t) of the squared error norm of the
    :class:`Trajectory` ``traj`` (:func:`window_integrals`), as an
    :class:`ErrorSeries` on the grid points t <= t_end - ``window``. The
    window must be a multiple of the time step that fits into the horizon;
    ``weights`` (dim_y, dim_y), e.g. a projection P_N, apply to the errors
    before their norms are taken."""
    dt = float(traj.t[1] - traj.t[0])
    steps = window_steps(window, dt, traj.t[-1])
    values, _ = window_integrals(traj.error_norms_sq(weights), dt, steps)
    return ErrorSeries(t=traj.t[: traj.t.size - steps], values=values)


def window_integrals(sq, dt, steps, before=()):
    """Trapezoid-rule J(t) = int_t^{t+steps dt} ||e||^2 ds over the squared error
    norms ``sq`` after the samples ``before``: the values of J whose windows end in
    ``sq``, and the last ``steps`` samples (steps - 1 shared areas), the next ``before``."""
    sq = np.concatenate([before, sq])
    # Sum each window's trapezoid areas directly. Differences of one running
    # cumulative sum would lose every window below roundoff of the integral
    # so far, which on long decaying runs reads exactly 0.
    areas = 0.5 * dt * (sq[1:] + sq[:-1])
    values = np.convolve(areas, np.ones(steps), "valid") if areas.size >= steps else np.empty(0)
    return values, sq[-steps:]


def free_response(plant, x0, t_end, dt):
    """Free evolution of the plant with zero boundary input.

    Samples the plant's generator ``As`` by its blocks ``plant.blocks`` with
    the sampler of :func:`simulate_exact`, driven by no exosystem; used by the
    energy-conservation, decay and admissibility checks. For the undamped
    generator pass ``plant.perturbed(q_scale=0.0)``, whose ``As`` is ``A``.
    ``x0`` is one state (n,) or rows (r, n) of them, checked as in
    :func:`simulate_exact`; all rows share one fill, in the dtype of ``As``
    and ``x0``. Returns one :class:`Trajectory`, or a list of one per row,
    whose errors are the boundary velocity outputs y = C x, the tracking
    errors against a zero reference.
    """
    t = _time_grid(t_end, dt)
    rows = _initial_rows(x0, plant.state_dim, batch=True)
    n, p = plant.state_dim, plant.output_dim
    y, energies, last = _fill(_sample(plant.blocks, np.zeros((n, 0)), np.zeros((0, 0)), rows,
                                      np.zeros(0), t.size, dt, plant.C, np.zeros((p, 0)),
                                      plant.energy_weights), t.size)
    trajs = [Trajectory(t=t, states=last[i : i + 1], errors=y[:, :, i].T, energies=energies[:, i])
             for i in range(rows.shape[0])]
    return trajs[0] if np.ndim(x0) == 1 else trajs
