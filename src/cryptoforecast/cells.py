"""LSTM and GRU cell math: gate parameters, single steps, sequence kernels.

Both cell kinds keep their gate weights stacked row-wise in one fused
(W, U, b) triple so a whole step is two matrix products.  The sigmoid
gates come first so they can be activated in a single contiguous block:

* LSTM rows, in order: input gate ``i``, forget gate ``f``, output gate
  ``o``, candidate ``c`` (4H rows).  The update is

    ``i = sigmoid(W_i x + U_i h + b_i)``        (likewise ``f`` and ``o``)
    ``c_t = f * c_prev + i * tanh(W_c x + U_c h + b_c)``
    ``h_t = o * tanh(c_t)``

* GRU rows, in order: update gate ``u``, reset gate ``r``, candidate
  ``c`` (3H rows).  The candidate applies the reset gate to the previous
  hidden state before the recurrent product:

    ``u = sigmoid(W_u x + U_u h + b_u)``        (likewise ``r``)
    ``n = tanh(W_c x + U_c (r * h) + b_c)``
    ``h_t = (1 - u) * h_prev + u * n``

The sequence kernels run time-major (arrays shaped ``(time, batch,
dim)``) so every per-step slice is contiguous, and they record the
activations needed for an exact reverse-mode gradient.  All arithmetic
is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LSTM_GATE_ORDER = ("i", "f", "o", "c")
GRU_GATE_ORDER = ("u", "r", "c")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(eq=False)
class CellParams:
    """Fused per-cell weights: ``w`` (G*H, D), ``u`` (G*H, H), ``b`` (G*H,).

    G is 4 for LSTM and 3 for GRU; the row blocks follow
    :data:`LSTM_GATE_ORDER` / :data:`GRU_GATE_ORDER`.  The same container
    is reused for shape-congruent gradients.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.u.shape[1]

    @property
    def input_size(self) -> int:
        return self.w.shape[1]

    def gate_block(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of (w, u, b) for one gate, by position in the stacked order."""
        h = self.hidden_size
        rows = slice(index * h, (index + 1) * h)
        return self.w[rows], self.u[rows], self.b[rows]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.w, self.u, self.b


@dataclass
class CellState:
    """Recurrent state: hidden vector ``h`` and, for LSTM only, cell vector ``c``."""

    h: np.ndarray
    c: np.ndarray | None = None


def _check_step_shapes(params: CellParams, x_t: np.ndarray, h: np.ndarray, gates: int):
    hsize = params.hidden_size
    if params.w.shape[0] != gates * hsize or params.b.shape[0] != gates * hsize:
        raise ValueError("fused gate rows inconsistent with hidden size")
    if x_t.shape != (params.input_size,):
        raise ValueError(f"expected input shape ({params.input_size},), got {x_t.shape}")
    if h.shape != (hsize,):
        raise ValueError(f"expected hidden shape ({hsize},), got {h.shape}")


def lstm_step(params: CellParams, x_t, state: CellState) -> CellState:
    """One LSTM update on plain vectors.  Reference path for the fast kernels."""
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(state.h, dtype=np.float64)
    if state.c is None:
        raise ValueError("LSTM state requires a cell vector")
    c_prev = np.asarray(state.c, dtype=np.float64)
    _check_step_shapes(params, x_t, h_prev, gates=4)
    if c_prev.shape != h_prev.shape:
        raise ValueError("hidden and cell vectors must have equal shape")

    hsize = params.hidden_size
    a = params.w @ x_t + params.u @ h_prev + params.b
    i = sigmoid(a[:hsize])
    f = sigmoid(a[hsize : 2 * hsize])
    o = sigmoid(a[2 * hsize : 3 * hsize])
    g = np.tanh(a[3 * hsize :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return CellState(h=h, c=c)


def gru_step(params: CellParams, x_t, h_prev) -> np.ndarray:
    """One GRU update on plain vectors.  Reference path for the fast kernels."""
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    _check_step_shapes(params, x_t, h_prev, gates=3)

    hsize = params.hidden_size
    a_ur = params.w[: 2 * hsize] @ x_t + params.u[: 2 * hsize] @ h_prev + params.b[: 2 * hsize]
    u = sigmoid(a_ur[:hsize])
    r = sigmoid(a_ur[hsize:])
    a_c = params.w[2 * hsize :] @ x_t + params.u[2 * hsize :] @ (r * h_prev) + params.b[2 * hsize :]
    n = np.tanh(a_c)
    return (1.0 - u) * h_prev + u * n


@dataclass(eq=False)
class LstmTape:
    """Activations recorded by :func:`lstm_forward` for the backward pass.

    All arrays are time-major.  ``s`` holds the three sigmoid gates in
    one (T, B, 3H) block ordered i, f, o; ``g`` is the candidate tanh.
    """

    x: np.ndarray  # (T, B, D) layer input
    s: np.ndarray  # (T, B, 3H) sigmoid gates i|f|o
    g: np.ndarray  # (T, B, H) candidate tanh
    c: np.ndarray  # (T, B, H) cell state
    tc: np.ndarray  # (T, B, H) tanh of cell state
    h: np.ndarray  # (T, B, H) hidden sequence


@dataclass(eq=False)
class GruTape:
    """Activations recorded by :func:`gru_forward` for the backward pass."""

    x: np.ndarray  # (T, B, D)
    s: np.ndarray  # (T, B, 2H) sigmoid gates u|r
    n: np.ndarray  # (T, B, H) candidate tanh
    rh: np.ndarray  # (T, B, H) reset-scaled previous hidden state
    h: np.ndarray  # (T, B, H) hidden sequence


# Kernels work on blocks of steps: forward passes compute the input
# projection ``x @ W.T + b`` of a block at once, backward passes the factors
# that depend only on the tape (``1 - s``, ``1 - tanh(c)**2``, ...).  A
# block holds as many steps as fit this many bytes of such temporaries, so
# they stay cache resident: the whole window at quick.cfg shapes, a single
# step at paper and scoring shapes.
_HOIST_BYTES = 64 * 1024


def _block_len(steps: int, floats_per_step: int) -> int:
    return max(1, min(steps, _HOIST_BYTES // (8 * floats_per_step)))


def _projection_block_len(steps: int, batch: int, width: int) -> int:
    """Steps per input-projection block of a forward kernel.

    A one-row product takes numpy's matrix-vector path, which rounds
    differently from the matrix product, so a single sequence is projected
    whole rather than one step at a time.
    """
    return steps if batch == 1 else _block_len(steps, batch * width)


def _sigmoid_into(a: np.ndarray, out: np.ndarray) -> None:
    """``out = 1.0 / (1.0 + exp(-a))``, the same operations as :func:`sigmoid`."""
    np.negative(a, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)


def lstm_forward(params: CellParams, x: np.ndarray, store_tape: bool = True):
    """Run an LSTM over a time-major batch of sequences from zero state.

    Returns the hidden sequence (T, B, H) and, when requested, the tape
    consumed by :func:`lstm_backward`.  Activations are written straight
    into the tape; without one, a single slot per quantity is reused.  The
    input projection is computed a block of steps at a time into one
    reused buffer (see :data:`_HOIST_BYTES`).
    """
    steps, batch, inp = x.shape
    hsize = params.hidden_size
    wt = params.w.T
    ut = np.ascontiguousarray(params.u.T)
    block = _projection_block_len(steps, batch, 4 * hsize)
    xp = np.empty((block, batch, 4 * hsize))
    xp_flat = xp.reshape(block * batch, 4 * hsize)

    # With a tape, step t writes row t of each tape array; without one,
    # every step reuses row 0.  c starts at zero, so the row step 0 writes
    # doubles as the zero initial cell state.
    rows = steps if store_tape else 1
    s = np.empty((rows, batch, 3 * hsize))
    g = np.empty((rows, batch, hsize))
    c = np.zeros((rows, batch, hsize))
    tc = np.empty((rows, batch, hsize))
    i, f, o = s[:, :, :hsize], s[:, :, hsize : 2 * hsize], s[:, :, 2 * hsize :]
    h_seq = np.empty((steps, batch, hsize))
    zero = np.zeros((batch, hsize))
    a = np.empty((batch, 4 * hsize))
    a_s, a_g = a[:, : 3 * hsize], a[:, 3 * hsize :]
    ig = np.empty((batch, hsize))

    for t in range(steps):
        j = t % block
        if not j:
            m = min(block, steps - t)
            xp_m = np.matmul(x[t : t + m].reshape(m * batch, inp), wt, out=xp_flat[: m * batch])
            xp_m += params.b
        k = t if store_tape else 0
        np.matmul(h_seq[t - 1] if t else zero, ut, out=a)
        a += xp[j]
        _sigmoid_into(a_s, s[k])
        g_t = np.tanh(a_g, out=g[k])
        c_t = np.multiply(f[k], c[max(k - 1, 0)], out=c[k])
        np.multiply(i[k], g_t, out=ig)
        c_t += ig
        np.multiply(o[k], np.tanh(c_t, out=tc[k]), out=h_seq[t])

    if not store_tape:
        return h_seq, None
    return h_seq, LstmTape(x=x, s=s, g=g, c=c, tc=tc, h=h_seq)


def lstm_backward(params: CellParams, tape: LstmTape, dh_seq: np.ndarray):
    """Exact gradient of an LSTM sequence pass.

    ``dh_seq`` holds the loss gradient w.r.t. every hidden output (zeros
    where a step's output is unused).  Returns (parameter gradients as a
    :class:`CellParams`, gradient w.r.t. the layer input).
    """
    steps, batch, hsize = tape.h.shape
    s, g, c, tc = tape.s, tape.g, tape.c, tape.tc
    i, f, o = s[:, :, :hsize], s[:, :, hsize : 2 * hsize], s[:, :, 2 * hsize :]
    u = params.u
    da = np.empty((steps, batch, 4 * hsize))
    da_s, da_g = da[:, :, : 3 * hsize], da[:, :, 3 * hsize :]
    da_i, da_f, da_o = da[:, :, :hsize], da[:, :, hsize : 2 * hsize], da[:, :, 2 * hsize : 3 * hsize]
    dh = np.empty((batch, hsize))
    dc = np.empty((batch, hsize))
    dh_carry = np.zeros((batch, hsize))
    dc_carry = np.zeros((batch, hsize))
    zero = np.zeros((batch, hsize))

    block = _block_len(steps, batch * 5 * hsize)
    oms_buf = np.empty((block, batch, 3 * hsize))
    otc_buf = np.empty((block, batch, hsize))
    og_buf = np.empty((block, batch, hsize))
    for end in range(steps, 0, -block):
        start = max(0, end - block)
        m = end - start
        oms = np.subtract(1.0, s[start:end], out=oms_buf[:m])  # 1 - sigmoid gates
        otc = np.multiply(tc[start:end], tc[start:end], out=otc_buf[:m])
        np.subtract(1.0, otc, out=otc)  # 1 - tanh(c)**2
        og = np.multiply(g[start:end], g[start:end], out=og_buf[:m])
        np.subtract(1.0, og, out=og)  # 1 - g**2

        for t in range(end - 1, start - 1, -1):
            k = t - start
            np.add(dh_seq[t], dh_carry, out=dh)
            np.multiply(dh, o[t], out=dc)
            dc *= otc[k]
            dc += dc_carry
            np.multiply(dc, g[t], out=da_i[t])
            np.multiply(dc, c[t - 1] if t else zero, out=da_f[t])
            np.multiply(dh, tc[t], out=da_o[t])
            das = da_s[t]
            das *= s[t]
            das *= oms[k]
            dag = np.multiply(dc, i[t], out=da_g[t])
            dag *= og[k]
            np.matmul(da[t], u, out=dh_carry)
            np.multiply(dc, f[t], out=dc_carry)

    flat = da.reshape(steps * batch, 4 * hsize)
    dw = flat.T @ tape.x.reshape(steps * batch, -1)
    # h_prev is zero at t=0, so the recurrent gradient only sums t >= 1.
    du = da[1:].reshape(-1, 4 * hsize).T @ tape.h[:-1].reshape(-1, hsize)
    db = flat.sum(axis=0)
    dx = (flat @ params.w).reshape(tape.x.shape)
    return CellParams(w=dw, u=du, b=db), dx


def gru_forward(params: CellParams, x: np.ndarray, store_tape: bool = True):
    """Run a GRU over a time-major batch of sequences from zero state.

    Like :func:`lstm_forward`, writes activations straight into the tape,
    or into one reused slot per quantity when no tape is kept, and computes
    the input projection a block of steps at a time.
    """
    steps, batch, inp = x.shape
    hsize = params.hidden_size
    # One input product per gate group, like the recurrent products: a
    # single product over all 3H columns rounds differently.
    w_ur_t, b_ur = params.w[: 2 * hsize].T, params.b[: 2 * hsize]
    w_c_t, b_c = params.w[2 * hsize :].T, params.b[2 * hsize :]
    u_ur_t = np.ascontiguousarray(params.u[: 2 * hsize].T)
    u_c_t = np.ascontiguousarray(params.u[2 * hsize :].T)
    block = _projection_block_len(steps, batch, 3 * hsize)
    xp_ur = np.empty((block, batch, 2 * hsize))
    xp_c = np.empty((block, batch, hsize))
    xp_ur_flat = xp_ur.reshape(block * batch, 2 * hsize)
    xp_c_flat = xp_c.reshape(block * batch, hsize)

    rows = steps if store_tape else 1
    s = np.empty((rows, batch, 2 * hsize))
    n = np.empty((rows, batch, hsize))
    rh = np.empty((rows, batch, hsize))
    u, r = s[:, :, :hsize], s[:, :, hsize:]
    h_seq = np.empty((steps, batch, hsize))
    zero = np.zeros((batch, hsize))
    a_ur = np.empty((batch, 2 * hsize))
    a_c = np.empty((batch, hsize))
    keep = np.empty((batch, hsize))

    for t in range(steps):
        j = t % block
        if not j:
            m = min(block, steps - t)
            x_m = x[t : t + m].reshape(m * batch, inp)
            xp_ur_m = np.matmul(x_m, w_ur_t, out=xp_ur_flat[: m * batch])
            xp_ur_m += b_ur
            xp_c_m = np.matmul(x_m, w_c_t, out=xp_c_flat[: m * batch])
            xp_c_m += b_c
        k = t if store_tape else 0
        h_prev = h_seq[t - 1] if t else zero
        np.matmul(h_prev, u_ur_t, out=a_ur)
        a_ur += xp_ur[j]
        _sigmoid_into(a_ur, s[k])
        np.matmul(np.multiply(r[k], h_prev, out=rh[k]), u_c_t, out=a_c)
        a_c += xp_c[j]
        n_t = np.tanh(a_c, out=n[k])
        np.subtract(1.0, u[k], out=keep)
        keep *= h_prev
        h_t = np.multiply(u[k], n_t, out=h_seq[t])
        h_t += keep

    if not store_tape:
        return h_seq, None
    return h_seq, GruTape(x=x, s=s, n=n, rh=rh, h=h_seq)


def gru_backward(params: CellParams, tape: GruTape, dh_seq: np.ndarray):
    """Exact gradient of a GRU sequence pass; mirrors :func:`lstm_backward`."""
    steps, batch, hsize = tape.h.shape
    s, n, h = tape.s, tape.n, tape.h
    u, r = s[:, :, :hsize], s[:, :, hsize:]
    u_ur = params.u[: 2 * hsize]
    u_c = params.u[2 * hsize :]
    da_ur = np.empty((steps, batch, 2 * hsize))
    da_u, da_r = da_ur[:, :, :hsize], da_ur[:, :, hsize:]
    da_c = np.empty((steps, batch, hsize))
    dh = np.empty((batch, hsize))
    drh = np.empty((batch, hsize))
    tmp = np.empty((batch, hsize))
    dh_carry = np.zeros((batch, hsize))
    zero = np.zeros((batch, hsize))

    block = _block_len(steps, batch * 4 * hsize)
    oms_buf = np.empty((block, batch, 2 * hsize))
    onn_buf = np.empty((block, batch, hsize))
    nmh_buf = np.empty((block, batch, hsize))
    for end in range(steps, 0, -block):
        start = max(0, end - block)
        m = end - start
        oms = np.subtract(1.0, s[start:end], out=oms_buf[:m])  # 1 - sigmoid gates
        omu = oms[:, :, :hsize]
        onn = np.multiply(n[start:end], n[start:end], out=onn_buf[:m])
        np.subtract(1.0, onn, out=onn)  # 1 - n**2
        nmh = nmh_buf[:m]  # n - h_prev, with a zero h_prev at step 0
        if start:
            np.subtract(n[start:end], h[start - 1 : end - 1], out=nmh)
        else:
            np.subtract(n[0], zero, out=nmh[0])
            np.subtract(n[1:end], h[: end - 1], out=nmh[1:])

        for t in range(end - 1, start - 1, -1):
            k = t - start
            np.add(dh_seq[t], dh_carry, out=dh)
            dan = np.multiply(dh, u[t], out=da_c[t])
            dan *= onn[k]
            np.matmul(dan, u_c, out=drh)
            np.multiply(dh, nmh[k], out=da_u[t])
            np.multiply(drh, h[t - 1] if t else zero, out=da_r[t])
            da_t = da_ur[t]
            da_t *= s[t]
            da_t *= oms[k]
            np.multiply(dh, omu[k], out=dh_carry)
            dh_carry += np.multiply(drh, r[t], out=tmp)
            dh_carry += np.matmul(da_t, u_ur, out=tmp)

    flat_ur = da_ur.reshape(steps * batch, 2 * hsize)
    flat_c = da_c.reshape(steps * batch, hsize)
    flat_x = tape.x.reshape(steps * batch, -1)
    dw = np.concatenate([flat_ur.T @ flat_x, flat_c.T @ flat_x], axis=0)
    du_ur = da_ur[1:].reshape(-1, 2 * hsize).T @ tape.h[:-1].reshape(-1, hsize)
    du_c = flat_c.T @ tape.rh.reshape(steps * batch, hsize)
    du = np.concatenate([du_ur, du_c], axis=0)
    db = np.concatenate([flat_ur.sum(axis=0), flat_c.sum(axis=0)])
    dx = (flat_ur @ params.w[: 2 * hsize] + flat_c @ params.w[2 * hsize :]).reshape(tape.x.shape)
    return CellParams(w=dw, u=du, b=db), dx
