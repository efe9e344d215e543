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
dim)``) so every per-step slice of their own arrays is contiguous, and
they record the activations needed for an exact reverse-mode gradient.
The gate activations are kept gate-major, one contiguous ``(batch,
hidden)`` plane per gate and step (the LSTM's sigmoid gates ``s`` and
candidate ``g`` in one ``(time, 4, batch, hidden)`` buffer, the GRU's
``s`` as ``(time, 2, batch, hidden)``), so no step's elementwise math
reads a column slice.  All arithmetic is float64.

Each cell runs on one *workspace* (:class:`LstmWork`, :class:`GruWork`):
its buffers plus, for every step, a tuple of the views that step reads
and writes, so the time loops unpack views instead of indexing arrays.
A workspace that keeps a tape is the tape: a forward call that keeps
one returns its workspace, which also holds the backward pass's buffers
and views over its own tape arrays.  A forward call given no workspace
(``workspace=``) builds a fresh one, so no two such calls share memory.
A tape-free workspace can write into a caller's buffer.  The kernels
walk ``x`` from its first step and know no direction: run on a reversed
view (``x[::-1]``, ``out=cols[::-1]``), a cell runs over reversed time.
A workspace passed in is overwritten: every forward call overwrites its
tape, and every backward call on a tape overwrites that tape's gradients
and input gradient.
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


# Kernels work on blocks of steps: forward passes compute the input
# projection ``x @ W.T + b`` of a block at once, backward passes the factors
# that depend only on the tape (``1 - s``, ``1 - tanh(c)**2``, ...), the
# gate factors gate-major so that each step's gate math is contiguous.  A
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


def _fresh(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The workspaces' default allocator: a new array for every buffer."""
    return np.empty(shape)


def _zeros(alloc, name: str, shape: tuple[int, ...]) -> np.ndarray:
    buf = alloc(name, shape)
    buf.fill(0.0)
    return buf


def _walk(steps: int, block: int):
    """Per projection block: the slice of ``x`` it projects and the times of its steps."""
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        yield slice(start, stop), range(start, stop)


def _gate_major(a: np.ndarray, gates: int) -> np.ndarray:
    """A view of a ``(..., B, G*H)`` array gate-major: ``(..., G, B, H)``."""
    *lead, batch, width = a.shape
    return a.reshape(*lead, batch, gates, width // gates).swapaxes(-3, -2)


def _check_walk(store_tape: bool, out) -> None:
    if store_tape and out is not None:
        raise ValueError("out is for tape-free workspaces; a tape keeps its own h")


def _check_forward_work(work, x: np.ndarray, store_tape: bool) -> None:
    if (work.shape, work.store_tape) != (x.shape, bool(store_tape)):
        raise ValueError(f"workspace for {work.shape} (store_tape={work.store_tape}) used on {x.shape}")


class LstmWork:
    """Buffers and per-step views of :func:`lstm_forward` and :func:`lstm_backward` for one cell and input shape.

    The tape, all time-major: ``x`` the last forward call's input (T, B,
    D), ``s`` the sigmoid gates i|f|o gate-major (T, 3, B, H) and ``g`` the
    candidate tanh (T, B, H), views of one (T, 4, B, H) buffer i|f|o|g, so
    each step's gate math runs on contiguous (B, H) planes, ``c`` the cell
    state, ``tc`` its tanh and ``h`` the hidden sequence (T, B, H).  Each
    step copies its pre-activations ``a`` (B, 4H) gate-major into its tape
    row and activates them there.  ``alloc(name, shape)`` hands out the
    cell's own buffers; the default allocates fresh ones.  ``blocks`` holds,
    per input-projection block, the slice of ``x`` it reads, the projection
    rows it fills, and one tuple per step of the views that step reads and
    writes, so the time loop only unpacks them.  ``x`` may be any view, a reversed one too: the
    products copy what they read of it C-contiguous (a no-op on a
    contiguous ``x``), since their rounding can depend on operand layout.

    Without a tape, ``out`` may replace ``h``: (T, B, H), such as one
    direction's columns of a layer buffer, or (1, B, H) to keep only the
    last step.

    With ``store_tape`` the workspace also holds the backward pass over its
    tape: ``dh_seq`` the output gradient, ``back_blocks`` the reversed-time
    blocks of per-step views, the parameter gradients in ``grad`` (a
    :class:`CellParams`, fresh arrays unless given) and the input gradient
    in ``dx`` when ``need_dx``.  ``shared`` hands out what cells that run
    one after another may share, as nothing in it is read once the kernel
    call that uses it returns: ``ut`` (``u.T`` times ``sign``, the -1/1
    vector that negates the sigmoid columns; refilled by every forward
    call), ``dh_seq`` (filled right before the backward call that reads
    it), ``da``, ``gates`` (one step's ``da`` gate-major, (4, B, H)), the
    hoisted factors (gate-major ``num`` and ``den``, and ``otc``) and the
    carries.  ``da`` stays row-major, (T, B, 4H): the recurrent and
    weight-gradient products read it, and their rounding can depend on
    operand layout.
    """

    def __init__(self, steps: int, batch: int, inp: int, hidden: int, store_tape: bool = True, alloc=_fresh,
                 grad=None, need_dx=True, shared=_fresh, out=None):
        _check_walk(store_tape, out)
        self.shape, self.store_tape = (steps, batch, inp), bool(store_tape)
        self.x = None
        rows = steps if store_tape else 1  # without a tape every step reuses row 0
        sg = alloc("sg", (rows, 4, batch, hidden))  # i|f|o|g gate-major: each step's gates are contiguous planes
        s, g = self.s, self.g = sg[:, :3], sg[:, 3]
        c = self.c = alloc("c", (rows, batch, hidden))
        tc = self.tc = alloc("tc", (rows, batch, hidden))
        h = self.h = alloc("h", (steps, batch, hidden)) if out is None else out
        i, f, o = s[:, 0], s[:, 1], s[:, 2]
        self.ut = shared("ut", (hidden, 4 * hidden))
        sign = self.sign = alloc("sign", (4 * hidden,))  # -1 on the sigmoid rows i|f|o, 1 on c
        sign[: 3 * hidden], sign[3 * hidden :] = -1.0, 1.0
        a = self.a = alloc("a", (batch, 4 * hidden))
        self.a_gm = _gate_major(a, 4)
        self.ig = alloc("ig", (batch, hidden))
        zero = _zeros(alloc, "zero", (batch, hidden))  # h and c before the first step
        block = _projection_block_len(steps, batch, 4 * hidden)
        xp = alloc("xp", (block, batch, 4 * hidden))
        self.blocks = []
        for rows_x, times in _walk(steps, block):
            views = []
            for j, t in enumerate(times):
                k = t if store_tape else 0
                h_prev, c_prev = (h[(t - 1) % len(h)], c[max(k - 1, 0)]) if t else (zero, zero)
                views.append((h_prev, xp[j], sg[k], s[k], g[k], c_prev, c[k], tc[k], i[k], f[k], o[k], h[t % len(h)]))
            self.blocks.append((rows_x, xp[: len(times)].reshape(-1, 4 * hidden), views))
        if not store_tape:
            return

        dh_seq = self.dh_seq = shared("dh_seq", (steps, batch, hidden))
        da = shared("da", (steps, batch, 4 * hidden))
        self.dh, self.dc = shared("dh", (batch, hidden)), shared("dc", (batch, hidden))
        self.dh_carry, self.dc_carry = shared("dh_carry", (batch, hidden)), shared("dc_carry", (batch, hidden))
        self.gates = shared("gates", (4, batch, hidden))  # one step's da, gate-major
        block = _block_len(steps, batch * 8 * hidden)
        num_buf = shared("num", (block, 4, batch, hidden))  # i|f|o|1 - g**2
        den_buf = shared("den", (block, 3, batch, hidden))  # 1-i|1-f|1-o
        otc_buf = shared("otc", (block, batch, hidden))  # 1 - tanh(c)**2
        self.back_blocks = []
        for end in range(steps, 0, -block):
            start = max(0, end - block)
            num, den, otc = num_buf[: end - start], den_buf[: end - start], otc_buf[: end - start]
            views = [
                (dh_seq[t], num[k, 2], otc[k], g[t], c[t - 1] if t else zero, tc[t], num[k, 0], num[k], den[k],
                 _gate_major(da[t], 4), da[t], num[k, 1])
                for t, k in ((t, t - start) for t in range(end - 1, start - 1, -1))
            ]
            hoist = (s[start:end], num[:, :3], den, tc[start:end], otc, g[start:end], num[:, 3])
            self.back_blocks.append((hoist, views))

        self.flat = da.reshape(steps * batch, 4 * hidden)
        # h_prev is zero at t=0, so the recurrent gradient only sums t >= 1
        self.da_after_0 = da[1:].reshape(-1, 4 * hidden).T
        self.h_before_last = h[:-1].reshape(-1, hidden)
        if grad is None:
            rows = 4 * hidden
            grad = CellParams(w=alloc("dw", (rows, inp)), u=alloc("du", (rows, hidden)), b=alloc("db", (rows,)))
        self.grad = grad
        self.dx = alloc("dx", (steps, batch, inp)) if need_dx else None


def lstm_forward(params: CellParams, x: np.ndarray, store_tape: bool = True, *, workspace=None):
    """Run an LSTM over a time-major batch of sequences from zero state.

    Returns the hidden sequence (T, B, H) and, when requested, the tape
    consumed by :func:`lstm_backward`: the workspace, with ``x`` recorded.
    Activations are written straight into the tape; without one, a single
    slot per quantity is reused.  The input projection is computed a block
    of steps at a time into one reused buffer (see :data:`_HOIST_BYTES`).
    Without a ``workspace`` (an :class:`LstmWork` of this shape) the call
    builds a fresh one, so its outputs share no memory with any other
    call's.
    """
    steps, batch, inp = x.shape
    work = workspace or LstmWork(steps, batch, inp, params.hidden_size, store_tape)
    _check_forward_work(work, x, store_tape)
    # The sigmoid rows i|f|o of w, b and u run negated, in copies of the
    # same memory layout, so each step's sum h @ (-U.T) + (x @ (-W.T) + (-b))
    # holds -a there and the sigmoid is exp, += 1 and 1 / ... with no step
    # spent on negating.  Negation is exact and round-to-nearest is
    # symmetric, so that sum has the bits of -(h @ U.T + (x @ W.T + b)).
    sign, ut = work.sign, work.ut
    wt, b = (params.w * sign[:, None]).T, params.b * sign
    np.multiply(params.u.T, sign, out=ut)
    a, a_gm, ig = work.a, work.a_gm, work.ig
    # The time loops call numpy at its cheapest entry points, with the same
    # ufuncs, operands and order: ufuncs bound to locals with positional
    # outputs, products through ndarray.dot and copies by slice assignment,
    # which skip the Python-level dispatchers of np.dot and np.copyto.
    add, multiply, divide, exp, tanh = np.add, np.multiply, np.divide, np.exp, np.tanh
    for rows_x, xp_m, views in work.blocks:
        np.matmul(np.ascontiguousarray(x[rows_x]).reshape(-1, inp), wt, out=xp_m)
        xp_m += b
        for h_prev, xp_t, sg_t, s_t, g_t, c_prev, c_t, tc_t, i_t, f_t, o_t, h_t in views:
            h_prev.dot(ut, a)
            add(a, xp_t, a)
            sg_t[...] = a_gm
            exp(s_t, s_t)
            add(s_t, 1.0, s_t)
            divide(1.0, s_t, s_t)
            tanh(g_t, g_t)
            multiply(f_t, c_prev, c_t)
            multiply(i_t, g_t, ig)
            add(c_t, ig, c_t)
            multiply(o_t, tanh(c_t, tc_t), h_t)
    work.x = x
    return work.h, work if store_tape else None


def lstm_backward(params: CellParams, tape: LstmWork, dh_seq: np.ndarray):
    """Exact gradient of the LSTM sequence pass that recorded ``tape``.

    ``dh_seq`` holds the loss gradient w.r.t. every hidden output (zeros
    where a step's output is unused).  Returns (parameter gradients as a
    :class:`CellParams`, gradient w.r.t. the layer input, or None when the
    workspace skips it), both in the tape's own buffers, which the next
    backward call on it overwrites.
    """
    if dh_seq is not tape.dh_seq:
        np.copyto(tape.dh_seq, dh_seq)
    u = params.u
    dh, dc, dh_carry, dc_carry = tape.dh, tape.dc, tape.dh_carry, tape.dc_carry
    dh_carry.fill(0.0)
    dc_carry.fill(0.0)
    gates = tape.gates
    da_i, da_f, da_o, da_g = gates
    da_s = gates[:3]
    add, subtract, multiply = np.add, np.subtract, np.multiply  # see lstm_forward
    for (ifo_b, ifo, den, tc_b, otc, g_b, og), views in tape.back_blocks:
        ifo[...] = ifo_b
        subtract(1.0, ifo, den)
        multiply(tc_b, tc_b, otc)
        subtract(1.0, otc, otc)
        multiply(g_b, g_b, og)
        subtract(1.0, og, og)
        for dh_t, o_t, otc_t, g_t, c_prev, tc_t, i_t, num_t, den_t, da_gm, da_t, f_t in views:
            add(dh_t, dh_carry, dh)
            multiply(dh, o_t, dc)
            multiply(dc, otc_t, dc)
            add(dc, dc_carry, dc)
            multiply(dc, g_t, da_i)
            multiply(dc, c_prev, da_f)
            multiply(dh, tc_t, da_o)
            multiply(dc, i_t, da_g)
            multiply(gates, num_t, gates)
            multiply(da_s, den_t, da_s)
            da_gm[...] = gates
            da_t.dot(u, dh_carry)
            multiply(dc, f_t, dc_carry)

    flat, grad = tape.flat, tape.grad
    np.matmul(flat.T, np.ascontiguousarray(tape.x).reshape(flat.shape[0], -1), out=grad.w)
    np.matmul(tape.da_after_0, tape.h_before_last, out=grad.u)
    np.sum(flat, axis=0, out=grad.b)
    if tape.dx is not None:
        np.matmul(flat, params.w, out=tape.dx.reshape(flat.shape[0], -1))
    return grad, tape.dx


class GruWork:
    """Buffers and per-step views of :func:`gru_forward` and :func:`gru_backward`; see :class:`LstmWork`.

    The tape: ``x``, ``s`` the sigmoid gates u|r gate-major (T, 2, B, H),
    ``n`` the candidate tanh, ``rh`` the reset-scaled previous hidden state
    and ``h`` the hidden sequence (T, B, H).  ``shared`` hands out ``u_ur_t`` and
    ``u_c_t`` (``u.T`` by gate group, the sigmoid group u|r negated) in
    place of ``ut``, and ``da_ur`` and ``da_c`` in place of ``da``, with
    ``gates`` (one step's ``da_ur`` gate-major, (2, B, H)) and the hoisted
    ``num``, ``den``, ``onn`` and ``nmh``.
    """

    def __init__(self, steps: int, batch: int, inp: int, hidden: int, store_tape: bool = True, alloc=_fresh,
                 grad=None, need_dx=True, shared=_fresh, out=None):
        _check_walk(store_tape, out)
        self.shape, self.store_tape = (steps, batch, inp), bool(store_tape)
        self.x = None
        rows = steps if store_tape else 1
        s = self.s = alloc("s", (rows, 2, batch, hidden))  # u|r gate-major
        n = self.n = alloc("n", (rows, batch, hidden))
        rh = self.rh = alloc("rh", (rows, batch, hidden))
        h = self.h = alloc("h", (steps, batch, hidden)) if out is None else out
        u, r = s[:, 0], s[:, 1]
        self.u_ur_t = shared("u_ur_t", (hidden, 2 * hidden))
        self.u_c_t = shared("u_c_t", (hidden, hidden))
        self.a_ur, self.a_c = alloc("a_ur", (batch, 2 * hidden)), alloc("a_c", (batch, hidden))
        self.a_ur_gm = _gate_major(self.a_ur, 2)
        self.keep = alloc("keep", (batch, hidden))
        zero = _zeros(alloc, "zero", (batch, hidden))  # h before the first step
        block = _projection_block_len(steps, batch, 3 * hidden)
        xp_ur = alloc("xp_ur", (block, batch, 2 * hidden))
        xp_c = alloc("xp_c", (block, batch, hidden))
        self.blocks = []
        for rows_x, times in _walk(steps, block):
            views = []
            for j, t in enumerate(times):
                k = t if store_tape else 0
                h_prev = h[(t - 1) % len(h)] if t else zero
                views.append((h_prev, xp_ur[j], s[k], r[k], rh[k], xp_c[j], n[k], u[k], h[t % len(h)]))
            m = len(times)
            self.blocks.append((rows_x, xp_ur[:m].reshape(-1, 2 * hidden), xp_c[:m].reshape(-1, hidden), views))
        if not store_tape:
            return

        dh_seq = self.dh_seq = shared("dh_seq", (steps, batch, hidden))
        da_ur = shared("da_ur", (steps, batch, 2 * hidden))
        da_c = shared("da_c", (steps, batch, hidden))
        self.dh, self.drh = shared("dh", (batch, hidden)), shared("drh", (batch, hidden))
        self.tmp, self.dh_carry = shared("tmp", (batch, hidden)), shared("dh_carry", (batch, hidden))
        self.gates = shared("gates", (2, batch, hidden))  # one step's da_ur, gate-major
        block = _block_len(steps, batch * 6 * hidden)
        num_buf = shared("num", (block, 2, batch, hidden))  # u|r
        den_buf = shared("den", (block, 2, batch, hidden))  # 1-u|1-r
        onn_buf = shared("onn", (block, batch, hidden))  # 1 - n**2
        nmh_buf = shared("nmh", (block, batch, hidden))  # n - h_prev
        self.back_blocks = []
        for end in range(steps, 0, -block):
            start = max(0, end - block)
            num, den, onn, nmh = (buf[: end - start] for buf in (num_buf, den_buf, onn_buf, nmh_buf))
            if start:
                differences = [(n[start:end], h[start - 1 : end - 1], nmh)]
            else:  # with a zero h_prev at step 0
                differences = [(n[0], zero, nmh[0]), (n[1:end], h[: end - 1], nmh[1:])]
            views = [
                (dh_seq[t], num[k, 0], da_c[t], onn[k], nmh[k], h[t - 1] if t else zero, num[k], den[k],
                 _gate_major(da_ur[t], 2), da_ur[t], den[k, 0], num[k, 1])
                for t, k in ((t, t - start) for t in range(end - 1, start - 1, -1))
            ]
            self.back_blocks.append(((s[start:end], num, den, n[start:end], onn, differences), views))

        self.flat_ur = da_ur.reshape(steps * batch, 2 * hidden)
        self.flat_c = da_c.reshape(steps * batch, hidden)
        self.da_ur_after_0 = da_ur[1:].reshape(-1, 2 * hidden).T
        self.h_before_last = h[:-1].reshape(-1, hidden)
        self.rh_flat = rh.reshape(steps * batch, hidden)
        if grad is None:
            rows = 3 * hidden
            grad = CellParams(w=alloc("dw", (rows, inp)), u=alloc("du", (rows, hidden)), b=alloc("db", (rows,)))
        self.grad = grad
        self.dx = alloc("dx", (steps, batch, inp)) if need_dx else None
        self.dx_c = shared("dx_c", (steps * batch, inp)) if need_dx else None


def gru_forward(params: CellParams, x: np.ndarray, store_tape: bool = True, *, workspace=None):
    """Run a GRU over a time-major batch of sequences from zero state.

    Like :func:`lstm_forward`, writes activations straight into the tape,
    or into one reused slot per quantity when no tape is kept, computes
    the input projection a block of steps at a time, and builds a fresh
    :class:`GruWork` when given no ``workspace``.
    """
    steps, batch, inp = x.shape
    hsize = params.hidden_size
    work = workspace or GruWork(steps, batch, inp, hsize, store_tape)
    _check_forward_work(work, x, store_tape)
    # One input product per gate group, like the recurrent products: a
    # single product over all 3H columns rounds differently.  The sigmoid
    # group u|r runs negated, so a_ur holds -a (see lstm_forward).
    w_ur_t, b_ur = np.negative(params.w[: 2 * hsize]).T, np.negative(params.b[: 2 * hsize])
    w_c_t, b_c = params.w[2 * hsize :].T, params.b[2 * hsize :]
    u_ur_t, u_c_t = work.u_ur_t, work.u_c_t
    np.negative(params.u[: 2 * hsize].T, out=u_ur_t)
    np.copyto(u_c_t, params.u[2 * hsize :].T)
    a_ur, a_ur_gm, a_c, keep = work.a_ur, work.a_ur_gm, work.a_c, work.keep
    add, subtract, multiply, divide, exp, tanh = np.add, np.subtract, np.multiply, np.divide, np.exp, np.tanh
    for rows_x, xp_ur_m, xp_c_m, views in work.blocks:
        x_m = np.ascontiguousarray(x[rows_x]).reshape(-1, inp)
        np.matmul(x_m, w_ur_t, out=xp_ur_m)
        xp_ur_m += b_ur
        np.matmul(x_m, w_c_t, out=xp_c_m)
        xp_c_m += b_c
        for h_prev, xp_ur_t, s_t, r_t, rh_t, xp_c_t, n_t, u_t, h_t in views:
            h_prev.dot(u_ur_t, a_ur)
            add(a_ur, xp_ur_t, a_ur)
            s_t[...] = a_ur_gm
            exp(s_t, s_t)
            add(s_t, 1.0, s_t)
            divide(1.0, s_t, s_t)
            multiply(r_t, h_prev, rh_t).dot(u_c_t, a_c)
            add(a_c, xp_c_t, a_c)
            tanh(a_c, n_t)
            subtract(1.0, u_t, keep)
            multiply(keep, h_prev, keep)
            multiply(u_t, n_t, h_t)
            add(h_t, keep, h_t)
    work.x = x
    return work.h, work if store_tape else None


def gru_backward(params: CellParams, tape: GruWork, dh_seq: np.ndarray):
    """Exact gradient of a GRU sequence pass; mirrors :func:`lstm_backward`."""
    if dh_seq is not tape.dh_seq:
        np.copyto(tape.dh_seq, dh_seq)
    hsize = params.hidden_size
    u_ur = params.u[: 2 * hsize]
    u_c = params.u[2 * hsize :]
    dh, drh, tmp, dh_carry = tape.dh, tape.drh, tape.tmp, tape.dh_carry
    dh_carry.fill(0.0)
    gates = tape.gates
    da_u, da_r = gates
    add, subtract, multiply = np.add, np.subtract, np.multiply  # see lstm_forward
    for (ur_b, num, den, n_b, onn, differences), views in tape.back_blocks:
        num[...] = ur_b
        subtract(1.0, num, den)
        multiply(n_b, n_b, onn)
        subtract(1.0, onn, onn)
        for a, b, out in differences:
            subtract(a, b, out)
        for dh_t, u_t, da_c, onn_t, nmh_t, h_prev, num_t, den_t, da_gm, da_ur, omu_t, r_t in views:
            add(dh_t, dh_carry, dh)
            multiply(dh, u_t, da_c)
            multiply(da_c, onn_t, da_c)
            da_c.dot(u_c, drh)
            multiply(dh, nmh_t, da_u)
            multiply(drh, h_prev, da_r)
            multiply(gates, num_t, gates)
            multiply(gates, den_t, gates)
            da_gm[...] = gates
            multiply(dh, omu_t, dh_carry)
            add(dh_carry, multiply(drh, r_t, tmp), dh_carry)
            add(dh_carry, da_ur.dot(u_ur, tmp), dh_carry)

    flat_ur, flat_c, grad = tape.flat_ur, tape.flat_c, tape.grad
    flat_x = np.ascontiguousarray(tape.x).reshape(flat_ur.shape[0], -1)
    ur, c = slice(0, 2 * hsize), slice(2 * hsize, 3 * hsize)
    np.matmul(flat_ur.T, flat_x, out=grad.w[ur])
    np.matmul(flat_c.T, flat_x, out=grad.w[c])
    np.matmul(tape.da_ur_after_0, tape.h_before_last, out=grad.u[ur])
    np.matmul(flat_c.T, tape.rh_flat, out=grad.u[c])
    np.sum(flat_ur, axis=0, out=grad.b[ur])
    np.sum(flat_c, axis=0, out=grad.b[c])
    if tape.dx is not None:
        dx_flat = tape.dx.reshape(flat_ur.shape[0], -1)
        np.matmul(flat_ur, params.w[ur], out=dx_flat)
        dx_flat += np.matmul(flat_c, params.w[c], out=tape.dx_c)
    return grad, tape.dx
