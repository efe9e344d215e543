"""Frozen straightforward sequence kernels: the bit-exact oracle for ``cells``.

These are the original allocate-per-step LSTM/GRU forward and backward
kernels, kept verbatim so the workspace kernels in
:mod:`cryptoforecast.cells` can be held to ``np.array_equal`` against
them.  Every element goes through the same floating-point operations in
the same order here as there; any reassociation shows up as a bit
difference.  Tapes are plain namespaces with the same field names as
``LstmTape`` / ``GruTape``.
"""

from types import SimpleNamespace

import numpy as np

from cryptoforecast.cells import CellParams


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_forward(params, x, store_tape=True):
    steps, batch, _ = x.shape
    hsize = params.hidden_size
    xp = x.reshape(steps * batch, -1) @ params.w.T
    xp += params.b
    xp = xp.reshape(steps, batch, 4 * hsize)
    ut = np.ascontiguousarray(params.u.T)

    h = np.zeros((batch, hsize))
    c = np.zeros((batch, hsize))
    h_seq = np.empty((steps, batch, hsize))
    if store_tape:
        sig_gates = np.empty((steps, batch, 3 * hsize))
        cand = np.empty((steps, batch, hsize))
        cells_ = np.empty((steps, batch, hsize))
        tcells = np.empty((steps, batch, hsize))

    for t in range(steps):
        a = xp[t] + h @ ut
        s = sigmoid(a[:, : 3 * hsize])
        g = np.tanh(a[:, 3 * hsize :])
        i = s[:, :hsize]
        f = s[:, hsize : 2 * hsize]
        o = s[:, 2 * hsize :]
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        h_seq[t] = h
        if store_tape:
            sig_gates[t] = s
            cand[t] = g
            cells_[t] = c
            tcells[t] = tc

    if not store_tape:
        return h_seq, None
    return h_seq, SimpleNamespace(x=x, s=sig_gates, g=cand, c=cells_, tc=tcells, h=h_seq)


def lstm_backward(params, tape, dh_seq):
    steps, batch, hsize = tape.h.shape
    da = np.empty((steps, batch, 4 * hsize))
    dh_carry = np.zeros((batch, hsize))
    dc_carry = np.zeros((batch, hsize))

    for t in reversed(range(steps)):
        s = tape.s[t]
        i = s[:, :hsize]
        f = s[:, hsize : 2 * hsize]
        o = s[:, 2 * hsize :]
        g = tape.g[t]
        tc = tape.tc[t]
        c_prev = tape.c[t - 1] if t > 0 else 0.0

        dh = dh_seq[t] + dh_carry
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        da_t = da[t]
        da_t[:, :hsize] = (dc * g) * i * (1.0 - i)
        da_t[:, hsize : 2 * hsize] = (dc * c_prev) * f * (1.0 - f)
        da_t[:, 2 * hsize : 3 * hsize] = (dh * tc) * o * (1.0 - o)
        da_t[:, 3 * hsize :] = (dc * i) * (1.0 - g * g)
        dh_carry = da_t @ params.u
        dc_carry = dc * f

    flat = da.reshape(steps * batch, 4 * hsize)
    dw = flat.T @ tape.x.reshape(steps * batch, -1)
    du = da[1:].reshape(-1, 4 * hsize).T @ tape.h[:-1].reshape(-1, hsize)
    db = flat.sum(axis=0)
    dx = (flat @ params.w).reshape(tape.x.shape)
    return CellParams(w=dw, u=du, b=db), dx


def gru_forward(params, x, store_tape=True):
    steps, batch, _ = x.shape
    hsize = params.hidden_size
    w_ur = params.w[: 2 * hsize]
    w_c = params.w[2 * hsize :]
    u_ur_t = np.ascontiguousarray(params.u[: 2 * hsize].T)
    u_c_t = np.ascontiguousarray(params.u[2 * hsize :].T)

    flat_x = x.reshape(steps * batch, -1)
    xp_ur = (flat_x @ w_ur.T + params.b[: 2 * hsize]).reshape(steps, batch, 2 * hsize)
    xp_c = (flat_x @ w_c.T + params.b[2 * hsize :]).reshape(steps, batch, hsize)

    h = np.zeros((batch, hsize))
    h_seq = np.empty((steps, batch, hsize))
    if store_tape:
        sig_gates = np.empty((steps, batch, 2 * hsize))
        cand = np.empty((steps, batch, hsize))
        resets = np.empty((steps, batch, hsize))

    for t in range(steps):
        s = sigmoid(xp_ur[t] + h @ u_ur_t)
        u = s[:, :hsize]
        r = s[:, hsize:]
        rh = r * h
        n = np.tanh(xp_c[t] + rh @ u_c_t)
        h = (1.0 - u) * h + u * n
        h_seq[t] = h
        if store_tape:
            sig_gates[t] = s
            cand[t] = n
            resets[t] = rh

    if not store_tape:
        return h_seq, None
    return h_seq, SimpleNamespace(x=x, s=sig_gates, n=cand, rh=resets, h=h_seq)


def gru_backward(params, tape, dh_seq):
    steps, batch, hsize = tape.h.shape
    u_ur = params.u[: 2 * hsize]
    u_c = params.u[2 * hsize :]
    da_ur = np.empty((steps, batch, 2 * hsize))
    da_c = np.empty((steps, batch, hsize))
    dh_carry = np.zeros((batch, hsize))

    for t in reversed(range(steps)):
        s = tape.s[t]
        u = s[:, :hsize]
        r = s[:, hsize:]
        n = tape.n[t]
        h_prev = tape.h[t - 1] if t > 0 else 0.0

        dh = dh_seq[t] + dh_carry
        dan = (dh * u) * (1.0 - n * n)
        drh = dan @ u_c
        da_t = da_ur[t]
        da_t[:, :hsize] = (dh * (n - h_prev)) * u * (1.0 - u)
        da_t[:, hsize:] = (drh * h_prev) * r * (1.0 - r)
        da_c[t] = dan
        dh_carry = dh * (1.0 - u) + drh * r + da_t @ u_ur

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
