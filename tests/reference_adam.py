"""Frozen per-array Adam step: the bit-exact oracle for ``training.adam_step``.

This is the original update, one parameter array at a time with whole-array
temporaries, kept verbatim so the blocked vector update can be held to
``np.array_equal`` against it.  Arrays are plain lists in
``ModelParams.flat()`` order.
"""

import numpy as np


def adam_step(p_arrays, g_arrays, m_arrays, v_arrays, step, config):
    """Returns (new params, new m, new v) as lists, for update number ``step + 1``."""
    t = step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    lr, eps = config.learning_rate, config.adam_epsilon

    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(p_arrays, g_arrays, m_arrays, v_arrays):
        m2 = b1 * m + (1.0 - b1) * g
        v2 = b2 * v + (1.0 - b2) * (g * g)
        update = lr * (m2 / corr1) / (np.sqrt(v2 / corr2) + eps)
        new_p.append(p - update)
        new_m.append(m2)
        new_v.append(v2)
    return new_p, new_m, new_v
