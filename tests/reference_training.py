"""Frozen per-batch training loop: the bit-exact oracle for ``training.train``.

This is the loop from before training kept its buffers across batches:
every batch runs the two-branch model of ``reference_network`` on fresh
tapes, packs its gradients into a new vector and applies the per-array
Adam update of ``reference_adam`` to new vectors.  Shuffling, batching,
the batch loss and the validation loss are as they were.  Tests hold
``train`` to its parameters, losses and moment vectors bit for bit.  Do
not edit.
"""

import numpy as np

from cryptoforecast.metrics import mse_loss
from cryptoforecast.network import ModelParams

import reference_adam
import reference_network


def train(model, train_batch, config):
    """Returns (params vector, m, v, Adam steps, train losses, validation losses)."""
    n = len(train_batch)
    n_val = int(n * config.validation_fraction)
    n_train = n - n_val
    inputs, targets = train_batch.inputs, train_batch.targets

    rng = np.random.default_rng(config.shuffle_seed)
    p = model.vector.copy()
    m, v, step = np.zeros_like(p), np.zeros_like(p), 0
    train_losses, val_losses = [], []
    for _ in range(config.epochs):
        perm = rng.permutation(n_train)
        batch_losses = []
        for start in range(0, n_train, config.batch_size):
            idx = perm[start : start + config.batch_size]
            current = ModelParams(model.arch, p, model.seed)
            preds, tape = reference_network.forward_batch(current, inputs[idx])
            resid = preds - targets[idx]
            batch_losses.append(float(np.mean(resid * resid)))
            d_preds = (2.0 / idx.shape[0]) * resid
            g = np.concatenate(reference_network.backward_batch(current, tape, d_preds), axis=None)
            (p,), (m,), (v,) = reference_adam.adam_step([p], [g], [m], [v], step, config)
            step += 1
        train_losses.append(float(np.mean(batch_losses)))
        if n_val > 0:
            current = ModelParams(model.arch, p, model.seed)
            val_preds, _ = reference_network.forward_batch(current, inputs[n_train:], store_tape=False)
            val_losses.append(mse_loss(val_preds, targets[n_train:]))
        else:
            val_losses.append(None)
    return p, m, v, step, train_losses, val_losses
