"""A fixed numpy kernel that measures how fast the machine is right now.

On a shared box the same work runs up to 1.6x slower for a minute at a
time, alike for every numpy kernel in the process.  The benchmark runs a
short block of this kernel after every request (and, inside ``run``, after
every training call) and divides each stretch of request time between two
blocks by their mean unit time, so that the drift cancels.  The kernel is
the benchmark's own code and never changes with the program.
"""

from __future__ import annotations

import json
import time

import numpy as np

_STEPS = 60


class Calibrator:
    """Gate-style recurrence plus a JSON round trip, timed in fixed blocks.

    Width and batch follow the workload's dominant kernel calls, and the
    JSON part stands in for checkpoint reads and writes, so that a slow spell
    that hits memory-bound or interpreter-bound code harder hits both sides.
    """

    def __init__(self, hidden: int, batch: int, json_floats: int, units_per_block: int):
        rng = np.random.default_rng(20240101)
        self._w = rng.uniform(-0.1, 0.1, size=(hidden, 4 * hidden))
        self._h0 = rng.uniform(0.0, 1.0, size=(batch, hidden))
        self._floats = rng.uniform(-0.1, 0.1, size=json_floats).tolist()
        self._units = units_per_block
        self.blocks: list = []  # (start, end, mean unit seconds) of every block run so far

    def _unit(self) -> None:
        hsize = self._h0.shape[1]
        h = self._h0
        c = np.zeros_like(h)
        for _ in range(_STEPS):
            a = h @ self._w
            s = 1.0 / (1.0 + np.exp(-a[:, : 3 * hsize]))
            c = s[:, hsize : 2 * hsize] * c + s[:, :hsize] * np.tanh(a[:, 3 * hsize :])
            h = s[:, 2 * hsize :] * np.tanh(c)
        if self._floats:
            json.loads(json.dumps(self._floats))

    def block(self) -> None:
        started = time.perf_counter()
        for _ in range(self._units):
            self._unit()
        ended = time.perf_counter()
        self.blocks.append((started, ended, (ended - started) / self._units))

    def in_units(self, intervals) -> float:
        """Time spent in ``intervals``, each stretch between two blocks divided by their mean unit."""
        total = 0.0
        for (_, gap_start, u_before), (gap_end, _, u_after) in zip(self.blocks, self.blocks[1:]):
            inside = sum(max(0.0, min(end, gap_end) - max(start, gap_start)) for start, end in intervals)
            total += inside / (0.5 * (u_before + u_after))
        return total
