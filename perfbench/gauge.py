"""Machine-speed calibration.

The host this benchmark was written on shares its cores with other
tenants. Its speed switches between regimes every few seconds, and the
slow regime costs a small complex eigh 1.7x, an interpreter loop 1.4x.
A run therefore times a fixed calibration kernel between consecutive ops
and scales each op's latency by REFERENCE_S / (mean of the kernel times
just before and just after the op): the time the op would take when the
kernel takes REFERENCE_S. Each workload names the kernel shaped like its
own work (workloads.CALIBRATION), since one kernel cannot follow every
kind of work across regimes. The kernels use only numpy and the standard
library, so a change to eacomp moves scaled and raw times alike.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
import time

import numpy as np

_RNG = np.random.default_rng(0)
_H64 = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_H64 = _H64 + _H64.conj().T
_H256 = _RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))
_H256 = _H256 + _H256.conj().T
_A = _RNG.standard_normal((4096, 8))
_IDX = _RNG.integers(0, 3, size=(20000, 8))
_G = _RNG.random((3, 3))
_DOC = {"states": [{"label": str(i), "prob": 0.1, "psi": [[0.5, 0.1]] * 4} for i in range(6)]}


def _interpreter(scratch: str):
    """What a CLI call does around the numbers: build a parser, dump JSON,
    write it atomically and read it back. File operations slow down under
    sustained file churn on the reference machine, so they are part of it."""
    for _ in range(3):
        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers()
        for n in range(6):
            p = sub.add_parser(f"c{n}")
            for k in range(8):
                p.add_argument(f"--o{k}", type=float, default=None)
        text = json.dumps(_DOC, indent=2, sort_keys=True)
        np.linalg.eigvalsh(_H64[:4, :4])
    path = os.path.join(scratch, "gauge.json")
    for _ in range(2):
        fd, tmp = tempfile.mkstemp(dir=scratch, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)


def _dense(scratch: str):
    """One mid-sized Hermitian eigenvalue problem."""
    np.linalg.eigvalsh(_H256)


def _arrays(scratch: str):
    """Fancy indexing and products over long index tables."""
    for _ in range(3):
        _G[_IDX, _IDX].prod(axis=1)


def _mixed(scratch: str):
    """Small complex eigh, array arithmetic and an interpreter loop."""
    for _ in range(4):
        np.linalg.eigh(_H64)
    for _ in range(8):
        (_A[:, :, None] * _A[:, None, :]).sum(axis=0)
    s = 0
    for i in range(20000):
        s += i * i


KERNELS = {"interpreter": _interpreter, "dense": _dense, "arrays": _arrays, "mixed": _mixed}
# Median kernel seconds on the reference machine (2-vCPU Xeon at 2.0 GHz,
# numpy 2.4 with OpenBLAS on one thread). Only the ratio matters; these
# keep scaled times close to raw ones there.
REFERENCE_S = {"interpreter": 0.006, "dense": 0.012, "arrays": 0.005, "mixed": 0.018}


class SpeedGauge:
    def __init__(self, kernel: str, scratch: str):
        """scratch: a directory the kernel may write a file into."""
        self.kernel, self.scratch = kernel, scratch
        os.makedirs(scratch, exist_ok=True)
        self._fn = KERNELS[kernel]
        self.samples: list[float] = []
        self.last = self.calibrate()

    def calibrate(self) -> float:
        t0 = time.perf_counter()
        self._fn(self.scratch)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def scale(self, raw: float) -> float:
        """raw seconds at reference speed; calibrates once more."""
        after = self.calibrate()
        factor = REFERENCE_S[self.kernel] / (0.5 * (self.last + after))
        self.last = after
        return raw * factor

    def summary(self) -> str:
        return (f"speed: {self.kernel} kernel median {statistics.median(self.samples) * 1000.0:.2f} ms "
                f"over {len(self.samples)} runs; times scaled to {REFERENCE_S[self.kernel] * 1000.0:.0f} ms")
