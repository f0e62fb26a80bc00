"""Instrumented integer-op layer for the approximate datapath.

Every add/sub/shift in the transform and quantizer is routed through an
IntOps instance so a counting subclass can audit what a hardware datapath
would execute. Counts are per scalar lane: an op on an n-element array
counts n. Shifts and negations are tracked separately from adds because
the energy proxy treats shifts as wiring.

The default UNCOUNTED singleton has zero bookkeeping overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _lanes(x) -> int:
    return int(np.size(x))


class IntOps:
    """Pass-through integer ops (no counting)."""

    __slots__ = ()

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def shl(a, k):
        return a << k

    @staticmethod
    def shr(a, k):
        return a >> k

    def kernel(self, name: str, lanes: int):
        pass

    def charge(self, adds: int = 0, subs: int = 0, shifts: int = 0, kernels=None):
        """Book the lanes of datapath work that the software computes in
        another form: adds, subs and shifts, and kernels, a mapping of
        kernel name to lanes (a name with 0 lanes is still recorded). The
        skip scan charges its bands (knobs.skip_flags_many); fdct_2d and
        the pipeline's round trip charge their specs' census per block
        (charge_blocks)."""

    def charge_blocks(self, census: OpCounter, n: int):
        """Book n blocks of census, the counts of one block's spec."""
        self.charge(
            adds=n * census.adds,
            subs=n * census.subs,
            shifts=n * census.shifts,
            kernels={name: n * lanes for name, lanes in census.kernel_calls.items()},
        )


UNCOUNTED = IntOps()


@dataclass
class OpCounter(IntOps):
    """Counts datapath operations per scalar lane. muls stays 0: the
    datapath is multiplier-less and no op or charge books a multiply; the
    field is kept so that a census can report that."""

    adds: int = 0
    subs: int = 0
    shifts: int = 0
    muls: int = 0
    kernel_calls: dict = field(default_factory=dict)

    def add(self, a, b):
        r = a + b
        self.adds += _lanes(r)
        return r

    def sub(self, a, b):
        r = a - b
        self.subs += _lanes(r)
        return r

    def neg(self, a):
        self.subs += _lanes(a)
        return -a

    def shl(self, a, k):
        self.shifts += _lanes(a)
        return a << k

    def shr(self, a, k):
        self.shifts += _lanes(a)
        return a >> k

    def kernel(self, name: str, lanes: int):
        self.kernel_calls[name] = self.kernel_calls.get(name, 0) + lanes

    def charge(self, adds: int = 0, subs: int = 0, shifts: int = 0, kernels=None):
        self.adds += adds
        self.subs += subs
        self.shifts += shifts
        for name, lanes in (kernels or {}).items():
            self.kernel(name, lanes)

    @property
    def addsub(self) -> int:
        return self.adds + self.subs
