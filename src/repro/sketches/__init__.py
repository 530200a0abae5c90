"""Single-stream cardinality sketches and the array substrates they share.

This subpackage implements, from scratch, the single-stream sketches the
compared methods are built from:

* :class:`~repro.sketches.bitarray.BitArray` — packed bit array substrate.
* :class:`~repro.sketches.registers.RegisterArray` — packed w-bit register
  array substrate.
* :class:`~repro.sketches.lpc.LinearProbabilisticCounter` — LPC (Whang et
  al. 1990).
* :class:`~repro.sketches.hll.HyperLogLog` — HLL (Flajolet et al. 2007).
* :class:`~repro.sketches.hllpp.HyperLogLogPlusPlus` — HLL++ (Heule et
  al. 2013).

These classes estimate the cardinality of a *single* multiset.  The per-user
streaming estimators live in :mod:`repro.core` and :mod:`repro.baselines`.
"""

from repro.sketches.bitarray import BitArray
from repro.sketches.registers import RegisterArray
from repro.sketches.lpc import LinearProbabilisticCounter
from repro.sketches.hll import HyperLogLog, alpha_m
from repro.sketches.hllpp import HyperLogLogPlusPlus

__all__ = [
    "BitArray",
    "RegisterArray",
    "LinearProbabilisticCounter",
    "HyperLogLog",
    "HyperLogLogPlusPlus",
    "alpha_m",
]
