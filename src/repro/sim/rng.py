"""Seeded random streams: a pure-Python, bit-exact port of numpy's PCG64.

The simulator draws from ``numpy.random.Generator(PCG64(SeedSequence(...)))``
semantics, but only through three calls -- ``random``, ``integers`` and
``geometric`` -- so the part of numpy it needs is ported here instead of
imported (numpy costs every process ~15 MB resident and a noticeable share
of start-up).  Every draw is bit-identical to numpy's for the same seed,
which keeps every golden, report and arena document unchanged; numpy
stays in the test suite as the parity oracle (``tests/sim/test_rng.py``).

The port follows numpy's C sources step for step:

* :class:`SeedSequence` -- the entropy pool hash (``mix_entropy``) and
  ``generate_state``.  With a spawn key, the run entropy is zero-padded to
  the 4-word pool before the key's words are appended.
* :class:`Generator` -- the PCG64 XSL-RR 128/64 generator (step first,
  then output from the new state), including the bit generator's buffered
  upper half-word that 32-bit draws consume before stepping again.
* ``integers`` -- Lemire's nearly-divisionless bounded draw on the 32-bit
  path (range below 2**32, buffered half-words) and the 64-bit path.
* ``geometric`` -- sequential search for ``p >= 1/3``; below that,
  inversion over numpy's ziggurat standard exponential, whose tables live
  in :mod:`repro.sim._ziggurat` and load on the first such draw.
"""

from __future__ import annotations

import operator
from math import ceil, exp, log1p
from typing import Sequence

__all__ = ["Generator", "SeedSequence"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 1.0 / 9007199254740992.0
_ZIGGURAT_EXP_R = 7.69711747013104972
# random_geometric's search/inversion switch point
_SEARCH_MIN_P = 0.333333333333333333333333
# 2**63 as a double: inversion results at or above it clamp to INT64_MAX
_INVERSION_CLAMP = 9.223372036854776e18


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; ``0`` is ``[0]``."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ (result >> 16)


class SeedSequence:
    """numpy's ``SeedSequence`` for an int entropy and an optional spawn key."""

    __slots__ = ("pool",)

    def __init__(self, entropy: int, spawn_key: Sequence[int] = ()) -> None:
        run = _uint32_words(entropy)
        spawn = [word for key in spawn_key for word in _uint32_words(key)]
        if spawn and len(run) < _POOL_SIZE:
            run += [0] * (_POOL_SIZE - len(run))
        self.pool = self._mix_entropy(run + spawn)

    @staticmethod
    def _mix_entropy(entropy: list[int]) -> list[int]:
        hash_const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = (hash_const * _MULT_A) & _M32
            value = (value * hash_const) & _M32
            return value ^ (value >> 16)

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
        # mix all bits together so late words affect earlier ones
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
        # fold in any entropy beyond the pool size
        for word in entropy[_POOL_SIZE:]:
            for i_dst in range(_POOL_SIZE):
                pool[i_dst] = _mix(pool[i_dst], hashmix(word))
        return pool

    def generate_state(self, n_words: int) -> list[int]:
        """``n_words`` uint32 words, as numpy's ``generate_state(n_words)``."""
        hash_const = _INIT_B
        pool = self.pool
        state = []
        for i in range(n_words):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _M32
            value = (value * hash_const) & _M32
            state.append(value ^ (value >> 16))
        return state


_ziggurat: tuple | None = None


def _ziggurat_tables() -> tuple:
    global _ziggurat
    from repro.sim._ziggurat import FE, KE, WE

    _ziggurat = (KE, WE, FE)
    return _ziggurat


class Generator:
    """A PCG64 stream with numpy ``Generator``'s scalar draw methods.

    ``seed`` is an int (hashed through ``SeedSequence(seed)``, like
    ``numpy.random.PCG64(seed)``) or a :class:`SeedSequence`.  Instances
    pickle mid-stream, buffered half-word included.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed: int | SeedSequence = 0) -> None:
        if not isinstance(seed, SeedSequence):
            seed = SeedSequence(seed)
        w = seed.generate_state(8)
        # numpy reads the 8 words as 4 little-endian uint64s:
        # (state high, state low, increment high, increment low)
        init_state = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        init_seq = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
        inc = ((init_seq << 1) | 1) & _M128
        # pcg_setseq_128_srandom_r: step from zero, add the seed, step again
        self._inc = inc
        self._state = ((inc + init_state) * _PCG_MULT + inc) & _M128
        self._has_uint32 = False
        self._uinteger = 0

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        word = self._next64()
        self._has_uint32 = True
        self._uinteger = word >> 32
        return word & _M32

    def random(self) -> float:
        """A float in ``[0, 1)`` from the top 53 bits of one 64-bit draw."""
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((((x >> rot) | (x << (64 - rot))) & _M64) >> 11) * _TWO_M53

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in ``[low, high)``, or ``[0, low)`` when ``high`` is None."""
        if high is None:
            low, high = 0, low
            if high <= 0:
                raise ValueError("high <= 0")
        span = high - low
        if span <= 0:
            raise ValueError("low >= high")
        if low < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if high > _INT64_MAX + 1:
            raise ValueError("high is out of bounds for int64")
        if span < 0x100000000:
            if span == 1:
                return low
            # _next32, inlined: this is the per-access draw of the chaser
            # and the SPEC proxies
            if self._has_uint32:
                self._has_uint32 = False
                m = self._uinteger * span
            else:
                state = (self._state * _PCG_MULT + self._inc) & _M128
                self._state = state
                x = ((state >> 64) ^ state) & _M64
                rot = state >> 122
                word = ((x >> rot) | (x << (64 - rot))) & _M64
                self._has_uint32 = True
                self._uinteger = word >> 32
                m = (word & _M32) * span
            if m & _M32 < span:
                threshold = (0x100000000 - span) % span
                while m & _M32 < threshold:
                    m = self._next32() * span
            return low + (m >> 32)
        if span == 0x100000000:
            return low + self._next32()
        if span == 1 << 64:
            return low + self._next64()
        m = self._next64() * span
        if m & _M64 < span:
            threshold = ((1 << 64) - span) % span
            while m & _M64 < threshold:
                m = self._next64() * span
        return low + (m >> 64)

    def geometric(self, p: float) -> int:
        """Trials up to and including the first success, success chance ``p``."""
        if not 0.0 < p <= 1.0:
            raise ValueError("p <= 0, p > 1 or p contains NaNs")
        # one PCG64 step, inlined: both branches start with a 64-bit draw
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        word = ((x >> rot) | (x << (64 - rot))) & _M64
        if p >= _SEARCH_MIN_P:
            u = (word >> 11) * _TWO_M53
            trials = 1
            total = prod = p
            q = 1.0 - p
            while u > total:
                prod *= q
                total += prod
                trials += 1
            return trials
        # inversion over the ziggurat's first, accepted 98.9% of the time
        ke, we, _ = _ziggurat or _ziggurat_tables()
        ri = word >> 3
        idx = ri & 0xFF
        ri >>= 8
        e = ri * we[idx]
        if ri >= ke[idx]:
            e = self._exponential_tail(idx, e)
        z = -e / log1p(-p)
        if z >= _INVERSION_CLAMP:
            return _INT64_MAX
        return ceil(z)

    def _exponential_tail(self, idx: int, x: float) -> float:
        """The ziggurat's rare path after layer ``idx`` rejected ``x``."""
        ke, we, fe = _ziggurat
        while True:
            if idx == 0:
                return _ZIGGURAT_EXP_R - log1p(-self.random())
            if (fe[idx - 1] - fe[idx]) * self.random() + fe[idx] < exp(-x):
                return x
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * we[idx]
            if ri < ke[idx]:
                return x
