"""Deterministic seed derivation.

Every random component of the toolkit draws from a named stream derived
from one top-level seed, so walks, splits and training shuffles can be
reproduced independently and in any scheduling order. Derivation goes
through blake2b rather than Python's salted ``hash`` so that the streams
are stable across processes and platforms.

The walk streams of a whole corpus side are drawn at once by a numpy port
of ``np.random.default_rng(seed).random()``: SeedSequence's pool-of-4
hashmix and ``generate_state(4, np.uint64)``, then PCG64's seeding, 128-bit
LCG step and XSL-RR output. It gives numpy's own bits, which a test checks
against ``default_rng``. Every constant is a numpy scalar of the array's
dtype, since numpy 1.x promotes uint64 combined with a Python int to float64.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h), as 64- and 32-bit limbs.
_MULT_HIGH, _MULT_LOW = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LOW_0, _MULT_LOW_1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_U32, _U64 = np.uint64(32), np.uint64(64)
_LOW_32, _ONE = np.uint64(0xFFFFFFFF), np.uint64(1)


def stable_seed(*parts: object) -> int:
    """Map a tuple of values to a 64-bit integer, stable across runs."""
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derived_rng(*parts: object) -> np.random.Generator:
    """Return a generator seeded from a named stream."""
    return np.random.default_rng(stable_seed(*parts))


def _hash_constants(value: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The hash constant before and after each successive hashmix updates it;
    its sequence does not depend on the values mixed."""
    while True:
        after = value * mult & 0xFFFFFFFF
        yield np.uint32(value), np.uint32(after)
        value = after


def _hashmix(value: np.ndarray, constants: Iterator[tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _pcg64_step(state: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """One LCG step, ``state * multiplier + increment`` modulo 2**128, of
    states ``(high, low, increment high, increment low)``."""
    high, low, inc_high, inc_low = state
    # the high word of low * _MULT_LOW, from 32-bit limbs
    low_0, low_1 = low & _LOW_32, low >> _U32
    cross_0, cross_1 = low_0 * _MULT_LOW_1, low_1 * _MULT_LOW_0
    middle = (low_0 * _MULT_LOW_0 >> _U32) + (cross_0 & _LOW_32) + (cross_1 & _LOW_32)
    carried = low_1 * _MULT_LOW_1 + (cross_0 >> _U32) + (cross_1 >> _U32) + (middle >> _U32)
    new_low = low * _MULT_LOW + inc_low
    new_high = carried + high * _MULT_LOW + low * _MULT_HIGH + inc_high + (new_low < inc_low)
    return new_high, new_low, inc_high, inc_low


def _pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The PCG64 state of ``np.random.default_rng(seed)`` for each of the
    uint64 ``seeds``: arrays (high, low, increment high, increment low)."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    # A seed below 2**32 has one entropy word, and the pool pads with
    # hashmix(0): the same value its zero high word mixes to.
    words = [(seeds & _LOW_32).astype(np.uint32), (seeds >> _U32).astype(np.uint32)]
    pool = [_hashmix(words[i] if i < 2 else np.zeros_like(words[0]), constants) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], constants)
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % 4], constants).astype(np.uint64) for i in range(8)]
    # generate_state(4, np.uint64): little-endian pairs of 32-bit words
    seed_high, seed_low, seq_high, seq_low = (state[i] | state[i + 1] << _U32 for i in (0, 2, 4, 6))
    inc_high, inc_low = seq_high << _ONE | seq_low >> (_U64 - _ONE), seq_low << _ONE | _ONE
    # pcg_setseq_128_srandom_r: step from 0 (giving the increment), add the seed, step
    low = inc_low + seed_low
    return _pcg64_step((inc_high + seed_high + (low < seed_low), low, inc_high, inc_low))


def _pcg64_doubles(state: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """The first ``k`` doubles of each PCG64 stream from ``state``, shape
    ``(n, k)``: what ``Generator.random(k)`` draws."""
    doubles = np.empty((len(state[0]), k))
    for j in range(k):
        state = _pcg64_step(state)
        high, low = state[:2]
        rotation = high >> np.uint64(58)
        word = high ^ low
        word = word >> rotation | word << ((_U64 - rotation) & np.uint64(63))
        doubles[:, j] = word >> np.uint64(11)
    return doubles * (1.0 / 9007199254740992.0)
