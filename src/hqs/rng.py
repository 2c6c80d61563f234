"""Counter-based random draws.

Every Monte Carlo draw in the engine is a pure function of
(seed, event_index, draw_index), so results never depend on chunk
schedule, and any subset of events replays its own draws.  The word is
a chained SplitMix64 finalizer keyed by the seed, then the event, then
the draw; a 64-bit word w maps to w / 2**64 rounded to the nearest
float, which lies in [0, 1]: the top 1024 words round up to 1.0.
tests/scalar_reference.py writes the same word with Python integers,
one draw at a time.
"""

from __future__ import annotations

import sys

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA_EVENT = 0x9E3779B97F4A7C15
_GAMMA_DRAW = 0xC2B2AE3D27D4EB4F
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_U30, _U27, _U31, _UMUL1, _UMUL2 = (np.uint64(c) for c in (30, 27, 31, _MUL1, _MUL2))
# the low and high uint32 halves of a native uint64
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


def _mix(z: int) -> int:
    # SplitMix64 finalizer, full avalanche over 64 bits.
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def uniform_block(seed: int, event_indices, draw_index: int = 0) -> np.ndarray:
    """Uniforms in [0, 1] for many event indices at one draw index.

    uint64 arithmetic wraps exactly like 64-bit masked integers, and the
    words are mixed in place.  Each word w = hi * 2**32 + lo converts as
    hi * 2**-32 + lo * 2**-64: both terms are exact, so the one rounding,
    in the add, is that of w / 2**64 to the nearest float (ties to even).
    Each value is the word of (seed, event, draw) divided by 2**64, bit
    for bit, without numpy's slow uint64 to float64 cast.
    """
    ev = np.asarray(event_indices, dtype=np.uint64)
    # h0 + gamma * (ev + 1), mod 2**64, in a new flat array
    z = ev.reshape(-1) * np.uint64(_GAMMA_EVENT)
    z += np.uint64((_mix(seed & _MASK) + _GAMMA_EVENT) & _MASK)
    tmp = np.empty_like(z)
    _mix_u64(z, tmp)
    z += np.uint64((_GAMMA_DRAW * (draw_index + 1)) & _MASK)
    _mix_u64(z, tmp)
    halves = z.view(np.uint32).reshape(-1, 2)
    u = halves[:, _HI] * 2.0**-32
    u += halves[:, _LO] * 2.0**-64
    return u.reshape(ev.shape)


def _mix_u64(z: np.ndarray, tmp: np.ndarray) -> None:
    """_mix on every word of z, in place; tmp is scratch of z's shape."""
    np.right_shift(z, _U30, out=tmp)
    z ^= tmp
    z *= _UMUL1
    np.right_shift(z, _U27, out=tmp)
    z ^= tmp
    z *= _UMUL2
    np.right_shift(z, _U31, out=tmp)
    z ^= tmp
