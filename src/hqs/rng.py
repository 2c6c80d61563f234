"""Counter-based random draws.

Every Monte Carlo draw in the engine is a pure function of
(seed, event_index, draw_index), so results never depend on worker
count or chunk schedule.  The word is a chained SplitMix64 finalizer
keyed by the seed, then the event, then the draw; 64-bit words map to
[0, 1) by division with 2**64.  tests/scalar_reference.py writes the
same word with Python integers, one draw at a time.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA_EVENT = 0x9E3779B97F4A7C15
_GAMMA_DRAW = 0xC2B2AE3D27D4EB4F
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_SCALE = 2.0**64


def _mix(z: int) -> int:
    # SplitMix64 finalizer, full avalanche over 64 bits.
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def uniform_block(seed: int, event_indices, draw_index: int = 0) -> np.ndarray:
    """Uniforms in [0, 1) for many event indices at one draw index.

    uint64 arithmetic wraps exactly like 64-bit masked integers, so each
    value is the word of (seed, event, draw) divided by 2**64, bit for bit.
    """
    ev = np.asarray(event_indices, dtype=np.uint64)
    h0 = np.uint64(_mix(seed & _MASK))
    h = _mix_u64(h0 + np.uint64(_GAMMA_EVENT) * (ev + np.uint64(1)))
    draw_off = np.uint64((_GAMMA_DRAW * (draw_index + 1)) & _MASK)
    w = _mix_u64(h + draw_off)
    return w.astype(np.float64) / _SCALE


def _mix_u64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))

