"""The scalar definition of the engine's draws and picks, one at a time.

Not a test module: tests import it as the reference that the vectorized
code (rng.uniform_block, network._pick and _tally) must equal bit for bit.
A draw is the chained SplitMix64 word of (seed, event, draw) over masked
Python integers, divided by 2**64; a pick bisects the echo table's
cumulative weights at the scaled draw.  event_for_word and seed_for_word
run the word backwards, to the event or the seed that draws a chosen word.
"""

import bisect

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


def counter_word(seed: int, event_index: int, draw_index: int) -> int:
    """64-bit word keyed by (seed, event, draw), nothing else."""
    h = _mix(seed & _MASK)
    h = _mix((h + _GAMMA_EVENT * (event_index + 1)) & _MASK)
    return _mix((h + _GAMMA_DRAW * (draw_index + 1)) & _MASK)


def _unshift(y: int, s: int) -> int:
    # solves y = x ^ (x >> s): each pass fixes s more of the top bits
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def _unmix(z: int) -> int:
    # _mix run backwards: each xorshift and each odd multiply is a bijection mod 2**64
    z = (_unshift(z, 31) * pow(_MUL2, -1, 1 << 64)) & _MASK
    z = (_unshift(z, 27) * pow(_MUL1, -1, 1 << 64)) & _MASK
    return _unshift(z, 30)


def event_for_word(seed: int, word: int, draw_index: int = 0) -> int:
    """The event index whose word at (seed, draw_index) is the given one:
    counter_word run backwards, so tests can reach any word on purpose."""
    h = _unmix(word) - _GAMMA_DRAW * (draw_index + 1)
    return ((_unmix(h & _MASK) - _mix(seed & _MASK)) * pow(_GAMMA_EVENT, -1, 1 << 64) - 1) & _MASK


def seed_for_word(word: int, event_index: int = 0, draw_index: int = 0) -> int:
    """The seed whose word at (event_index, draw_index) is the given one:
    counter_word run backwards over the seed."""
    h = _unmix(word) - _GAMMA_DRAW * (draw_index + 1)
    return _unmix((_unmix(h & _MASK) - _GAMMA_EVENT * (event_index + 1)) & _MASK)


def uniform01(seed: int, event_index: int, draw_index: int = 0) -> float:
    return counter_word(seed, event_index, draw_index) / _SCALE


def select(table, seed: int, event: int, draw: int = 0) -> str:
    """The absorber that completes one event with the given draw.

    Echo weights within 1e-9 of total 1 are renormalized; anything further
    off raises (from the table's selection arrays).  A draw that grazes the
    top edge walks down off zero-weight entries.
    """
    ids, probs, cum = table._selection
    u = uniform01(seed, event, draw) * float(cum[-1])
    idx = bisect.bisect_right(cum, u)
    if idx >= len(ids):
        idx = len(ids) - 1
    while probs[idx] == 0.0:
        idx -= 1
    return ids[idx]
