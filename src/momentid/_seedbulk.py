"""numpy's per-seed generator set-up, computed for a block of seeds at once.

``np.random.default_rng(s)`` hashes the seed with ``SeedSequence`` (NEP 19)
and seeds a PCG64 generator (O'Neill 2014) from the hash.  Both steps are
fixed, documented algorithms on 32-bit words, so they are vectorised here
over a block of seeds as ``uint32`` arrays, which wrap mod 2**32 as the
algorithms require.  One PCG64 is then re-stated per seed and draws what a
fresh ``default_rng(s)`` would draw, bit for bit.

The hash constant ``h`` advances the same way whatever the data, so it is a
masked Python int: a numpy scalar would warn on overflow.
"""

from __future__ import annotations

import operator

import numpy as np

MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1
POOL_SIZE = 4
XSHIFT = 16
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """The seed's 32-bit little-endian words, zero-padded to the pool size.

    Words short of the pool size hash as zeros in ``SeedSequence``, so the
    padding changes nothing for a plain seed; a spawned child's root is
    padded the same way before its index is appended.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while True:
        words.append(seed & MASK32)
        seed >>= 32
        if not seed:
            break
    return words + [0] * (POOL_SIZE - len(words))


def _mixed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy``: ``entropy[i]`` holds word i of every
    seed in the block, at least ``POOL_SIZE`` words."""
    h = INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = (h * MULT_A) & MASK32
        value = value * h
        return value ^ (value >> XSHIFT)

    def mix(x, y):
        result = MIX_MULT_L * x - MIX_MULT_R * y
        return result ^ (result >> XSHIFT)

    pool = [hashmix(word) for word in entropy[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence.generate_state(n_words, np.uint32)`` for every seed."""
    h = INIT_B
    out = []
    for k in range(n_words):
        value = pool[k % POOL_SIZE] ^ h
        h = (h * MULT_B) & MASK32
        value = value * h
        out.append(value ^ (value >> XSHIFT))
    return out


def spawned_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed).spawn(stop)[i].generate_state(1)[0]`` for i in
    ``range(start, stop)``, as ``uint32``; child indices stay below 2**32."""
    index = np.arange(start, stop, dtype=np.uint32)
    root = [np.full(index.size, word, dtype=np.uint32)
            for word in _seed_words(seed)]
    return _generate_state(_mixed_pool(root + [index]), 1)[0]


def spawned_uniforms(seed: int, start: int, stop: int,
                     width: int) -> np.ndarray:
    """Row j is ``uniforms(c, width)[0]`` for the seed c of child
    ``start + j`` of ``SeedSequence(seed)`` (:func:`spawned_seeds`)."""
    child = spawned_seeds(seed, start, stop)
    zeros = np.zeros_like(child)
    return _uniforms([child] + [zeros] * (POOL_SIZE - 1), width)


def uniforms(seed: int, width: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(-1, 1, size=width)`` as one
    row; width 1 also gives the scalar ``uniform(-1, 1)`` draw."""
    return _uniforms([np.array([word], dtype=np.uint32)
                      for word in _seed_words(seed)], width)


def _uniforms(entropy: list[np.ndarray], width: int) -> np.ndarray:
    """One row of uniforms per seed of the block whose words are
    ``entropy``, from one PCG64 re-stated per seed as ``default_rng``
    seeds it."""
    w = np.array(_generate_state(_mixed_pool(entropy), 8), dtype=np.uint64)
    # generate_state(4, np.uint64): the four words PCG64 is seeded from
    v0, v1, v2, v3 = (w[0::2] | (w[1::2] << np.uint64(32))).tolist()
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    out = np.empty((len(v0), width))
    for row, s_hi, s_lo, i_hi, i_lo in zip(out, v0, v1, v2, v3):
        inc = (((i_hi << 64 | i_lo) << 1) | 1) & MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * PCG64_MULT + inc) & MASK128
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        gen.random(out=row)
    out *= 2.0  # uniform(-1, 1) returns -1 + 2 * random(), exact in doubles
    out -= 1.0
    return out
