"""Deterministic seed derivation and per-user uniform draws.

All randomness in the package flows from explicit 64-bit seeds.  Seeds for
sub-streams (per trial, per tweet, per purpose) are derived by hashing the
parent seed together with string/int labels, so runs are reproducible and
streams are independent without any global state.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*parts: int | str) -> int:
    """Stable 64-bit seed derived from a sequence of labels.

    Uses blake2b over the repr of the parts; stable across processes and
    platform word sizes (unlike Python's built-in hash).
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def uniform_for_users(key: int | np.ndarray, users: np.ndarray) -> np.ndarray:
    """One fixed U(0,1) draw per user id under a given stream key.

    The draw for a user depends only on (key, user), never on when it is
    requested, which makes retweet decisions monotone-coupled across RT
    rates: raising the rate can only add retweeters, never remove them.
    `key` is one stream key for all users or a uint64 array holding each
    user's key, so draws for many streams take one pass.

    Implemented as a vectorized splitmix64 finalizer over key + user.
    """
    k = np.asarray(key & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    # a fresh array, so the in-place steps below leave `users` alone;
    # uint64 arithmetic wraps mod 2**64
    x = np.asarray(users, dtype=np.uint64) + k
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    # 53-bit mantissa -> uniform in [0, 1)
    return (x >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
