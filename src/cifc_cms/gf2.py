"""Dense GF(2) linear algebra on Python ints.

A matrix is a list of ints, its other dimension beside it: packed rows
(column 0 in the top bit) or vectors as columns (row 0 in the top bit),
so a row or column operation is one XOR.  rref and solve take rows,
independent takes columns, and mul takes either: a @ b on rows, or the
columns of A @ B from those of B and A as a and b.  unpack turns rows
into a uint8 {0, 1} array.  Bit index 1 is the most significant
position and maps to array row 0, so the channel's shift S^k pushes
bits toward larger indices (down the vector) and discards anything
shifted past the last position.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np


def unpack(rows: list[int], width: int) -> np.ndarray:
    """The rows as a len(rows) x width uint8 {0, 1} array."""
    nbytes, pad = -(-width // 8), -width % 8
    data = b"".join([(r << pad).to_bytes(nbytes, "big") for r in rows])
    return np.unpackbits(np.frombuffer(data, np.uint8).reshape(
        len(rows), nbytes), axis=1, count=width)


def eye(n: int) -> list[int]:
    """The n x n identity."""
    return [1 << n - 1 - j for j in range(n)]


def mul(a: list[int], b: list[int]) -> list[int]:
    """The product a @ b; a's rows are len(b) bits wide."""
    top, out = len(b) - 1, []
    for r in a:
        acc = 0
        while r:
            bit = r.bit_length() - 1
            acc ^= b[top - bit]
            r ^= 1 << bit
        out.append(acc)
    return out


def rref(rows: list[int], width: int) -> tuple[list[int], list[int]]:
    """The nonzero rows of the reduced row echelon form, top down, and
    their pivot columns; both are unique, and the pivot count is the
    rank."""
    lead: dict[int, int] = {}    # leading bit -> row with that leading bit
    for r in rows:
        while r:
            top = r.bit_length() - 1
            b = lead.get(top)
            if b is None:
                lead[top] = r
                break
            r ^= b
    done = 0                     # pivot bits of the rows already reduced
    for p in sorted(lead):       # rightmost pivot first
        r, t = lead[p], lead[p] & done
        while t:                 # lead[q] has no other pivot bit
            q = t.bit_length() - 1
            r ^= lead[q]
            t ^= 1 << q
        lead[p] = r
        done |= 1 << p
    bits = sorted(lead, reverse=True)
    return [lead[p] for p in bits], [width - 1 - p for p in bits]


def solve(a: list[int], n: int, b: list[int], p: int) -> list[int] | None:
    """A solution x (n rows, p bits wide) of a @ x == b, where a is n
    bits wide and b p bits wide, with the free variables set to zero;
    None when the system is inconsistent."""
    rows, pivots = rref([ra << p | rb for ra, rb in zip(a, b)], n + p)
    if pivots and pivots[-1] >= n:
        return None
    x = [0] * n
    for r, c in zip(rows, pivots):
        x[c] = r & ~(-1 << p)
    return x


def independent(vectors: list[int], tags: list[int] | None = None
                ) -> tuple[list[int], list[int]]:
    """Greedy elimination of columns in order: the indices of the vectors
    independent of all before them (rref's pivots), and for each other
    vector its tag XORed with the tags of the earlier ones it is the sum
    of.  That sum is unique, so tags eye(len(vectors)) give rref's
    kernel basis.  tags default to 0."""
    tags = tags or [0] * len(vectors)
    w = max(map(int.bit_length, tags), default=0)
    low = (1 << w) - 1           # the tag rides below the vector
    lead: dict[int, int] = {}    # leading bit -> vector with that leading bit
    found, dependent = [], []
    for j, (v, t) in enumerate(zip(vectors, tags)):
        x = v << w | t
        while x > low:
            top = x.bit_length() - 1
            b = lead.get(top)
            if b is None:
                lead[top] = x
                found.append(j)
                break
            x ^= b
        else:
            dependent.append(x)
    return found, dependent
