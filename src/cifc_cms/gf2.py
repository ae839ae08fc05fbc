"""Dense GF(2) linear algebra on Python ints.

A matrix is a list of ints, its other dimension beside it: packed rows
(column 0 in the top bit) or vectors as columns (row 0 in the top bit),
so a row or column operation is one XOR.  solve takes rows, independent
takes columns, and mul takes either: a @ b on rows, or the columns of
A @ B from those of B and A as a and b.  Bit index 1 is the most
significant position, so the channel's shift S^k pushes bits toward
larger indices (down the vector) and discards anything shifted past
the last position.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations


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


def solve(a: list[int], n: int, b: list[int], p: int) -> list[int] | None:
    """A solution x (n rows, p bits wide) of a @ x == b, where a is n
    bits wide and b p bits wide, with the free variables set to zero;
    None when the system is inconsistent.  x[c] is the low p bits of
    the reduced row of [a | b] with pivot column c."""
    lead: dict[int, int] = {}    # leading bit -> row with that leading bit
    for ra, rb in zip(a, b):
        r = ra << p | rb
        while r:
            top = r.bit_length() - 1
            if top < p:          # the row reads 0 = a nonzero part of b
                return None
            q = lead.get(top)
            if q is None:
                lead[top] = r
                break
            r ^= q
    x, done, low = [0] * n, 0, (1 << p) - 1
    for t in sorted(lead):       # rightmost pivot first
        r, s = lead[t], lead[t] & done
        while s:                 # lead[q] has no other pivot bit
            q = s.bit_length() - 1
            r ^= lead[q]
            s ^= 1 << q
        lead[t] = r
        done |= 1 << t
        x[n + p - 1 - t] = r & low
    return x


def independent(vectors: list[int], tags: list[int] | None = None
                ) -> tuple[list[int], list[int]]:
    """Greedy elimination of columns in order: the indices of the vectors
    independent of all before them (the pivot columns of the matrix they
    form), and for each other vector its tag XORed with the tags of the
    earlier ones it is the sum of.  That sum is unique, so tags
    eye(len(vectors)) give a kernel basis.  tags default to 0."""
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
