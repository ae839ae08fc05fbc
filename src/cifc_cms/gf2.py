"""Dense GF(2) linear algebra on packed rows.

A matrix is a list of Python ints, one per row, column 0 in the top
bit, and its width (column count) travels beside it; a row operation
is one XOR.  ldc runs its algebra in this form from start to finish.
pack and unpack convert from and to uint8 {0, 1} arrays.

Three functions take uint8 arrays instead: shift_matrix defines the
channel's S^k, and matmul and rank serve as reference oracles.  Bit
index 1 is the most significant position and maps to array row 0, so
the shift matrix pushes bits toward larger indices (down the vector)
and discards anything shifted past the last position.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np


def shift_matrix(m: int, k: int) -> np.ndarray:
    """The m x m down-shift matrix S^k.

    (S^k x) moves bit j to bit j+k and discards bits shifted past
    position m.  S^0 is the identity; S^k is the zero matrix for k >= m.
    """
    if m < 0 or k < 0:
        raise ValueError("dimension and shift must be non-negative")
    return np.eye(m, k=-k, dtype=np.uint8)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    # int64 accumulation: uint8 would overflow past 255 summands.
    return ((a.astype(np.int64) @ b.astype(np.int64)) % 2).astype(np.uint8)


def rank(m: np.ndarray) -> int:
    """GF(2) rank of a 2-D array with entries in {0, 1}."""
    return len(rref(pack(m), m.shape[1])[1])


def pack(a: np.ndarray) -> list[int]:
    """The rows of a 2-D {0,1} array as ints, column 0 in the top bit."""
    nbytes, pad = -(-a.shape[1] // 8), -a.shape[1] % 8
    data = np.packbits(a, axis=1).tobytes()
    return [int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big") >> pad
            for i in range(a.shape[0])]


def unpack(rows: list[int], width: int) -> np.ndarray:
    """Inverse of pack: a len(rows) x width uint8 array."""
    nbytes, pad = -(-width // 8), -width % 8
    data = b"".join([(r << pad).to_bytes(nbytes, "big") for r in rows])
    return np.unpackbits(np.frombuffer(data, np.uint8).reshape(
        len(rows), nbytes), axis=1, count=width)


def eye(n: int) -> list[int]:
    """The n x n identity."""
    return [1 << n - 1 - j for j in range(n)]


def columns(rows: list[int], width: int, cols: list[int]) -> list[int]:
    """The columns cols of a matrix width bits wide, in that order."""
    return pack(unpack(rows, width)[:, cols])


def transpose(rows: list[int], width: int) -> list[int]:
    """The transpose: width rows, each len(rows) bits wide."""
    return pack(unpack(rows, width).T)


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


def nullspace(a: list[int], n: int) -> tuple[list[int], int]:
    """A basis of the kernel of a (n bits wide) as the columns of an
    n-row matrix: (its rows, its width, which is the kernel's
    dimension)."""
    rows, pivots = rref(a, n)
    full = eye(n)
    for r, c in zip(rows, pivots):
        full[c] = r              # basis row c: RREF row or e_c, at free cols
    free = sorted(set(range(n)).difference(pivots))
    return columns(full, n, free), len(free)
