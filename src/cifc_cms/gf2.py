"""Dense GF(2) linear algebra.

The public functions take and return uint8 arrays: matrices are 2-D with
entries in {0, 1}, vectors 1-D.  Inside, each matrix row is packed into
one Python int, column 0 in the top bit, so a row operation is one XOR;
ldc runs its algebra on such packed rows from start to finish.
Bit index 1 is the most significant position and maps to array row 0,
so the shift matrix pushes bits toward larger indices (down the vector)
and discards anything shifted past the last position.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when inverting a rank-deficient matrix."""


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def as_bits(m) -> np.ndarray:
    """Validate and convert to a uint8 {0,1} matrix."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    a = a.astype(np.uint8)
    if a.size and a.max() > 1:
        raise ValueError("entries must be in {0, 1}")
    return a


def shift_matrix(m: int, k: int) -> np.ndarray:
    """The m x m down-shift matrix S^k.

    (S^k x) moves bit j to bit j+k and discards bits shifted past
    position m.  S^0 is the identity; S^k is the zero matrix for k >= m.
    """
    if m < 0 or k < 0:
        raise ValueError("dimension and shift must be non-negative")
    if k >= m:
        return zeros(m, m)
    return np.eye(m, k=-k, dtype=np.uint8)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    # int64 accumulation: uint8 would overflow past 255 summands.
    return ((a.astype(np.int64) @ b.astype(np.int64)) % 2).astype(np.uint8)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry-wise sum (XOR) over GF(2)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.bitwise_xor(a, b)


def _pack(a: np.ndarray) -> list[int]:
    """The rows of a {0,1} matrix as ints, column 0 in the top bit."""
    nbytes, pad = -(-a.shape[1] // 8), -a.shape[1] % 8
    data = np.packbits(a, axis=1).tobytes()
    return [int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big") >> pad
            for i in range(a.shape[0])]


def _unpack(rows: list[int], width: int) -> np.ndarray:
    """Inverse of _pack: a len(rows) x width uint8 matrix."""
    nbytes, pad = -(-width // 8), -width % 8
    data = b"".join([(r << pad).to_bytes(nbytes, "big") for r in rows])
    return np.unpackbits(np.frombuffer(data, np.uint8).reshape(
        len(rows), nbytes), axis=1, count=width)


def _mul_rows(a: list[int], b: list[int]) -> list[int]:
    """Packed rows of the product a @ b; a's rows are len(b) bits wide."""
    top, out = len(b) - 1, []
    for r in a:
        acc = 0
        while r:
            bit = r.bit_length() - 1
            acc ^= b[top - bit]
            r ^= 1 << bit
        out.append(acc)
    return out


def _rref_rows(rows, width: int) -> tuple[list[int], list[int]]:
    """The nonzero rows of the reduced row echelon form of packed rows,
    top down, and their pivot columns; both are unique."""
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


def _solve_rows(a: list[int], n: int, b: list[int],
                p: int) -> list[int] | None:
    """solve on packed rows: a is n bits wide, b and the result p."""
    rows, pivots = _rref_rows([ra << p | rb for ra, rb in zip(a, b)], n + p)
    if pivots and pivots[-1] >= n:
        return None
    x = [0] * n
    for r, c in zip(rows, pivots):
        x[c] = r & ~(-1 << p)
    return x


def _nullspace_rows(a: list[int], n: int) -> tuple[list[int], int]:
    """nullspace on packed rows n bits wide: (basis rows, basis size)."""
    rows, pivots = _rref_rows(a, n)
    full = [1 << n - 1 - c for c in range(n)]
    for r, c in zip(rows, pivots):
        full[c] = r              # basis row c: RREF row or e_c, at free cols
    free = sorted(set(range(n)).difference(pivots))
    return _pack(_unpack(full, n)[:, free]), len(free)


def row_echelon(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form (R, pivot_cols), zero rows at the bottom;
    len(pivot_cols) is the GF(2) rank."""
    a = as_bits(m)
    rows, pivots = _rref_rows(_pack(a), a.shape[1])
    return _unpack(rows + [0] * (a.shape[0] - len(rows)), a.shape[1]), pivots


def rank(m: np.ndarray) -> int:
    """GF(2) rank via Gaussian elimination."""
    return len(row_echelon(m)[1])


def invert(m: np.ndarray) -> np.ndarray:
    """GF(2) inverse of a square full-rank matrix.

    Raises SingularMatrixError when rank < dimension.
    """
    a = as_bits(m)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix is not square: {a.shape}")
    x = _solve_rows(_pack(a), n, [1 << n - 1 - i for i in range(n)], n)
    if x is None:
        raise SingularMatrixError(f"matrix of rank {rank(a)} < {n} is not invertible")
    return _unpack(x, n)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve a @ x == b over GF(2); free variables are set to zero.

    Returns None when the system is inconsistent.
    """
    a = as_bits(a)
    b = as_bits(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    x = _solve_rows(_pack(a), a.shape[1], _pack(b), b.shape[1])
    return None if x is None else _unpack(x, b.shape[1])


def nullspace(a: np.ndarray) -> np.ndarray:
    """Basis of the kernel of a, returned as columns."""
    a = as_bits(a)
    return _unpack(*_nullspace_rows(_pack(a), a.shape[1]))
