"""Dense GF(2) linear algebra on numpy uint8 arrays.

Matrices are 2-D uint8 arrays with entries in {0, 1}; vectors are 1-D.
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


def row_echelon(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-echelon form with deterministic leftmost-pivot order.

    Returns (R, pivot_cols); len(pivot_cols) is the GF(2) rank.
    """
    r = as_bits(m).copy()
    rows, cols = r.shape
    pivot_cols: list[int] = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(r[pr:, c])[0]
        if nz.size == 0:
            continue
        i = pr + nz[0]
        if i != pr:
            r[[pr, i]] = r[[i, pr]]
        below = np.nonzero(r[pr + 1:, c])[0]
        for j in below:
            r[pr + 1 + j] ^= r[pr]
        pivot_cols.append(c)
        pr += 1
    return r, pivot_cols


def rank(m: np.ndarray) -> int:
    """GF(2) rank via Gaussian elimination."""
    return len(row_echelon(m)[1])


def _rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    r, pivots = row_echelon(m)
    for pr in range(len(pivots) - 1, -1, -1):
        c = pivots[pr]
        above = np.nonzero(r[:pr, c])[0]
        for j in above:
            r[j] ^= r[pr]
    return r, pivots


def invert(m: np.ndarray) -> np.ndarray:
    """GF(2) inverse of a square full-rank matrix.

    Raises SingularMatrixError when rank < dimension.
    """
    a = as_bits(m)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix is not square: {a.shape}")
    aug = np.hstack([a, identity(n)])
    r, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError(f"matrix of rank {rank(a)} < {n} is not invertible")
    return r[:, n:].copy()


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve a @ x == b over GF(2); free variables are set to zero.

    Returns None when the system is inconsistent.
    """
    a = as_bits(a)
    b = as_bits(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    n = a.shape[1]
    r, pivots = _rref(np.hstack([a, b]))
    if any(p >= n for p in pivots):
        return None
    x = zeros(n, b.shape[1])
    for pr, c in enumerate(pivots):
        x[c] = r[pr, n:]
    return x


def nullspace(a: np.ndarray) -> np.ndarray:
    """Basis of the kernel of a, returned as columns."""
    a = as_bits(a)
    n = a.shape[1]
    r, pivots = _rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = zeros(n, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for pr, pc in enumerate(pivots):
            basis[pc, j] = r[pr, fc]
    return basis

