"""GF(256) arithmetic for the Reed-Solomon replica codec.

The field is GF(2^8) with the conventional primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D).  Everything is table-driven and
vectorised over ``uint8`` NumPy arrays: an exp/log pair for scalar
division and inversion, plus a full 256x256 product table so that
matrix-style operations (:func:`gf_matmul`) translate each byte row
through its coefficient's row of the table and XOR-reduce the products
— no Python-level loop over the bytes.

All tables are built deterministically at import time from the field
definition alone; :func:`self_check` re-derives the field axioms from
the tables and raises if any entry is inconsistent (the property suite
in ``tests/test_coding.py`` runs it).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

#: the primitive polynomial generating the field (degree-8 terms included)
PRIMITIVE_POLY = 0x11D

#: number of field elements
FIELD_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exp, log, mul) tables derived from :data:`PRIMITIVE_POLY`.

    ``exp`` is doubled (510 entries) so ``exp[log[a] + log[b]]`` never
    needs an explicit ``% 255``; ``log[0]`` is left at 0 and guarded by
    callers (zero has no logarithm).
    """
    exp = np.zeros(2 * (FIELD_SIZE - 1), dtype=np.uint8)
    log = np.zeros(FIELD_SIZE, dtype=np.int64)
    value = 1
    for power in range(FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    exp[FIELD_SIZE - 1 :] = exp[: FIELD_SIZE - 1]
    # Full product table: mul[a, b] = a * b in GF(256), zeros handled by
    # masking (log is undefined at 0, so rows/columns 0 are forced to 0).
    a = np.arange(FIELD_SIZE, dtype=np.int64)
    sums = log[a][:, None] + log[a][None, :]
    mul = exp[sums % (FIELD_SIZE - 1)].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


GF_EXP, GF_LOG, GF_MUL = _build_tables()


def gf_mul(a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
    """Elementwise product in GF(256) (broadcasting like ``a * b``)."""
    return GF_MUL[np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)]


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero field element."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(GF_EXP[(FIELD_SIZE - 1) - GF_LOG[a]])


def gf_div(a: int | np.ndarray, b: int) -> np.ndarray:
    """Elementwise ``a / b`` in GF(256) (``b`` must be nonzero)."""
    return gf_mul(a, gf_inv(b))


def gf_tables(a: np.ndarray) -> tuple[tuple[bytes, ...], ...]:
    """The product-table rows of the ``(r, k)`` matrix *a*'s coefficients,
    row by row, as 256-byte ``bytes.translate`` tables for :func:`gf_apply`."""
    return tuple(tuple(map(bytes, GF_MUL[row])) for row in np.asarray(a, dtype=np.uint8))


def gf_apply(tables: tuple[tuple[bytes, ...], ...], b: np.ndarray) -> np.ndarray:
    """The product over GF(256) of the matrix whose :func:`gf_tables` are
    *tables* with the ``(k, c)`` byte matrix *b*.

    Each coefficient ``a[i, t]`` times the row ``b[t]`` is one
    ``bytes.translate`` of the row through the coefficient's product-table
    row, and the ``(r, k, c)`` products are XOR-reduced over ``k``: a C
    call per coefficient, whatever the width of *b*.
    """
    rows = [*map(bytes, b)]
    products = b"".join(map(bytes.translate, rows * len(tables), chain.from_iterable(tables)))
    return np.bitwise_xor.reduce(
        np.frombuffer(products, np.uint8).reshape(len(tables), *b.shape), axis=1
    )


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256): ``(r, k) x (k, c) -> (r, c)``.

    Multiplication is the table lookup, addition is XOR (:func:`gf_apply`).
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    return gf_apply(gf_tables(a), b)


def gf_inv_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix over GF(256) (Gauss-Jordan).

    Raises ``ValueError`` when the matrix is singular — which never
    happens for the Cauchy decode submatrices :mod:`repro.coding.rs`
    feeds it, but keeps corrupt inputs loud.
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got {m.shape}")
    size = m.shape[0]
    work = m.astype(np.uint8).copy()
    inverse = np.eye(size, dtype=np.uint8)
    for col in range(size):
        pivot = next(
            (row for row in range(col, size) if work[row, col] != 0), None
        )
        if pivot is None:
            raise ValueError("singular matrix over GF(256)")
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inverse[[col, pivot]] = inverse[[pivot, col]]
        scale = gf_inv(int(work[col, col]))
        work[col] = gf_mul(work[col], scale)
        inverse[col] = gf_mul(inverse[col], scale)
        for row in range(size):
            factor = int(work[row, col])
            if row == col or factor == 0:
                continue
            work[row] ^= gf_mul(work[col], factor)
            inverse[row] ^= gf_mul(inverse[col], factor)
    return inverse


def self_check() -> None:
    """Re-derive the field axioms from the tables; raise on any mismatch.

    Checks exp/log consistency, the product table against log-domain
    multiplication, inverses (``a * inv(a) == 1``), division round trips
    and a distributivity sample — cheap enough to run in every test
    session.
    """
    nonzero = np.arange(1, FIELD_SIZE, dtype=np.int64)
    if not np.array_equal(GF_LOG[GF_EXP[: FIELD_SIZE - 1]], np.arange(FIELD_SIZE - 1)):
        raise AssertionError("exp/log tables disagree")
    if len(set(int(v) for v in GF_EXP[: FIELD_SIZE - 1])) != FIELD_SIZE - 1:
        raise AssertionError("exp table is not a permutation of the nonzero elements")
    expected = GF_EXP[(GF_LOG[nonzero][:, None] + GF_LOG[nonzero][None, :]) % (FIELD_SIZE - 1)]
    if not np.array_equal(GF_MUL[1:, 1:], expected):
        raise AssertionError("product table disagrees with log-domain products")
    if GF_MUL[0].any() or GF_MUL[:, 0].any():
        raise AssertionError("zero row/column of the product table must be zero")
    for a in range(1, FIELD_SIZE):
        if int(gf_mul(a, gf_inv(a))) != 1:
            raise AssertionError(f"inverse failed for {a}")
        if int(gf_div(gf_mul(a, 73), 73)) != a:
            raise AssertionError(f"division round trip failed for {a}")
    # distributivity sample: a*(b^c) == a*b ^ a*c on a coarse lattice
    sample = np.arange(0, FIELD_SIZE, 17, dtype=np.uint8)
    a, b, c = np.meshgrid(sample, sample, sample, indexing="ij")
    if not np.array_equal(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c)):
        raise AssertionError("distributivity failed on the sample lattice")
