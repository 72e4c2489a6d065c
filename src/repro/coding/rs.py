"""Systematic Reed-Solomon-style erasure codec over GF(256).

The generator is the systematic stack ``G = [I_k ; C]`` where ``C`` is a
(n-k) x k Cauchy matrix: ``C[i][j] = 1 / (x_i ^ y_j)`` with evaluation
points ``x_i = k + i`` and ``y_j = j``.  The two point sets are disjoint,
so every entry is defined, and every square submatrix of a Cauchy matrix
is nonsingular — which makes any k rows of ``G`` invertible: the code is
MDS, any k of the n fragments reconstruct the data exactly (Dimakis et
al.'s k-of-n recoverability bar for decentralized erasure codes).

``rs_encode`` maps a ``(k, L)`` byte matrix to ``(n, L)`` fragments whose
first k rows *are* the data (systematic: the common no-loss decode is a
slice).  ``rs_decode`` takes any >= k surviving fragment rows plus their
original indices and inverts the corresponding generator rows; fewer
than k distinct fragments raise :class:`IrrecoverableError`.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.coding.gf256 import FIELD_SIZE, gf_apply, gf_inv, gf_inv_matrix, gf_matmul, gf_tables

#: widest supported codeword: evaluation points live in [0, 255] and the
#: data/parity point sets must stay disjoint inside the field
MAX_FRAGMENTS = FIELD_SIZE - 1


class IrrecoverableError(ValueError):
    """Fewer than k distinct fragments survive: the stripe is lost."""


def _validate_kn(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > MAX_FRAGMENTS:
        raise ValueError(f"n={n} exceeds GF(256) capacity ({MAX_FRAGMENTS})")


@functools.lru_cache(maxsize=None)
def encoding_matrix(k: int, n: int) -> np.ndarray:
    """The ``(n, k)`` systematic generator ``[I_k ; Cauchy]``.

    Built once per ``(k, n)`` and shared, so it is read-only.
    """
    _validate_kn(k, n)
    matrix = np.zeros((n, k), dtype=np.uint8)
    matrix[:k] = np.eye(k, dtype=np.uint8)
    for i in range(n - k):
        for j in range(k):
            matrix[k + i, j] = gf_inv((k + i) ^ j)
    matrix.setflags(write=False)
    return matrix


@functools.lru_cache(maxsize=None)
def _parity_tables(k: int, n: int) -> tuple[tuple[bytes, ...], ...]:
    """The Cauchy parity rows of :func:`encoding_matrix` as :func:`gf_tables`."""
    return gf_tables(encoding_matrix(k, n)[k:])


def rs_encode(data: np.ndarray, n: int) -> np.ndarray:
    """Encode a ``(k, L)`` byte matrix into ``n`` fragment rows.

    Row ``i < k`` of the result equals row ``i`` of *data* (systematic);
    rows ``k..n-1`` are the Cauchy parity combinations: one byte
    translation per parity coefficient, then one XOR reduction for all of
    them (:func:`~repro.coding.gf256.gf_apply`).
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.ndim != 2:
        raise ValueError(f"data must be a (k, L) byte matrix, got shape {data.shape}")
    # _parity_tables validates (k, n) through encoding_matrix, which caches
    # only valid codes
    return np.concatenate((data, gf_apply(_parity_tables(data.shape[0], n), data)))


def rs_decode(
    fragments: np.ndarray,
    k: int,
    indices: Sequence[int] | None = None,
) -> np.ndarray:
    """Reconstruct the ``(k, L)`` data matrix from surviving fragments.

    *fragments* holds one surviving codeword row per matrix row and
    *indices* gives each row's original position in the codeword
    (default: ``0..len(fragments)-1``, the no-loss layout — so
    ``rs_decode(rs_encode(M, n), k)`` round-trips via the systematic
    rows).  Only the first k distinct indices are used; duplicates are
    ignored.  Raises :class:`IrrecoverableError` when fewer than k
    distinct fragments are supplied.
    """
    fragments = np.ascontiguousarray(fragments, dtype=np.uint8)
    if fragments.ndim != 2:
        raise ValueError(
            f"fragments must be an (m, L) byte matrix, got shape {fragments.shape}"
        )
    if indices is None:
        indices = range(fragments.shape[0])
    index_list = [int(i) for i in indices]
    if len(index_list) != fragments.shape[0]:
        raise ValueError(
            f"{fragments.shape[0]} fragment rows but {len(index_list)} indices"
        )
    if any(i < 0 for i in index_list):
        raise ValueError(f"fragment indices must be >= 0, got {index_list}")
    n = max(index_list, default=-1) + 1
    _validate_kn(k, max(n, k))
    chosen: list[int] = []       # positions into the fragment rows
    seen: set[int] = set()
    for position, index in enumerate(index_list):
        if index in seen:
            continue
        seen.add(index)
        chosen.append(position)
        if len(chosen) == k:
            break
    if len(chosen) < k:
        raise IrrecoverableError(
            f"need {k} distinct fragments to decode, have {len(chosen)}"
        )
    rows = [index_list[position] for position in chosen]
    if rows == list(range(k)):
        # Systematic fast path: the data rows themselves survived.
        return fragments[chosen].copy()
    generator = encoding_matrix(k, max(n, k))
    inverse = gf_inv_matrix(generator[rows])
    return gf_matmul(inverse, fragments[chosen])
