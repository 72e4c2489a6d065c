"""Property tests for the GF(256) Reed-Solomon codec and fragment store.

The codec's contract is the MDS bar: any k of the n fragments reconstruct
the striped data *exactly*, and any fewer lose it.  The suite proves that
bar exhaustively over every loss pattern for a lattice of (k, n) shapes,
round-trips 200 seeded random matrices, and re-derives the GF(256) field
axioms from the generated tables.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.coding import (
    MAX_FRAGMENTS,
    FragmentStore,
    IrrecoverableError,
    encoding_matrix,
    gf_div,
    gf_inv,
    gf_mul,
    payload_matrix,
    rs_decode,
    rs_encode,
    self_check,
    serialize_payload,
)
from repro.coding.gf256 import (
    FIELD_SIZE,
    GF_EXP,
    GF_LOG,
    GF_MUL,
    gf_inv_matrix,
    gf_matmul,
)

#: (k, n) shapes small enough to enumerate every loss pattern exhaustively
EXHAUSTIVE_SHAPES = ((1, 1), (1, 3), (2, 2), (2, 3), (2, 4), (3, 5), (4, 6))


class TestGF256:
    def test_self_check_passes(self):
        self_check()

    def test_table_shapes(self):
        assert GF_EXP.shape == (2 * (FIELD_SIZE - 1),)
        assert GF_LOG.shape == (FIELD_SIZE,)
        assert GF_MUL.shape == (FIELD_SIZE, FIELD_SIZE)

    def test_mul_matches_polynomial_reference(self):
        # Slow bitwise carry-less reference, spot-checked on a seeded sample.
        def reference(a, b):
            product = 0
            while b:
                if b & 1:
                    product ^= a
                a <<= 1
                if a & 0x100:
                    a ^= 0x11D
                b >>= 1
            return product

        rng = np.random.default_rng(5)
        for a, b in rng.integers(0, 256, size=(200, 2)):
            assert int(gf_mul(int(a), int(b))) == reference(int(a), int(b))

    def test_every_inverse(self):
        for a in range(1, FIELD_SIZE):
            assert int(gf_mul(a, gf_inv(a))) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_division_round_trip(self):
        rng = np.random.default_rng(6)
        values = rng.integers(0, 256, size=64, dtype=np.uint8)
        for b in (1, 2, 73, 255):
            assert np.array_equal(gf_div(gf_mul(values, b), b), values)

    def test_matrix_inverse_round_trip(self):
        for size in (1, 2, 4):
            # Cauchy parity blocks are guaranteed-invertible test subjects.
            m = encoding_matrix(size, 2 * size)[size:]
            assert np.array_equal(
                gf_matmul(gf_inv_matrix(m), m), np.eye(size, dtype=np.uint8)
            )

    def test_singular_matrix_raises(self):
        singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_inv_matrix(singular)

    def test_matmul_matches_broadcast_reference(self):
        """The row-table gather computes exactly the 2-D broadcast product
        it replaced — zero rows and coefficients, k=1, empty width included."""

        def reference(a, b):
            out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
            for t in range(a.shape[1]):
                out ^= GF_MUL[a[:, t][:, None], b[t, :][None, :]]
            return out

        rng = np.random.default_rng(2718)
        shapes = [(1, 1, 1), (3, 1, 17), (2, 4, 0), (0, 3, 5), (6, 4, 4096)]
        shapes += [tuple(int(v) for v in rng.integers(1, 9, size=3)) for _ in range(60)]
        for rows, k, width in shapes:
            a = rng.integers(0, 256, size=(rows, k), dtype=np.uint8)
            b = rng.integers(0, 256, size=(k, width), dtype=np.uint8)
            a[rng.random(a.shape) < 0.3] = 0      # zero coefficients
            if rows > 1:
                a[int(rng.integers(0, rows))] = 0  # a whole zero row
            product = gf_matmul(a, b)
            assert product.dtype == np.uint8
            assert np.array_equal(product, reference(a, b)), (rows, k, width)


class TestCodecRoundTrip:
    def test_200_seeded_random_matrices(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(k, k + 6))
            width = int(rng.integers(1, 64))
            data = rng.integers(0, 256, size=(k, width), dtype=np.uint8)
            decoded = rs_decode(rs_encode(data, n), k)
            assert np.array_equal(decoded, data)

    def test_systematic_prefix_is_the_data(self):
        rng = np.random.default_rng(8)
        data = rng.integers(0, 256, size=(3, 40), dtype=np.uint8)
        fragments = rs_encode(data, 5)
        assert np.array_equal(fragments[:3], data)

    @pytest.mark.parametrize("k,n", EXHAUSTIVE_SHAPES)
    def test_every_recoverable_loss_pattern(self, k, n):
        """Any loss of <= n-k fragments decodes exactly (MDS bar)."""
        rng = np.random.default_rng(100 * k + n)
        data = rng.integers(0, 256, size=(k, 17), dtype=np.uint8)
        fragments = rs_encode(data, n)
        for losses in range(n - k + 1):
            for lost in itertools.combinations(range(n), losses):
                surviving = [i for i in range(n) if i not in lost]
                decoded = rs_decode(fragments[surviving], k, surviving)
                assert np.array_equal(decoded, data), (k, n, lost)

    @pytest.mark.parametrize("k,n", EXHAUSTIVE_SHAPES)
    def test_every_irrecoverable_loss_pattern(self, k, n):
        """Any loss of > n-k fragments raises IrrecoverableError."""
        rng = np.random.default_rng(200 * k + n)
        data = rng.integers(0, 256, size=(k, 9), dtype=np.uint8)
        fragments = rs_encode(data, n)
        for losses in range(n - k + 1, n + 1):
            for lost in itertools.combinations(range(n), losses):
                surviving = [i for i in range(n) if i not in lost]
                with pytest.raises(IrrecoverableError):
                    rs_decode(fragments[surviving], k, surviving)

    def test_duplicate_indices_are_ignored(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 256, size=(2, 10), dtype=np.uint8)
        fragments = rs_encode(data, 4)
        # Two copies of fragment 3 plus fragment 1: only two distinct rows.
        stacked = np.stack([fragments[3], fragments[3], fragments[1]])
        decoded = rs_decode(stacked, 2, [3, 3, 1])
        assert np.array_equal(decoded, data)
        with pytest.raises(IrrecoverableError):
            rs_decode(np.stack([fragments[3], fragments[3]]), 2, [3, 3])

    def test_index_count_mismatch_rejected(self):
        fragments = rs_encode(np.zeros((2, 4), dtype=np.uint8), 3)
        with pytest.raises(ValueError):
            rs_decode(fragments, 2, [0, 1])

    def test_capacity_limit(self):
        with pytest.raises(ValueError):
            encoding_matrix(2, MAX_FRAGMENTS + 1)
        with pytest.raises(ValueError):
            rs_encode(np.zeros((2, 4), dtype=np.uint8), MAX_FRAGMENTS + 1)

    def test_any_k_generator_rows_invertible(self):
        """The Cauchy construction's MDS property, checked directly."""
        k, n = 3, 6
        generator = encoding_matrix(k, n)
        for rows in itertools.combinations(range(n), k):
            gf_inv_matrix(generator[list(rows)])  # must not raise


class TestPayloadStriping:
    def test_round_trip_through_matrix(self):
        payload = pickle.dumps({"a": list(range(50))})
        for k in (1, 2, 3, 7):
            matrix = payload_matrix(payload, k)
            assert matrix.shape[0] == k
            flat = matrix.reshape(-1)[: len(payload)].tobytes()
            assert flat == payload

    def test_empty_payload_still_stripes(self):
        matrix = payload_matrix(b"", 3)
        assert matrix.shape == (3, 1)
        assert not matrix.any()


def alive_fn(dead=()):
    dead = set(dead)
    return lambda host: host not in dead


class TestFragmentStore:
    def make_store(self, k=2, n=3):
        return FragmentStore(
            k, n, {"wifi0": [f"wired{i}" for i in range(n)]}
        )

    def test_sync_and_reconstruct(self):
        store = self.make_store()
        payload = serialize_payload({1: "state"})
        shipped, hosts = store.sync("wifi0", payload, alive_fn())
        assert hosts == 3
        # 3 fragments of ceil(len/2) bytes each: strictly under 2 copies.
        assert shipped < 2 * len(payload)
        assert store.reconstruct("wifi0", alive_fn()) == {1: "state"}

    def test_reconstruct_with_any_k_survivors(self):
        store = self.make_store()
        store.sync("wifi0", serialize_payload({7: "x"}), alive_fn())
        for dead in (["wired0"], ["wired1"], ["wired2"]):
            assert store.reconstruct("wifi0", alive_fn(dead)) == {7: "x"}

    def test_irrecoverable_below_k(self):
        store = self.make_store()
        store.sync("wifi0", serialize_payload({7: "x"}), alive_fn())
        assert store.reconstruct("wifi0", alive_fn(["wired0", "wired1"])) is None

    def test_generations_merge_oldest_first(self):
        # k=1 keeps a single surviving fragment decodable, so a host that
        # missed the newest sync still contributes its older generation.
        store = FragmentStore(1, 2, {"wifi0": ["wired0", "wired1"]})
        store.sync("wifi0", serialize_payload({1: "old", 2: "old"}), alive_fn())
        store.sync("wifi0", serialize_payload({2: "new"}), alive_fn(["wired1"]))
        # wired1 still holds generation 1; wired0 holds generation 2 —
        # newest generation wins per key, older keys survive the merge.
        merged = store.reconstruct("wifi0", alive_fn())
        assert merged == {1: "old", 2: "new"}

    def test_partial_sync_drops_stale_keys_once_upgraded(self):
        store = self.make_store()
        store.sync("wifi0", serialize_payload({1: "old", 2: "old"}), alive_fn())
        store.sync("wifi0", serialize_payload({2: "new"}), alive_fn(["wired2"]))
        # Generation 1 keeps only wired2's fragment (< k survive) — the
        # merge is generation 2 alone, like a full-copy host that synced.
        assert store.reconstruct("wifi0", alive_fn()) == {2: "new"}

    def test_no_live_hosts_skips_generation(self):
        store = self.make_store()
        dead_all = alive_fn(["wired0", "wired1", "wired2"])
        assert store.sync("wifi0", serialize_payload({}), dead_all) == (0, 0)
        # Nothing held is not a lost stripe: empty, not None.
        assert store.reconstruct("wifi0", alive_fn()) == {}

    def test_decode_memoised(self):
        store = self.make_store()
        store.sync("wifi0", serialize_payload({3: "v"}), alive_fn())
        store.reconstruct("wifi0", alive_fn())
        store.reconstruct("wifi0", alive_fn(["wired0"]))
        assert store.decodes == 1  # same generation, cached decode

    def test_wrapped_slots_die_together(self):
        # n=3 slots over 2 hosts: wired0 holds fragments 0 and 2.
        store = FragmentStore(2, 3, {"wifi0": ["wired0", "wired1", "wired0"]})
        store.sync("wifi0", serialize_payload({5: "y"}), alive_fn())
        assert store.reconstruct("wifi0", alive_fn(["wired1"])) == {5: "y"}
        assert store.reconstruct("wifi0", alive_fn(["wired0"])) is None
