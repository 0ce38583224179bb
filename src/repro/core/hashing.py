"""Hash-function machinery for the two-layer cuckoo scheme.

The paper (Section IV-A) uses a simple universal family

    h_i(k) = ((a_i * k + b_i) mod p) mod |h_i|

with random ``a_i, b_i`` and a large prime ``p``.  We implement exactly
that family over the Mersenne prime ``p = 2**31 - 1`` with a per-function
64-bit pre-mix so that 64-bit keys are first folded into ``[0, p)`` in a
function-dependent way (two keys that collide under one function's fold
are unlikely to collide under another's).  All operations are vectorized
over ``numpy`` ``uint64`` arrays.

The *first layer* (Section V-A) hashes a key to one of ``C(d, 2)``
unordered subtable pairs; :class:`PairHash` enumerates the pairs
lexicographically and provides both directions of the mapping.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidConfigError

#: Mersenne prime used by the universal family.
MERSENNE_P = np.uint64((1 << 31) - 1)


def fold_to_31_bits(codes: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Reduce ``uint64`` codes modulo the Mersenne prime ``2**31 - 1``.

    Because ``2**31 === 1 (mod 2**31 - 1)`` the residue equals the
    folded sum of the value's three 31-bit limbs; numpy's integer
    remainder yields the same canonical residue in one pass, and on
    every array size measured (100 to 1M codes) faster than the limb
    arithmetic.  ``out`` may alias ``codes`` to reduce in place.
    """
    return np.remainder(np.asarray(codes, dtype=np.uint64), MERSENNE_P,
                        out=out)


class UniversalHash:
    """One member of the universal family ``(a*k + b mod p) mod range``.

    Parameters
    ----------
    a, b:
        Multiplier and offset, ``1 <= a < p`` and ``0 <= b < p``.
    premix:
        64-bit constant XOR-mixed into the key before folding, making the
        fold itself function-dependent.
    """

    __slots__ = ("a", "b", "premix")

    def __init__(self, a: int, b: int, premix: int) -> None:
        if not 1 <= a < int(MERSENNE_P):
            raise InvalidConfigError(f"hash multiplier a out of range: {a}")
        if not 0 <= b < int(MERSENNE_P):
            raise InvalidConfigError(f"hash offset b out of range: {b}")
        self.a = np.uint64(a)
        self.b = np.uint64(b)
        self.premix = np.uint64(premix)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "UniversalHash":
        """Draw a random member of the family from ``rng``."""
        a = int(rng.integers(1, int(MERSENNE_P)))
        b = int(rng.integers(0, int(MERSENNE_P)))
        premix = int(rng.integers(0, 1 << 63))
        return cls(a, b, premix)

    @classmethod
    def per_key(cls, members: "list[UniversalHash]",
                which: np.ndarray) -> "UniversalHash":
        """Key ``i`` hashed by ``members[which[i]]``, as one function.

        The returned object's constants are arrays aligned with the keys
        it will hash, so a single :meth:`raw` call evaluates each key
        under its own member of the family (bit-identical to hashing
        every key group with its member separately).
        """
        which = np.asarray(which, dtype=np.int64)

        def pick(constants: list) -> np.ndarray:
            return np.asarray(constants, dtype=np.uint64)[which]

        picked = cls.__new__(cls)
        picked.a = pick([m.a for m in members])
        picked.b = pick([m.b for m in members])
        picked.premix = pick([m.premix for m in members])
        return picked

    def raw(self, codes: np.ndarray) -> np.ndarray:
        """Return hash values in ``[0, p)`` for an array of uint64 codes."""
        mixed = np.bitwise_xor(np.asarray(codes, dtype=np.uint64),
                               self.premix)
        fold_to_31_bits(mixed, out=mixed)
        # a < 2**31 and the fold < 2**31, so the product fits in uint64.
        mixed *= self.a
        mixed += self.b
        return fold_to_31_bits(mixed, out=mixed)

    def bucket(self, codes: np.ndarray, n_buckets: int) -> np.ndarray:
        """Return bucket indices in ``[0, n_buckets)``.

        ``n_buckets`` must be a power of two so that doubling a subtable
        moves an entry from bucket ``loc`` to either ``loc`` or
        ``loc + n_buckets`` (the conflict-free upsize property of
        Section IV-D).  Masking low bits of the 31-bit hash provides that
        property because ``h mod 2n`` is ``h mod n`` plus (possibly)
        ``n``.
        """
        return self.bucket_from_raw(self.raw(codes), n_buckets)

    @staticmethod
    def bucket_from_raw(raw: np.ndarray, n_buckets: int) -> np.ndarray:
        """Reduce precomputed :meth:`raw` values to bucket indices.

        ``raw`` does not depend on the table geometry, so batch code can
        hash a key set once and re-reduce it cheaply after every resize
        (see :class:`repro.core.batch_ops.EncodedBatch`).
        """
        if n_buckets & (n_buckets - 1):
            raise InvalidConfigError(
                f"n_buckets must be a power of two, got {n_buckets}"
            )
        return (np.asarray(raw, dtype=np.uint64)
                & np.uint64(n_buckets - 1)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"UniversalHash(a={int(self.a)}, b={int(self.b)}, "
                f"premix=0x{int(self.premix):x})")


class PairHash:
    """First-layer hash: key -> one of the ``C(d, 2)`` subtable pairs.

    The pairs ``(i, j)`` with ``i < j`` are enumerated lexicographically:
    for ``d = 4`` the order is ``(0,1), (0,2), (0,3), (1,2), (1,3),
    (2,3)``.  A key's partition index is ``hash(key) mod C(d, 2)``.
    """

    def __init__(self, num_tables: int, rng: np.random.Generator) -> None:
        if num_tables < 2:
            raise InvalidConfigError(
                f"PairHash needs at least two tables, got {num_tables}"
            )
        self.num_tables = num_tables
        self.hash = UniversalHash.random(rng)
        pairs = [(i, j)
                 for i in range(num_tables)
                 for j in range(i + 1, num_tables)]
        #: ``(C(d,2), 2)`` lookup array mapping partition -> (i, j).
        self.pairs = np.asarray(pairs, dtype=np.int64)
        #: ``(C(d,2), d)`` lookup: ``other[p, t]`` is the member of pair
        #: ``p`` that is not ``t``, or -1 when ``t`` is not in the pair.
        self.other = np.full((len(pairs), num_tables), -1, dtype=np.int64)
        rows = np.arange(len(pairs))
        self.other[rows, self.pairs[:, 0]] = self.pairs[:, 1]
        self.other[rows, self.pairs[:, 1]] = self.pairs[:, 0]

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def partition(self, codes: np.ndarray) -> np.ndarray:
        """Return the partition index in ``[0, C(d,2))`` for each code."""
        return (self.raw_mod(codes)).astype(np.int64)

    def raw_mod(self, codes: np.ndarray) -> np.ndarray:
        return self.hash.raw(codes) % np.uint64(self.num_pairs)

    def tables_for(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return arrays ``(first, second)`` of the two candidate subtables."""
        part = self.partition(codes)
        chosen = self.pairs[part]
        return chosen[:, 0], chosen[:, 1]

    def alternate_table(self, codes: np.ndarray, current: np.ndarray
                        ) -> np.ndarray:
        """Return, per code, the pair member that is *not* ``current``.

        ``current`` must hold, for every code, one of its two candidate
        subtables; this is the invariant that every stored entry sits in a
        subtable of its own pair.
        """
        part = self.partition(codes)
        current = np.asarray(current, dtype=np.int64)
        # Negative ids wrap to huge unsigned values: one bound check.
        if not np.any(current.astype(np.uint64) >= self.num_tables):
            alt = self.other[part, current]
            if not len(alt) or int(alt.min()) >= 0:
                return alt
        raise AssertionError(
            "alternate_table called with a table outside the key's pair; "
            "the two-layer invariant was violated"
        )


def make_table_hashes(num_tables: int, rng: np.random.Generator
                      ) -> list[UniversalHash]:
    """Create ``d`` independent second-layer hash functions."""
    return [UniversalHash.random(rng) for _ in range(num_tables)]
