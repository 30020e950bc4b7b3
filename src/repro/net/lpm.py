"""Longest-prefix-match table, the backing store for router FIBs.

Entries are bucketed by prefix length, ``{length: {network: (prefix,
value)}}``, and a lookup masks the address once per length *present*,
longest first: its cost is the number of distinct lengths stored, not
the address width. Measured FIBs hold at most two entries over at most
two lengths (docs/architecture.md, "FIB shape"), so forwarding one hop
is at most two dict probes.

The table is address-family generic: ``bits=32`` (the default) stores
:class:`~repro.net.addr.IPv4Prefix` keys, ``bits=128`` stores
:class:`~repro.net.addr.IPv6Prefix` keys. Mixing families in one table
is rejected, as real FIBs keep separate v4/v6 tables.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from repro.net.addr import Address, Prefix

V = TypeVar("V")


class LpmTable(Generic[V]):
    """Length-bucketed prefix table with longest-prefix-match lookup."""

    def __init__(self, bits: int = 32) -> None:
        if bits not in (32, 128):
            raise ValueError(f"bits must be 32 or 128, got {bits}")
        self.bits = bits
        self._buckets: dict[int, dict[int, tuple[Prefix, V]]] = {}
        #: (netmask, bucket) per length present, longest first
        self._probes: tuple[tuple[int, dict[int, tuple[Prefix, V]]], ...] = ()

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def __contains__(self, prefix: Prefix) -> bool:
        return self.get(prefix) is not None

    def _check_family(self, bits: int) -> None:
        if bits != self.bits:
            raise ValueError(
                f"address family mismatch: table is {self.bits}-bit, key is {bits}-bit"
            )

    def _reindex(self) -> None:
        """Rebuild the probe order after a bucket appeared or vanished."""
        full = (1 << self.bits) - 1
        self._probes = tuple(
            (full >> (self.bits - length) << (self.bits - length), self._buckets[length])
            for length in sorted(self._buckets, reverse=True)
        )

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``. ``None`` is
        rejected: :meth:`get` answers ``None`` for "absent"."""
        if value is None:
            raise ValueError("LpmTable cannot store None (get() uses None for 'absent')")
        self._check_family(prefix.bits)
        bucket = self._buckets.get(prefix.length)
        if bucket is None:
            bucket = self._buckets[prefix.length] = {}
            self._reindex()
        bucket[prefix.network] = (prefix, value)

    def remove(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; True if it was present. An emptied bucket
        is dropped, so announce/withdraw churn (reactive-anycast's steady
        state) cannot grow the table or the lengths a lookup probes."""
        self._check_family(prefix.bits)
        bucket = self._buckets.get(prefix.length)
        if bucket is None or bucket.pop(prefix.network, None) is None:
            return False
        if not bucket:
            del self._buckets[prefix.length]
            self._reindex()
        return True

    def get(self, prefix: Prefix) -> V | None:
        """Exact-match lookup (no LPM); None means absent."""
        self._check_family(prefix.bits)
        entry = self._buckets.get(prefix.length, {}).get(prefix.network)
        return None if entry is None else entry[1]

    def lookup(self, address: Address) -> tuple[Prefix, V] | None:
        """Longest-prefix match: the stored ⟨prefix, value⟩, or None."""
        self._check_family(address.bits)
        value = address.value
        for mask, bucket in self._probes:
            entry = bucket.get(value & mask)
            if entry is not None:
                return entry
        return None

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All (prefix, value) pairs; callers that need an order sort."""
        for bucket in self._buckets.values():
            yield from bucket.values()

    def clear(self) -> None:
        """Remove all entries."""
        self._buckets.clear()
        self._probes = ()
