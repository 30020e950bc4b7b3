"""Longest-prefix-match table, the backing store for router FIBs.

Entries are bucketed by prefix length, ``{length: {network: (prefix,
value)}}``, and a lookup masks the address once per length *present*,
longest first: its cost is the number of distinct lengths stored, not
the address width. Measured FIBs hold at most two entries over at most
two lengths (docs/architecture.md, "FIB shape"), so forwarding one hop
is at most two dict probes. Keys are :class:`~repro.net.addr.IPv4Prefix`
values.
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, TypeVar

from repro.net.addr import NETMASKS, IPv4Address, IPv4Prefix

V = TypeVar("V")


class LpmTable(Generic[V]):
    """Length-bucketed prefix table with longest-prefix-match lookup."""

    def __init__(self) -> None:
        self._buckets: dict[int, dict[int, tuple[IPv4Prefix, V]]] = {}
        #: (netmask, bucket) per length present, longest first
        self._probes: tuple[tuple[int, dict[int, tuple[IPv4Prefix, V]]], ...] = ()

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        return self.get(prefix) is not None

    def _reindex(self) -> None:
        """Rebuild the probe order after a bucket appeared or vanished."""
        self._probes = tuple(
            (NETMASKS[length], self._buckets[length])
            for length in sorted(self._buckets, reverse=True)
        )

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``. ``None`` is
        rejected: :meth:`get` answers ``None`` for "absent"."""
        if value is None:
            raise ValueError("LpmTable cannot store None (get() uses None for 'absent')")
        bucket = self._buckets.get(prefix.length)
        if bucket is None:
            bucket = self._buckets[prefix.length] = {}
            self._reindex()
        bucket[prefix.network] = (prefix, value)

    def load(self, entries: Iterable[tuple[IPv4Prefix, V]]) -> None:
        """Replace the contents with ``entries`` (⟨prefix, value⟩ pairs,
        as :meth:`items` yields them), reindexing once at the end rather
        than once per new length (checkpoint restore and rewind)."""
        self._buckets = {}
        for prefix, value in entries:
            if value is None:
                raise ValueError("LpmTable cannot store None (get() uses None for 'absent')")
            self._buckets.setdefault(prefix.length, {})[prefix.network] = (prefix, value)
        self._reindex()

    def remove(self, prefix: IPv4Prefix) -> bool:
        """Remove ``prefix``; True if it was present. An emptied bucket
        is dropped, so announce/withdraw churn (reactive-anycast's steady
        state) cannot grow the table or the lengths a lookup probes."""
        bucket = self._buckets.get(prefix.length)
        if bucket is None or bucket.pop(prefix.network, None) is None:
            return False
        if not bucket:
            del self._buckets[prefix.length]
            self._reindex()
        return True

    def get(self, prefix: IPv4Prefix) -> V | None:
        """Exact-match lookup (no LPM); None means absent."""
        entry = self._buckets.get(prefix.length, {}).get(prefix.network)
        return None if entry is None else entry[1]

    def lookup(self, address: IPv4Address) -> tuple[IPv4Prefix, V] | None:
        """Longest-prefix match: the stored ⟨prefix, value⟩, or None."""
        value = address.value
        for mask, bucket in self._probes:
            entry = bucket.get(value & mask)
            if entry is not None:
                return entry
        return None

    def items(self) -> Iterator[tuple[IPv4Prefix, V]]:
        """All (prefix, value) pairs; callers that need an order sort."""
        for bucket in self._buckets.values():
            yield from bucket.values()
