"""IPv4 addresses and prefixes.

Lightweight, immutable, int-backed types. The BGP simulator stores routing
state keyed by prefixes and performs longest-prefix matching, so these
types are optimized for hashing and containment checks rather than for
the full generality of the standard library's :mod:`ipaddress` module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_STR_CACHE: dict[object, str] = {}


def cached_str(value: object) -> str:
    """``str(value)`` memoized by value, for hot telemetry paths.

    Trace events carry prefixes and addresses as text; a run stringifies
    the same few dozen values tens of thousands of times. The universe
    of distinct addresses in a simulation is tiny, so an unbounded cache
    is safe. Only address/prefix types (frozen, value-hashed) belong in
    here.
    """
    text = _STR_CACHE.get(value)
    if text is None:
        text = _STR_CACHE[value] = str(value)
    return text


#: the network mask of every prefix length 0..32
NETMASKS = tuple(0xFFFFFFFF >> (32 - length) << (32 - length) for length in range(33))


@dataclass(frozen=True, slots=True, order=True)
class IPv4Address:
    """An IPv4 address backed by a 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address value {self.value} out of range")

    @classmethod
    def parse(cls, text: str) -> IPv4Address:
        """Parse dotted-quad notation, e.g. ``IPv4Address.parse("10.0.0.1")``."""
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid IPv4 address {text!r}: expected 4 octets")
        value = 0
        for part in parts:
            if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
                raise ValueError(f"invalid IPv4 address {text!r}: bad octet {part!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"invalid IPv4 address {text!r}: octet {octet} > 255")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24 & 0xFF}.{v >> 16 & 0xFF}.{v >> 8 & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True, slots=True, order=True)
class IPv4Prefix:
    """An IPv4 prefix (``network/length``), e.g. the paper's
    184.164.244.0/24, canonicalized on construction.

    The ``network`` value must have all host bits clear; use :meth:`of` to
    build a prefix from an arbitrary address inside it.

    The hash is taken once, at construction: every RIB, session and
    pending-update table is keyed by prefix. It is the value the
    generated ``__hash__`` would give, ``hash((network, length))``, so
    the order of every prefix set stays what it was.
    """

    network: int
    length: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length {self.length} out of range")
        if not 0 <= self.network <= 0xFFFFFFFF:
            raise ValueError(f"network value {self.network} out of range")
        if self.network & ~NETMASKS[self.length]:
            raise ValueError(
                f"network {IPv4Address(self.network)} has host bits set for /{self.length}"
            )
        object.__setattr__(self, "_hash", hash((self.network, self.length)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> IPv4Prefix:
        """Parse CIDR notation, e.g. ``IPv4Prefix.parse("184.164.244.0/24")``."""
        if "/" not in text:
            raise ValueError(f"invalid prefix {text!r}: missing '/'")
        addr_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise ValueError(f"invalid prefix {text!r}: bad length {len_text!r}")
        return cls(IPv4Address.parse(addr_text).value, int(len_text))

    @classmethod
    def of(cls, address: IPv4Address, length: int) -> IPv4Prefix:
        """The /``length`` prefix containing ``address``."""
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length {length} out of range")
        return cls(address.value & NETMASKS[length], length)

    def mask(self) -> int:
        """The network mask as an integer."""
        return NETMASKS[self.length]

    def contains(self, address: IPv4Address) -> bool:
        """True if ``address`` falls inside this prefix."""
        return (address.value & NETMASKS[self.length]) == self.network

    def covers(self, other: IPv4Prefix) -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and (other.network & self.mask()) == self.network

    def address(self, host: int) -> IPv4Address:
        """The ``host``-th address inside this prefix (0 is the network address)."""
        if not 0 <= host < self.num_addresses():
            raise ValueError(f"host index {host} out of range for /{self.length}")
        return IPv4Address(self.network + host)

    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (32 - self.length)

    def subnets(self, new_length: int) -> list[IPv4Prefix]:
        """Split into all subnets of ``new_length`` (must not be shorter)."""
        if new_length < self.length:
            raise ValueError(f"cannot split /{self.length} into shorter /{new_length}")
        step = 1 << (32 - new_length)
        count = 1 << (new_length - self.length)
        if count > 1 << 20:
            raise ValueError(f"refusing to enumerate {count} subnets")
        return [IPv4Prefix(self.network + i * step, new_length) for i in range(count)]

    def __str__(self) -> str:
        return f"{IPv4Address(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"
