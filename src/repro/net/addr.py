"""IPv4 / IPv6 addresses and prefixes.

Lightweight, immutable, int-backed types. The BGP simulator stores routing
state keyed by prefixes and performs longest-prefix matching, so these
types are optimized for hashing and containment checks rather than for
the full generality of the standard library's :mod:`ipaddress` module.

One implementation per kind, :class:`Address` and :class:`Prefix`,
written against a bit width; a family binds the width and supplies its
text codec. The paper's techniques apply to both families ("a distinct
prefix (e.g., /24 or /48)") and the routing substrate is family-agnostic,
so IPv6 only needs these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Generic, TypeVar

A = TypeVar("A", bound="Address")
P = TypeVar("P", bound="Prefix")

_FAMILY = {32: "IPv4", 128: "IPv6"}

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


def _out_of_range(what: str, value: int, bits: int) -> ValueError:
    shown = f" {value}" if bits == 32 else ""  # a 39-digit value helps nobody
    return ValueError(f"{what} value{shown} out of range")


def _netmasks(bits: int) -> tuple[int, ...]:
    """The network mask for every prefix length 0..``bits``."""
    full = (1 << bits) - 1
    return tuple(full >> (bits - length) << (bits - length) for length in range(bits + 1))


@dataclass(frozen=True, slots=True, order=True)
class Address:
    """An address backed by a ``bits``-wide integer (use a family below)."""

    value: int

    bits: ClassVar[int]

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << self.bits:
            raise _out_of_range(f"{_FAMILY[self.bits]} address", self.value, self.bits)

    @classmethod
    def parse(cls: type[A], text: str) -> A:
        """Parse the family's text form; ``str()`` is its inverse."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __int__(self) -> int:
        return self.value


class IPv4Address(Address):
    """An IPv4 address backed by a 32-bit integer."""

    __slots__ = ()
    bits = 32

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


class IPv6Address(Address):
    """An IPv6 address backed by a 128-bit integer."""

    __slots__ = ()
    bits = 128

    @classmethod
    def parse(cls, text: str) -> IPv6Address:
        """Parse the textual forms RFC 4291 §2.2 defines for pure IPv6,
        ``::`` compression included (the embedded-IPv4 form is not needed)."""
        if text.count("::") > 1:
            raise ValueError(f"invalid IPv6 address {text!r}: multiple '::'")

        def parse_groups(chunk: str) -> list[int]:
            if not chunk:
                return []
            groups = []
            for part in chunk.split(":"):
                if not part or len(part) > 4 or any(c not in "0123456789abcdefABCDEF" for c in part):
                    raise ValueError(f"invalid IPv6 address {text!r}: bad group {part!r}")
                groups.append(int(part, 16))
            return groups

        if "::" in text:
            head_text, _, tail_text = text.partition("::")
            head = parse_groups(head_text)
            tail = parse_groups(tail_text)
            missing = 8 - len(head) - len(tail)
            if missing < 1:
                raise ValueError(f"invalid IPv6 address {text!r}: '::' expands to nothing")
            groups = head + [0] * missing + tail
        else:
            groups = parse_groups(text)
            if len(groups) != 8:
                raise ValueError(f"invalid IPv6 address {text!r}: expected 8 groups")
        value = 0
        for group in groups:
            value = (value << 16) | group
        return cls(value)

    def __str__(self) -> str:
        """Canonical RFC 5952 text: lowercase, longest zero run compressed."""
        groups = [(self.value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]
        # Find the longest run of zero groups (length >= 2) to compress.
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, group in enumerate(groups):
            if group == 0:
                if run_start == -1:
                    run_start = i
                run_len = i - run_start + 1
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
            else:
                run_start, run_len = -1, 0
        if best_len < 2:
            return ":".join(f"{g:x}" for g in groups)
        head = ":".join(f"{g:x}" for g in groups[:best_start])
        tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
        return f"{head}::{tail}"


@dataclass(frozen=True, slots=True, order=True)
class Prefix(Generic[A]):
    """A prefix (``network/length``) over address family ``A``,
    canonicalized on construction.

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

    bits: ClassVar[int]
    _masks: ClassVar[tuple[int, ...]]
    _address: ClassVar[type[Address]]

    def __post_init__(self) -> None:
        if not 0 <= self.length <= self.bits:
            raise ValueError(f"prefix length {self.length} out of range")
        if not 0 <= self.network <= self._masks[-1]:
            raise _out_of_range("network", self.network, self.bits)
        if self.network & ~self._masks[self.length]:
            raise ValueError(
                f"network {self._address(self.network)} has host bits set for /{self.length}"
            )
        object.__setattr__(self, "_hash", hash((self.network, self.length)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls: type[P], text: str) -> P:
        """Parse CIDR notation, e.g. ``IPv4Prefix.parse("184.164.244.0/24")``."""
        if "/" not in text:
            raise ValueError(f"invalid prefix {text!r}: missing '/'")
        addr_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise ValueError(f"invalid prefix {text!r}: bad length {len_text!r}")
        return cls(cls._address.parse(addr_text).value, int(len_text))

    @classmethod
    def of(cls: type[P], address: A, length: int) -> P:
        """The /``length`` prefix containing ``address``."""
        if not 0 <= length <= cls.bits:
            raise ValueError(f"prefix length {length} out of range")
        return cls(address.value & cls._masks[length], length)

    def mask(self) -> int:
        """The network mask as an integer."""
        return self._masks[self.length]

    def contains(self, address: A) -> bool:
        """True if ``address`` falls inside this prefix."""
        return (address.value & self._masks[self.length]) == self.network

    def covers(self: P, other: P) -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and (other.network & self.mask()) == self.network

    def address(self, host: int) -> A:
        """The ``host``-th address inside this prefix (0 is the network address)."""
        if not 0 <= host < self.num_addresses():
            raise ValueError(f"host index {host} out of range for /{self.length}")
        return self._address(self.network + host)  # type: ignore[return-value]

    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (self.bits - self.length)

    def subnets(self: P, new_length: int) -> list[P]:
        """Split into all subnets of ``new_length`` (must not be shorter)."""
        if new_length < self.length:
            raise ValueError(f"cannot split /{self.length} into shorter /{new_length}")
        step = 1 << (self.bits - new_length)
        count = 1 << (new_length - self.length)
        if count > 1 << 20:
            raise ValueError(f"refusing to enumerate {count} subnets")
        return [type(self)(self.network + i * step, new_length) for i in range(count)]

    def supernet(self: P, new_length: int | None = None) -> P:
        """The covering prefix of ``new_length`` (default: one bit shorter)."""
        if new_length is None:
            new_length = self.length - 1
        if not 0 <= new_length <= self.length:
            raise ValueError(f"invalid supernet length {new_length} for /{self.length}")
        return type(self)(self.network & self._masks[new_length], new_length)

    def __str__(self) -> str:
        return f"{self._address(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class IPv4Prefix(Prefix[IPv4Address]):
    """An IPv4 prefix, e.g. the paper's 184.164.244.0/24."""

    __slots__ = ()
    bits = 32
    _masks = _netmasks(32)
    _address = IPv4Address


class IPv6Prefix(Prefix[IPv6Address]):
    """An IPv6 prefix, e.g. a /48."""

    __slots__ = ()
    bits = 128
    _masks = _netmasks(128)
    _address = IPv6Address
