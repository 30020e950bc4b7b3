"""Addressing substrate.

This package provides the low-level building blocks shared by the BGP
simulator and the data plane: IPv4/IPv6 addresses and prefixes
(`repro.net.addr`) and a length-bucketed longest-prefix-match table
(`repro.net.lpm`).
"""

from repro.net.addr import IPv4Address, IPv4Prefix, IPv6Address, IPv6Prefix
from repro.net.lpm import LpmTable

__all__ = [
    "IPv4Address",
    "IPv4Prefix",
    "IPv6Address",
    "IPv6Prefix",
    "LpmTable",
]
