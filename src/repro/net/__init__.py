"""Addressing substrate.

This package provides the low-level building blocks shared by the BGP
simulator and the data plane: IPv4 addresses and prefixes
(`repro.net.addr`) and a length-bucketed longest-prefix-match table
(`repro.net.lpm`).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "IPv4Address": ".addr",
    "IPv4Prefix": ".addr",
    "LpmTable": ".lpm",
})
