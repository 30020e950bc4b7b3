"""CDN redirection techniques: Figure 1 of the paper as one rule table.

What each site role announces (``+N`` = prepended N times, ``@M`` = MED M):

====================== =============== ============== ==================
technique              specific site   other sites    others, site down
====================== =============== ============== ==================
unicast                /24             --             unchanged
anycast                /24             /24            unchanged
proactive-superprefix  /24, /23        /23            unchanged
reactive-anycast       /24             --             announce the /24
proactive-prepending-N /24             /24 +N         unchanged
proactive-med-M        /24 @0          /24 @M         unchanged
combined               /24, /23        /23            announce the /24
shed-prepend-N         /24             /24            unchanged
shed-withdraw          /24, /23        /24, /23       unchanged
shed-dns               /24             /24            unchanged
====================== =============== ============== ==================

A failed site withdraws everything (§4: "we assume that the site
withdraws its prefix announcements"); DNS reactions live in
:mod:`repro.core.controller`. The ``shed-*`` family (docs/load.md, after
Sinha et al.) reacts to *overload*: the hot site announces /24 +N, only
the /23, or /24 +1 plus DNS diversion. Ratings are Table 2's.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.core.plan import Rule, Technique, Tradeoff

_UNICAST = Rule("specific")  # the intended site announces the /24
_ANYCAST = Rule("all")  # every site announces the /24
_COVER = Rule("all", ("super",))  # every site announces the covering /23
_BACKUP = Rule("others")  # reactive: the other sites announce the /24
_ANYCAST_LIKE = {"full_control": False, "selection_mode": "anycast-catchment"}
_HIGH_RISK = Tradeoff("high", "high", "high")  # global failure-time reconfiguration

#: the MED proactive-med's backup sites announce
BACKUP_MED = 100
#: the prepend depth shed-prepend re-originates an overloaded site's /24 with
SHED_PREPEND = 5
#: the share of an overloaded site's requests shed-dns diverts
SHED_DNS_FRACTION = 0.5


def Unicast() -> Technique:
    """DNS-based redirection over per-site unicast prefixes (§2): full
    control, but failover waits on DNS caches; no BGP-side backup at all."""
    return Technique("unicast", Tradeoff("high", "low", "low"), (_UNICAST,))


def Anycast() -> Technique:
    """Pure IP anycast (§2): BGP picks the site (low control), but a
    failed site's withdrawal converges fast onto pre-existing routes."""
    return Technique("anycast", Tradeoff("low", "high", "low"), (_ANYCAST,), **_ANYCAST_LIKE)


def ProactiveSuperprefix() -> Technique:
    """Unicast /24 plus a covering /23 from every site (§3). LPM keeps
    unicast control; after withdrawal traffic falls through to the /23,
    but only once the /24's slow path hunting ends -- why §3 rejects it."""
    return Technique("proactive-superprefix", Tradeoff("high", "medium", "low"), (_UNICAST, _COVER))


def ReactiveAnycast() -> Technique:
    """Unicast normally; on failure all other sites announce the /24 (§4).
    Control of unicast, failover of anycast, at the price of a global
    failure-triggered reconfiguration (Table 2's "high risk")."""
    return Technique("reactive-anycast", _HIGH_RISK, (_UNICAST,), on_failure=(_BACKUP,))


def ProactivePrepending(prepend: int = 3, restrict_to_shared_neighbors: bool = False) -> Technique:
    """Anycast with AS-path prepending at the non-intended sites (§4):
    backups pre-exist (no reconfiguration risk) but a neighbor can prefer
    a prepended route on LOCAL_PREF (Appendix C.1). The paper recommends
    ``restrict_to_shared_neighbors`` -- prepended routes only to neighbors
    of the specific site -- but §5.2 evaluates without it, hence off."""
    if prepend < 1:
        raise ValueError(f"prepend must be >= 1, got {prepend}")
    backup = Rule("others", prepend=prepend, shared_neighbors=restrict_to_shared_neighbors)
    return Technique(f"proactive-prepending-{prepend}", Tradeoff("medium", "high", "low"),
                     (_UNICAST, backup), full_control=False)


def ProactiveMed() -> Technique:
    """Anycast with MED-deterred backups (§4: "BGP MED could also be used
    for neighbors that support it"): the other sites announce MED
    :data:`BACKUP_MED`. Only multi-site neighbors are controlled (MED
    never crosses an AS boundary); backup paths are not longer, so
    failover skips prepending's extra exploration."""
    return Technique(f"proactive-med-{BACKUP_MED}", Tradeoff("medium", "high", "low"),
                     (Rule("specific", med=0), Rule("others", med=BACKUP_MED)), full_control=False)


def Combined() -> Technique:
    """reactive-anycast + proactive-superprefix (§4). The /23 should catch
    routers that see the withdrawal before an alternate /24; the paper
    found it faster only for the fastest ~20% and much worse in the tail."""
    return Technique("combined", _HIGH_RISK, (_UNICAST, _COVER), on_failure=(_BACKUP,))


def ShedPrepend() -> Technique:
    """Anycast that sheds an overloaded site by re-originating its /24
    with :data:`SHED_PREPEND` extra hops: most of its catchment drains
    over pre-existing routes, clients with no alternative stay. No path
    hunting: the brownout analogue of ``proactive-prepending``."""
    return Technique(f"shed-prepend-{SHED_PREPEND}", Tradeoff("medium", "high", "low"),
                     (_ANYCAST,), on_overload=(Rule("specific", prepend=SHED_PREPEND),),
                     **_ANYCAST_LIKE)


def ShedWithdraw() -> Technique:
    """Anycast /24 + /23 everywhere; an overloaded site keeps only the
    /23, so LPM moves its whole catchment away (last-resort reachability
    stays). Maximal relief, but withdrawal means path hunting: high risk."""
    return Technique("shed-withdraw", Tradeoff("medium", "medium", "high"),
                     (Rule("all", ("specific", "super")),),
                     on_overload=(Rule("specific", ("super",)),), **_ANYCAST_LIKE)


def ShedDns() -> Technique:
    """The DNS-weighted hybrid (Sinha et al.'s routing/resolver split): on
    overload one prepend nudges BGP and DNS steers
    :data:`SHED_DNS_FRACTION` of the site's remaining requests to the live
    site with most spare capacity."""
    return Technique("shed-dns", Tradeoff("high", "high", "low"), (_ANYCAST,),
                     on_overload=(Rule("specific", prepend=1),),
                     shed_dns_fraction=SHED_DNS_FRACTION, **_ANYCAST_LIKE)


TECHNIQUES: dict[str, Callable[..., Technique]] = {  # Figure 2 / Table 2 + the shed family
    "unicast": Unicast,
    "anycast": Anycast,
    "proactive-superprefix": ProactiveSuperprefix,
    "reactive-anycast": ReactiveAnycast,
    "proactive-prepending": ProactivePrepending,
    "proactive-med": ProactiveMed,
    "combined": Combined,
    "shed-prepend": ShedPrepend,
    "shed-withdraw": ShedWithdraw,
    "shed-dns": ShedDns,
}


def technique_by_name(name: str, **kwargs) -> Technique:
    """Instantiate a technique by its canonical name."""
    if name not in TECHNIQUES:
        raise KeyError(f"unknown technique {name!r}; have {sorted(TECHNIQUES)}")
    return TECHNIQUES[name](**kwargs)


def techniques_named(names: Iterable[str], prepend: int | None = None) -> list[Technique]:
    """Instantiate each named technique. ``prepend`` (the CLI's
    ``--prepend``, a world document's ``prepend``) is proactive-prepending's
    depth and no other technique's; None keeps its default."""
    return [
        technique_by_name(name, prepend=prepend)
        if name == "proactive-prepending" and prepend is not None
        else technique_by_name(name)
        for name in names
    ]
