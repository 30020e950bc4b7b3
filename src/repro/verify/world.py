"""The one description of a run: a *world* every checker reads.

A :class:`VerifyWorld` is a topology + CDN deployment, the techniques
whose announcement plans should be checked, the prefix plan, optional
per-AS preference overrides and damping parameters, the timeline (the
fault plan's edges and the scripted events, one tuple), and the run's
shape (duration, detection delay, session timing, probe targets). The experiment commands build one from the
objects they are about to run (:func:`repro.cli.common.gate`); the
verifier's own worlds come from two places:

* :func:`default_world` — the shipped testbed deployment at a seed,
  exactly what the experiment CLIs build; and
* :func:`load_world` — a small JSON format used by the known-bad
  fixtures under ``tests/fixtures/verify/`` (and usable for hand-built
  topologies). The format describes ASes and links directly so a
  fixture can be a five-node gadget instead of a 200-AS generated
  Internet.

World JSON schema (all keys optional unless noted)::

    {
      "description": "...",
      "ases":  [{"node": "a", "asn": 1, "class": "transit",
                 "region": "us-east", "tags": ["web-clients"]}],   # required
      "links": [{"a": "a", "b": "b", "rel": "customer"}],
      "sites": [{"name": "x", "providers": ["a"], "peers": []}],
      "techniques": ["anycast", ...] | "technique": "anycast",
      "specific_site": "x",          # defaults to the first site
      "prepend": 3,                  # proactive-prepending depth
      "prefix": "184.164.244.0/24",
      "superprefix": "184.164.244.0/23",
      "preferences": {"node": {"neighbor": 250}},   # LOCAL_PREF overrides
      "damping": {"half_life": 900.0, ...},
      "duration": 300.0,
      "faults": {...} | "faults_path": "plan.json",
      "workload": "regional-surge" | {...workload profile...},
      "capacity": 250 | {...capacity profile...},
      "suppress": ["VER223"],        # per-world rule suppression
      "strict": false                # enable opportunity-cost rules
    }

``links[].rel`` is the relationship of ``b`` from ``a``'s view
(``customer`` / ``provider`` / ``peer`` / ``collector``), matching
:class:`repro.topology.generator.Link`.
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.bgp.damping import DampingConfig
from repro.bgp.policy import Relationship
from repro.bgp.session import SessionTiming
from repro.core.techniques import Technique, technique_by_name
from repro.faults.plan import Action, FaultPlan, load_fault_plan, timeline
from repro.net.addr import IPv4Prefix
from repro.topology.generator import Topology, TopologyParams
from repro.topology.geo import REGIONS, place_in
from repro.topology.relationships import AsClass, AsInfo
from repro.topology.testbed import (
    SPECIFIC_PREFIX,
    SUPERPREFIX,
    CdnDeployment,
    SiteSpec,
    build_deployment,
)
from repro.workload.capacity import CapacityProfile, capacity_from_dict
from repro.workload.profile import WorkloadProfile, builtin_profile, profile_from_dict

_RELATIONSHIPS = {rel.value: rel for rel in Relationship}

#: Techniques the default world verifies when none are named: the
#: Figure 2 sweep set plus unicast (the control baseline).
DEFAULT_TECHNIQUE_NAMES = (
    "unicast",
    "anycast",
    "reactive-anycast",
    "proactive-prepending",
    "proactive-superprefix",
    "combined",
)


@dataclass(slots=True)
class VerifyWorld:
    """Everything the static verifier looks at, as one value."""

    deployment: CdnDeployment
    techniques: list[Technique] = field(default_factory=list)
    specific_site: str | None = None
    prefix: IPv4Prefix = SPECIFIC_PREFIX
    superprefix: IPv4Prefix = SUPERPREFIX
    #: per-(node, neighbor) LOCAL_PREF overrides (Gao-Rexford deviations)
    preferences: dict[str, dict[str, int]] = field(default_factory=dict)
    damping: DampingConfig | None = None
    #: experiment duration the timeline / damping run under, seconds
    duration: float | None = None
    #: everything scheduled onto the run, as
    #: :func:`repro.faults.plan.timeline` orders it (None: nothing is)
    timeline: tuple[Action, ...] | None = None
    #: workload profile the capacity analysis evaluates load under
    workload: WorkloadProfile | None = None
    #: per-site capacity the VER24x checks verify against
    capacity: CapacityProfile | None = None
    #: run shape only the PRE stage of the gate reads: the controller's
    #: reaction time, session timing, probe target nodes
    detection_delay: float | None = None
    timing: SessionTiming | None = None
    target_nodes: Sequence[str] | None = None
    #: VER codes suppressed for this world (the fixture-level analogue
    #: of the linter's ``# repro: noqa[CODE]``)
    suppress: frozenset[str] = frozenset()
    #: enable opportunity-cost rules (VER212/VER223) that flag lost
    #: control rather than outright misconfiguration
    strict: bool = False
    description: str = ""
    #: label findings carry as their source (a path for fixture worlds)
    source: str = "<world>"

    @property
    def topology(self) -> Topology:
        return self.deployment.topology

    def sites(self) -> list[str]:
        return self.deployment.site_names

    def chosen_specific_site(self) -> str | None:
        """The site the plan steers toward (first site if unspecified)."""
        if self.specific_site is not None:
            return self.specific_site
        names = self.deployment.site_names
        return names[0] if names else None


def default_world(
    seed: int = 42,
    technique_names: tuple[str, ...] | None = None,
    prepend: int = 3,
    specific_site: str | None = None,
    fault_plan: FaultPlan | None = None,
    duration: float | None = None,
    damping: DampingConfig | None = None,
    strict: bool = False,
    workload: WorkloadProfile | None = None,
    capacity: CapacityProfile | None = None,
) -> VerifyWorld:
    """The shipped testbed deployment as a verifiable world."""
    deployment = build_deployment(params=TopologyParams(seed=seed))
    names = technique_names if technique_names is not None else DEFAULT_TECHNIQUE_NAMES
    techniques = [_instantiate(name, prepend) for name in names]
    return VerifyWorld(
        deployment=deployment,
        techniques=techniques,
        specific_site=specific_site,
        timeline=timeline(fault_plan),
        duration=duration,
        damping=damping,
        strict=strict,
        workload=workload,
        capacity=capacity,
        description=f"testbed deployment (seed {seed})",
        source=f"<testbed:{seed}>",
    )


def _instantiate(name: str, prepend: int) -> Technique:
    if name == "proactive-prepending":
        return technique_by_name(name, prepend=prepend)
    return technique_by_name(name)


def _list_at(data: dict, key: str, where: str = "") -> list:
    """``data[key]`` (default empty), refused unless it is a JSON list."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ValueError(
            f"{where}{key!r} must be a list, got {type(value).__name__}"
        )
    return value


def _parse_as(entry: dict, index: int, rng: random.Random) -> AsInfo:
    if not isinstance(entry, dict):
        raise ValueError(f"ases[{index}] must be an object")
    try:
        node = entry["node"]
        asn = int(entry["asn"])
    except KeyError as error:
        raise ValueError(f"ases[{index}] missing required key {error}") from error
    class_name = entry.get("class", "transit")
    try:
        as_class = AsClass(class_name)
    except ValueError as error:
        raise ValueError(
            f"ases[{index}] ({node}): unknown class {class_name!r}; "
            f"have {sorted(c.value for c in AsClass)}"
        ) from error
    region = entry.get("region", "us-east")
    if region not in REGIONS:
        raise ValueError(
            f"ases[{index}] ({node}): unknown region {region!r}; "
            f"have {sorted(REGIONS)}"
        )
    prefix = entry.get("prefix")
    return AsInfo(
        node_id=node,
        asn=asn,
        as_class=as_class,
        location=place_in(region, rng),
        prefix=IPv4Prefix.parse(prefix) if prefix else None,
        tags=set(_list_at(entry, "tags", f"ases[{index}] ({node}): ")),
    )


def world_from_dict(data: dict, source: str = "<world>") -> VerifyWorld:
    """Build a :class:`VerifyWorld` from the JSON fixture schema."""
    if not isinstance(data, dict):
        raise ValueError(f"world must be a JSON object, got {type(data).__name__}")
    known = {
        "description", "ases", "links", "sites", "techniques", "technique",
        "specific_site", "prepend", "prefix", "superprefix", "preferences",
        "damping", "duration", "faults", "faults_path", "suppress", "strict",
        "seed", "workload", "capacity",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown world keys {sorted(unknown)}")
    if "ases" not in data:
        raise ValueError("world needs an 'ases' list")

    seed = int(data.get("seed", 0))
    rng = random.Random(seed ^ 0x7E57)
    topology = Topology(params=TopologyParams(seed=seed))
    for index, entry in enumerate(_list_at(data, "ases")):
        topology.add_as(_parse_as(entry, index, rng))
    for index, entry in enumerate(_list_at(data, "links")):
        if not isinstance(entry, dict) or not {"a", "b", "rel"} <= set(entry):
            raise ValueError(f"links[{index}] needs 'a', 'b', and 'rel'")
        rel = _RELATIONSHIPS.get(entry["rel"])
        if rel is None:
            raise ValueError(
                f"links[{index}]: unknown relationship {entry['rel']!r}; "
                f"have {sorted(_RELATIONSHIPS)}"
            )
        topology.link(entry["a"], entry["b"], rel)

    specs = []
    for index, entry in enumerate(_list_at(data, "sites")):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValueError(f"sites[{index}] needs a 'name'")
        specs.append(
            SiteSpec(
                name=entry["name"],
                region=entry.get("region", "us-east"),
                providers=tuple(entry.get("providers", [])),
                peers=tuple(entry.get("peers", [])),
            )
        )
    deployment = build_deployment(topology=topology, specs=specs)

    if "technique" in data and "techniques" in data:
        raise ValueError("give either 'technique' or 'techniques', not both")
    names = _list_at(data, "techniques")
    if "technique" in data:
        names = [data["technique"]]
    prepend = int(data.get("prepend", 3))
    try:
        techniques = [_instantiate(name, prepend) for name in names]
    except KeyError as error:
        raise ValueError(f"techniques: {error.args[0]}") from error

    try:
        preferences = {
            node: {neighbor: int(pref) for neighbor, pref in per_node.items()}
            for node, per_node in data.get("preferences", {}).items()
        }
    except AttributeError as error:  # a non-object where a mapping belongs
        raise ValueError(
            "'preferences' must map node -> {neighbor: local_pref}"
        ) from error
    for node, per_node in preferences.items():
        if node not in topology.ases:
            raise ValueError(f"preferences: unknown node {node!r}")
        adjacency = topology.neighbors(node)
        for neighbor in per_node:
            if neighbor not in adjacency:
                raise ValueError(
                    f"preferences[{node}]: {neighbor!r} is not a neighbor"
                )

    damping = None
    if "damping" in data:
        try:
            damping = DampingConfig(**data["damping"])
        except TypeError as error:
            raise ValueError(f"damping: {error}") from error

    fault_plan = None
    if "faults" in data and "faults_path" in data:
        raise ValueError("give either 'faults' or 'faults_path', not both")
    if "faults" in data:
        fault_plan = FaultPlan.from_dict(data["faults"])
    elif "faults_path" in data:
        fault_plan = load_fault_plan(data["faults_path"])

    workload = None
    if "workload" in data:
        raw = data["workload"]
        if isinstance(raw, str):
            workload = builtin_profile(raw)
        else:
            workload = profile_from_dict(raw, source=f"{source}:workload")

    capacity = None
    if "capacity" in data:
        raw = data["capacity"]
        if isinstance(raw, bool):
            raise ValueError("capacity must be a number or a profile object")
        if isinstance(raw, (int, float)):
            capacity = CapacityProfile(name=f"uniform-{raw}", default_rps=float(raw))
        else:
            capacity = capacity_from_dict(raw, source=f"{source}:capacity")

    return VerifyWorld(
        deployment=deployment,
        techniques=techniques,
        specific_site=data.get("specific_site"),
        prefix=IPv4Prefix.parse(data.get("prefix", str(SPECIFIC_PREFIX))),
        superprefix=IPv4Prefix.parse(data.get("superprefix", str(SUPERPREFIX))),
        preferences=preferences,
        damping=damping,
        duration=float(data["duration"]) if "duration" in data else None,
        timeline=timeline(fault_plan),
        workload=workload,
        capacity=capacity,
        suppress=frozenset(_list_at(data, "suppress")),
        strict=bool(data.get("strict", False)),
        description=data.get("description", ""),
        source=source,
    )


def load_world(path: str | Path) -> VerifyWorld:
    """Read a world fixture from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: invalid JSON: {error}") from error
    try:
        return world_from_dict(data, source=str(path))
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
