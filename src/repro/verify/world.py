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

from repro.analysis.preflight import DURATION
from repro.bgp.damping import DAMPING_FIELDS, DampingConfig
from repro.bgp.policy import Relationship
from repro.bgp.session import SessionTiming
from repro.core.techniques import Technique, technique_by_name
from repro.faults.plan import Action, FaultPlan, load_fault_plan, timeline
from repro.fields import Field, read, violations
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
    #: reaction time and recovery grace, session timing, probe target nodes
    detection_delay: float | None = None
    recovery_grace: float | None = None
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


#: the rows of a world document (the schema in the module docstring).
#: ``workload`` (a builtin name or a profile) and ``capacity`` (a number
#: or a profile) are unions, and ``faults`` is a plan document:
#: :func:`world_from_dict` hands each to the loader that owns its rows.
WORLD_FIELDS = (
    Field("description", str),
    Field("seed", int),
    Field("ases", [(
        Field("node", str, required=True), Field("asn", int, required=True),
        Field("class", str), Field("region", str),
        Field("prefix", str, nullable=True), Field("tags", [str]),
    )], required=True),
    Field("links", [(
        Field("a", str, required=True), Field("b", str, required=True),
        Field("rel", str, required=True),
    )]),
    Field("sites", [(
        Field("name", str, required=True), Field("region", str),
        Field("providers", [str]), Field("peers", [str]),
    )]),
    Field("techniques", [str]),
    Field("technique", str),
    Field("specific_site", str, nullable=True),
    Field("prepend", int),
    Field("prefix", str),
    Field("superprefix", str),
    Field("preferences", {str: {str: int}}),
    Field("damping", DAMPING_FIELDS),
    DURATION,
    Field("faults", object),
    Field("faults_path", str),
    Field("workload", object),
    Field("capacity", object),
    Field("suppress", [str]),
    Field("strict", bool),
)


def _one_of(what: str, name: str, known) -> None:
    if name not in known:
        raise ValueError(f"{what} {name!r}; have {sorted(known)}")


def world_from_dict(data: dict, source: str = "<world>") -> VerifyWorld:
    """Build a :class:`VerifyWorld` from the JSON fixture schema."""
    doc = read(WORLD_FIELDS, data)
    for _, message in violations(WORLD_FIELDS, doc):
        raise ValueError(message)
    for one, other in (("technique", "techniques"), ("faults", "faults_path")):
        if one in doc and other in doc:
            raise ValueError(f"give either {one!r} or {other!r}, not both")

    seed = doc.get("seed", 0)
    rng = random.Random(seed ^ 0x7E57)
    topology = Topology(params=TopologyParams(seed=seed))
    for index, entry in enumerate(doc["ases"]):
        where = f"ases[{index}] ({entry['node']})"
        as_class = entry.get("class", "transit")
        _one_of(f"{where}: unknown class", as_class, [c.value for c in AsClass])
        region = entry.get("region", "us-east")
        _one_of(f"{where}: unknown region", region, REGIONS)
        prefix = entry.get("prefix")
        topology.add_as(AsInfo(
            node_id=entry["node"],
            asn=entry["asn"],
            as_class=AsClass(as_class),
            location=place_in(region, rng),
            prefix=IPv4Prefix.parse(prefix) if prefix else None,
            tags=set(entry.get("tags", ())),
        ))
    for index, entry in enumerate(doc.get("links", ())):
        _one_of(f"links[{index}]: unknown relationship", entry["rel"], _RELATIONSHIPS)
        topology.link(entry["a"], entry["b"], _RELATIONSHIPS[entry["rel"]])

    specs = [
        SiteSpec(
            name=entry["name"],
            region=entry.get("region", "us-east"),
            providers=tuple(entry.get("providers", ())),
            peers=tuple(entry.get("peers", ())),
        )
        for entry in doc.get("sites", ())
    ]
    deployment = build_deployment(topology=topology, specs=specs)

    names = [doc["technique"]] if "technique" in doc else doc.get("techniques", [])
    try:
        techniques = [_instantiate(name, doc.get("prepend", 3)) for name in names]
    except KeyError as error:
        raise ValueError(f"techniques: {error.args[0]}") from error

    preferences = doc.get("preferences", {})
    for node, per_node in preferences.items():
        if node not in topology.ases:
            raise ValueError(f"preferences: unknown node {node!r}")
        adjacency = topology.neighbors(node)
        for neighbor in per_node:
            if neighbor not in adjacency:
                raise ValueError(
                    f"preferences[{node}]: {neighbor!r} is not a neighbor"
                )

    fault_plan = None
    if "faults" in doc:
        fault_plan = FaultPlan.from_dict(doc["faults"])
    elif "faults_path" in doc:
        fault_plan = load_fault_plan(doc["faults_path"])

    workload = doc.get("workload")
    if isinstance(workload, str):
        workload = builtin_profile(workload)
    elif workload is not None:
        workload = profile_from_dict(workload, source=f"{source}:workload")

    capacity = doc.get("capacity")
    if isinstance(capacity, (int, float)) and not isinstance(capacity, bool):
        capacity = CapacityProfile(name=f"uniform-{capacity}", default_rps=float(capacity))
    elif capacity is not None:
        capacity = capacity_from_dict(capacity, source=f"{source}:capacity")

    return VerifyWorld(
        deployment=deployment,
        techniques=techniques,
        specific_site=doc.get("specific_site"),
        prefix=IPv4Prefix.parse(doc.get("prefix", str(SPECIFIC_PREFIX))),
        superprefix=IPv4Prefix.parse(doc.get("superprefix", str(SUPERPREFIX))),
        preferences=preferences,
        damping=DampingConfig(**doc["damping"]) if "damping" in doc else None,
        duration=doc.get("duration"),
        timeline=timeline(fault_plan),
        workload=workload,
        capacity=capacity,
        suppress=frozenset(doc.get("suppress", ())),
        strict=doc.get("strict", False),
        description=doc.get("description", ""),
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
