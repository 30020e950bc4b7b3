"""Checkpoint/fork for converged networks (see docs/checkpoint.md).

Public API: :func:`snapshot_network` captures a quiescent
:class:`~repro.bgp.network.BgpNetwork` as plain picklable data;
:func:`restore_network` rebuilds a live, independent network from it;
:func:`rewind_network` puts a restored network back in that state,
reloading only the routers it touched since.
:class:`~repro.core.experiment.FailoverExperiment` uses them to run
each technique's baseline convergence once and fork it per sweep cell.
"""

from repro.checkpoint.codec import (
    SNAPSHOT_SCHEMA,
    CheckpointError,
    NetworkSnapshot,
    NotQuiescentError,
    RouterState,
    SessionState,
    restore_network,
    rewind_network,
    snapshot_network,
)

__all__ = [
    "SNAPSHOT_SCHEMA",
    "CheckpointError",
    "NetworkSnapshot",
    "NotQuiescentError",
    "RouterState",
    "SessionState",
    "restore_network",
    "rewind_network",
    "snapshot_network",
]
