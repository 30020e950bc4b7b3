"""Checkpoint/fork for converged networks (see docs/checkpoint.md).

Public API: :func:`snapshot_network` captures a quiescent
:class:`~repro.bgp.network.BgpNetwork` as plain picklable data;
:func:`restore_network` rebuilds a live, independent network from it;
:func:`rewind_network` puts a restored network back in that state,
reloading only the routers it touched since.
:class:`~repro.core.experiment.FailoverExperiment` uses them to run
each technique's baseline convergence once and fork it per sweep cell.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SNAPSHOT_SCHEMA": ".codec",
    "CheckpointError": ".codec",
    "NetworkSnapshot": ".codec",
    "NotQuiescentError": ".codec",
    "RouterState": ".codec",
    "restore_network": ".codec",
    "rewind_network": ".codec",
    "snapshot_network": ".codec",
})
