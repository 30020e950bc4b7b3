"""Tests for the anycast-agility playbook."""

import pytest

from repro.core.playbook import Playbook


@pytest.fixture(scope="module")
def playbook(deployment):
    book = Playbook(deployment.topology, deployment)
    book.build_drain_plays(prepend_levels=(0, 3, 5))
    return book


class TestPlaybook:
    def test_baseline_recorded(self, playbook):
        baseline = playbook.baseline()
        assert all(level == 0 for _, level in baseline.prepends)
        assert baseline.unrouted == 0

    def test_drain_plays_cover_every_site(self, playbook, deployment):
        prepended_sites = {
            site
            for entry in playbook.entries
            for site, level in entry.prepends
            if level > 0
        }
        assert prepended_sites == set(deployment.site_names)

    def test_prepending_a_site_drains_it(self, playbook, deployment):
        """Prepending only at one site shifts its catchment share down
        relative to baseline (the playbook's whole purpose)."""
        baseline = playbook.baseline()
        drained_any = False
        for entry in playbook.entries:
            prepended = [site for site, level in entry.prepends if level > 0]
            if len(prepended) != 1:
                continue
            site = prepended[0]
            if entry.load_share(site) < baseline.load_share(site):
                drained_any = True
        assert drained_any

    def test_no_play_blackholes_clients(self, playbook):
        assert all(entry.unrouted == 0 for entry in playbook.entries)

    def test_best_drain_minimizes_site_share(self, playbook):
        baseline = playbook.baseline()
        # Pick a site with meaningful baseline load.
        site = max(
            (s for s, _ in baseline.catchment),
            key=lambda s: baseline.load_share(s),
        )
        best = playbook.best_drain(site)
        assert best.load_share(site) <= baseline.load_share(site)

    def test_best_drain_respects_overload_bound(self, playbook):
        baseline = playbook.baseline()
        site = max(
            (s for s, _ in baseline.catchment),
            key=lambda s: baseline.load_share(s),
        )
        bound = 0.9
        best = playbook.best_drain(site, max_overload=bound)
        for other, _ in best.catchment:
            if other != site:
                assert best.load_share(other) <= bound

    def test_best_drain_unsatisfiable_bound(self, playbook):
        with pytest.raises(LookupError):
            playbook.best_drain("sea1", max_overload=0.01)

    def test_baseline_before_building_raises(self, deployment):
        empty = Playbook(deployment.topology, deployment)
        with pytest.raises(LookupError):
            empty.baseline()

    def test_load_shares_sum_to_one(self, playbook):
        for entry in playbook.entries:
            total = sum(entry.load_share(site) for site, _ in entry.catchment)
            assert total == pytest.approx(1.0)
