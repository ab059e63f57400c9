"""SynopsisHealth reporting, refresh policies, and the .health command."""

import io

import numpy as np
import pytest

from repro import AquaSystem, RefreshPolicy
from repro.aqua.cli import AquaShell
from repro.errors import TableNotRegisteredError
from repro.testing import FaultInjector

from test_guard import make_table


@pytest.fixture
def system():
    system = AquaSystem(space_budget=400, rng=np.random.default_rng(1))
    system.register_table("rel", make_table())
    return system


class TestHealthReport:
    def test_healthy_synopsis_is_ok(self, system):
        health = system.health("rel")
        assert health.status == "ok"
        assert health.built
        assert health.sample_size == 400
        assert health.strata_coverage == 1.0
        assert health.issues == ()
        assert 0 < health.sample_ratio < 1

    def test_unbuilt_synopsis_is_missing(self):
        system = AquaSystem(space_budget=100)
        system.register_table("rel", make_table(), build=False)
        health = system.health("rel")
        assert health.status == "missing"
        assert not health.built
        assert "missing" in health.describe()

    def test_unregistered_table_raises_typed_error(self, system):
        with pytest.raises(TableNotRegisteredError):
            system.health("nope")

    def test_drift_makes_stale(self, system):
        row = next(iter(system._state("rel").table.iter_rows()))
        for __ in range(600):  # > 10% of 5000 rows
            system.insert("rel", row)
        health = system.health("rel")
        assert health.status == "stale"
        assert health.inserts_since_refresh == 600
        assert health.drift_fraction > 0.1
        # Refresh resolves it.
        system.refresh_synopsis("rel")
        assert system.health("rel").status == "ok"

    def test_empty_stratum_degrades_coverage(self, system):
        FaultInjector(system).empty_allocation("rel")
        health = system.health("rel")
        assert health.status == "degraded"
        assert health.strata_coverage < 1.0

    def test_corruption_reported_with_issues(self, system):
        FaultInjector(system).corrupt_scale_factor("rel")
        health = system.health("rel")
        assert health.status == "corrupt"
        assert health.issues
        assert "issues" in health.describe()

    def test_describe_mentions_table_and_status(self, system):
        text = system.health("rel").describe()
        assert "health[rel]" in text
        assert "status=ok" in text


class TestRefreshPolicy:
    def test_auto_refresh_after_max_inserts(self, system):
        system.set_refresh_policy("rel", RefreshPolicy(max_inserts=10))
        row = next(iter(system._state("rel").table.iter_rows()))
        for __ in range(11):
            system.insert("rel", row)
        # The 11th insert crossed the limit and triggered a refresh.
        assert system._state("rel").inserts_since_refresh == 0

    def test_auto_refresh_on_drift_fraction(self, system):
        system.set_refresh_policy(
            "rel", RefreshPolicy(max_drift_fraction=0.001)
        )
        row = next(iter(system._state("rel").table.iter_rows()))
        # The 6th insert pushes drift over 0.1% of the 5000-row base.
        for __ in range(6):
            system.insert("rel", row)
        assert system._state("rel").inserts_since_refresh == 0
        assert system._state("rel").rows_at_refresh == 5006

    def test_no_policy_accumulates_drift(self, system):
        row = next(iter(system._state("rel").table.iter_rows()))
        for __ in range(10):
            system.insert("rel", row)
        assert system._state("rel").inserts_since_refresh == 10

    def test_policy_cleared(self, system):
        system.set_refresh_policy("rel", RefreshPolicy(max_inserts=1))
        system.set_refresh_policy("rel", None)
        row = next(iter(system._state("rel").table.iter_rows()))
        for __ in range(5):
            system.insert("rel", row)
        assert system._state("rel").inserts_since_refresh == 5

    def test_insert_many_matches_per_row_inserts(self):
        rows = list(make_table(n=25, seed=3).iter_rows())
        systems, refresh_points = [], []
        for batched in (False, True):
            system = AquaSystem(space_budget=400, rng=np.random.default_rng(1))
            system.register_table("rel", make_table())
            system.enable_maintenance("rel")
            system.set_refresh_policy("rel", RefreshPolicy(max_inserts=10))
            points = []
            refresh = system.refresh_synopsis

            def recording_refresh(name, trigger="manual", system=system,
                                  points=points, refresh=refresh):
                points.append(len(system._state(name).pending_rows))
                return refresh(name, trigger)

            system.refresh_synopsis = recording_refresh
            if batched:
                system.insert_many("rel", rows)
            else:
                for row in rows:
                    system.insert("rel", row)
            systems.append(system)
            refresh_points.append(points)
        assert refresh_points == [[11, 22], [11, 22]]
        looped, batched = (s._state("rel") for s in systems)
        assert looped.inserts_since_refresh == batched.inserts_since_refresh == 3
        assert (
            looped.maintainer.snapshot().rows_by_group
            == batched.maintainer.snapshot().rows_by_group
        )
        for system in systems:
            system._flush_pending("rel")
        for name in looped.table.schema.names:
            assert np.array_equal(
                looped.table.column(name), batched.table.column(name)
            )

    def test_should_refresh_thresholds(self):
        policy = RefreshPolicy(max_inserts=5, max_drift_fraction=0.5)
        assert not policy.should_refresh(5, 1000)
        assert policy.should_refresh(6, 1000)
        assert policy.should_refresh(3, 4)  # 75% drift
        assert not RefreshPolicy().should_refresh(10_000, 1)


class TestHealthCommand:
    def run_shell(self, system, lines):
        out = io.StringIO()
        AquaShell(system, out=out).run(lines)
        return out.getvalue()

    def test_health_command_lists_tables(self, system):
        text = self.run_shell(system, [".health"])
        assert "health[rel]" in text
        assert "status=ok" in text

    def test_health_command_shows_issues(self, system):
        FaultInjector(system).corrupt_scale_factor("rel")
        text = self.run_shell(system, [".health"])
        assert "status=corrupt" in text

    def test_health_command_no_tables(self):
        system = AquaSystem(space_budget=10)
        text = self.run_shell(system, [".health"])
        assert "no tables registered" in text

    def test_help_mentions_health(self, system):
        text = self.run_shell(system, [".help"])
        assert ".health" in text
