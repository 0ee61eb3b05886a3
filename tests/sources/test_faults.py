"""The fault-injection harness: deterministic schedules over real wrappers.

Contract under test:

* fault decisions are pure functions of (schedule, access index): replaying
  the same access sequence replays the same faults;
* fail-N-then-succeed recovers exactly at access N+1;
* permanent outage tags its failures ``transient=False`` (no retries);
* mid-stream cuts deliver an error *after* the inner access computed rows;
* metadata and source statistics are forwarded to the inner wrapper
  untouched, so the injector is invisible to the catalog.
"""

import pytest

from repro.errors import SourceUnavailableError
from repro.engine.resilience import classify_error
from repro.sources.base import SourceCapabilities
from repro.sources.faults import (
    FaultInjectingSource,
    FaultSchedule,
    InjectedFaultError,
)
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


def _inner(name="db"):
    source = MemorySQLSource(name, capabilities=SourceCapabilities.full_sql())
    source.load_sql(
        "CREATE TABLE t (a integer, b varchar)",
        "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')",
    )
    return RelationalWrapper(source)


class TestSchedule:
    def test_fail_first_then_recover(self):
        schedule = FaultSchedule(fail_first=2)
        assert schedule.fails_transiently(1)
        assert schedule.fails_transiently(2)
        assert not schedule.fails_transiently(3)

    def test_probabilistic_failures_are_deterministic(self):
        schedule = FaultSchedule(failure_rate=0.5, seed=11)
        pattern = [schedule.fails_transiently(access) for access in range(1, 40)]
        again = [schedule.fails_transiently(access) for access in range(1, 40)]
        assert pattern == again
        assert any(pattern) and not all(pattern)
        # A different seed draws a different pattern.
        other = FaultSchedule(failure_rate=0.5, seed=12)
        assert pattern != [other.fails_transiently(a) for a in range(1, 40)]

    def test_spike_and_cut_cadence(self):
        schedule = FaultSchedule(latency_spike_every=3, cut_every=4)
        assert [schedule.spikes(a) for a in range(1, 7)] == [
            False, False, True, False, False, True]
        assert [schedule.cuts(a) for a in range(1, 9)] == [
            False, False, False, True, False, False, False, True]

    def test_permanent_outage_boundary(self):
        schedule = FaultSchedule(permanent_outage_after=3)
        assert not schedule.is_permanently_out(2)
        assert schedule.is_permanently_out(3)
        assert schedule.is_permanently_out(99)


class TestFaultInjectingSource:
    def test_fail_n_then_succeed(self):
        flaky = FaultInjectingSource(_inner(), FaultSchedule(fail_first=2))
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                flaky.fetch("t")
        relation = flaky.fetch("t")
        assert len(relation) == 3
        assert flaky.snapshot() == {
            "accesses": 3, "injected_failures": 2,
            "injected_cuts": 0, "injected_spikes": 0,
        }

    def test_transient_faults_classify_transient(self):
        flaky = FaultInjectingSource(_inner(), FaultSchedule(fail_first=1))
        with pytest.raises(SourceUnavailableError) as excinfo:
            flaky.fetch("t")
        assert classify_error(excinfo.value) == "transient"

    def test_permanent_outage_classifies_permanent(self):
        flaky = FaultInjectingSource(
            _inner(), FaultSchedule(permanent_outage_after=1))
        with pytest.raises(InjectedFaultError, match="permanently out") as excinfo:
            flaky.fetch("t")
        assert classify_error(excinfo.value) == "permanent"

    def test_mid_stream_cut_raises_after_inner_access(self):
        flaky = FaultInjectingSource(_inner(), FaultSchedule(cut_every=1))
        with pytest.raises(InjectedFaultError, match="cut after 3 rows"):
            flaky.fetch("t")
        # The inner access really ran: its source counted the query.
        assert flaky.inner.source.statistics.queries >= 1

    def test_latency_spike_uses_injected_sleep(self):
        sleeps = []
        flaky = FaultInjectingSource(
            _inner(),
            FaultSchedule(latency_spike_every=2, latency_spike_seconds=7.5),
            sleep=sleeps.append,
        )
        flaky.fetch("t")
        assert sleeps == []
        flaky.fetch("t")
        assert sleeps == [7.5]

    def test_metadata_forwarded(self):
        inner = _inner()
        flaky = FaultInjectingSource(inner, FaultSchedule())
        assert flaky.relation_names() == inner.relation_names()
        assert flaky.schema_of("t").names == inner.schema_of("t").names
        assert flaky.name == inner.name
        assert flaky.capabilities is inner.capabilities

    def test_query_path_guarded_too(self):
        flaky = FaultInjectingSource(_inner(), FaultSchedule(fail_first=1))
        with pytest.raises(InjectedFaultError):
            flaky.query("SELECT t.a FROM t")
        relation = flaky.query("SELECT t.a FROM t WHERE t.a > 1")
        assert len(relation) == 2
