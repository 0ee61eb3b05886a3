"""Tests for ODBC client-side auto-retry of retriable overload sheds.

Retries are opt-in (``odbc.connect(auto_retry=...)``), bounded by the
policy's attempt count, honour the server's ``retry_after_seconds`` hint,
and never fire for non-retriable failures.  ``Connection.explain`` rides
along: the retry loop wraps every protocol call, explain included.
"""

import pytest

from repro.demo.scenarios import build_paper_federation
from repro.errors import ClientError
from repro.server import odbc
from repro.server.gateway import GatewayConfig
from repro.server.odbc import RetryPolicy, _retry_policy
from repro.server.server import MediationServer

PAPER_QUERY = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 "
    "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
)


def _throttled_server() -> MediationServer:
    """A server whose per-tenant quota sheds the second request."""
    federation = build_paper_federation().federation
    return MediationServer(
        federation,
        GatewayConfig(tenant_rate_per_second=0.001, tenant_burst=1.0),
    )


class TestRetryPolicy:
    def test_auto_retry_argument_mapping(self):
        assert _retry_policy(False) is None
        assert _retry_policy(None) is None
        assert _retry_policy(True).max_attempts == 3
        assert _retry_policy(5).max_attempts == 5
        policy = RetryPolicy(max_attempts=2)
        assert _retry_policy(policy) is policy
        with pytest.raises(ClientError):
            _retry_policy("yes")
        with pytest.raises(ClientError):
            RetryPolicy(max_attempts=0)

    def test_delay_honours_retry_after_hint(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.delay(1, 1.5) == pytest.approx(1.5)

    def test_delay_backs_off_exponentially_without_hint(self):
        policy = RetryPolicy(backoff_seconds=0.1, max_backoff_seconds=0.3,
                             jitter=0.0)
        assert policy.delay(1, None) == pytest.approx(0.1)
        assert policy.delay(2, 0.0) == pytest.approx(0.2)
        assert policy.delay(3, None) == pytest.approx(0.3)  # capped
        assert policy.delay(9, None) == pytest.approx(0.3)

    def test_jitter_is_bounded_and_seeded(self):
        first = RetryPolicy(jitter=0.25, seed=11)
        second = RetryPolicy(jitter=0.25, seed=11)
        delays = [first.delay(1, 1.0) for _ in range(20)]
        assert all(1.0 <= delay <= 1.25 for delay in delays)
        assert delays == [second.delay(1, 1.0) for _ in range(20)]


class TestConnectionAutoRetry:
    def test_transient_shed_is_absorbed(self):
        """A shed that clears before the retry budget runs out is invisible
        to the caller: the query succeeds and only ``auto_retries`` tells."""
        federation = build_paper_federation().federation
        connection = odbc.connect(
            federation=federation,
            auto_retry=RetryPolicy(max_attempts=3, jitter=0.0, sleep=lambda _s: None),
        )
        calls = {"n": 0}
        real = connection._call_once

        def flaky(operation, parameters):
            calls["n"] += 1
            if calls["n"] <= 2:
                error = ClientError("OverloadError: shed")
                error.retriable = True
                error.retry_after_seconds = 0.01
                raise error
            return real(operation, parameters)

        connection._call_once = flaky
        cursor = connection.cursor()
        cursor.execute(PAPER_QUERY)
        assert cursor.fetchall() == [("NTT", 9_600_000.0)]
        assert connection.auto_retries == 2

    def test_exhausted_attempts_reraise_and_honour_retry_after(self):
        delays = []
        connection = odbc.connect(
            server=_throttled_server(), tenant="burst",
            auto_retry=RetryPolicy(max_attempts=3, jitter=0.0,
                                   sleep=delays.append),
        )
        cursor = connection.cursor()
        cursor.execute(PAPER_QUERY)  # burst capacity covers the first call
        with pytest.raises(ClientError) as excinfo:
            cursor.execute(PAPER_QUERY)
        assert getattr(excinfo.value, "retriable", False)
        # Two retries were attempted before giving up, each waiting the
        # server's hint (the 0.001/s refill keeps the bucket empty).
        assert connection.auto_retries == 2
        assert len(delays) == 2
        assert all(delay >= excinfo.value.retry_after_seconds for delay in delays)

    def test_non_retriable_errors_are_never_retried(self):
        federation = build_paper_federation().federation
        slept = []
        connection = odbc.connect(
            federation=federation,
            auto_retry=RetryPolicy(max_attempts=5, sleep=slept.append),
        )
        cursor = connection.cursor()
        with pytest.raises(ClientError):
            cursor.execute("SELECT nothing FROM nowhere")
        assert connection.auto_retries == 0
        assert slept == []

    def test_retry_is_opt_in(self):
        connection = odbc.connect(server=_throttled_server(), tenant="burst")
        cursor = connection.cursor()
        cursor.execute(PAPER_QUERY)
        with pytest.raises(ClientError) as excinfo:
            cursor.execute(PAPER_QUERY)
        assert getattr(excinfo.value, "retriable", False)
        assert connection.auto_retries == 0


class TestConnectionExplain:
    def test_explain_surfaces_estimates_and_provenance(self):
        federation = build_paper_federation().federation
        connection = odbc.connect(federation=federation, context="c_receiver")
        plan = connection.explain(PAPER_QUERY)
        assert "feedback epoch" in plan
        assert "est=default" in plan
        # After executing, re-planning prices from recorded observations.
        cursor = connection.cursor()
        cursor.execute(PAPER_QUERY)
        federation.engine.catalog.feedback.record_request(
            "r2", "", 10_000, planned_rows=10
        )  # material error: retire cached plans so explain re-prices
        replanned = connection.explain(PAPER_QUERY)
        assert "est=feedback" in replanned
