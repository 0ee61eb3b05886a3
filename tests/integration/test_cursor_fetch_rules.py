"""One cursor per statement: how its rows leave, from any door.

Every in-process door — ``Federation.query(..., stream=True)`` /
``Federation.open``, ungated or under an admission gateway — answers with a
:class:`~repro.federation.FederationCursor`, whatever stores the rows beneath
it (a live stream, an eager answer, a repair-enumerated one).  Pinned here:

* two threads fetching from one cursor at once share its rows: each row is
  handed over once and neither thread sees the stream's generator busy;
* after ``close()``, a cursor that was drained answers ``[]`` / None, and
  one closed before exhaustion raises ``ExecutionError``, as DB-API cursors
  do — the same rule for every kind of answer and both doors.
"""

import threading

import pytest

from repro.coin.context import Context, ContextRegistry
from repro.coin.domain import build_financial_domain_model
from repro.coin.system import CoinSystem
from repro.consistency import PrimaryKey
from repro.errors import ExecutionError
from repro.federation import Federation
from repro.options import StatementOptions
from repro.server.gateway import AdmissionGateway
from repro.sources.faults import FaultInjectingSource, FaultSchedule
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

from tests.consistency.fedbuild import build_consistency_federation


def _stalled_federation():
    """Sixteen rows behind a source that stalls 0.2 s on every access, with
    no request cache: a fetch that reaches it is still waiting when a second
    thread arrives."""
    contexts = ContextRegistry()
    contexts.register(Context("c_plain", "receiver without conventions"))
    federation = Federation(
        CoinSystem(build_financial_domain_model(), contexts, name="stalled"),
        default_receiver_context="c_plain", request_cache_size=0)
    source = MemorySQLSource("db_t")
    source.load_sql("CREATE TABLE t (a integer)", "INSERT INTO t VALUES "
                    + ", ".join(f"({index})" for index in range(16)))
    federation.register_wrapper(FaultInjectingSource(
        RelationalWrapper(source),
        FaultSchedule(latency_spike_every=1, latency_spike_seconds=0.2)),
        estimate_rows=False)
    return federation


class TestConcurrentFetches:
    @pytest.mark.parametrize("door", ["federation", "gated"])
    def test_two_threads_fetching_at_once_share_the_rows(self, door):
        federation = _stalled_federation()
        sql = "SELECT t.a FROM t"
        if door == "federation":
            cursor = federation.query(sql, mediate=False, stream=True)
        else:
            cursor = federation.open(sql, StatementOptions(mediate=False),
                                     gateway=AdmissionGateway())
        barrier = threading.Barrier(2)
        batches, errors = [], []

        def fetch():
            barrier.wait()
            try:
                batches.append(cursor.fetchmany(8))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cursor.close()
        assert errors == []
        assert sorted(row for batch in batches for row in batch) == [
            (index,) for index in range(16)]
        assert cursor.rows_streamed == 16


SQL = ("SELECT accounts.owner, accounts.balance FROM accounts "
       "WHERE accounts.balance > 5")
#: Kind of answer -> (statement, consistency mode, stream).
KINDS = {
    "live": (SQL, "raw", True),
    "eager": (SQL, "raw", False),
    # A LIMIT under ``certain``: only repair enumeration answers it.
    "enumerated": (SQL + " LIMIT 10", "certain", True),
}
FETCHES = {
    "fetchone": (lambda cursor: cursor.fetchone(), None),
    "fetchmany": (lambda cursor: cursor.fetchmany(2), []),
    "fetchall": (lambda cursor: cursor.fetchall(), []),
}


def _open(door, kind):
    federation = build_consistency_federation()
    federation.register_constraint(
        PrimaryKey("accounts_pk", relation="accounts", columns=("id",)))
    sql, consistency, stream = KINDS[kind]
    options = StatementOptions(mediate=False, consistency=consistency)
    gateway = AdmissionGateway() if door == "gated" else None
    return federation.open(sql, options, stream, gateway=gateway)


@pytest.mark.parametrize("fetch", sorted(FETCHES))
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("door", ["federation", "gated"])
class TestFetchAfterClose:
    def test_closed_before_exhaustion_refuses_to_fetch(self, door, kind, fetch):
        cursor = _open(door, kind)
        assert cursor.fetchone() is not None
        cursor.close()
        with pytest.raises(ExecutionError, match="cannot fetch from a closed"):
            FETCHES[fetch][0](cursor)

    def test_closed_by_exhaustion_answers_nothing(self, door, kind, fetch):
        cursor = _open(door, kind)
        assert len(cursor.fetchall()) > 1
        cursor.close()
        call, nothing = FETCHES[fetch]
        assert call(cursor) == nothing
