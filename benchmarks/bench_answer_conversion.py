"""E8 — transformation of answers into the receiver's context (Section 3).

"The answers returned may be further transformed so that they conform to the
context of the receiver.  Thus in our example, the revenue of NTT will be
reported as 9 600 000 as opposed to 1 000 000."

Reproduced rows: the NTT figure as stored, as reported to the USD receiver and
as reported to the JPY receiver; plus the cost of re-expressing an existing
answer in a different receiver context (the mediator's conversion expressions
run as a query over the answer) versus re-running the mediated query, over
result sets of growing size.
"""

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation, build_scalability_federation


def test_e8_ntt_reported_in_receiver_context(paper_scenario):
    federation = paper_scenario.federation
    stored = paper_scenario.source1.fetch("r1").records()[1]
    usd = federation.query(PAPER_QUERY, "c_receiver").records[0]
    jpy = federation.query(PAPER_QUERY, "c_receiver_jpy").records[0]
    print("\n=== E8: the NTT revenue in each context ===")
    print(f"stored in source 1 (JPY, thousands): {stored['revenue']:>12,.0f}")
    print(f"reported to USD receiver           : {usd['revenue']:>12,.0f}")
    print(f"reported to JPY/thousands receiver : {jpy['revenue']:>12,.0f}")
    assert stored["revenue"] == pytest.approx(1_000_000)
    assert usd["revenue"] == pytest.approx(9_600_000)
    assert jpy["revenue"] == pytest.approx(1_000_000)


def test_e8_post_hoc_conversion_latency(benchmark):
    scenario = build_scalability_federation(2, companies_per_source=300)
    federation = scenario.federation
    # A receiver context in EUR/thousands to convert into.
    from repro.coin.context import Context

    eu = Context("c_eu", "EUR, thousands")
    eu.declare_constant("companyFinancials", "currency", "EUR")
    eu.declare_constant("companyFinancials", "scaleFactor", 1000)
    federation.system.contexts.register(eu)

    answer = federation.query(
        f"SELECT {scenario.relations[0]}.cname, {scenario.relations[0]}.revenue "
        f"FROM {scenario.relations[0]}"
    )
    converted = benchmark(lambda: federation.convert_answer(answer, "c_eu"))
    assert len(converted) == len(answer.relation)
    benchmark.extra_info["rows_converted"] = len(converted)


def test_e8_post_hoc_vs_requery(benchmark):
    """Re-expressing an existing answer is much cheaper than re-querying."""
    import time

    scenario = build_scalability_federation(2, companies_per_source=300)
    federation = scenario.federation
    from repro.coin.context import Context

    eu = Context("c_eu", "EUR, thousands")
    eu.declare_constant("companyFinancials", "currency", "EUR")
    eu.declare_constant("companyFinancials", "scaleFactor", 1000)
    federation.system.contexts.register(eu)

    sql = (f"SELECT {scenario.relations[0]}.cname, {scenario.relations[0]}.revenue "
           f"FROM {scenario.relations[0]}")
    answer = federation.query(sql)

    started = time.perf_counter()
    requeried = federation.query(sql, "c_eu")
    requery_seconds = time.perf_counter() - started

    converted = benchmark(lambda: federation.convert_answer(answer, "c_eu"))

    by_name_requeried = {row[0]: row[1] for row in requeried.relation.rows}
    by_name_converted = {row[0]: row[1] for row in converted.rows}
    sample = next(iter(by_name_converted))
    assert by_name_converted[sample] == pytest.approx(by_name_requeried[sample], rel=1e-6)
    print(f"\n=== E8: re-query took {requery_seconds * 1000:.1f} ms for {len(converted)} rows ===")
    benchmark.extra_info["requery_seconds"] = round(requery_seconds, 6)
