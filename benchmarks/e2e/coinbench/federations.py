"""The federation the benchmark runs against, built from public constructors.

``build_scalability_federation`` takes no cache or budget arguments, so the
financial federation is wired here the way it is wired there (one autonomous
source per reporting convention, the exchange-rate web source, receiver
contexts for the analysts) with the knobs a workload needs passed straight to
``Federation``.  The paper's two sources (Figure 2: ``r1``, ``r2``) join the
same federation, so one pipeline and one set of caches serve every statement
of a workload.

Every wrapper is registered behind a :class:`ProxyWrapper`: the benchmark's
own counting point, the place ``served_mix`` charges a source round trip real
wall-clock latency, and — in the traced pass — the ``wrappers.fetch`` span.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List

from repro.coin.context import (
    ConstantValue,
    Context,
    ContextRegistry,
    Guard,
    ModifierCase,
)
from repro.coin.conversion import build_financial_conversions
from repro.coin.domain import build_financial_domain_model
from repro.coin.elevation import ElevationRegistry
from repro.coin.system import CoinSystem
from repro.demo.datasets import (
    SCENARIO_CURRENCIES,
    SCENARIO_SCALE_FACTORS,
    company_names,
    financials_rows,
    paper_r1,
    paper_r2,
)
from repro.demo.scenarios import EXCHANGE_RELATION, build_exchange_wrapper
from repro.federation import Federation
from repro.relational.relation import relation_from_rows
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper, Wrapper

#: Receiver contexts: (name, currency, scale factor).  ``c_analyst`` is the
#: paper's receiver (USD at scale 1).
ANALYST_CONTEXTS = (
    ("c_analyst", "USD", 1),
    ("c_analyst_jpy", "JPY", 1000),
    ("c_analyst_eur", "EUR", 1000),
    ("c_analyst_gbp", "GBP", 1),
)

#: A plain (un-elevated) grouping column of the financial relations.
SECTORS = ("energy", "finance", "health", "retail", "tech", "telecom", "transport")

#: The data is part of the benchmark, not of a run: ``--seed`` drives the
#: statements only, so two seeds do the same kind of work on the same rows.
DATA_SEED = 13


class ProxyWrapper(Wrapper):
    """A wrapper in front of a wrapper: counts, times and optionally delays.

    Metadata is forwarded untouched.  Every ``fetch``/``query`` sleeps
    ``latency_seconds`` first (a charged source round trip), is counted under
    a lock, and is handed to the span recorder when one is attached.
    """

    def __init__(self, inner: Wrapper, latency_seconds: float = 0.0):
        super().__init__(inner.name, inner.capabilities)
        self.inner = inner
        self.latency_seconds = latency_seconds
        self.recorder = None
        self._lock = threading.Lock()
        self._calls = 0
        self._rows = 0
        self._seconds = 0.0

    def relation_names(self) -> List[str]:
        return self.inner.relation_names()

    def schema_of(self, relation: str):
        return self.inner.schema_of(relation)

    @property
    def source_statistics(self):
        return self.inner.source_statistics

    def fetch(self, relation: str):
        return self._round_trip(lambda: self.inner.fetch(relation))

    def query(self, statement):
        return self._round_trip(lambda: self.inner.query(statement))

    def _round_trip(self, call: Callable):
        started = time.perf_counter()
        if self.latency_seconds:
            time.sleep(self.latency_seconds)
        result = call()
        ended = time.perf_counter()
        with self._lock:
            self._calls += 1
            self._rows += len(result)
            self._seconds += ended - started
        if self.recorder is not None:
            self.recorder.record_fetch(self.name, started, ended)
        return result

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return {"calls": self._calls, "rows": self._rows,
                    "seconds": self._seconds,
                    "charged_seconds": self._calls * self.latency_seconds}


class BenchFederation:
    """A federation, its financial relations and its proxied wrappers."""

    def __init__(self, federation: Federation, relations: List[str],
                 proxies: List[ProxyWrapper]):
        self.federation = federation
        self.relations = relations
        self.proxies = proxies

    def wrapper_counters(self) -> Dict[str, float]:
        total = {"calls": 0, "rows": 0, "seconds": 0.0, "charged_seconds": 0.0}
        for proxy in self.proxies:
            for name, value in proxy.counters().items():
                total[name] += value
        return total

    def attach_recorder(self, recorder) -> None:
        for proxy in self.proxies:
            proxy.recorder = recorder


def _constant_context(name: str, description: str, currency: str, scale: int) -> Context:
    context = Context(name, description)
    context.declare_constant("companyFinancials", "currency", currency)
    context.declare_constant("companyFinancials", "scaleFactor", scale)
    return context


def build_federation(source_count: int, companies_per_source: int,
                     latency_seconds: float = 0.0,
                     **federation_options) -> BenchFederation:
    """``source_count`` financial sources, the paper's two, and exchange rates.

    Source *i* reports the same companies as every other, in its own currency
    and scale factor, as ``fin<i>(cname, revenue, expenses, currency,
    sector)``.  ``federation_options`` go to ``Federation`` unchanged
    (``request_cache_size``, ``plan_cache_size``, ``memory_budget_bytes``,
    ``max_concurrent_requests``, ``observability``).
    """
    domain_model = build_financial_domain_model()
    contexts = ContextRegistry()
    elevations = ElevationRegistry()
    conversions = build_financial_conversions(
        domain_model, ancillary_relation=EXCHANGE_RELATION)
    for name, currency, scale in ANALYST_CONTEXTS:
        contexts.register(_constant_context(
            name, f"analyst workspace: {currency} at scale {scale}", currency, scale))
    system = CoinSystem(domain_model, contexts, elevations, conversions,
                        name="coinbench")
    federation = Federation(system, default_receiver_context="c_analyst",
                            name="coinbench", **federation_options)
    proxies: List[ProxyWrapper] = []

    def register(wrapper: Wrapper, estimate_rows: bool = True) -> None:
        proxy = ProxyWrapper(wrapper, latency_seconds)
        proxies.append(proxy)
        federation.register_wrapper(proxy, estimate_rows=estimate_rows)

    companies = company_names(companies_per_source, seed=DATA_SEED)
    relations: List[str] = []
    for index in range(source_count):
        currency = SCENARIO_CURRENCIES[index % len(SCENARIO_CURRENCIES)]
        scale = SCENARIO_SCALE_FACTORS[index % len(SCENARIO_SCALE_FACTORS)]
        relation = f"fin{index + 1}"
        source_name = f"finsource{index + 1}"
        contexts.register(_constant_context(
            f"c_{source_name}", f"{currency} at scale {scale}", currency, scale))
        rows = [
            row + (SECTORS[position % len(SECTORS)],)
            for position, row in enumerate(financials_rows(
                companies, currency, scale, seed=DATA_SEED + index * 101 + 1))
        ]
        source = MemorySQLSource(source_name,
                                 description=f"{currency}/{scale} financials")
        source.database.register(relation_from_rows(
            relation,
            ["cname:string", "revenue:float", "expenses:float",
             "currency:string", "sector:string"],
            rows, qualifier=None,
        ), relation)
        register(RelationalWrapper(source))
        elevations.elevate(source_name, relation, f"c_{source_name}", {
            "cname": "companyName",
            "revenue": "companyFinancials",
            "expenses": "companyFinancials",
            "currency": "currencyType",
        })
        relations.append(relation)

    # Figure 2 of the paper: r1 reports per-row currency with JPY figures in
    # thousands, r2 reports USD at scale 1.
    c_source1 = Context("c_source1", "Source 1: per-row currency, JPY in thousands")
    c_source1.declare_attribute("companyFinancials", "currency", "currency")
    c_source1.declare_cases("companyFinancials", "scaleFactor", [
        ModifierCase(ConstantValue(1000), (Guard("currency", "=", "JPY"),)),
        ModifierCase(ConstantValue(1), (Guard("currency", "<>", "JPY"),)),
    ])
    contexts.register(c_source1)
    contexts.register(_constant_context(
        "c_source2", "Source 2: USD, scale factor 1", "USD", 1))
    for name, relation in (("source1", paper_r1()), ("source2", paper_r2())):
        source = MemorySQLSource(name, description=f"on-line database holding {relation.name}")
        source.add_relation(relation)
        register(RelationalWrapper(source))
    elevations.elevate("source1", "r1", "c_source1", {
        "cname": "companyName",
        "revenue": "companyFinancials",
        "currency": "currencyType",
    })
    elevations.elevate("source2", "r2", "c_source2", {
        "cname": "companyName",
        "expenses": "companyFinancials",
    })

    register(build_exchange_wrapper(), estimate_rows=False)
    elevations.elevate("exchange", EXCHANGE_RELATION, "c_analyst",
                       {"rate": "exchangeRate"})
    system.validate()
    return BenchFederation(federation, relations, proxies)
