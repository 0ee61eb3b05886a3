"""Pre-wired federations: the paper's example and larger demo scenarios.

Every builder returns a ready-to-query :class:`~repro.federation.Federation`
(plus scenario-specific hooks used by benchmarks), so examples, tests and
benchmarks never repeat the wiring boilerplate.

* :func:`build_paper_federation` — the two relational sources, the exchange
  web source and the contexts of Figure 2 / Section 3 (experiment E1);
* :func:`build_scalability_federation` — *n* autonomous financial sources,
  each with its own reporting convention (experiments E3/E4);
* :func:`build_financial_analysis_federation` — the profit-&-loss /
  market-intelligence scenario sketched in the conclusion (experiment E9),
  combining databases, a stock-price web site and the exchange-rate service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    PAPER_QUERY,
    SCENARIO_CURRENCIES,
    SCENARIO_SCALE_FACTORS,
    company_names,
    financials_rows,
    paper_r1,
    paper_r2,
    stock_price_records,
)
from repro.federation import Federation
from repro.sources.exchange import build_exchange_rate_site
from repro.sources.memory import MemorySQLSource
from repro.sources.web import build_detail_site
from repro.wrappers.wrapper import RelationalWrapper, WebWrapper

#: Name of the exchange-rate relation as catalogued in every scenario.
EXCHANGE_RELATION = "r3"

#: The wrapper specification text for the exchange-rate web site, written in
#: the declarative wrapping language of [Qu96].
EXCHANGE_WRAPPER_SPEC = r"""
# Wrapper for the currency-exchange ancillary web source (Figure 2, "r3").
EXPORT r3(fromCur string, toCur string, rate float)
START index.html STATE index
TRANSITION index -> quotes FOLLOW "rates/.*\.html"
EXTRACT quotes TUPLE "<tr><td>(?P<fromCur>[A-Z]{3})</td><td>(?P<toCur>[A-Z]{3})</td><td>(?P<rate>[0-9.]+)</td></tr>"
"""


def build_exchange_wrapper(rates: Optional[Dict[Tuple[str, str], float]] = None,
                           relation_name: str = EXCHANGE_RELATION) -> WebWrapper:
    """The exchange-rate web site wrapped through its declarative specification."""
    from repro.wrappers.spec import parse_wrapper_spec

    site = build_exchange_rate_site(rates)
    spec_text = EXCHANGE_WRAPPER_SPEC.replace(f"EXPORT {EXCHANGE_RELATION}(",
                                              f"EXPORT {relation_name}(")
    spec = parse_wrapper_spec(spec_text)
    return WebWrapper(site, spec, name="exchange")


# ---------------------------------------------------------------------------
# E1: the paper's worked example
# ---------------------------------------------------------------------------


@dataclass
class PaperScenario:
    """The Figure-2 federation plus the artifacts the E1 benchmark checks."""

    federation: Federation
    query: str = PAPER_QUERY
    receiver_context: str = "c_receiver"
    source1: MemorySQLSource = None  # type: ignore[assignment]
    source2: MemorySQLSource = None  # type: ignore[assignment]
    exchange_wrapper: WebWrapper = None  # type: ignore[assignment]


def build_paper_coin_system() -> CoinSystem:
    """The domain model, contexts and elevation axioms of the paper example."""
    domain_model = build_financial_domain_model()

    contexts = ContextRegistry()
    # Source 1: currency as reported per row; scale factor 1000 for JPY, else 1.
    c1 = Context("c_source1", "Source 1: per-row currency, JPY figures in thousands")
    c1.declare_attribute("companyFinancials", "currency", "currency")
    c1.declare_cases("companyFinancials", "scaleFactor", [
        ModifierCase(ConstantValue(1000), (Guard("currency", "=", "JPY"),)),
        ModifierCase(ConstantValue(1), (Guard("currency", "<>", "JPY"),)),
    ])
    # Source 2: always USD, scale factor 1.
    c2 = Context("c_source2", "Source 2: USD, scale factor 1")
    c2.declare_constant("companyFinancials", "currency", "USD")
    c2.declare_constant("companyFinancials", "scaleFactor", 1)
    # The receiver wants USD at scale 1.
    receiver = Context("c_receiver", "Receiver: USD, scale factor 1")
    receiver.declare_constant("companyFinancials", "currency", "USD")
    receiver.declare_constant("companyFinancials", "scaleFactor", 1)
    # A second receiver context used by the accessibility benchmark (E5).
    receiver_jpy = Context("c_receiver_jpy", "Receiver: JPY, scale factor 1000")
    receiver_jpy.declare_constant("companyFinancials", "currency", "JPY")
    receiver_jpy.declare_constant("companyFinancials", "scaleFactor", 1000)
    for context in (c1, c2, receiver, receiver_jpy):
        contexts.register(context)

    elevations = ElevationRegistry()
    elevations.elevate("source1", "r1", "c_source1", {
        "cname": "companyName",
        "revenue": "companyFinancials",
        "currency": "currencyType",
    })
    elevations.elevate("source2", "r2", "c_source2", {
        "cname": "companyName",
        "expenses": "companyFinancials",
    })
    elevations.elevate("exchange", EXCHANGE_RELATION, "c_receiver", {
        "rate": "exchangeRate",
    })

    conversions = build_financial_conversions(domain_model, ancillary_relation=EXCHANGE_RELATION)
    system = CoinSystem(domain_model, contexts, elevations, conversions, name="paper-example")
    system.validate()
    return system


def build_paper_federation() -> PaperScenario:
    """The complete Figure-2 federation, ready to answer the Section-3 query."""
    system = build_paper_coin_system()
    federation = Federation(system, default_receiver_context="c_receiver", name="paper-example")

    source1 = MemorySQLSource("source1", description="on-line database holding r1")
    source1.add_relation(paper_r1())
    source2 = MemorySQLSource("source2", description="on-line database holding r2")
    source2.add_relation(paper_r2())
    exchange_wrapper = build_exchange_wrapper()

    federation.register_wrapper(RelationalWrapper(source1))
    federation.register_wrapper(RelationalWrapper(source2))
    federation.register_wrapper(exchange_wrapper, estimate_rows=False)

    return PaperScenario(
        federation=federation,
        source1=source1,
        source2=source2,
        exchange_wrapper=exchange_wrapper,
    )


# ---------------------------------------------------------------------------
# E3 / E4: many autonomous sources
# ---------------------------------------------------------------------------


@dataclass
class ScalabilityScenario:
    """A federation of ``n`` financial sources with heterogeneous conventions."""

    federation: Federation
    relations: List[str]
    conventions: Dict[str, Tuple[str, int]]
    companies: List[str]
    receiver_context: str = "c_analyst"

    def pairwise_query(self, left: str, right: str) -> str:
        """The cross-source comparison query used by the benchmarks."""
        return (
            f"SELECT {left}.cname, {left}.revenue FROM {left}, {right} "
            f"WHERE {left}.cname = {right}.cname AND {left}.revenue > {right}.expenses"
        )


def build_scalability_federation(source_count: int, companies_per_source: int = 20,
                                 shared_contexts: bool = False,
                                 seed: int = 13) -> ScalabilityScenario:
    """Build a federation of ``source_count`` autonomous financial sources.

    Each source reports the same companies under its own convention (currency
    and scale factor cycled from the scenario lists).  With
    ``shared_contexts=True`` sources with identical conventions share a single
    context — the "context granularity" ablation of DESIGN.md.
    """
    domain_model = build_financial_domain_model()
    contexts = ContextRegistry()
    elevations = ElevationRegistry()
    conversions = build_financial_conversions(domain_model, ancillary_relation=EXCHANGE_RELATION)

    receiver = Context("c_analyst", "analyst workspace: USD at scale 1")
    receiver.declare_constant("companyFinancials", "currency", "USD")
    receiver.declare_constant("companyFinancials", "scaleFactor", 1)
    contexts.register(receiver)

    companies = company_names(companies_per_source, seed=seed)
    system = CoinSystem(domain_model, contexts, elevations, conversions, name="scalability")
    federation = Federation(system, default_receiver_context="c_analyst", name="scalability")

    relations: List[str] = []
    conventions: Dict[str, Tuple[str, int]] = {}
    context_by_convention: Dict[Tuple[str, int], str] = {}

    for index in range(source_count):
        currency = SCENARIO_CURRENCIES[index % len(SCENARIO_CURRENCIES)]
        scale = SCENARIO_SCALE_FACTORS[index % len(SCENARIO_SCALE_FACTORS)]
        relation = f"fin{index + 1}"
        source_name = f"finsource{index + 1}"
        convention = (currency, scale)

        if shared_contexts and convention in context_by_convention:
            context_name = context_by_convention[convention]
        else:
            context_name = (
                f"c_{currency.lower()}_{scale}" if shared_contexts else f"c_{source_name}"
            )
            if not contexts.has(context_name):
                context = Context(context_name, f"{currency} at scale {scale}")
                context.declare_constant("companyFinancials", "currency", currency)
                context.declare_constant("companyFinancials", "scaleFactor", scale)
                contexts.register(context)
            context_by_convention[convention] = context_name

        rows = financials_rows(companies, currency, scale, seed=seed + index * 101 + 1)
        source = MemorySQLSource(source_name, description=f"{currency}/{scale} financials")
        source.database.register(
            _financials_relation(relation, rows), relation
        )
        federation.register_wrapper(RelationalWrapper(source))
        elevations.elevate(source_name, relation, context_name, {
            "cname": "companyName",
            "revenue": "companyFinancials",
            "expenses": "companyFinancials",
            "currency": "currencyType",
        })
        relations.append(relation)
        conventions[relation] = convention

    federation.register_wrapper(build_exchange_wrapper(), estimate_rows=False)
    elevations.elevate("exchange", EXCHANGE_RELATION, "c_analyst", {"rate": "exchangeRate"})
    system.validate()

    return ScalabilityScenario(
        federation=federation,
        relations=relations,
        conventions=conventions,
        companies=companies,
    )


def _financials_relation(name: str, rows: Sequence[Sequence]) -> "object":
    from repro.relational.relation import relation_from_rows

    return relation_from_rows(
        name,
        ["cname:string", "revenue:float", "expenses:float", "currency:string"],
        rows,
        qualifier=None,
    )


# ---------------------------------------------------------------------------
# E9: financial analysis decision support
# ---------------------------------------------------------------------------


@dataclass
class FinancialAnalysisScenario:
    """Profit & loss analysis over databases, a price web site and exchange rates."""

    federation: Federation
    companies: List[str]
    receiver_contexts: Tuple[str, ...] = ("c_us_analyst", "c_eu_analyst")

    def profit_and_loss_query(self) -> str:
        return (
            "SELECT us.cname, us.revenue - asia.expenses AS operating_margin "
            "FROM usfin us, asiafin asia "
            "WHERE us.cname = asia.cname AND us.revenue - asia.expenses > 0"
        )

    def market_intelligence_query(self) -> str:
        return (
            "SELECT us.cname, us.revenue, prices.price "
            "FROM usfin us, prices "
            "WHERE us.cname = prices.cname AND prices.price > 100"
        )


def build_financial_analysis_federation(company_count: int = 12,
                                        seed: int = 29) -> FinancialAnalysisScenario:
    """The deployment scenario of the paper's conclusion, in miniature.

    Sources: a US financial database (USD, scale 1), an Asian subsidiary
    database (JPY, thousands), a stock-price web site (USD) wrapped from
    per-company detail pages, and the exchange-rate service.  Receivers: a US
    analyst (USD) and a European analyst (EUR, thousands).
    """
    domain_model = build_financial_domain_model()
    contexts = ContextRegistry()
    elevations = ElevationRegistry()
    conversions = build_financial_conversions(domain_model, ancillary_relation=EXCHANGE_RELATION)

    c_us = Context("c_usfin", "US reporting: USD, scale 1")
    c_us.declare_constant("companyFinancials", "currency", "USD")
    c_us.declare_constant("companyFinancials", "scaleFactor", 1)
    c_asia = Context("c_asiafin", "Asian subsidiary: JPY, thousands")
    c_asia.declare_constant("companyFinancials", "currency", "JPY")
    c_asia.declare_constant("companyFinancials", "scaleFactor", 1000)
    c_prices = Context("c_prices", "price site: USD, scale 1")
    c_prices.declare_constant("stockPrice", "currency", "USD")
    c_prices.declare_constant("stockPrice", "scaleFactor", 1)
    c_prices.declare_constant("companyFinancials", "currency", "USD")
    c_prices.declare_constant("companyFinancials", "scaleFactor", 1)

    us_analyst = Context("c_us_analyst", "US analyst: USD, scale 1")
    us_analyst.declare_constant("companyFinancials", "currency", "USD")
    us_analyst.declare_constant("companyFinancials", "scaleFactor", 1)
    us_analyst.declare_constant("stockPrice", "currency", "USD")
    us_analyst.declare_constant("stockPrice", "scaleFactor", 1)
    eu_analyst = Context("c_eu_analyst", "European analyst: EUR, thousands")
    eu_analyst.declare_constant("companyFinancials", "currency", "EUR")
    eu_analyst.declare_constant("companyFinancials", "scaleFactor", 1000)
    eu_analyst.declare_constant("stockPrice", "currency", "EUR")
    eu_analyst.declare_constant("stockPrice", "scaleFactor", 1)

    for context in (c_us, c_asia, c_prices, us_analyst, eu_analyst):
        contexts.register(context)

    companies = company_names(company_count, seed=seed)
    system = CoinSystem(domain_model, contexts, elevations, conversions, name="financial-analysis")
    federation = Federation(system, default_receiver_context="c_us_analyst",
                            name="financial-analysis")

    # US financial database.
    us_rows = financials_rows(companies, "USD", 1, seed=seed + 1)
    us_source = MemorySQLSource("usfin_db", description="US financial reporting database")
    us_source.database.register(_financials_relation("usfin", us_rows), "usfin")
    federation.register_wrapper(RelationalWrapper(us_source))
    elevations.elevate("usfin_db", "usfin", "c_usfin", {
        "cname": "companyName",
        "revenue": "companyFinancials",
        "expenses": "companyFinancials",
        "currency": "currencyType",
    })

    # Asian subsidiary database (JPY, thousands).
    asia_rows = financials_rows(companies, "JPY", 1000, seed=seed + 1)
    asia_source = MemorySQLSource("asiafin_db", description="Asian subsidiary ledger")
    asia_source.database.register(_financials_relation("asiafin", asia_rows), "asiafin")
    federation.register_wrapper(RelationalWrapper(asia_source))
    elevations.elevate("asiafin_db", "asiafin", "c_asiafin", {
        "cname": "companyName",
        "revenue": "companyFinancials",
        "expenses": "companyFinancials",
        "currency": "currencyType",
    })

    # Stock-price web site: one detail page per company, wrapped with FIELD rules.
    records = stock_price_records(companies, seed=seed + 2)
    price_site = build_detail_site("pricesite", "http://quotes-sim.example", "prices",
                                   "cname", records)
    from repro.wrappers.spec import ExportedRelation, ExtractionRule, Transition, WrapperSpec
    from repro.relational.types import DataType

    price_spec = WrapperSpec(
        relation=ExportedRelation("prices", (
            ("cname", DataType.STRING),
            ("price", DataType.FLOAT),
            ("exchange", DataType.STRING),
        )),
        start_url="index.html",
        start_state="index",
        transitions=[Transition("index", "detail", r"prices/.*\.html")],
        rules=[
            ExtractionRule("detail", r"<b>cname:</b>\s*(?P<cname>[^<]+)</p>", "field"),
            ExtractionRule("detail", r"<b>price:</b>\s*(?P<price>[0-9.]+)</p>", "field"),
            ExtractionRule("detail", r"<b>exchange:</b>\s*(?P<exchange>[A-Z]+)</p>", "field"),
        ],
    )
    federation.register_wrapper(WebWrapper(price_site, price_spec, name="pricesite"),
                                estimate_rows=False)
    elevations.elevate("pricesite", "prices", "c_prices", {
        "cname": "companyName",
        "price": "stockPrice",
    })

    # Exchange rates.
    federation.register_wrapper(build_exchange_wrapper(), estimate_rows=False)
    elevations.elevate("exchange", EXCHANGE_RELATION, "c_us_analyst", {"rate": "exchangeRate"})

    system.validate()
    return FinancialAnalysisScenario(federation=federation, companies=companies)
