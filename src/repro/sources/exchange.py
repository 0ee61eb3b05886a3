"""The currency-exchange ancillary web source.

Figure 2 of the paper shows, next to the two relational sources, a Web source
publishing currency exchange rates; the mediated query joins against it
(as relation ``r3(fromCur, toCur, rate)``) whenever a currency conversion is
required.  This module builds that source as a :class:`SimulatedWebSite`
whose pages quote rates the way 1997-era rate sites did (one page per base
currency, "1 JPY = 0.0096 USD" lines), plus helpers for the rate table used
throughout the demo scenarios.

The paper's example reports a quote of ``104.00`` (JPY per USD) on the web
page while the mediated answer uses the inverse rate 0.0096 ≈ 1/104; the
default table reproduces exactly that arrangement.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.sources.web import SimulatedWebSite, WebPage, render_table_page

#: Default quotes: value of 1 unit of ``from`` currency expressed in ``to``.
#: JPY→USD is kept at 0.0096 so the paper's worked example reproduces exactly
#: (1,000,000 × 1,000 × 0.0096 = 9,600,000), and USD→JPY at the page's quoted
#: 104.00.
DEFAULT_RATES: Dict[Tuple[str, str], float] = {
    ("JPY", "USD"): 0.0096,
    ("USD", "JPY"): 104.00,
    ("EUR", "USD"): 1.10,
    ("USD", "EUR"): 1.0 / 1.10,
    ("GBP", "USD"): 1.60,
    ("USD", "GBP"): 1.0 / 1.60,
    ("SGD", "USD"): 0.70,
    ("USD", "SGD"): 1.0 / 0.70,
    ("KRW", "USD"): 0.0011,
    ("USD", "KRW"): 1.0 / 0.0011,
    ("EUR", "JPY"): 114.4,
    ("JPY", "EUR"): 1.0 / 114.4,
}


def complete_rates(rates: Mapping[Tuple[str, str], float]) -> Dict[Tuple[str, str], float]:
    """Add identity rates and any missing inverse quotes to a rate table."""
    completed: Dict[Tuple[str, str], float] = dict(rates)
    currencies = {currency for pair in rates for currency in pair}
    for currency in currencies:
        completed.setdefault((currency, currency), 1.0)
    for (from_currency, to_currency), rate in list(completed.items()):
        if rate and (to_currency, from_currency) not in completed:
            completed[(to_currency, from_currency)] = 1.0 / rate
    return completed


def rates_to_rows(rates: Mapping[Tuple[str, str], float]) -> List[Tuple[str, str, float]]:
    """Flatten a rate table into (fromCur, toCur, rate) rows, sorted for determinism."""
    return sorted(
        (from_currency, to_currency, float(rate))
        for (from_currency, to_currency), rate in rates.items()
    )


def build_exchange_rate_site(rates: Optional[Mapping[Tuple[str, str], float]] = None,
                             name: str = "olsen", base_url: str = "http://www.oanda-sim.com",
                             latency_per_fetch: float = 0.05) -> SimulatedWebSite:
    """Build the simulated exchange-rate web service.

    The layout is one index page linking to a quote page per base currency;
    each quote page carries a table of ``<td>FROM</td><td>TO</td><td>RATE</td>``
    rows.  The name nods to the Olsen & Associates / OANDA service the original
    project wrapped.
    """
    table = complete_rates(rates if rates is not None else DEFAULT_RATES)
    site = SimulatedWebSite(name, base_url, latency_per_fetch=latency_per_fetch,
                            description="currency exchange rates (ancillary source)")

    by_base: Dict[str, List[Tuple[str, str, float]]] = {}
    for from_currency, to_currency, rate in rates_to_rows(table):
        by_base.setdefault(from_currency, []).append((from_currency, to_currency, rate))

    quote_urls = []
    for base_currency, quote_rows in sorted(by_base.items()):
        url = f"rates/{base_currency.lower()}.html"
        quote_urls.append(url)
        content = render_table_page(
            f"Exchange rates from {base_currency}",
            ["from", "to", "rate"],
            [[row[0], row[1], f"{row[2]:.6f}"] for row in quote_rows],
        )
        site.add_page(WebPage(url=url, title=f"rates {base_currency}", content=content))

    index = render_table_page(
        "Currency converter", ["currency"], [[base] for base in sorted(by_base)],
        links=quote_urls,
    )
    site.add_page(WebPage(url="index.html", title="Currency converter", content=index,
                          links=tuple(quote_urls)))
    return site


def lookup_rate(rates: Mapping[Tuple[str, str], float], from_currency: str,
                to_currency: str) -> float:
    """Look up a conversion rate, deriving it through USD when not quoted directly."""
    table = complete_rates(rates)
    if (from_currency, to_currency) in table:
        return table[(from_currency, to_currency)]
    via_usd_from = table.get((from_currency, "USD"))
    via_usd_to = table.get(("USD", to_currency))
    if via_usd_from is not None and via_usd_to is not None:
        return via_usd_from * via_usd_to
    raise KeyError(f"no exchange rate from {from_currency} to {to_currency}")
