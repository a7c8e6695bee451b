"""Figure 2 — top-20 exfiltrator script domains.

Paper: googletagmanager.com leads at 3.29% of all cookie pairs, then
doubleclick.net (0.99%), hubspot.com (0.76%), googlesyndication.com,
google-analytics.com, adthrive.com, amazon-adsystem.com, ...
"""

from repro.analysis.reports import Study, render_ranked

from conftest import banner


def test_figure2(benchmark, study):
    # A Study ranks on first use and slices after, so each round times
    # the ranking on a fresh Study over the same accumulator.
    rows = benchmark.pedantic(
        Study.figure2,
        setup=lambda: ((Study.from_accumulator(study.accumulator), 20), {}),
        rounds=10)
    banner("Figure 2 — top exfiltrator domains",
           "googletagmanager.com ≈ 3.29% of cookies, ~3× the runner-up")
    print(render_ranked(rows, "top-20 exfiltrators:"))
    assert rows[0].domain == "googletagmanager.com"
    if len(rows) > 1:
        assert rows[0].n_cookies >= rows[1].n_cookies * 1.5
