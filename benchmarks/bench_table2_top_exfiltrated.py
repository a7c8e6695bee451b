"""Table 2 — the top-20 exfiltrated cookie pairs.

Paper: (_ga, googletagmanager.com) leads with 1,191 exfiltrator and 664
destination entities; Microsoft/Yandex/Pinterest are top exfiltrators and
HubSpot/Microsoft/Amazon top destinations; us_privacy is flagged as a
consent signal.
"""

from repro.analysis.reports import Study, render_table2

from conftest import banner


def test_table2(benchmark, study):
    # A Study ranks on first use and slices after, so each round times
    # the ranking on a fresh Study over the same accumulator.
    rows = benchmark.pedantic(
        Study.table2,
        setup=lambda: ((Study.from_accumulator(study.accumulator), 20), {}),
        rounds=10)
    banner("Table 2 — most exfiltrated cookies",
           "top row (_ga, googletagmanager.com); HubSpot/Microsoft/Amazon "
           "as destinations")
    print(render_table2(rows))
    assert rows[0].cookie_name == "_ga"
    top_entities = set()
    for row in rows[:5]:
        top_entities.update(row.top_destinations)
    assert top_entities & {"HubSpot", "Microsoft", "Amazon", "Google",
                           "Yandex", "Criteo", "LiveIntent"}
