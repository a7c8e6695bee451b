"""Table 3 — website breakage under CookieGuard.

Paper: on 100 random top-10k sites, navigation and appearance never break;
SSO breaks on 1% (minor) + 11% (major); other functionality on 3% + 3%.
The entity whitelist (§7.2) reduces SSO breakage to 3%.
"""

from repro.evaluation.breakage import evaluate_breakage

from conftest import banner


def test_table3(benchmark, population):
    top_k = len(population)
    table = benchmark.pedantic(
        evaluate_breakage, args=(population,),
        kwargs={"sample_size": 100, "top_k": top_k}, rounds=1, iterations=1)
    whitelisted = evaluate_breakage(population, sample_size=100, top_k=top_k,
                                    use_entity_whitelist=True)
    banner("Table 3 — manual breakage analysis",
           "SSO 1%/11% · functionality 3%/3% · nav+appearance 0% · "
           "whitelist → 3% SSO")
    print("without entity whitelist:")
    print(table.render())
    print("with entity whitelist:")
    print(whitelisted.render())
    print(f"SSO broken: {table.pct_sites_sso_broken:.0f}% -> "
          f"{whitelisted.pct_sites_sso_broken:.0f}%")
    assert table.minor["navigation"] == table.major["navigation"] == 0.0
    assert table.minor["appearance"] == table.major["appearance"] == 0.0
    assert table.major["sso"] >= 4.0
    assert whitelisted.pct_sites_sso_broken < table.pct_sites_sso_broken
