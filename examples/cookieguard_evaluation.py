#!/usr/bin/env python3
"""The §7 CookieGuard evaluation: Figure 5, Table 3, and Table 4.

Run:  python examples/cookieguard_evaluation.py [n_sites]
      (default 1000)
"""

import sys

from repro.ecosystem import PopulationConfig, generate_population
from repro.evaluation import (
    evaluate_access_control,
    evaluate_breakage,
    evaluate_performance,
)


def main():
    n_sites = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    population = generate_population(PopulationConfig(n_sites=n_sites,
                                                      seed=2025))

    print("== Figure 5 — access control (paper reductions: overwrite "
          "82.2%, delete 86.2%, exfil 83.2%) ==")
    access = evaluate_access_control(population)
    print(access.render())

    print("\n== Table 3 — breakage on 100 random sites "
          "(paper: SSO 1%/11%, functionality 3%/3%) ==")
    top_k = len(population)
    plain = evaluate_breakage(population, sample_size=100, top_k=top_k)
    print(plain.render())
    whitelisted = evaluate_breakage(population, sample_size=100, top_k=top_k,
                                    use_entity_whitelist=True)
    print("\nwith the DuckDuckGo-entities whitelist (paper: SSO 11% -> 3%):")
    print(whitelisted.render())
    print(f"SSO broken: {plain.pct_sites_sso_broken:.0f}% -> "
          f"{whitelisted.pct_sites_sso_broken:.0f}%")

    print("\n== Table 4 — page-load overhead (paper: ~0.3 s mean; "
          "median ratios 1.108/1.111/1.122) ==")
    perf = evaluate_performance(population, top_k=top_k)
    print(perf.render_table4())
    print(perf.render_ratios())
    print(f"mean overhead: {perf.mean_overhead_ms():.0f} ms")


if __name__ == "__main__":
    main()
