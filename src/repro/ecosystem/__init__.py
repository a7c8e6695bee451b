"""Synthetic web ecosystem calibrated to the paper's measurements.

The names below load on first use (PEP 562): the analysis imports
``catalog`` and ``services`` without paying for ``behaviors``, which
pulls in the browser simulator and numpy.
"""

import importlib

#: Each public name and the submodule that defines it, in ``__all__``
#: order.
_LAZY = {name: module for module, names in (
    (".behaviors", "ARCHETYPES build_behavior first_party_behavior"),
    (".catalog", "NAMED_SERVICES SSO_PROVIDER_KEYS TAG_MANAGER_KEYS "
                 "full_catalog generic_services service_index"),
    (".identifiers", "SIM_EPOCH IdFactory"),
    (".population", "POPULATION_VERSION Population PopulationConfig "
                    "generate_population synthesize_site"),
    (".services", "DAY YEAR CookieSpec ServiceSpec"),
    (".site", "FirstPartyConfig FunctionalDep SiteSpec SsoFlow"),
) for name in names.split()}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value
