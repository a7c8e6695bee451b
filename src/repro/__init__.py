"""repro — a full reproduction of *CookieGuard: Characterizing and
Isolating the First-Party Cookie Jar* (IMC 2025).

Layers (bottom-up):

* :mod:`repro.net` — PSL/eTLD+1, DNS with CNAME cloaking, URLs, HTTP.
* :mod:`repro.cookies` — RFC 6265 cookie model and jar.
* :mod:`repro.browser` — deterministic browser simulator (frames/SOP,
  JS call stack, event loop, ``document.cookie``/``CookieStore``, network
  with initiator attribution, page-load timing model).
* :mod:`repro.extension` — the Chrome-extension surfaces and the paper's
  measurement extension.
* :mod:`repro.cookieguard` — **the paper's contribution**: per-script-domain
  isolation of the first-party cookie jar.
* :mod:`repro.ecosystem` — synthetic tracker/site ecosystem calibrated to
  the paper's measurements.
* :mod:`repro.crawler` — the Selenium-style crawl harness.
* :mod:`repro.faults` — seeded deterministic fault injection for
  chaos-testing the distributed crawl runtime.
* :mod:`repro.analysis` — filter lists, entity map, cross-domain access
  detection, exfiltration detection, and table/figure generators.
* :mod:`repro.evaluation` — Figure 5 / Table 3 / Table 4 evaluations.

The names this package exports load on first use (PEP 562), as do
those of :mod:`repro.crawler` and :mod:`repro.ecosystem`: ``import
repro`` loads no layer, and a process that only analyzes or serves
shards never imports the browser simulator, CookieGuard or numpy.

Quickstart::

    from repro import Browser, CookieGuardExtension, Script

    browser = Browser()
    browser.install(CookieGuardExtension())
    page = browser.visit(
        "https://example.com/",
        scripts=[Script.external("https://tracker.test/t.js",
                                 behavior=my_behavior)],
    )
"""

import importlib

__version__ = "1.0.0"

#: Each public name and the submodule that defines it, in ``__all__``
#: order.  ``__getattr__`` imports the submodule the first time the name
#: is read.
_LAZY = {name: module for module, names in (
    (".browser", "Browser Page Script"),
    (".cookieguard", "AccessPolicy CookieGuardExtension Decision InlineMode "
                     "PolicyConfig"),
    (".cookies", "Cookie CookieJar"),
    (".extension", "InstrumentationExtension"),
    (".net", "URL Origin parse_url registrable_domain"),
) for name in names.split()}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value
