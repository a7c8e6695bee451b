"""An Adblock-Plus-syntax filter engine (the paper's ``adblockparser``).

§4.3: tracking/advertising scripts are identified by matching URLs against
nine crowd-sourced filter lists.  This module implements the rule syntax
subset those lists rely on:

* ``||domain.com^`` — domain anchor (the dominant rule form);
* ``|https://exact`` — start anchor;
* plain substrings with ``*`` wildcards and ``^`` separator placeholders;
* ``@@`` exception rules;
* options: ``$script``, ``$image``, ``$third-party``, ``$~third-party``,
  ``$domain=a.com|~b.com``.

Rules are parsed when a list is built and bucketed by a domain key, so
matching a URL is a handful of dict probes, not a scan of every rule.
A ``||domain^`` rule decides a *plain* URL by its host alone: it
matches when the host is the domain or ends in ``.domain``, which is
what its regex decides for that shape.  A plain URL is a lower-case
scheme, ``://``, a host made only of word characters, ``.``, ``%`` and
``-``, an optional numeric port, then ``/``, ``?``, ``#`` or the end;
the crawl's script URLs all are.  Every other rule form, and every
other URL shape, goes through the rule's anchored regular expression,
compiled the first time a URL reaches it and kept, so a study of plain
URLs compiles only the unanchored rules it reaches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FilterRule", "FilterRuleError", "FilterList", "RuleOptions"]

_SEPARATOR_RE = r"[^\w.%-]"  # ABP '^' placeholder

#: The authority after the first ``://``: optional userinfo (through
#: the last ``@``), the host, and an optional trailing dot before the
#: port or path.
_AUTHORITY_RE = re.compile(r"://(?:[^/?#]*@)?([^/?#:]*?)\.?(?=[/?#:]|$)")

#: A plain URL; group 1 is its host.  On this shape the regex of a
#: ``||domain^`` rule matches exactly when the host is ``domain`` or
#: ends in ``.domain``: the scheme is one the regex accepts, and the
#: host holds no ``^`` separator, so the separator after ``domain`` can
#: only be whatever ends the host.
_PLAIN_URL_RE = re.compile(
    r"[a-z][a-z0-9+.-]*://([\w.%-]*)(?::[0-9]*)?(?=[/?#]|\Z)")

#: The one rule form that decides plain URLs by host: ``||domain^``.
_HOST_RULE_RE = re.compile(r"\|\|([\w.%-]+)\^")


class FilterRuleError(ValueError):
    """Raised for rule text the engine cannot parse."""


@dataclass(frozen=True)
class RuleOptions:
    """Parsed ``$...`` options of one rule."""

    resource_types: Tuple[str, ...] = ()     # empty = any
    third_party: Optional[bool] = None       # None = either
    include_domains: Tuple[str, ...] = ()
    exclude_domains: Tuple[str, ...] = ()

    def permits(self, *, resource_type: str, is_third_party: bool,
                page_domain: str) -> bool:
        if self.resource_types and resource_type not in self.resource_types:
            return False
        if self.third_party is not None and is_third_party != self.third_party:
            return False
        if self.include_domains and page_domain not in self.include_domains:
            return False
        if page_domain in self.exclude_domains:
            return False
        return True


_KNOWN_TYPES = {"script", "image", "stylesheet", "xhr", "fetch", "beacon",
                "subdocument", "document", "other"}


class FilterRule:
    """One parsed filter rule.

    A ``||domain^`` rule decides a plain URL by its host (see the module
    docstring) and compiles nothing for it.  Any other rule, or URL,
    goes through the rule's regex, compiled on first use.  Parsing
    raises :class:`FilterRuleError` for every rule the engine cannot
    use.  Compiling cannot fail, because :meth:`_to_regex` escapes every
    literal, so deferring it changes no decision.
    """

    def __init__(self, text: str):
        raw = text.strip()
        if not raw or raw.startswith("!") or raw.startswith("["):
            raise FilterRuleError(f"comment/metadata line: {text!r}")
        if "##" in raw or "#@#" in raw or "#?#" in raw:
            raise FilterRuleError(f"cosmetic rule unsupported: {text!r}")
        self.text = raw
        self.is_exception = raw.startswith("@@")
        if self.is_exception:
            raw = raw[2:]
        raw, self.options = self._split_options(raw)
        if not raw:
            raise FilterRuleError(f"empty pattern: {text!r}")
        # Adblock Plus matches case-insensitively unless a rule says
        # $match-case, an option this engine refuses; URLs are
        # lower-cased before matching (FilterList.should_block).
        self.pattern = raw.lower()
        self.anchor_domain = self._extract_anchor_domain(raw)
        host_rule = _HOST_RULE_RE.fullmatch(self.pattern)
        #: The domain of a ``||domain^`` rule, else ``None``.
        self._host_domain = host_rule.group(1) if host_rule else None
        self._regex: Optional[re.Pattern] = None

    # -- parsing ----------------------------------------------------------
    @staticmethod
    def _split_options(raw: str) -> Tuple[str, RuleOptions]:
        dollar = raw.rfind("$")
        if dollar <= 0 or "/" in raw[dollar:]:
            return raw, RuleOptions()
        pattern, opts_text = raw[:dollar], raw[dollar + 1:]
        types: List[str] = []
        third_party: Optional[bool] = None
        include: List[str] = []
        exclude: List[str] = []
        for opt in opts_text.split(","):
            opt = opt.strip()
            if not opt:
                continue
            if opt == "third-party":
                third_party = True
            elif opt == "~third-party":
                third_party = False
            elif opt.startswith("domain="):
                for dom in opt[len("domain="):].split("|"):
                    dom = dom.strip().lower()
                    if dom.startswith("~"):
                        exclude.append(dom[1:])
                    elif dom:
                        include.append(dom)
            elif opt in _KNOWN_TYPES:
                types.append(opt)
            elif opt.startswith("~") and opt[1:] in _KNOWN_TYPES:
                pass  # negated types: treat as "any" (rare in our lists)
            else:
                # Unknown options make the rule unusable (adblockparser
                # behaves the same way).
                raise FilterRuleError(f"unsupported option {opt!r}")
        return pattern, RuleOptions(tuple(types), third_party,
                                    tuple(include), tuple(exclude))

    @staticmethod
    def _extract_anchor_domain(pattern: str) -> Optional[str]:
        if not pattern.startswith("||"):
            return None
        body = pattern[2:]
        for index, char in enumerate(body):
            if char in "/^*$?":
                body = body[:index]
                break
        return body.lower() or None

    @staticmethod
    def _to_regex(pattern: str) -> str:
        if pattern.startswith("||"):
            rest = pattern[2:]
            prefix = r"^[a-z][a-z0-9+.-]*://([^/?#]*\.)?"
        elif pattern.startswith("|"):
            rest = pattern[1:]
            prefix = "^"
        else:
            rest = pattern
            prefix = ""
        end = ""
        if rest.endswith("|"):
            rest = rest[:-1]
            end = "$"
        out: List[str] = []
        for char in rest:
            if char == "*":
                out.append(".*")
            elif char == "^":
                out.append(f"(?:{_SEPARATOR_RE}|$)")
            else:
                out.append(re.escape(char))
        return prefix + "".join(out) + end

    # -- matching -----------------------------------------------------------
    def matches(self, url: str, *, resource_type: str = "script",
                page_domain: str = "", is_third_party: bool = True) -> bool:
        host = _plain_host(url) if self._host_domain is not None else None
        return self._match(url, host, resource_type=resource_type,
                           page_domain=page_domain,
                           is_third_party=is_third_party)

    def _match(self, url: str, host: Optional[str], *, resource_type: str,
               page_domain: str, is_third_party: bool) -> bool:
        """:meth:`matches`, given ``url``'s :func:`_plain_host`."""
        if not self.options.permits(resource_type=resource_type,
                                    is_third_party=is_third_party,
                                    page_domain=page_domain):
            return False
        domain = self._host_domain
        if domain is not None and host is not None:
            return host == domain or host.endswith("." + domain)
        regex = self._regex
        if regex is None:
            # Two threads may both compile here; they build equal
            # patterns, so keeping either is safe.
            regex = self._regex = re.compile(self._to_regex(self.pattern))
        return regex.search(url) is not None

    def __repr__(self) -> str:
        return f"FilterRule({self.text!r})"


class FilterList:
    """A set of rules with domain-bucketed matching."""

    #: Decision-cache entries kept before the cache resets.  URL corpora
    #: in one study are far smaller than this; the cap only bounds
    #: pathological inputs.
    _CACHE_LIMIT = 1 << 16

    def __init__(self, rules_text: Iterable[str], name: str = "filterlist"):
        self.name = name
        self._by_domain: Dict[str, List[FilterRule]] = {}
        self._unanchored: List[FilterRule] = []
        self._exceptions: List[FilterRule] = []
        self.skipped: List[str] = []
        self._decision_cache: Dict[Tuple, bool] = {}
        for line in rules_text:
            try:
                rule = FilterRule(line)
            except FilterRuleError:
                self.skipped.append(line)
                continue
            if rule.is_exception:
                self._exceptions.append(rule)
            elif rule.anchor_domain is not None:
                self._by_domain.setdefault(rule.anchor_domain, []).append(rule)
            else:
                self._unanchored.append(rule)

    @property
    def rules(self) -> List[FilterRule]:
        """Every rule: the domain buckets', the unanchored, the exceptions."""
        return ([rule for bucket in self._by_domain.values()
                 for rule in bucket]
                + self._unanchored + self._exceptions)

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    def _candidate_rules(self, host: str) -> Iterable[FilterRule]:
        probe = host
        while probe:
            for rule in self._by_domain.get(probe, ()):
                yield rule
            if "." not in probe:
                break
            probe = probe.split(".", 1)[1]
        yield from self._unanchored

    def should_block(self, url: str, *, resource_type: str = "script",
                     page_domain: str = "", is_third_party: bool = True) -> bool:
        """Would this URL occurrence be classified ad/tracking?

        ``url`` is decided like its lower-case form, and an absolute
        ``scheme://`` URL also without the userinfo and the trailing dot
        of its host.  A scheme-relative ``//host/x.js`` is not an
        absolute URL: its host is not parsed, so only unanchored rules
        can match it.  The URL is parsed once per call; if it is plain,
        its host picks the candidate rules and decides each
        ``||domain^`` rule among them.
        """
        url = _AUTHORITY_RE.sub(r"://\1", url.lower(), count=1)
        host = _plain_host(url)
        hit = any(rule._match(url, host, resource_type=resource_type,
                              page_domain=page_domain,
                              is_third_party=is_third_party)
                  for rule in self._candidate_rules(
                      _host_of(url) if host is None else host))
        if not hit:
            return False
        return not any(exc._match(url, host, resource_type=resource_type,
                                  page_domain=page_domain,
                                  is_third_party=is_third_party)
                       for exc in self._exceptions)

    @property
    def domain_sensitive(self) -> bool:
        """Whether any rule's outcome can depend on the page domain.

        Only ``$domain=`` options read ``page_domain``; lists without
        them (all nine synthetic snapshots) decide identically for every
        page, so the decision cache may drop the page domain from its
        key and one site's answers serve the whole study.
        """
        return any(rule.options.include_domains or
                   rule.options.exclude_domains for rule in self.rules)

    def should_block_cached(self, url: str, *, resource_type: str = "script",
                            page_domain: str = "",
                            is_third_party: bool = True) -> bool:
        """:meth:`should_block` behind a memo table.

        Study aggregation asks about the same script URLs once per site
        that embeds them; the full rule walk runs once per distinct
        decision instead.  Safe because a ``FilterList``'s rules never
        change after construction, and what it memoizes (this table,
        :attr:`domain_sensitive`, each rule's compiled regex) changes no
        decision.
        """
        sensitive = self.__dict__.get("_domain_sensitive")
        if sensitive is None:
            sensitive = self._domain_sensitive = self.domain_sensitive
        key = (url, resource_type, is_third_party,
               page_domain if sensitive else "")
        cache = self._decision_cache
        verdict = cache.get(key)
        if verdict is None:
            if len(cache) >= self._CACHE_LIMIT:
                cache.clear()
            verdict = cache[key] = self.should_block(
                url, resource_type=resource_type, page_domain=page_domain,
                is_third_party=is_third_party)
        return verdict

    @classmethod
    def combine(cls, lists: Sequence["FilterList"],
                name: str = "combined") -> "FilterList":
        combined = cls((), name=name)
        for flist in lists:
            for domain, rules in flist._by_domain.items():
                combined._by_domain.setdefault(domain, []).extend(rules)
            combined._unanchored.extend(flist._unanchored)
            combined._exceptions.extend(flist._exceptions)
            combined.skipped.extend(flist.skipped)
        return combined


def _plain_host(url: str) -> Optional[str]:
    """The host of a plain URL, or ``None`` for any other URL shape."""
    match = _PLAIN_URL_RE.match(url)
    return match.group(1) if match is not None else None


def _host_of(url: str) -> str:
    rest = url.split("://", 1)[-1]
    host = rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0]
    return host.split(":", 1)[0]
