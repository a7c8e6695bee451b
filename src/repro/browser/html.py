"""A minimal HTML layer: site markup rendering and script extraction.

Real crawls start from markup: the browser parses the landing page's HTML
and executes its ``<script>`` tags in document order.  This module gives
the simulator that surface:

* :func:`render_page_html` — serialize a page skeleton with script tags
  (used by the ecosystem to emit what a site's landing page looks like);
* :class:`HtmlParser` — a small tokenizer for the subset the simulator
  needs: elements, attributes (quoted/unquoted), comments, and raw-text
  script bodies;
* :func:`extract_scripts` — the document-order list of external script
  URLs and inline markers, ready to attach behaviours to.

The parser is intentionally not a full HTML5 tree builder; it is a
faithful tokenizer for well-formed markup, which is all the synthetic
ecosystem emits.  Round-trip fidelity (render → parse → same script list)
is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["HtmlTag", "ParsedScript", "HtmlParser", "extract_scripts",
           "render_page_html"]

_VOID_TAGS = {"meta", "link", "img", "br", "hr", "input", "ins"}


@dataclass(frozen=True)
class HtmlTag:
    """One start tag with its attributes (document order preserved)."""

    name: str
    attributes: Dict[str, str]
    self_closing: bool = False
    position: int = 0


@dataclass(frozen=True)
class ParsedScript:
    """A ``<script>`` occurrence in markup."""

    src: Optional[str]          # None => inline
    body: str = ""
    attributes: Dict[str, str] = field(default_factory=dict)
    position: int = 0

    @property
    def is_inline(self) -> bool:
        return self.src is None


class HtmlParseError(ValueError):
    """Raised on markup the tokenizer cannot interpret."""


class HtmlParser:
    """Tokenizes a well-formed HTML document."""

    def __init__(self, markup: str):
        self.markup = markup
        self.tags: List[HtmlTag] = []
        self.scripts: List[ParsedScript] = []
        self._parse()

    # ------------------------------------------------------------------
    def _parse(self) -> None:
        text = self.markup
        index = 0
        position = 0
        length = len(text)
        while index < length:
            lt = text.find("<", index)
            if lt < 0:
                break
            if text.startswith("<!--", lt):
                end = text.find("-->", lt)
                if end < 0:
                    raise HtmlParseError("unterminated comment")
                index = end + 3
                continue
            if text.startswith("<!", lt) or text.startswith("</", lt):
                gt = text.find(">", lt)
                if gt < 0:
                    raise HtmlParseError("unterminated tag")
                index = gt + 1
                continue
            gt = text.find(">", lt)
            if gt < 0:
                raise HtmlParseError("unterminated tag")
            raw = text[lt + 1:gt]
            self_closing = raw.rstrip().endswith("/")
            if self_closing:
                raw = raw.rstrip()[:-1]
            name, attributes = self._parse_tag_body(raw)
            tag = HtmlTag(name=name, attributes=attributes,
                          self_closing=self_closing, position=position)
            self.tags.append(tag)
            position += 1
            index = gt + 1
            if name == "script" and not self_closing:
                close = text.find("</script>", index)
                if close < 0:
                    raise HtmlParseError("unterminated <script>")
                body = text[index:close]
                self.scripts.append(ParsedScript(
                    src=attributes.get("src"),
                    body=body.strip(),
                    attributes=attributes,
                    position=tag.position))
                index = close + len("</script>")

    @staticmethod
    def _parse_tag_body(raw: str) -> Tuple[str, Dict[str, str]]:
        raw = raw.strip()
        if not raw:
            raise HtmlParseError("empty tag")
        parts = raw.split(None, 1)
        name = parts[0].lower()
        attributes: Dict[str, str] = {}
        rest = parts[1] if len(parts) > 1 else ""
        index = 0
        while index < len(rest):
            while index < len(rest) and rest[index].isspace():
                index += 1
            if index >= len(rest):
                break
            eq = None
            start = index
            while index < len(rest) and not rest[index].isspace() \
                    and rest[index] != "=":
                index += 1
            attr_name = rest[start:index].lower()
            while index < len(rest) and rest[index].isspace():
                index += 1
            if index < len(rest) and rest[index] == "=":
                index += 1
                while index < len(rest) and rest[index].isspace():
                    index += 1
                if index < len(rest) and rest[index] in "\"'":
                    quote = rest[index]
                    end = rest.find(quote, index + 1)
                    if end < 0:
                        raise HtmlParseError("unterminated attribute value")
                    value = rest[index + 1:end]
                    index = end + 1
                else:
                    start = index
                    while index < len(rest) and not rest[index].isspace():
                        index += 1
                    value = rest[start:index]
            else:
                value = ""  # boolean attribute
            if attr_name:
                attributes[attr_name] = value
        return name, attributes


def extract_scripts(markup: str) -> List[ParsedScript]:
    """The document-order ``<script>`` list of a page."""
    return HtmlParser(markup).scripts


def render_page_html(*, title: str, script_srcs: Sequence[str],
                     inline_bodies: Sequence[str] = (),
                     links: Sequence[str] = ()) -> str:
    """Serialize a landing-page skeleton.

    External scripts come first (matching how the crawler schedules
    markup scripts), then inline snippets, then body content with
    same-site links the interaction pass can "click".
    """
    head_parts = [f"<title>{title}</title>",
                  '<meta charset="utf-8"/>']
    for src in script_srcs:
        head_parts.append(f'<script src="{src}"></script>')
    for body in inline_bodies:
        head_parts.append(f"<script>{body}</script>")
    body_parts = ['<header class="site-header"></header>',
                  '<main class="content">']
    for href in links:
        body_parts.append(f'<a href="{href}">{href}</a>')
    body_parts.append("</main>")
    body_parts.append('<footer class="site-footer"></footer>')
    head = "\n    ".join(head_parts)
    body = "\n    ".join(body_parts)
    return (f"<!DOCTYPE html>\n<html>\n  <head>\n    {head}\n  </head>\n"
            f"  <body>\n    {body}\n  </body>\n</html>\n")
