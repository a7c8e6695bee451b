"""A minimal DOM with mutation attribution.

Only what the reproduction needs: an element tree, attribute/content/style
mutation, and — the part §8's pilot study measures — a mutation log that
records *which script* touched *which script's elements*.  Cross-domain DOM
modification is the paper's "beyond cookies" future-work finding (9.4% of
sites), reproduced by :mod:`repro.evaluation.dompilot`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .scripts import Script
from .stack import StackSnapshot

__all__ = ["Element", "Document", "DomMutation"]

_node_ids = itertools.count(1)


@dataclass
class DomMutation:
    """One DOM write, attributed to the acting script."""

    kind: str  # "insert" | "remove" | "set_attribute" | "set_text" | "set_style"
    target_id: int
    target_tag: str
    actor: Optional[Script]
    owner: Optional[Script]  # script that created the target element
    detail: str = ""
    stack: Optional[StackSnapshot] = None

    @property
    def is_cross_script(self) -> bool:
        """Actor and owner exist and come from different eTLD+1s."""
        if self.actor is None or self.owner is None:
            return False
        a = self.actor.attributed_domain()
        b = self.owner.attributed_domain()
        return a is not None and b is not None and a != b


class Element:
    """A DOM element; ``owner`` is the script that created it (None = markup)."""

    def __init__(self, tag: str, document: "Document",
                 owner: Optional[Script] = None):
        self.tag = tag.lower()
        self.document = document
        self.owner = owner
        self.node_id = next(_node_ids)
        self.attributes: Dict[str, str] = {}
        self.style: Dict[str, str] = {}
        self.children: List["Element"] = []
        self.parent: Optional["Element"] = None
        self.text: str = ""

    # -- reads (unrestricted in the main frame — that's the point) ------
    def get_attribute(self, name: str) -> Optional[str]:
        return self.attributes.get(name.lower())

    @property
    def id(self) -> Optional[str]:
        return self.attributes.get("id")

    def descendants(self) -> Iterable["Element"]:
        for child in self.children:
            yield child
            yield from child.descendants()

    # -- writes (attributed through the document) -----------------------
    def set_attribute(self, name: str, value: str) -> None:
        self.attributes[name.lower()] = value
        self.document._record("set_attribute", self, detail=f"{name}={value}")

    def set_text(self, text: str) -> None:
        self.text = text
        self.document._record("set_text", self, detail=text[:80])

    def set_style(self, prop: str, value: str) -> None:
        self.style[prop.lower()] = value
        self.document._record("set_style", self, detail=f"{prop}:{value}")

    def append_child(self, child: "Element") -> "Element":
        if child.parent is not None:
            child.parent.children.remove(child)
        child.parent = self
        self.children.append(child)
        self.document._record("insert", child)
        return child

    def remove(self) -> None:
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        self.document._record("remove", self)

    def __repr__(self) -> str:
        ident = f"#{self.attributes['id']}" if "id" in self.attributes else ""
        return f"<{self.tag}{ident} node={self.node_id}>"


class Document:
    """The element tree of one frame plus its attributed mutation log."""

    def __init__(self, current_script: Callable[[], Optional[Script]],
                 snapshot: Optional[Callable[[], StackSnapshot]] = None):
        self._current_script = current_script
        self._snapshot = snapshot
        self.mutations: List[DomMutation] = []
        self.root = Element("html", self)
        self.head = Element("head", self)
        self.body = Element("body", self)
        self.root.children = [self.head, self.body]
        self.head.parent = self.root
        self.body.parent = self.root
        self.mutations.clear()  # bootstrap structure is not scripted

    def create_element(self, tag: str) -> Element:
        return Element(tag, self, owner=self._current_script())

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        for element in self.root.descendants():
            if element.attributes.get("id") == element_id:
                return element
        return None

    def get_elements_by_tag(self, tag: str) -> List[Element]:
        tag = tag.lower()
        return [e for e in self.root.descendants() if e.tag == tag]

    def _record(self, kind: str, target: Element, detail: str = "") -> None:
        self.mutations.append(DomMutation(
            kind=kind,
            target_id=target.node_id,
            target_tag=target.tag,
            actor=self._current_script(),
            owner=target.owner,
            detail=detail,
            stack=self._snapshot() if self._snapshot else None,
        ))

    def cross_script_mutations(self) -> List[DomMutation]:
        """Mutations where a script touched another domain's element."""
        return [m for m in self.mutations if m.is_cross_script]
