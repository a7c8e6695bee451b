"""Frame tree and Same-Origin Policy enforcement.

Figure 1 of the paper: a cross-origin iframe is isolated from the main
frame (SOP), but *every* script running in the main frame — first- or
third-party — shares the main frame's origin and therefore its cookie jar
and DOM.  This module enforces exactly that boundary: cross-origin frame
access raises :class:`SopViolation`, while in-frame script access is
unrestricted.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..net.url import URL, Origin

__all__ = ["Frame", "SopViolation"]

_frame_ids = itertools.count(1)


class SopViolation(PermissionError):
    """Raised when a script crosses an origin boundary SOP forbids."""


class Frame:
    """One browsing context (main frame or iframe)."""

    def __init__(self, url: URL, parent: Optional["Frame"] = None,
                 sandboxed: bool = False):
        self.url = url
        self.parent = parent
        self.children: List["Frame"] = []
        self.sandboxed = sandboxed
        self.frame_id = next(_frame_ids)
        if parent is not None:
            parent.children.append(self)

    @property
    def origin(self) -> Origin:
        if self.sandboxed:
            return Origin.opaque()
        return self.url.origin

    @property
    def is_main(self) -> bool:
        return self.parent is None

    @property
    def top(self) -> "Frame":
        frame = self
        while frame.parent is not None:
            frame = frame.parent
        return frame

    def can_access(self, other: "Frame") -> bool:
        """SOP check: may script in ``self`` touch ``other``'s resources?"""
        return self.origin.same_origin(other.origin)

    def require_access(self, other: "Frame") -> None:
        """Raise :class:`SopViolation` unless access is allowed.

        This is the protection the paper's threat model *excludes* from
        scope: iframe-contained scripts are already constrained, which is
        why the adversary must run in the main frame.
        """
        if not self.can_access(other):
            raise SopViolation(
                f"{self.origin} may not access {other.origin} (SOP)"
            )

    def descendants(self) -> List["Frame"]:
        out: List[Frame] = []
        for child in self.children:
            out.append(child)
            out.extend(child.descendants())
        return out

    def __repr__(self) -> str:
        kind = "main" if self.is_main else ("sandboxed iframe" if self.sandboxed else "iframe")
        return f"Frame({kind} {self.origin})"
