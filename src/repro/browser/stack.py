"""The JS call stack and script attribution.

The paper's instrumentation derives "the calling script's URL from the
stack trace" (§4.1), and CookieGuard infers the cookie writer "by analyzing
the JavaScript stack trace to locate the last external script URL" (§6.2).
This module models that stack:

* Every executing script pushes a :class:`StackFrame`.
* Timer/promise callbacks push frames marked ``async_boundary=True``;
  plain stack walking stops there (the §8 limitation), while *async stack
  traces* see through the boundary.
* Attribution = innermost frame that carries an external script URL.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .scripts import Script

__all__ = ["StackFrame", "CallStack", "StackSnapshot"]


@dataclass(frozen=True)
class StackFrame:
    """One frame on the JS stack."""

    script: Script
    async_boundary: bool = False


def _attribute(frames, async_traces: bool) -> Optional[Script]:
    """The last external script in ``frames`` (innermost last)."""
    for frame in reversed(frames):
        if frame.script.url is not None:
            return frame.script
        if frame.async_boundary and not async_traces:
            return None
    return None


def _attributed_urls(frames) -> Tuple[str, ...]:
    return tuple(str(f.script.url) for f in frames
                 if f.script.url is not None)


@dataclass(frozen=True)
class StackSnapshot:
    """An immutable copy of the stack, innermost frame last.

    This is what DOM mutation logs record.  Network requests and
    cookie-access logs read the same facts off the live
    :class:`CallStack` instead, mirroring
    ``Network.requestWillBeSent.initiator.stack``.
    """

    frames: Tuple[StackFrame, ...]

    def attribute(self, *, async_traces: bool = True) -> Optional[Script]:
        """The last *external* script on the stack, or None.

        With ``async_traces=False`` the walk stops at the first async
        boundary (seen from the innermost frame outward), reproducing the
        attribution loss for ``setTimeout``-style callbacks described in
        §8.  Frames *above* (inside) the boundary are still visible — the
        callback itself is on the stack — so the loss only bites when the
        callback frame is inline or extension-owned.
        """
        return _attribute(self.frames, async_traces)

    def attributed_urls(self) -> Tuple[str, ...]:
        """Script URLs outermost-first (what the devtools stack shows)."""
        return _attributed_urls(self.frames)

    def innermost(self) -> Optional[StackFrame]:
        return self.frames[-1] if self.frames else None

    def __len__(self) -> int:
        return len(self.frames)


class CallStack:
    """Mutable execution stack for one page.

    :meth:`attribute` and :meth:`attributed_urls` walk the live frames
    and give what the same calls on :meth:`snapshot` would, without
    copying the stack.
    """

    def __init__(self) -> None:
        self._frames: List[StackFrame] = []

    @contextmanager
    def executing(self, script: Script, *, async_boundary: bool = False) -> Iterator[None]:
        """Context manager: push a frame for ``script`` while it runs."""
        frame = StackFrame(script=script, async_boundary=async_boundary)
        self._frames.append(frame)
        try:
            yield
        finally:
            popped = self._frames.pop()
            if popped is not frame:  # pragma: no cover — programming error
                raise RuntimeError("call stack corrupted")

    def snapshot(self) -> StackSnapshot:
        return StackSnapshot(frames=tuple(self._frames))

    def current_script(self) -> Optional[Script]:
        return self._frames[-1].script if self._frames else None

    def attribute(self, *, async_traces: bool = True) -> Optional[Script]:
        """Attribution of the *live* stack (see :class:`StackSnapshot`)."""
        return _attribute(self._frames, async_traces)

    def attributed_urls(self) -> Tuple[str, ...]:
        """Script URLs of the live stack, outermost first."""
        return _attributed_urls(self._frames)

    @property
    def depth(self) -> int:
        return len(self._frames)

    @property
    def empty(self) -> bool:
        return not self._frames
