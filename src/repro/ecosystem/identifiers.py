"""Realistic identifier formats for synthetic cookies.

The exfiltration detector (§4.4) splits cookie values on non-alphanumeric
delimiters and keeps candidate identifiers of ≥ 8 characters, then matches
them (plain, Base64, MD5, SHA1) inside outbound query strings.  For that
pipeline to be exercised honestly, the synthetic ecosystem must emit
identifiers with the real formats the paper quotes:

* ``_ga``: ``GA1.1.444332364.1746838827`` — version, domain depth,
  pseudonymous client id, first-visit timestamp;
* ``_fbp``: ``fb.0.1746746266109.868308499845957651`` — millisecond
  timestamp and a Facebook-assigned browser id;
* ``_awl``: ``count.timestamp.session_id`` (Admiral SDK via cookieStore);
* ``us_privacy``: the IAB CCPA consent string, e.g. ``1YNN`` — a consent
  *signal*, intentionally too short to be a candidate identifier;
* long hash-format bundles like Criteo's ``cto_bundle`` (~194 chars).

All generation flows through a seeded ``numpy`` generator, so the whole
crawl is reproducible.  A string of n random characters is one
``integers(0, k, size=n)`` call: numpy fills the array with the same
bounded draws, from the same stream, as n scalar ``integers(0, k)``
calls, so the strings and the generator state afterwards match the
one-draw-per-character loop.
"""

from __future__ import annotations

import string
from typing import Optional

import numpy as np

__all__ = [
    "IdFactory",
    "SIM_EPOCH",
]

#: Seconds assigned to the simulator's "wall clock zero" (2025-05-09, close
#: to the timestamps in the paper's case studies).
SIM_EPOCH = 1_746_800_000

_B64_ALPHABET = string.ascii_letters + string.digits
_HEX = "0123456789abcdef"


def _lookup(alphabet: str) -> np.ndarray:
    """``alphabet`` as a byte array, indexed by a draw array."""
    return np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)


_DIGIT_BYTES = _lookup(string.digits)
_HEX_BYTES = _lookup(_HEX)
_B64_BYTES = _lookup(_B64_ALPHABET)


class IdFactory:
    """Deterministic identifier generator bound to one RNG."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    # -- building blocks ---------------------------------------------------
    def _chars(self, alphabet: np.ndarray, n: int) -> str:
        """``n`` uniform characters of ``alphabet`` in one draw call."""
        draws = self.rng.integers(0, len(alphabet), size=n)
        return alphabet[draws].tobytes().decode("ascii")

    def digits(self, n: int) -> str:
        return self._chars(_DIGIT_BYTES, n)

    def hex_string(self, n: int) -> str:
        return self._chars(_HEX_BYTES, n)

    def token(self, n: int) -> str:
        """Base64-looking alphanumeric token (no padding chars)."""
        return self._chars(_B64_BYTES, n)

    def timestamp(self) -> int:
        """A plausible Unix timestamp (seconds)."""
        return SIM_EPOCH + int(self.rng.integers(0, 90 * 86400))

    def timestamp_ms(self) -> int:
        return self.timestamp() * 1000 + int(self.rng.integers(0, 1000))

    def uuid(self) -> str:
        return "-".join(self.hex_string(n) for n in (8, 4, 4, 4, 12))

    # -- concrete cookie-value formats ---------------------------------------
    def ga_client_id(self) -> str:
        """``GA1.1.<client>.<ts>`` — the paper's optimonk.com case study."""
        return f"GA1.1.{self.digits(9)}.{self.timestamp()}"

    def ga_session_id(self) -> str:
        return f"GS1.1.{self.timestamp()}.1.1.{self.timestamp()}.0.0.0"

    def gid(self) -> str:
        return f"GA1.1.{self.digits(9)}.{self.timestamp()}"

    def gcl_au(self) -> str:
        return f"1.1.{self.digits(9)}.{self.timestamp()}"

    def fbp(self) -> str:
        """``fb.<depth>.<ts ms>.<browser id>`` — goosecreekcandle case."""
        return f"fb.1.{self.timestamp_ms()}.{self.digits(18)}"

    def fbc(self) -> str:
        return f"fb.1.{self.timestamp_ms()}.AbCd{self.token(12)}"

    def uet_vid(self) -> str:
        return self.hex_string(32)

    def uet_sid(self) -> str:
        return self.hex_string(32)

    def ym_uid(self) -> str:
        return f"{self.timestamp()}{self.digits(9)}"

    def cto_bundle(self, length: int = 194) -> str:
        """Criteo's long hash-format bundle (§5.5 collusion case study)."""
        return self.token(length)

    def awl(self) -> str:
        """Admiral's ``count.timestamp.session_id`` cookieStore cookie."""
        count = int(self.rng.integers(1, 30))
        return f"{count}.{self.timestamp()}.{self.token(16)}"

    def utma(self) -> str:
        ts = self.timestamp()
        return f"{self.digits(9)}.{self.digits(10)}.{ts}.{ts}.{ts}.1"

    def utmb(self) -> str:
        return f"{self.digits(9)}.1.10.{self.timestamp()}"

    def utmz(self) -> str:
        return (f"{self.digits(9)}.{self.timestamp()}.1.1."
                f"utmcsr=(direct)|utmccn=(direct)|utmcmd=(none)")

    def us_privacy(self) -> str:
        """IAB CCPA string; a consent signal, not a tracking identifier.

        Deployments commonly append a timestamp to the 4-char IAB string
        (``1YNN.1746838827123``); the suffix is what makes the cookie
        *detectable* by the ≥8-char identifier pipeline, matching its
        appearance in the paper's Table 2.
        """
        opt_out = "Y" if self.rng.random() < 0.3 else "N"
        return f"1Y{opt_out}{opt_out}.{self.timestamp_ms()}"

    def optanon_consent(self) -> str:
        return (f"isGpcEnabled=0&datestamp={self.timestamp()}"
                f"&version=202405.1.0&consentId={self.uuid()}"
                f"&interactionCount=1&groups=C0001:1,C0002:1,C0004:0")

    def ajs_anonymous_id(self) -> str:
        return self.uuid()

    def mkto_trk(self) -> str:
        return f"id:{self.digits(3)}-ABC-{self.digits(3)}&token:_mch-{self.token(22)}"

    def keep_alive(self) -> str:
        """Shopify performance SDK's cookieStore cookie."""
        return self.uuid()

    def hex_32(self) -> str:
        """32-char hex id (HubSpot's ``hubspotutk`` format)."""
        return self.hex_string(32)

    def hstc(self) -> str:
        """HubSpot ``__hstc``: hex id plus visit timestamps."""
        ts = self.timestamp_ms()
        return f"{self.hex_string(8)}.{self.hex_string(32)}.{ts}.{ts}.{ts}.1"

    def lotame_check(self) -> str:
        return f"{self.timestamp_ms()}"

    def utag_main(self) -> str:
        """Tealium's ``utag_main`` multi-field format."""
        ts = self.timestamp_ms()
        return (f"v_id:{self.hex_string(26)}$_sn:1$_se:1"
                f"$_ss:1$_st:{ts}$ses_id:{ts}%3Bexp-session")

    def session_token(self) -> str:
        """A first-party session id (the confidentiality risk in §3)."""
        return self.token(40)

    def short_flag(self) -> str:
        """Values below the 8-char identifier threshold (e.g. ``1``)."""
        return str(self.rng.integers(0, 2))

    def generic_id(self, length: Optional[int] = None) -> str:
        if length is None:
            length = int(self.rng.integers(12, 33))
        return self.token(length)
