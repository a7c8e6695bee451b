"""Identifier format generators."""

import inspect
import string

import numpy as np
import pytest

from repro.ecosystem.identifiers import IdFactory


@pytest.fixture
def ids():
    return IdFactory(np.random.default_rng(42))


class TestFormats:
    def test_ga_client_id_format(self, ids):
        value = ids.ga_client_id()
        parts = value.split(".")
        assert parts[0] == "GA1"
        assert parts[1] == "1"
        assert len(parts[2]) == 9 and parts[2].isdigit()
        assert parts[3].isdigit()

    def test_fbp_format(self, ids):
        parts = ids.fbp().split(".")
        assert parts[0] == "fb"
        assert parts[1] == "1"
        assert len(parts[3]) == 18

    def test_awl_format(self, ids):
        count, ts, session = ids.awl().split(".")
        assert count.isdigit() and ts.isdigit()
        assert len(session) == 16

    def test_us_privacy_has_detectable_segment(self, ids):
        # IAB string + timestamp — the suffix is ≥8 alnum chars, which is
        # what makes Table 2's consent-signal row detectable.
        value = ids.us_privacy()
        assert value.startswith("1Y")
        assert any(len(seg) >= 8 for seg in value.split("."))

    def test_uuid_shape(self, ids):
        parts = ids.uuid().split("-")
        assert [len(p) for p in parts] == [8, 4, 4, 4, 12]

    def test_optanon_consent_fields(self, ids):
        value = ids.optanon_consent()
        assert "consentId=" in value and "groups=" in value

    def test_utma_fields(self, ids):
        assert len(ids.utma().split(".")) == 6

    def test_mkto_trk(self, ids):
        assert ids.mkto_trk().startswith("id:")

    def test_short_flag_below_threshold(self, ids):
        assert len(ids.short_flag()) < 8

    def test_session_token_long(self, ids):
        assert len(ids.session_token()) == 40

    def test_hex32(self, ids):
        value = ids.hex_32()
        assert len(value) == 32
        assert all(c in "0123456789abcdef" for c in value)

    def test_utag_main(self, ids):
        assert ids.utag_main().startswith("v_id:")

    def test_generic_id_custom_length(self, ids):
        assert len(ids.generic_id(50)) == 50

    def test_timestamps_plausible(self, ids):
        assert ids.timestamp() > 1_700_000_000
        assert ids.timestamp_ms() > 1_700_000_000_000


class TestDeterminism:
    def test_same_seed_same_values(self):
        a = IdFactory(np.random.default_rng(7))
        b = IdFactory(np.random.default_rng(7))
        assert a.ga_client_id() == b.ga_client_id()
        assert a.fbp() == b.fbp()

    def test_different_seeds_differ(self):
        a = IdFactory(np.random.default_rng(1))
        b = IdFactory(np.random.default_rng(2))
        assert a.uuid() != b.uuid()


class _ScalarDraws(IdFactory):
    """The reference: one scalar ``integers`` draw per character."""

    def digits(self, n: int) -> str:
        return "".join(str(self.rng.integers(0, 10)) for _ in range(n))

    def hex_string(self, n: int) -> str:
        return "".join("0123456789abcdef"[self.rng.integers(0, 16)]
                       for _ in range(n))

    def token(self, n: int) -> str:
        alphabet = string.ascii_letters + string.digits
        return "".join(alphabet[self.rng.integers(0, len(alphabet))]
                       for _ in range(n))


#: Every public IdFactory method that takes no required argument.
_FORMATS = sorted(
    name for name, fn in inspect.getmembers(IdFactory, inspect.isfunction)
    if not name.startswith("_") and all(
        p.default is not p.empty
        for p in list(inspect.signature(fn).parameters.values())[1:]))


def _pair(seed: int):
    return (IdFactory(np.random.default_rng(seed)),
            _ScalarDraws(np.random.default_rng(seed)))


def _assert_same_stream(fast: IdFactory, slow: IdFactory) -> None:
    """The generators' next draws agree: both consumed the same stream."""
    assert fast.rng.integers(0, 2**62) == slow.rng.integers(0, 2**62)
    assert fast.rng.integers(0, 62) == slow.rng.integers(0, 62)
    assert fast.rng.random() == slow.rng.random()


class TestVectorDrawEquivalence:
    """One ``integers(0, k, size=n)`` call == n scalar draws, exactly."""

    def test_formats_cover_the_factory(self):
        assert {"ga_client_id", "uuid", "cto_bundle", "generic_id",
                "utag_main"} <= set(_FORMATS)

    @pytest.mark.parametrize("method", ["digits", "hex_string", "token"])
    def test_building_blocks_match_scalar_draws(self, method):
        for seed in range(60):
            fast, slow = _pair(seed)
            # An odd leading draw leaves half a 64-bit output buffered.
            if seed % 2:
                assert fast.rng.integers(0, 10) == slow.rng.integers(0, 10)
            for n in (0, 1, 2, 7, 8, 33, 194):
                assert getattr(fast, method)(n) == \
                    getattr(slow, method)(n), (seed, n)
            _assert_same_stream(fast, slow)

    @pytest.mark.parametrize("method", _FORMATS)
    def test_every_format_matches_scalar_draws(self, method):
        for seed in range(40):
            fast, slow = _pair(seed)
            assert getattr(fast, method)() == getattr(slow, method)(), seed
            _assert_same_stream(fast, slow)

    def test_interleaved_sequence_matches_scalar_draws(self):
        for seed in range(25):
            fast, slow = _pair(1000 + seed)
            order = np.random.default_rng(seed).permutation(
                _FORMATS * 3)
            for method in order:
                assert getattr(fast, method)() == \
                    getattr(slow, method)(), (seed, method)
            _assert_same_stream(fast, slow)
