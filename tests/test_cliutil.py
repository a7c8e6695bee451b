"""Edge cases of the shared CLI flag parser (``repro.cliutil``).

Every consumer (``python -m repro``, the example/benchmark scripts, and
``scripts/full_scale_run.py``) funnels through these four functions, so
the conventions — last-occurrence-wins repeats, ``--`` passthrough,
minimum validation for ``--jobs``/``--shards`` — are locked in
here once.
"""

from __future__ import annotations

import pytest

from repro.cliutil import (
    pop_choice_flag,
    pop_flag,
    pop_float_flag,
    pop_int_flag,
    pop_switch,
    reject_unknown_flags,
)


class TestPopFlag:
    def test_space_and_equals_forms(self):
        args = ["--jobs", "4", "rest"]
        assert pop_flag(args, "--jobs") == "4"
        assert args == ["rest"]
        args = ["--jobs=7", "rest"]
        assert pop_flag(args, "--jobs") == "7"
        assert args == ["rest"]

    def test_missing_flag_returns_none(self):
        args = ["100", "out.jsonl"]
        assert pop_flag(args, "--jobs") is None
        assert args == ["100", "out.jsonl"]

    def test_repeated_flag_last_wins(self):
        args = ["--jobs", "2", "100", "--jobs=8"]
        assert pop_flag(args, "--jobs") == "8"
        assert args == ["100"]

    def test_repeated_mixed_forms_last_wins(self):
        args = ["--jobs=3", "--jobs", "5"]
        assert pop_flag(args, "--jobs") == "5"
        assert args == []

    def test_missing_value_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            pop_flag(["--jobs"], "--jobs")
        assert exc.value.code == 2

    def test_value_cannot_be_the_passthrough_marker(self):
        with pytest.raises(SystemExit) as exc:
            pop_flag(["--jobs", "--", "positional"], "--jobs")
        assert exc.value.code == 2

    def test_flag_after_double_dash_is_positional(self):
        args = ["--jobs", "2", "--", "--jobs", "9"]
        assert pop_flag(args, "--jobs") == "2"
        assert args == ["--", "--jobs", "9"]


class TestPopIntFlag:
    def test_default_when_absent(self):
        assert pop_int_flag([], "--jobs", 1, minimum=1) == 1

    def test_parses_value(self):
        args = ["--shards", "16"]
        assert pop_int_flag(args, "--shards", 1, minimum=1) == 16
        assert args == []

    def test_non_integer_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            pop_int_flag(["--shards", "many"], "--shards", 1)
        assert exc.value.code == 2

    def test_zero_below_minimum_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            pop_int_flag(["--jobs", "0"], "--jobs", 1, minimum=1)
        assert exc.value.code == 2

    def test_negative_below_minimum_exits_2(self):
        for flag, raw in (("--jobs", "-2"), ("--shards", "-64")):
            with pytest.raises(SystemExit) as exc:
                pop_int_flag([flag, raw], flag, 1, minimum=1)
            assert exc.value.code == 2

    def test_negative_allowed_without_minimum(self):
        assert pop_int_flag(["--offset", "-5"], "--offset", 0) == -5

    def test_repeated_validates_the_winning_value(self):
        args = ["--shards", "0", "--shards", "4"]
        assert pop_int_flag(args, "--shards", 1, minimum=1) == 4


class TestPopSwitch:
    def test_present_and_absent(self):
        args = ["--gzip", "100"]
        assert pop_switch(args, "--gzip") is True
        assert args == ["100"]
        assert pop_switch(args, "--gzip") is False

    def test_repeated_switch_fully_consumed(self):
        args = ["--progress", "100", "--progress"]
        assert pop_switch(args, "--progress") is True
        assert args == ["100"]

    def test_switch_after_double_dash_is_positional(self):
        args = ["--", "--gzip"]
        assert pop_switch(args, "--gzip") is False
        assert args == ["--", "--gzip"]


class TestRejectUnknownFlags:
    def test_clean_args_pass(self):
        args = ["100", "out.jsonl"]
        reject_unknown_flags(args)
        assert args == ["100", "out.jsonl"]

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            reject_unknown_flags(["--typo", "100"])
        assert exc.value.code == 2

    def test_double_dash_passthrough(self):
        # ``crawl -- -1``: the -1 is positional, not a flag typo.
        args = ["--", "-1", "--not-a-flag"]
        reject_unknown_flags(args)
        assert args == ["-1", "--not-a-flag"]

    def test_flags_before_marker_still_rejected(self):
        with pytest.raises(SystemExit) as exc:
            reject_unknown_flags(["--typo", "--", "-1"])
        assert exc.value.code == 2


class TestPopChoiceFlag:
    CHOICES = ["inprocess", "pool", "subprocess"]

    def test_absent_returns_default(self):
        assert pop_choice_flag([], "--backend", self.CHOICES) is None
        assert pop_choice_flag([], "--backend", self.CHOICES,
                               default="pool") == "pool"

    def test_valid_choice_extracted(self):
        args = ["--backend", "pool", "120"]
        assert pop_choice_flag(args, "--backend", self.CHOICES) == "pool"
        assert args == ["120"]

    def test_equals_form(self):
        args = ["--backend=subprocess"]
        assert pop_choice_flag(args, "--backend",
                               self.CHOICES) == "subprocess"

    def test_invalid_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            pop_choice_flag(["--backend", "cluster"], "--backend",
                            self.CHOICES)
        assert exc.value.code == 2

    def test_repeated_validates_the_winning_value(self):
        args = ["--backend", "cluster", "--backend", "pool"]
        assert pop_choice_flag(args, "--backend", self.CHOICES) == "pool"

    def test_choice_after_double_dash_is_positional(self):
        args = ["--", "--backend", "pool"]
        assert pop_choice_flag(args, "--backend", self.CHOICES) is None
        assert args == ["--", "--backend", "pool"]


class TestEndToEndParse:
    def test_crawl_style_parse(self):
        """The exact sequence ``_run_crawl`` performs."""
        args = ["--jobs", "2", "--shards=16", "--gzip", "120",
                "--progress", "--", "out dir"]
        assert pop_int_flag(args, "--jobs", 1, minimum=1) == 2
        assert pop_int_flag(args, "--shards", 0, minimum=1) == 16
        assert pop_switch(args, "--gzip") is True
        assert pop_switch(args, "--progress") is True
        reject_unknown_flags(args)
        assert args == ["120", "out dir"]

    def test_distributed_crawl_style_parse(self):
        """The distributed variant: backend, cache dir, retries."""
        args = ["--backend=pool", "--cache-dir", "shard-cache",
                "--max-retries", "3", "--shards", "4", "200", "out"]
        assert pop_int_flag(args, "--jobs", 1, minimum=1) == 1
        assert pop_int_flag(args, "--shards", 0, minimum=1) == 4
        assert pop_choice_flag(args, "--backend",
                               ["inprocess", "pool", "subprocess"]) == "pool"
        assert pop_flag(args, "--cache-dir") == "shard-cache"
        assert pop_int_flag(args, "--max-retries", 2, minimum=0) == 3
        reject_unknown_flags(args)
        assert args == ["200", "out"]

    def test_negative_max_retries_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            pop_int_flag(["--max-retries", "-1"], "--max-retries", 2,
                         minimum=0)
        assert exc.value.code == 2


class TestPopFloatFlag:
    def test_default_when_absent(self):
        assert pop_float_flag([], "--task-timeout") is None
        assert pop_float_flag([], "--store-backoff", 0.1) == 0.1

    def test_parses_value(self):
        args = ["--task-timeout", "90.5", "run"]
        assert pop_float_flag(args, "--task-timeout") == 90.5
        assert args == ["run"]

    def test_accepts_integer_literals(self):
        assert pop_float_flag(["--task-timeout=120"],
                              "--task-timeout") == 120.0

    def test_non_number_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            pop_float_flag(["--task-timeout", "soon"], "--task-timeout")
        assert exc.value.code == 2

    def test_below_minimum_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            pop_float_flag(["--store-backoff", "-0.5"],
                           "--store-backoff", 0.1, minimum=0)
        assert exc.value.code == 2

    def test_inclusive_minimum_admits_the_bound(self):
        assert pop_float_flag(["--store-backoff", "0"],
                              "--store-backoff", 0.1, minimum=0) == 0.0

    def test_exclusive_minimum_rejects_the_bound(self):
        # A task timeout of exactly zero would kill every worker at
        # spawn; the bound itself must be refused.
        with pytest.raises(SystemExit) as exc:
            pop_float_flag(["--task-timeout", "0"], "--task-timeout",
                           minimum=0, exclusive_minimum=True)
        assert exc.value.code == 2

    def test_repeated_last_wins(self):
        args = ["--task-timeout", "5", "--task-timeout", "30"]
        assert pop_float_flag(args, "--task-timeout") == 30.0
        assert args == []
