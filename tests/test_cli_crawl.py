"""The ``crawl`` command, driven through ``repro.__main__.main``.

Every crawl runs through the coordinator and writes OUT as its sharded,
digest-pinned directory.  The checks: ``--gzip`` keeps OUT's name,
``--jobs`` never changes a byte, a re-run into the same OUT resumes, a
re-run that changes the crawl is refused with exit 1, and a single-file
OUT, a non-integer or negative N, or a ``--task-timeout`` the backend
cannot enforce is refused with exit 2.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main

N_SITES = "30"


def _dataset_bytes(out_dir):
    """Shard and manifest bytes; the journal names its backend."""
    return {path.name: path.read_bytes()
            for path in sorted(Path(out_dir).iterdir())
            if path.name != "queue.jsonl"}


def test_gzip_writes_out_as_a_sharded_directory(tmp_path):
    out = tmp_path / "mydir"
    main(["crawl", N_SITES, str(out), "--gzip"])
    assert (out / "manifest.json").is_file()
    assert (out / "shard-0000.jsonl.gz").is_file()
    assert not (tmp_path / "mydir.gz").exists()


def test_jobs_never_change_the_bytes(tmp_path, capsys):
    for jobs in ("1", "2"):
        main(["crawl", N_SITES, str(tmp_path / f"jobs{jobs}"),
              "--shards", "2", "--gzip", "--jobs", jobs])
    out = capsys.readouterr().out
    assert "backend=inprocess, jobs=1" in out
    assert "backend=pool, jobs=2" in out
    serial = _dataset_bytes(tmp_path / "jobs1")
    assert len(serial) == 3      # two shards and the manifest
    assert _dataset_bytes(tmp_path / "jobs2") == serial


def test_rerun_into_the_default_out_resumes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(["crawl", N_SITES])
    first = _dataset_bytes(tmp_path / "crawl")
    main(["crawl", N_SITES])
    out = capsys.readouterr().out
    assert "reused=1, visits executed=0" in out
    assert _dataset_bytes(tmp_path / "crawl") == first


def test_mismatched_rerun_exits_1(tmp_path, capsys):
    out = tmp_path / "crawl"
    main(["crawl", N_SITES, str(out)])
    with pytest.raises(SystemExit) as exc:
        main(["crawl", "40", str(out)])
    assert exc.value.code == 1
    assert "belongs to a different crawl" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["crawl.jsonl", "crawl.jsonl.gz"])
def test_single_file_out_exits_2(tmp_path, name):
    with pytest.raises(SystemExit) as exc:
        main(["crawl", N_SITES, str(tmp_path / name)])
    assert exc.value.code == 2
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("n", ["abc", "1.5"])
def test_non_integer_n_exits_2(tmp_path, capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["crawl", n, str(tmp_path / "crawl")])
    assert exc.value.code == 2
    assert capsys.readouterr().out == \
        f"crawl N expects an integer, got {n!r}\n"
    assert not (tmp_path / "crawl").exists()


def test_negative_n_exits_2_before_creating_out(tmp_path, capsys):
    out = tmp_path / "crawl"
    with pytest.raises(SystemExit) as exc:
        main(["crawl", "--", "-5", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == "crawl N must be >= 0, got -5\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--jobs", "2"],
                                   ["--backend", "inprocess"],
                                   ["--backend", "pool", "--jobs", "2"]],
                         ids=["default", "jobs", "inprocess", "pool"])
def test_task_timeout_needs_the_subprocess_backend(tmp_path, capsys, flags):
    """Only the subprocess backend can kill a shard past its deadline;
    any other backend refuses the deadline instead of ignoring it."""
    out = tmp_path / "crawl"
    with pytest.raises(SystemExit) as exc:
        main(["crawl", N_SITES, str(out), "--task-timeout", "30", *flags])
    assert exc.value.code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "--backend subprocess" in lines[0]
    assert not out.exists()
