"""The shard format v2 (JSON lines) as a test oracle.

Format v3 stores the same visits as columnar row groups.  This module
keeps the v2 writer and the v2 JSON-dict → column decoder, so tests can
write one crawl both ways and demand identical columns, reports and
``/sites/<rank>`` bodies.  Nothing in ``src/`` reads or writes v2.
"""

from __future__ import annotations

import gzip
import json
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

from repro.analysis.columnar import ShardBatch
from repro.records import VisitLog


def v2_lines(logs: Iterable[VisitLog]) -> List[bytes]:
    """Each log as the compact JSON line a v2 shard holds."""
    return [json.dumps(log.to_dict(), separators=(",", ":")).encode("utf-8")
            for log in logs]


def write_v2_shard(logs: Iterable[VisitLog], path: Path) -> bytes:
    """Write a v2 shard (gzip when ``path`` ends in ``.gz``); its bytes."""
    payload = b"".join(line + b"\n" for line in v2_lines(logs))
    if path.suffix == ".gz":
        with open(path, "wb") as raw, gzip.GzipFile(
                filename="", mode="wb", fileobj=raw, mtime=0) as out:
            out.write(payload)
    else:
        path.write_bytes(payload)
    return path.read_bytes()


def read_v2_dicts(path: Path) -> List[Dict]:
    """The parsed JSON objects of a v2 shard, in file order."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def from_dicts(dicts: Sequence[Dict]) -> ShardBatch:
    """Columns straight from parsed v2 JSON dicts: the v2 decode loop."""
    batch = ShardBatch()
    for data in dicts:
        batch.sites.append(data["site"])
        batch.urls.append(data["url"])
        batch.ranks.append(int(data.get("rank", 0)))
        batch.n_scripts.append(int(data.get("n_scripts", 0)))
        batch.n_tp.append(int(data.get("n_third_party_scripts", 0)))
        batch.n_direct.append(int(data.get("n_direct_third_party", 0)))
        batch.n_indirect.append(int(data.get("n_indirect_third_party", 0)))
        batch.cookie_ops.append(int(data.get("cookie_op_count", 0)))
        batch.interacted.append(1 if data.get("interacted", False) else 0)

        for w in data.get("cookie_writes", ()):
            batch.w_name.append(w["cookie_name"])
            batch.w_value.append(w["cookie_value"])
            batch.w_api.append(w["api"])
            batch.w_kind.append(w["kind"])
            batch.w_script_url.append(w["script_url"])
            batch.w_script_domain.append(w["script_domain"])
            batch.w_inclusion.append(w["inclusion"])
            batch.w_raw.append(w.get("raw", ""))
            batch.w_prev.append(w.get("prev_value"))
            batch.w_attrs.append(tuple(w.get("attrs_changed", ())))
            batch.w_ts.append(float(w.get("timestamp", 0.0)))
        batch.w_off.append(len(batch.w_name))

        for r in data.get("cookie_reads", ()):
            batch.r_api.append(r["api"])
            batch.r_script_url.append(r["script_url"])
            batch.r_script_domain.append(r["script_domain"])
            batch.r_inclusion.append(r["inclusion"])
            batch.r_names.append(tuple(r.get("cookie_names", ())))
            batch.r_ts.append(float(r.get("timestamp", 0.0)))
        batch.r_off.append(len(batch.r_api))

        for h in data.get("header_cookies", ()):
            batch.h_name.append(h["cookie_name"])
            batch.h_value.append(h["cookie_value"])
            batch.h_resp_url.append(h["response_url"])
            batch.h_resp_domain.append(h["response_domain"])
            batch.h_init_domain.append(h["initiator_domain"])
            batch.h_first.append(1 if h["first_party"] else 0)
            batch.h_ts.append(float(h.get("timestamp", 0.0)))
        batch.h_off.append(len(batch.h_name))

        for q in data.get("requests", ()):
            batch.q_url.append(q["url"])
            batch.q_host.append(q["host"])
            batch.q_domain.append(q["domain"])
            batch.q_method.append(q["method"])
            batch.q_rtype.append(q["resource_type"])
            batch.q_query.append(q["query"])
            batch.q_body.append(q["body"])
            batch.q_script_url.append(q["script_url"])
            batch.q_script_domain.append(q["script_domain"])
            batch.q_stack.append(tuple(q.get("stack", ())))
            batch.q_ts.append(float(q.get("timestamp", 0.0)))
        batch.q_off.append(len(batch.q_url))

        for d in data.get("dom_mutations", ()):
            batch.d_kind.append(d["kind"])
            batch.d_tag.append(d["target_tag"])
            batch.d_actor.append(d["actor_domain"])
            batch.d_owner.append(d["owner_domain"])
            batch.d_cross.append(1 if d["cross_script"] else 0)
            batch.d_ts.append(float(d.get("timestamp", 0.0)))
        batch.d_off.append(len(batch.d_kind))

        for s in data.get("scripts", ()):
            batch.s_url.append(s["url"])
            batch.s_domain.append(s["domain"])
            batch.s_inclusion.append(s["inclusion"])
            batch.s_depth.append(int(s.get("depth", 0)))
            batch.s_parent.append(s.get("parent_domain"))
        batch.s_off.append(len(batch.s_url))
    return batch


def columns(batches: Iterable[ShardBatch]) -> Dict[str, list]:
    """Every column of a run of batches, concatenated, as plain lists.

    Offset columns are rebased so batches of different sizes (one per
    row group, or one per v2 shard) compare equal when they hold the
    same rows.
    """
    from repro.analysis.columnar import COLUMNS, OFFSETS
    out: Dict[str, list] = {name: [] for name, _k, _f in COLUMNS}
    out.update({name: [0] for name in OFFSETS})
    for batch in batches:
        for name, _kind, _family in COLUMNS:
            values = getattr(batch, name)
            out[name].extend(values.tolist() if isinstance(values, array)
                             else values)
        for name in OFFSETS:
            off = getattr(batch, name)
            base = out[name][-1]
            out[name].extend(base + o - off[0] for o in off[1:])
    return out
