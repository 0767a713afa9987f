"""The benchmark record at the root of the repository parses, and every
entry carries the fields a later comparison reads."""

import json
from pathlib import Path

HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.json"
WORKLOADS = {"sweep", "tables", "search"}
MEDIANS = ("wall_ys", "job_p90_ys", "peak_rss_mb")
COUNTS = {"homology.minimal_resolution.calls", "derived.proj_replacement.calls",
          "exactla.rref.calls", "posets.enumerate_posets.calls",
          "posets.canonical_key.calls"}


def test_bench_history_entries_have_every_key():
    entries = json.loads(HISTORY.read_text())["entries"]
    for e in entries:
        # a change's own entries cannot name its commit: null, and the
        # commit they were measured against in parent_revision
        assert isinstance(e["parent_revision"], str) and e["parent_revision"]
        assert e["revision"] is None or (isinstance(e["revision"], str) and e["revision"])
        assert e["workload"] in WORKLOADS
        assert e["seeds"] and all(isinstance(s, int) for s in e["seeds"])
        assert e["source"] in ("CHANGES.md", "measured")
        for side in (e, e["parent"]):
            # null: not measured, or not recorded in the prose it came from
            assert all(side[k] is None or side[k] > 0 for k in MEDIANS)
            if e["source"] == "measured":
                assert all(side[k] is not None for k in MEDIANS)
            assert set(side["traced_seed1"]) == COUNTS
            assert all(v is None or (isinstance(v, int) and v >= 0)
                       for v in side["traced_seed1"].values())
    # only the newest change's entries may still lack their commit: a change
    # fills in its parent's before appending its own
    pending = [i for i, e in enumerate(entries) if e["revision"] is None]
    assert pending == list(range(len(entries) - len(pending), len(entries)))
    assert len({entries[i]["parent_revision"] for i in pending}) <= 1
    backfilled = {e["revision"] for e in entries if e["source"] == "CHANGES.md"}
    assert backfilled == {"95d46c1", "01abe3c", "68100a8", "05f137f"}
    assert {e["workload"] for e in entries if e["source"] == "measured"} == WORKLOADS
