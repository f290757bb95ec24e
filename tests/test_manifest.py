"""Every command's output on every pool model, against the checked-in
manifest (``tests/record_manifest.py`` describes and rewrites it)."""

from __future__ import annotations

import json

from record_manifest import MANIFEST, record


def test_every_invocation_matches_the_manifest(tmp_path):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = record(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} changed, first: {changed[:5]}"
