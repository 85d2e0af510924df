"""Every argv of the recorded corpus keeps its exit code and its stdout bytes."""

import json

from make_digests import ARGV, DIGESTS, digest


def test_outputs_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert list(recorded) == ARGV, f"{DIGESTS.name} is stale: run make_digests.py"
    changed = [argv for argv, entry in recorded.items() if digest(argv) != entry]
    assert not changed, f"exit code or stdout differs from {DIGESTS.name} for: {changed}"
