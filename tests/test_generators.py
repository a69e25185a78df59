"""The seeded corpora are reproducible: a fixed seed gives the same random
walks, byte for byte, so every corpus built from them stays the same."""

import hashlib
import random

from gsclab import SEQUENCE, protocol
from gsclab.generators import random_well_fenced_run
from gsclab.serialization import dumps, execution_to_doc, history_to_doc

# sha256 over the canonical JSON of the history and the execution of each of
# the first 50 three-client walks drawn from random.Random(1).
WALK_DIGEST = "53c4ae4437b17cef32c55cf27e685ee59bb8dc42c44c1e9b63ee0ebacfe7c057"


def test_random_walk_stream_is_pinned():
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(50):
        h, x = random_well_fenced_run(rng, SEQUENCE, clients=3)
        digest.update(dumps(history_to_doc(h, "sequence")).encode())
        digest.update(dumps(execution_to_doc(x, "sequence")).encode())
    assert digest.hexdigest() == WALK_DIGEST


def test_random_walk_folds_its_run_once(monkeypatch):
    # The walk folds each drawn token into its run as it goes and flushes
    # that run, so it never replays its schedule.
    def refuse(*args):
        raise AssertionError("the walk replayed its schedule")
    monkeypatch.setattr(protocol, "run_schedule", refuse)
    h, x = random_well_fenced_run(random.Random(1), SEQUENCE, clients=3)
    assert x.history == h
