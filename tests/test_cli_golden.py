"""CLI text and JSON stay byte-identical to the recorded golden digests."""

import json

import pytest

from cli_golden import DIGESTS, cases, digest, transcript

GOLDEN = json.loads(DIGESTS.read_text())
CASES = cases()


def test_golden_set_matches_recorded_labels():
    assert sorted(label for label, _ in CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("label,argv", CASES, ids=[label for label, _ in CASES])
def test_cli_transcript_matches_golden(label, argv):
    code, out, err = transcript(argv)
    if digest(code, out, err) != GOLDEN[label]:
        pytest.fail(f"transcript changed for argv {argv!r}\n"
                    f"exit code: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}")
