"""Pinned output for a fixed corpus: codes, counts and enumeration order.

The digest covers the `code` line, the oriented, semioriented and total
counts, and the oriented, near and semioriented enumeration lines of
`random_sp` seeds 0-39 (default parameters) plus the diamond and the
theta, all printed by the CLI.  It changes whenever the class order, a
code, a count or the enumeration order moves.
"""

import hashlib

from sptrees import RandomSpParams, random_sp, serialize_sp
from sptrees.cli import run

from conftest import DIAMOND_TEXT, THETA_TEXT

GOLDEN_SHA256 = "836ca2d5c23f3abab744a929cb35eb910187fa77de09d64140fe8ccdcf8e318e"

COMMANDS = (
    ["code"],
    ["count", "--mode", "oriented"],
    ["count", "--mode", "semioriented"],
    ["count", "--mode", "total"],
    ["enumerate", "--mode", "oriented"],
    ["enumerate", "--mode", "oriented", "--near"],
    ["enumerate", "--mode", "semioriented"],
)


def test_corpus_output_digest(tmp_path, capsys):
    lines = [serialize_sp(random_sp(RandomSpParams(seed=s))) for s in range(40)]
    lines += [DIAMOND_TEXT, THETA_TEXT]
    path = tmp_path / "corpus.sp"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    digest = hashlib.sha256()
    for command in COMMANDS:
        assert run([command[0], str(path), *command[1:]]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_SHA256
