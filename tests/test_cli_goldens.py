"""The cli outputs are byte-identical to the recorded SHA-256 goldens.

perfbench/goldens.json records, for each scripted lwsurf call of the
benchmark's cli workload, its exit code and the digests of its stdout and
output files.  This runs the same calls in-process, each in an empty
directory, so a change that moves any output byte fails here and not
only in the benchmark.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lwsurf.cli import main

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
ITEMS = json.loads(GOLDENS.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(ITEMS))
def test_output_matches_golden(name, capsys, tmp_path, monkeypatch):
    golden = ITEMS[name]
    monkeypatch.chdir(tmp_path)
    code = main(list(golden["argv"]))
    out = capsys.readouterr().out
    assert code == golden["exit"]
    assert sha256(out.encode("utf-8")) == golden["stdout"]
    for fname, digest in golden["files"].items():
        assert sha256((tmp_path / fname).read_bytes()) == digest, fname
