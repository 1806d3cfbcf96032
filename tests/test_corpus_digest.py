"""Byte-identical answers on the benchmark corpora.

The four corpora of `perfbench/corpus.py` are rebuilt at seeds 1, 3 and 7
into a temporary directory, and every case runs through `valdef.cli.main`
in-process.  The sha256 of each case's exit code and stdout (with the
temporary root replaced by a placeholder) must equal the digest in
`corpus_digests.json`, so a change that alters any printed answer, error
message or exit code fails here by seed and case id.

After a deliberate change of output, regenerate the file with

    PYTHONPATH=src python tests/test_corpus_digest.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from valdef.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"
SEEDS = (1, 3, 7)
PLACEHOLDER = "<ROOT>"


def _corpus():
    """perfbench/corpus.py, imported with its directory on the path."""
    bench = str(ROOT / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import corpus

    return corpus


def _call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def corpus_digests(seed: int, root: str) -> dict:
    """{workload: {case id: sha256 hex}} for every case of the four corpora."""
    corpus = _corpus()
    out = {}
    for workload in corpus.WORKLOADS:
        wdir = os.path.join(root, workload)
        os.makedirs(wdir)
        digests = {}
        for case in corpus.build(workload, seed, wdir):
            code, stdout = _call(case.argv)
            text = f"{code}\n{stdout.replace(wdir, PLACEHOLDER)}"
            digests[case.id] = hashlib.sha256(text.encode()).hexdigest()
        out[workload] = digests
    return out


def test_corpus_outputs_unchanged(tmp_path):
    want = json.loads(DIGESTS.read_text())
    assert want.keys() == {str(seed) for seed in SEEDS}
    for seed in SEEDS:
        got = corpus_digests(seed, str(tmp_path / str(seed)))
        assert got.keys() == want[str(seed)].keys()
        for workload, digests in want[str(seed)].items():
            assert got[workload].keys() == digests.keys(), (seed, workload)
            changed = [cid for cid, h in digests.items() if got[workload][cid] != h]
            assert not changed, f"seed {seed}, {workload}: output changed on {changed}"


if __name__ == "__main__":
    doc = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            doc[str(seed)] = corpus_digests(seed, tmp)
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    count = sum(len(d) for per_seed in doc.values() for d in per_seed.values())
    print(f"wrote {count} digests to {DIGESTS}")
