#!/usr/bin/env python
"""CI storage gate: save, mmap-open in a fresh process, compare.

Builds a CPQx index over a pinned-size random graph in this process,
saves it in the zero-copy columnar store format, then spawns a *fresh*
Python process that opens the file via ``mmap``
(``repro.store.open_store``) and pickles its
:func:`repro.core.parallel.index_fingerprint` back.  The
gate passes only if the fresh-process fingerprint equals the in-memory
build's — byte-identical postings with zero pair deserialization, across
a process boundary, so no in-process state can mask a broken reader.

Run from the repository root with ``PYTHONPATH=src``:

    PYTHONPATH=src python scripts/storage_gate.py
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.cpqx import CPQxIndex
from repro.core.parallel import index_fingerprint
from repro.graph.generators import random_graph
from repro.store import write_store

#: Executed in the fresh process: mmap-open the store and pickle its
#: fingerprint to the given output path.  Fingerprints are nested
#: tuples/frozensets, so pickling + ``==`` is the faithful comparison
#: (reprs are layout-dependent; equality is not).
_CHILD = """\
import pickle, sys
from repro.core.parallel import index_fingerprint
from repro.store import open_store

engine = open_store(sys.argv[1])
with open(sys.argv[2], "wb") as handle:
    pickle.dump(index_fingerprint(engine), handle)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=250)
    parser.add_argument("--edges", type=int, default=2000)
    parser.add_argument("--labels", type=int, default=3)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    graph = random_graph(args.vertices, args.edges, args.labels, seed=args.seed)
    index = CPQxIndex.build(graph, k=args.k)
    expected = index_fingerprint(index)

    with tempfile.TemporaryDirectory(prefix="repro-storage-gate-") as tmp:
        target = Path(tmp) / "gate.rsx"
        start = time.perf_counter()
        write_store(index, target)
        save_s = time.perf_counter() - start
        size_mb = os.path.getsize(target) / 1e6

        reply = Path(tmp) / "fingerprint.pickle"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _CHILD, str(target), str(reply)],
            check=True, env=env,
        )
        child_s = time.perf_counter() - start
        with open(reply, "rb") as handle:
            opened = pickle.load(handle)

    if opened != expected:
        print("storage gate FAILED: fresh-process mmap open disagrees "
              "with the in-memory build", file=sys.stderr)
        return 1
    print(f"storage gate passed: {size_mb:.2f} MB store "
          f"(save {save_s * 1000:.1f} ms), fresh-process mmap open + "
          f"fingerprint in {child_s * 1000:.1f} ms, identical to the "
          f"in-memory build ({args.vertices}v/{args.edges}e, k={args.k})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
