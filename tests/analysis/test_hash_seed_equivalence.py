"""Cross-hash-seed equivalence gate: the contract the lint enforces.

``NodeId`` is ``Hashable`` and node ids here are *strings*, so any
iteration-order or ``hash()`` dependence in the kernel, mirror, or
artifact layers would shift with ``PYTHONHASHSEED``.  This test runs
the same workload in subprocesses under ``PYTHONHASHSEED`` 0, 1, and
``random`` and asserts the observable outputs are identical:

* per-node kernel digests (DATA1/DATA2/DATA3*) of a 16-node checked
  protocol construction,
* every checker mirror's replayed digest and the detection flags,
* the synchronous pure-kernel oracle's digests, and
* sweep artifact bytes — ``results.csv`` and ``summary.csv`` exactly;
  ``cells.jsonl`` after zeroing the per-record ``wall_time`` field,
  which is sanctioned volatile instrumentation (see the lint config
  allowlist and ``docs/determinism.md``).

The three subprocesses run concurrently to stay inside the default
test tier's time budget.
"""

import json
import os
import subprocess
import sys

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: The per-seed workload; prints one JSON document on stdout.
WORKER = """
import hashlib
import json
import os
import random
import sys
import tempfile

from repro.faithful.epochs import run_checked_churn
from repro.routing.kernel import kernel_fixed_point
from repro.workloads import random_biconnected_graph
from repro.experiments import (
    SweepRunner,
    canonical_results,
    expand_grid,
    summarize,
    write_artifacts,
)

out = {"hash_seed": os.environ.get("PYTHONHASHSEED", "")}

# -- 16-node checked protocol construction (string node ids) --------------
graph = random_biconnected_graph(16, random.Random(1))
construction = run_checked_churn(graph)
nodes = construction.nodes
out["node_digests"] = {
    repr(node_id): node.comp.full_digest()
    for node_id, node in sorted(nodes.items(), key=repr)
}
out["mirror_digests"] = {
    repr((checker_id, principal_id)): mirror.comp.full_digest()
    for checker_id, node in sorted(nodes.items(), key=repr)
    for principal_id, mirror in sorted(node.mirrors.items(), key=repr)
}
out["flags"] = sorted(repr(flag) for flag in construction.all_flags)

# -- synchronous pure-kernel oracle ---------------------------------------
oracle = kernel_fixed_point(graph)
out["oracle_digests"] = {
    repr(node_id): kern.full_digest()
    for node_id, kern in sorted(oracle.items(), key=repr)
}

# -- small sweep: artifact bytes ------------------------------------------
scenarios = expand_grid(base={"size": 6, "probe": "payments"}, axes={"seed": [1, 2]})
results = canonical_results(SweepRunner(scenarios, workers=1).run())
summaries = summarize(results, group_by=("seed",))
artifact_dir = tempfile.mkdtemp()
paths = write_artifacts(
    results, summaries, artifact_dir, name="hashseed-eq", group_by=("seed",)
)
for kind in ("results", "summary"):
    with open(paths[kind], "rb") as handle:
        out[f"{kind}_sha"] = hashlib.sha256(handle.read()).hexdigest()
normalized = []
with open(paths["cells"], "r", encoding="utf-8") as handle:
    for line in handle:
        record = json.loads(line)
        record["wall_time"] = 0.0
        normalized.append(json.dumps(record, sort_keys=True))
out["cells_sha"] = hashlib.sha256("\\n".join(normalized).encode("utf-8")).hexdigest()

json.dump(out, sys.stdout, sort_keys=True)
"""


def test_outputs_identical_across_hash_seeds(tmp_path):
    """Digests, flags, and artifacts agree under PYTHONHASHSEED 0/1/random."""
    script = tmp_path / "worker.py"
    script.write_text(WORKER)
    procs = {}
    for seed in ("0", "1", "random"):
        env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED=seed)
        procs[seed] = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    outputs = {}
    for seed, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"seed {seed} failed:\n{stderr}"
        outputs[seed] = json.loads(stdout)
        del outputs[seed]["hash_seed"]  # the only field expected to vary

    baseline = outputs["0"]
    assert baseline["flags"] == []  # honest run: no detection flags
    assert len(baseline["node_digests"]) == 16
    assert len(baseline["oracle_digests"]) == 16
    assert baseline["mirror_digests"]  # checkers actually mirrored

    assert outputs["1"] == baseline, "PYTHONHASHSEED=1 diverged from 0"
    assert outputs["random"] == baseline, "PYTHONHASHSEED=random diverged from 0"
