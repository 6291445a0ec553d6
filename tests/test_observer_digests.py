"""Byte pins on the ``why`` and ``health`` observer documents.

The other observer tests check shape, accounting and summary identity;
none notices a document that moved by one byte.  These pins do: each
document's sha256 is taken over its sorted-key compact JSON (the
encoding ``perfbench/workloads.py`` digests), so any change to what the
record stream holds, how transactions are rebuilt from it, or how a
window closes shows up here.  A deliberate change re-pins the digest
and names the document and its reason in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.experiments import ExperimentSpec, run_experiment

#: (experiment, params) -> {(observer, environment label): sha256}
PINNED = {
    ("interleave", ()): {
        ("why", "interleave"):
            "4bedad41bbc1ad22bda7933b21800a7da0ef6e346677476db2926d8d850aeb85",
        ("health", "interleave"):
            "58592eddc76e19215ee165c4351f9be7be295f740c1455fa034225b018d2c05f",
    },
    ("starvation", ()): {
        ("why", "starvation"):
            "88790d6e2b1c22e742421495d341e8fc120ef9fab30cd5c6017e885bffa65878",
        ("health", "starvation"):
            "af220359d13bb05bcefafefd0cd06adf1c08a0d27d0082c8b333c4bebad27600",
    },
    ("starvation", (("feedback", "default"),)): {
        ("health", "starvation"):
            "9ac8a2eb107258baff21483c30466d3dda20d663677672bbd06e35e0f29f0488",
    },
    ("t2", ()): {
        ("why", "t2"):
            "2a02fb8ee8ec391549b0370fc1bace5b969e845d5c0361ef96d035dfcfaf7bae",
        ("health", "t2"):
            "693f31e9045da024554e258cf267831b9c09ea396cb501a036828329df624840",
    },
    ("xswitch_starvation", ()): {
        ("why", "fifo quiet"):
            "64922cab5e68e5adbab4bbe3c38ee426c96748f00c868d865b3c8fe64ef50f28",
        ("why", "fifo congested"):
            "5ec22fa0a0a7db1cbcf68cecc5bab540117be94003d37ed6c00ea8059e8f11e6",
        ("why", "fair congested"):
            "fadb16c73258fc3a0f1889351b25b001227e02c34efd322c1750ada648d13611",
        ("health", "fifo quiet"):
            "4ab87fc3499851e6157fe5c220571e4ea0479d20d59eb16849227a6fa8a24d9d",
        ("health", "fifo congested"):
            "d287e63472eca52aff6a01b8e3322aa7f439cc735db21556a0cfe7df56dbf0ea",
        ("health", "fair congested"):
            "0f24d3cf88b8d5a75d6a54123739ed51e78add88ef361b1669320f1260fd7160",
    },
}


def _digest(document) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda case: "-".join(
    [case[0]] + [f"{key}={value}" for key, value in case[1]]))
def test_observer_documents_are_byte_identical(case):
    name, params = case
    result = run_experiment(ExperimentSpec(
        experiment=name, params=dict(params),
        outputs=("summary", "why", "health")))
    outputs = result["outputs"]
    got = {(observer, label): _digest(document)
           for observer in ("why", "health")
           for label, document in outputs[observer].items()
           if (observer, label) in PINNED[case]}
    assert got == PINNED[case]
