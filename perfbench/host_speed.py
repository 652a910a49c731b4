"""Fixed reference work that times the host, independent of losslab.

``run.py`` runs this in a fresh interpreter once per cycle. It imports NumPy
as every losslab command does, then does pure-Python work shaped like JSON
ingest, parsing and scoring, and NumPy work shaped like the loss kernels and
the token density. Its wall time measures how fast the host runs that kind
of work at that moment; it never changes with the program under test.
"""

import json

import numpy as np


def main() -> None:
    records = [
        {"id": f"q{i:05d}", "text": " ".join(f"<<{i}+{j}={i + j}>>" for j in range(8))}
        for i in range(4000)
    ]
    lines = "\n".join(json.dumps(r) for r in records).splitlines()
    counts: dict[str, int] = {}
    for record in map(json.loads, lines):
        for span in record["text"].split():
            key = span.strip("<>").split("=")[0]
            counts[key] = counts.get(key, 0) + 1

    rng = np.random.default_rng(0)
    logits = rng.standard_normal((128, 1024))
    for _ in range(40):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        np.argsort(-probs, axis=0, kind="stable")
    z = rng.standard_normal((1500, 1500))
    float(np.exp(-0.5 * z * z).sum())


if __name__ == "__main__":
    main()
