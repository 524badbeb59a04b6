"""Layer micro-benchmarks at fixed sizes; prints one JSON line of per-call times.

Usage: python3 benchmarks/micro.py --seed N --out DIR

Only the traced pass runs these, so they never add to the end-to-end runs.
Each figure is the median over a few samples of the mean time of a batch
of calls.  The sizes are the ones the workloads produce: a 1-block update
of the 8-16-4 model and the 2-block update of the 64-512-32 model.
"""
import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from gossipseg import paillier, trainer  # noqa: E402
from gossipseg.aggregation import trimmed_mean  # noqa: E402
from gossipseg.cas import BlockStore, Cid  # noqa: E402
from gossipseg.ledger import Ledger  # noqa: E402
from gossipseg.model import canonical_bytes, params_from_bytes  # noqa: E402

LEDGER_RECORDS = 2000
LEDGER_PEERS = 32
TRIM_UPDATES = 5
SAMPLES = 5


def per_call(fn, calls: int) -> float:
    """Median over SAMPLES batches of the mean seconds per call."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def ledger_figures() -> dict[str, float]:
    ledger = Ledger()
    ledger.deploy_contracts()
    for pid in range(LEDGER_PEERS):
        ledger.register(pid, f"credential-{pid}")
    cids = [Cid(hashlib.sha256(str(i).encode()).digest()) for i in range(LEDGER_RECORDS)]
    for i, cid in enumerate(cids):
        ledger.save_hash(i % LEDGER_PEERS, cid, f"r{i // 200}")
    # the newest record is the one a gossip pull asks for, the worst case for a scan
    newest = cids[-1]
    return {
        "ledger.validate_update.micro_us": 1e6
        * per_call(lambda: ledger.validate_update(newest, newest, caller="0"), 50),
        "ledger.hash_records.micro_us": 1e6
        * per_call(lambda: ledger.hash_records(round_tag="r9", peers={1, 2}), 50),
    }


def cas_figures(root: Path, small: bytes, wide: bytes) -> dict[str, float]:
    store = BlockStore(root)
    out = {}
    for label, content, calls in (("1block", small, 50), ("2block", wide, 10)):
        # distinct content per put, so no put takes the block-exists shortcut
        contents = iter([i.to_bytes(4, "little") + content for i in range(SAMPLES * calls)])
        out[f"cas.put.micro_{label}_us"] = 1e6 * per_call(lambda: store.put(next(contents)), calls)
        cid = store.put(content)
        out[f"cas.get.micro_{label}_us"] = 1e6 * per_call(lambda: store.get(cid), calls)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    small = trainer.init_params(8, 16, 4, rng)
    wide = trainer.init_params(64, 512, 32, rng)
    wide_bytes = canonical_bytes(wide)
    figures = ledger_figures()
    figures.update(cas_figures(Path(args.out), canonical_bytes(small), wide_bytes))
    figures["model.canonical_bytes.micro_us"] = 1e6 * per_call(lambda: canonical_bytes(wide), 20)
    figures["model.params_from_bytes.micro_us"] = 1e6 * per_call(
        lambda: params_from_bytes(wide_bytes), 20
    )
    x = rng.normal(size=(32, 64))
    y = rng.integers(0, 32, size=32)
    figures["trainer.gradient.micro_us"] = 1e6 * per_call(lambda: trainer.gradient(wide, x, y), 20)
    flats = list(rng.normal(size=(TRIM_UPDATES, sum(t.size for t in wide.tensors()))))
    figures["aggregation.trimmed_mean.micro_us"] = 1e6 * per_call(
        lambda: trimmed_mean(flats, 0.2), 10
    )

    keys = paillier.keygen(1024, seed=args.seed)
    blinding = random.Random(args.seed)
    plaintext = blinding.randrange(10**6)
    ciphertext = paillier.encrypt(plaintext, keys.public, blinding)
    figures["paillier.encrypt.micro_ms"] = 1e3 * per_call(
        lambda: paillier.encrypt(plaintext, keys.public, blinding), 3
    )
    figures["paillier.decrypt.micro_ms"] = 1e3 * per_call(
        lambda: paillier.decrypt(ciphertext, keys), 3
    )
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
