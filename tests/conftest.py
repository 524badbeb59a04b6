import struct

import hypothesis
import numpy as np
import pytest

from gossipseg.paillier import keygen

# overflow, invalid, and zero-division are bugs; gradual underflow to zero
# is expected once adversarial runs saturate the weights
np.seterr(all="raise", under="ignore")

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("thorough", max_examples=300)
hypothesis.settings.load_profile("fast")


@pytest.fixture(scope="session")
def small_keypair():
    """One 512-bit key pair shared across tests; keygen dominates runtime."""
    return keygen(bits=512, seed=1234)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def plant(store, node: bytes):
    """Write a hand-built node under its own digest, bypassing ``put``."""
    return store._write_block(node)


def write_idx(path, dtype_code, dims, payload_bytes):
    """Write an IDX file: zero magic, dtype code, dims, then the raw payload."""
    header = struct.pack(">BBBB", 0, 0, dtype_code, len(dims))
    header += b"".join(struct.pack(">I", d) for d in dims)
    path.write_bytes(header + payload_bytes)


def tamper(store, cid, index: int, mask: int) -> None:
    """XOR byte ``index`` of the stored node of ``cid`` with ``mask``.

    A negative ``index`` counts from the end of the node, as in a sequence.
    """
    offset, length = store._index[cid.digest]
    position = offset + range(length)[index]
    with open(store._pack, "r+b") as pack:
        pack.seek(position)
        (byte,) = pack.read(1)
        pack.seek(position)
        pack.write(bytes([byte ^ mask]))
