"""Block store: addressing, deduplication, and read-time verification."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gossipseg.cas import Cid, BlockStore
from gossipseg.errors import IntegrityError, InvalidInputError, NotFoundError


@pytest.fixture
def store(tmp_path):
    # tiny blocks force the multi-block path in ordinary-sized tests
    return BlockStore(tmp_path / "cas", block_size=16)


@settings(max_examples=60)
@given(content=st.binary(min_size=1, max_size=200))
def test_put_get_roundtrip_bitwise(tmp_path_factory, content):
    store = BlockStore(tmp_path_factory.mktemp("cas"), block_size=16)
    cid = store.put(content)
    assert store.get(cid) == content
    assert store.verify(cid, content)
    assert store.compute_cid(content) == cid


def test_single_block_cid_is_sha256_of_leaf(store):
    content = b"hello world"
    cid = store.put(content)
    assert cid.digest == hashlib.sha256(b"\x00" + content).digest()


def test_interior_node_layout_oracle(store):
    # 20 bytes with block_size 16 -> two leaves plus one interior root
    content = bytes(range(20))
    cid = store.put(content)
    leaf_a, leaf_b = content[:16], content[16:]
    da = hashlib.sha256(b"\x00" + leaf_a).digest()
    db = hashlib.sha256(b"\x00" + leaf_b).digest()
    node = (
        b"\x01"
        + struct.pack("<I", 2)
        + da
        + struct.pack("<Q", 16)
        + db
        + struct.pack("<Q", 4)
    )
    assert cid.digest == hashlib.sha256(node).digest()
    assert store.get(cid) == content


def test_deduplication(store):
    content = b"x" * 40
    cid1 = store.put(content)
    before = store.block_count()
    cid2 = store.put(content)
    assert cid1 == cid2
    assert store.block_count() == before


def test_shared_blocks_across_contents(store):
    # identical prefix blocks are stored once
    a = b"A" * 16 + b"tail-one........"
    b = b"A" * 16 + b"tail-two........"
    store.put(a)
    count_after_a = store.block_count()
    store.put(b)
    # only the differing leaf and the new root should be added
    assert store.block_count() == count_after_a + 2


def test_missing_cid_raises(store):
    with pytest.raises(NotFoundError):
        store.get(Cid(b"\x00" * 32))


def test_tampered_block_detected_on_get(store):
    content = b"sensitive model bytes, several blocks long....."
    cid = store.put(content)
    path = store.path_for(cid)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        store.get(cid)


def test_tampered_leaf_detected_through_root(store):
    content = bytes(range(48))  # three leaves
    cid = store.put(content)
    leaf_cid = Cid(hashlib.sha256(b"\x00" + content[:16]).digest())
    path = store.path_for(leaf_cid)
    raw = bytearray(path.read_bytes())
    raw[5] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        store.get(cid)


def test_verify_is_pure(store):
    content = b"never stored"
    cid = store.compute_cid(content)
    assert store.verify(cid, content)
    assert not store.verify(cid, content + b"!")
    assert not store.verify(cid, b"")
    with pytest.raises(NotFoundError):
        store.get(cid)


def test_empty_content_rejected(store):
    with pytest.raises(InvalidInputError):
        store.put(b"")
    with pytest.raises(InvalidInputError):
        store.compute_cid(b"")


def test_cid_must_be_32_bytes():
    with pytest.raises(InvalidInputError):
        Cid(b"short")


def test_block_files_named_by_digest_hex(store):
    cid = store.put(b"name check")
    assert store.path_for(cid).name == cid.hex
    assert store.path_for(cid).exists()


def _plant(store, node: bytes) -> Cid:
    """Write a hand-built node under its own digest, bypassing ``put``."""
    cid = Cid(hashlib.sha256(node).digest())
    store.path_for(cid).write_bytes(node)
    return cid


def _link(store, payload: bytes) -> bytes:
    leaf = _plant(store, b"\x00" + payload)
    return leaf.digest + struct.pack("<Q", len(payload))


@pytest.mark.parametrize(
    "case",
    ["oversized_leaf_root", "empty_leaf_root", "one_link_root", "short_inner_leaf",
     "empty_last_leaf", "truncated_root"],
)
def test_non_canonical_dag_rejected_on_get(store, case):
    # every block below hashes to its name, so only the DAG shape is wrong:
    # put would have built a different root for the same content
    if case == "oversized_leaf_root":
        content = bytes(range(17))
        cid = _plant(store, b"\x00" + content)
    elif case == "empty_leaf_root":
        content = b""
        cid = _plant(store, b"\x00")
    elif case == "one_link_root":
        content = b"ten bytes!"
        cid = _plant(store, b"\x01" + struct.pack("<I", 1) + _link(store, content))
    elif case == "short_inner_leaf":
        content = b"abcd" + bytes(range(16))
        cid = _plant(
            store,
            b"\x01" + struct.pack("<I", 2) + _link(store, content[:4]) + _link(store, content[4:]),
        )
    elif case == "empty_last_leaf":
        content = bytes(range(16))
        cid = _plant(
            store, b"\x01" + struct.pack("<I", 2) + _link(store, content) + _link(store, b"")
        )
    else:
        content = bytes(range(32))
        cid = _plant(store, b"\x01" + struct.pack("<I", 2) + _link(store, content[:16]))
    if content:
        assert store.compute_cid(content) != cid
    with pytest.raises(IntegrityError):
        store.get(cid)
