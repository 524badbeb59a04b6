"""Block store: addressing, deduplication, and read-time verification."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import plant, tamper
from gossipseg.cas import Cid, BlockStore
from gossipseg.errors import IntegrityError, InvalidInputError, NotFoundError


def reference_blocks(content: bytes, block_size: int) -> list[bytes]:
    """The nodes of the documented DAG encoding, root last.

    Leaf: 0x00 || payload.  Interior: 0x01 || <I count || (digest || <Q size)*.
    """
    chunks = [content[i : i + block_size] for i in range(0, len(content), block_size)]
    leaves = [b"\x00" + chunk for chunk in chunks]
    if len(leaves) == 1:
        return leaves
    links = b"".join(
        hashlib.sha256(leaf).digest() + struct.pack("<Q", len(chunk))
        for leaf, chunk in zip(leaves, chunks)
    )
    return leaves + [b"\x01" + struct.pack("<I", len(leaves)) + links]


def reference_cid(content: bytes, block_size: int) -> bytes:
    return hashlib.sha256(reference_blocks(content, block_size)[-1]).digest()


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
    assert cid.digest == reference_cid(content, 16)


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
    tamper(store, cid, -1, 0xFF)
    with pytest.raises(IntegrityError):
        store.get(cid)


def test_tampered_leaf_detected_through_root(store):
    content = bytes(range(48))  # three leaves
    cid = store.put(content)
    leaf_cid = Cid(hashlib.sha256(b"\x00" + content[:16]).digest())
    tamper(store, leaf_cid, 5, 0x01)
    with pytest.raises(IntegrityError):
        store.get(cid)


def test_empty_content_rejected(store):
    with pytest.raises(InvalidInputError):
        store.put(b"")


def test_cid_must_be_32_bytes():
    with pytest.raises(InvalidInputError):
        Cid(b"short")


def test_cid_hex_is_made_once_and_cids_compare_by_digest():
    digest = hashlib.sha256(b"x").digest()
    cid = Cid(digest)
    assert cid.hex is cid.hex
    assert cid.hex == str(cid) == digest.hex()
    twin = Cid(digest)
    assert twin == cid and hash(twin) == hash(cid)
    assert sorted(Cid(bytes([b]) * 32) for b in (3, 1, 2)) == [
        Cid(bytes([b]) * 32) for b in (1, 2, 3)
    ]


def test_pack_holds_one_record_per_distinct_block(store):
    contents = [b"name check", b"A" * 16 + b"tail-one", b"A" * 16 + b"tail-two", b"name check"]
    for content in contents:
        store.put(content)
    assert [p.name for p in store.root.iterdir()] == ["blocks.pack"]
    pack = (store.root / "blocks.pack").read_bytes()
    nodes = []
    offset = 0
    while offset < len(pack):
        (length,) = struct.unpack_from("<Q", pack, offset)
        nodes.append(pack[offset + 8 : offset + 8 + length])
        offset += 8 + length
    assert offset == len(pack)
    digests = [hashlib.sha256(node).digest() for node in nodes]
    want = {hashlib.sha256(n).digest() for c in contents for n in reference_blocks(c, 16)}
    assert len(digests) == len(set(digests)) == len(want) == store.block_count()
    assert set(digests) == want == set(store._index)


def test_new_store_starts_empty(tmp_path):
    first = BlockStore(tmp_path / "cas", block_size=16)
    cid = first.put(b"written by the first store")
    second = BlockStore(tmp_path / "cas", block_size=16)
    assert second.block_count() == 0
    assert (tmp_path / "cas" / "blocks.pack").read_bytes() == b""
    with pytest.raises(NotFoundError):
        second.get(cid)


def test_symlinked_root_repointed_before_first_put(tmp_path):
    # a store follows its root at every call: re-pointing the link moves
    # all later writes, and offsets come from the pack, not from a counter
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    (second / "blocks.pack").write_bytes(b"bytes already in the new target")
    link = tmp_path / "cas"
    link.symlink_to(first)
    store = BlockStore(link, block_size=16)
    link.unlink()
    link.symlink_to(second)
    content = b"lands in the second target"
    cid = store.put(content)
    assert (first / "blocks.pack").read_bytes() == b""
    assert (second / "blocks.pack").stat().st_size > len(b"bytes already in the new target")
    assert store.get(cid) == content


def _link(store, payload: bytes) -> bytes:
    leaf = plant(store, b"\x00" + payload)
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
        cid = plant(store, b"\x00" + content)
    elif case == "empty_leaf_root":
        content = b""
        cid = plant(store, b"\x00")
    elif case == "one_link_root":
        content = b"ten bytes!"
        cid = plant(store, b"\x01" + struct.pack("<I", 1) + _link(store, content))
    elif case == "short_inner_leaf":
        content = b"abcd" + bytes(range(16))
        cid = plant(
            store,
            b"\x01" + struct.pack("<I", 2) + _link(store, content[:4]) + _link(store, content[4:]),
        )
    elif case == "empty_last_leaf":
        content = bytes(range(16))
        cid = plant(
            store, b"\x01" + struct.pack("<I", 2) + _link(store, content) + _link(store, b"")
        )
    else:
        content = bytes(range(32))
        cid = plant(store, b"\x01" + struct.pack("<I", 2) + _link(store, content[:16]))
    if content:
        assert reference_cid(content, 16) != cid.digest
    with pytest.raises(IntegrityError):
        store.get(cid)
