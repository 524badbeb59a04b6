"""Content-addressed block store with a flat two-level Merkle DAG.

Content is split into fixed-size blocks.  A leaf node is the tag byte 0x00
followed by the block payload; an interior root node is the tag byte 0x01
followed by a length-prefixed list of (digest, size) links.  A node's CID is
the SHA-256 of its full encoding, and single-block content is its own root.
Every read re-hashes each block and rejects a DAG that ``put`` would not
have built, so content that ``get`` returns always hashes back to its CID.

All blocks of a store live in one append-only pack file, ``blocks.pack``,
as records ``<Q length><node>``, one per distinct node, in write order.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

from .errors import IntegrityError, InvalidInputError, NotFoundError

DEFAULT_BLOCK_SIZE = 256 * 1024
MAX_CONTENT_BYTES = 64 * 1024**3

_LEAF = b"\x00"
_INTERIOR = b"\x01"
_DIGEST_LEN = 32
_LINK_LEN = _DIGEST_LEN + 8  # digest, then the leaf's payload size as <Q
_RECORD_HEADER = struct.Struct("<Q")  # a pack record's node length
_PACK_NAME = "blocks.pack"


@dataclass(frozen=True, order=True)
class Cid:
    """SHA-256 digest of a DAG node encoding."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != _DIGEST_LEN:
            raise InvalidInputError("digest must be 32 bytes")

    @property
    def hex(self) -> str:
        return self.digest.hex()

    def __str__(self) -> str:
        return self.hex


def _node_cid(node: bytes) -> Cid:
    return Cid(hashlib.sha256(node).digest())


def _encode_interior(links: list[tuple[Cid, int]]) -> bytes:
    parts = [_INTERIOR, struct.pack("<I", len(links))]
    for cid, size in links:
        parts.append(cid.digest)
        parts.append(struct.pack("<Q", size))
    return b"".join(parts)


class BlockStore:
    """Blocks appended to ``root/blocks.pack``, found through an in-memory index.

    The index maps each stored digest to the (offset, length) of its node in
    the pack.  A new store truncates the pack, so it starts empty.  The pack
    is opened afresh, through ``root``, by every read and write: when ``root``
    is a link, blocks go wherever it points at the time of the call.
    """

    def __init__(self, root: str | Path, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size < 1:
            raise InvalidInputError("block_size must be positive")
        self.root = Path(root)
        self.block_size = block_size
        self.root.mkdir(parents=True, exist_ok=True)
        self._pack = self.root / _PACK_NAME
        self._pack.write_bytes(b"")
        self._index: dict[bytes, tuple[int, int]] = {}

    def _chunks(self, content: bytes) -> list[bytes]:
        return [
            content[i : i + self.block_size]
            for i in range(0, len(content), self.block_size)
        ]

    def _write_block(self, node: bytes) -> Cid:
        cid = _node_cid(node)
        if cid.digest not in self._index:
            with open(self._pack, "ab") as pack:
                offset = pack.tell() + _RECORD_HEADER.size
                pack.write(_RECORD_HEADER.pack(len(node)) + node)
            self._index[cid.digest] = (offset, len(node))
        return cid

    def put(self, content: bytes) -> Cid:
        """Store ``content``; identical content always maps to the same CID."""
        if len(content) == 0:
            raise InvalidInputError("content must be non-empty")
        if len(content) > MAX_CONTENT_BYTES:
            raise InvalidInputError("content exceeds the 64 GiB limit")
        chunks = self._chunks(content)
        links = []
        for chunk in chunks:
            cid = self._write_block(_LEAF + chunk)
            links.append((cid, len(chunk)))
        if len(chunks) == 1:
            return links[0][0]
        return self._write_block(_encode_interior(links))

    def _read_block(self, cid: Cid) -> bytes:
        entry = self._index.get(cid.digest)
        if entry is None:
            raise NotFoundError(f"no block for {cid.hex}")
        offset, length = entry
        with open(self._pack, "rb") as pack:
            pack.seek(offset)
            node = pack.read(length)
        if _node_cid(node) != cid:
            raise IntegrityError(f"block {cid.hex} does not match its digest")
        return node

    def get(self, cid: Cid) -> bytes:
        """Reassemble and check content; every block is re-hashed.

        Only the canonical DAG of the content is accepted: a leaf root of 1 to
        ``block_size`` bytes, or an interior root over at least two leaves
        where every leaf but the last holds exactly ``block_size`` bytes.
        Success therefore implies that ``put(content)`` returns ``cid``.
        """
        node = self._read_block(cid)
        if node[:1] == _LEAF:
            if not 1 <= len(node) - 1 <= self.block_size:
                raise IntegrityError(f"leaf root {cid.hex} has a non-canonical size")
            return node[1:]
        if node[:1] != _INTERIOR:
            raise IntegrityError(f"block {cid.hex} has an unknown node tag")
        count = struct.unpack_from("<I", node, 1)[0] if len(node) >= 5 else 0
        if count < 2:
            raise IntegrityError(f"root {cid.hex} has fewer than two links")
        if len(node) != 5 + count * _LINK_LEN:
            raise IntegrityError(f"root {cid.hex} does not hold exactly {count} links")
        parts = []
        for i in range(count):
            offset = 5 + i * _LINK_LEN
            digest = node[offset : offset + _DIGEST_LEN]
            (size,) = struct.unpack_from("<Q", node, offset + _DIGEST_LEN)
            if not 0 < size <= self.block_size or (i < count - 1 and size != self.block_size):
                raise IntegrityError(f"leaf under {cid.hex} has a non-canonical size")
            leaf = self._read_block(Cid(digest))
            if leaf[:1] != _LEAF or len(leaf) - 1 != size:
                raise IntegrityError(f"leaf under {cid.hex} has the wrong shape")
            parts.append(leaf[1:])
        return b"".join(parts)

    def block_count(self) -> int:
        return len(self._index)
