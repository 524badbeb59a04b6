"""Additively homomorphic Paillier cryptosystem with packed fixed-point vectors.

Standard construction with ``g = n + 1``, blinded as in the short-exponent
variant of Damgard, Jurik and Nielsen ("A generalization of Paillier's
public-key system with applications to electronic voting", IJIS 2010): the
encryption of ``m`` is ``(1 + m*n) * h_n^a mod n^2``, where ``a`` is a
fresh random exponent of ``ceil(k/2)`` bits for a ``k``-bit ``n``, in place
of the textbook ``r^n`` for a random unit ``r``.  The fixed base
``h_n = h^n mod n^2``, ``h = -x^2 mod n``, is derived from ``n`` alone (``x``
is a domain-separated SHA-256 expansion of ``n`` reduced mod ``n``), so
anyone holding ``n`` re-derives it and the key carries nothing new.  At
that exponent length the scheme is semantically secure under the same
decisional composite residuosity (DCR) assumption as Paillier's, by Hastad,
Schrift and Shamir's result on short exponents modulo a composite (JCSS
1993); a shorter exponent is outside that proof.  Ciphertexts are units of
the same group, so decryption and homomorphic addition are unchanged.

The textbook decryption is ``L(c^lambda mod n^2) * mu mod n`` where
``L(x) = (x - 1) // n``; the key holder computes the same plaintext by the
Chinese remainder theorem over ``p`` and ``q`` (Paillier, EUROCRYPT 1999,
section 7), which works modulo ``p^2`` and ``q^2`` with half-size exponents.

Vectors are non-negative fixed-point encodings of values in ``[0, 1]``,
packed several components to a plaintext as in BatchCrypt (Zhang et al.,
USENIX ATC 2020): each component gets a slot wide enough for the sum over
every contributor, so homomorphic addition of packed plaintexts adds the
slots independently and never carries from one slot into the next.

Every modular exponentiation goes through ``_powmod``: OpenSSL's
constant-time Montgomery exponentiation, reached through the libcrypto that
the interpreter's own ``_hashlib`` links, or builtin ``pow`` where those
symbols cannot be reached.  Both give the same integers.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import random
import secrets
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyAggregationError,
    InvalidInputError,
    KeyMismatchError,
)

_MIN_KEY_BITS = 256
_MR_ROUNDS = 40
# separates the expansion of n into the blinding base from any other hash of n
_H_DOMAIN = b"gossipseg.paillier.h_n"
# every fixed-point encoding is round(x * SCALE); decoding divides by it
SCALE = 10**6


def _libcrypto_powmod() -> Callable[[int, int, int], int]:
    """``pow(base, exp, mod)`` for odd ``mod > 1`` by ``BN_mod_exp_mont_consttime``.

    Binds the libcrypto that ``_hashlib`` already links, so nothing is loaded
    twice; returns builtin ``pow`` where that module or its symbols are missing.
    """
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        mod_exp = lib.BN_mod_exp_mont_consttime
        bin2bn, bn2binpad = lib.BN_bin2bn, lib.BN_bn2binpad
        bn_new, bn_free = lib.BN_new, lib.BN_clear_free
        ctx_new, ctx_free = lib.BN_CTX_new, lib.BN_CTX_free
    except (ImportError, AttributeError, OSError):
        return pow
    ptr = ctypes.c_void_p
    bin2bn.argtypes, bin2bn.restype = [ctypes.c_char_p, ctypes.c_int, ptr], ptr
    bn2binpad.argtypes, bn2binpad.restype = [ptr, ctypes.c_char_p, ctypes.c_int], ctypes.c_int
    bn_new.argtypes, bn_new.restype = [], ptr
    bn_free.argtypes, bn_free.restype = [ptr], None
    ctx_new.argtypes, ctx_new.restype = [], ptr
    ctx_free.argtypes, ctx_free.restype = [ptr], None
    mod_exp.argtypes, mod_exp.restype = [ptr] * 6, ctypes.c_int

    def powmod(base: int, exp: int, mod: int) -> int:
        if not mod & 1:
            raise ValueError("Montgomery exponentiation needs an odd modulus")
        size = (mod.bit_length() + 7) // 8
        raws = [x.to_bytes((x.bit_length() + 7) // 8, "big") for x in (base, exp, mod)]
        operands = [bin2bn(raw, len(raw), None) for raw in raws]
        result, ctx = bn_new(), ctx_new()
        out = ctypes.create_string_buffer(size)
        try:
            if not (all(operands) and result and ctx and mod_exp(result, *operands, ctx, None)):
                raise MemoryError("libcrypto failed to allocate for BN_mod_exp_mont_consttime")
            bn2binpad(result, out, size)
            return int.from_bytes(out.raw, "big")
        finally:
            for bn in (*operands, result):
                bn_free(bn)
            ctx_free(ctx)

    return powmod


_powmod = _libcrypto_powmod()


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public modulus ``n`` and generator ``g = n + 1``."""

    n: int
    g: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @functools.cached_property
    def h_n(self) -> int:
        """The blinding base ``h^n mod n^2``, ``h = -x^2 mod n``, derived from ``n``.

        ``x`` is SHA-256 over the domain tag, a block counter and ``n``,
        expanded 128 bits past ``n`` and reduced mod ``n``.
        """
        n = self.n
        raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
        blocks = -(-(n.bit_length() + 128) // 256)
        stream = b"".join(
            hashlib.sha256(_H_DOMAIN + i.to_bytes(4, "big") + raw).digest()
            for i in range(blocks)
        )
        x = int.from_bytes(stream, "big") % n
        return _powmod(-x * x % n, n, self.n_squared)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """The primes and the constants of CRT decryption:
    ``hp = L_p(g^(p-1) mod p^2)^-1 mod p`` (likewise ``hq``) and
    ``q_inv = q^-1 mod p``."""

    p: int
    q: int
    hp: int
    hq: int
    q_inv: int


@dataclass(frozen=True)
class PaillierKeyPair:
    public: PaillierPublicKey
    private: PaillierPrivateKey


@dataclass(frozen=True)
class Ciphertext:
    """Encrypted value bound to the public modulus it was produced under."""

    value: int
    modulus: int


@dataclass(frozen=True)
class PackedVector:
    """One contributor's encrypted fixed-point vector.

    Component ``j`` sits in chunk ``j // slots`` at bit offset
    ``(j % slots) * width``, where ``slots = (n.bit_length() - 1) // width``.
    """

    chunks: tuple[Ciphertext, ...]
    length: int
    width: int


def _is_probable_prime(candidate: int, rng: random.Random) -> bool:
    if candidate < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if candidate % p == 0:
            return candidate == p
    d = candidate - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(_MR_ROUNDS):
        a = rng.randrange(2, candidate - 1)
        x = _powmod(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def keygen(bits: int = 1024, seed: int | None = None) -> PaillierKeyPair:
    """Generate a key pair with an ``n`` of exactly ``bits`` bits.

    Args:
        bits: Modulus size; at least 256.
        seed: When given, keys are a deterministic function of the seed.
            Otherwise primes come from OS entropy.

    Returns:
        A :class:`PaillierKeyPair`.
    """
    if bits < _MIN_KEY_BITS:
        raise ConfigurationError(f"key size must be >= {_MIN_KEY_BITS} bits")
    rng = random.Random(seed) if seed is not None else secrets.SystemRandom()
    while True:
        p = _random_prime(bits // 2, rng)
        q = _random_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() == bits:
            break
    g = n + 1
    return PaillierKeyPair(
        public=PaillierPublicKey(n=n, g=g),
        private=PaillierPrivateKey(
            p=p,
            q=q,
            hp=pow(_crt_half(g, p, 1), -1, p),
            hq=pow(_crt_half(g, q, 1), -1, q),
            q_inv=pow(q, -1, p),
        ),
    )


def _crt_half(c: int, prime: int, h: int) -> int:
    """``L_prime(c^(prime-1) mod prime^2) * h mod prime``."""
    return (_powmod(c, prime - 1, prime * prime) - 1) // prime * h % prime


def encrypt(
    m: int,
    pk: PaillierPublicKey,
    rng: random.Random | None = None,
) -> Ciphertext:
    """Encrypt integer ``m`` as ``(1 + m*n) * h_n^a mod n^2``.

    Args:
        m: Plaintext in ``[0, n)``.
        pk: Public key.
        rng: Source of the blinding exponent ``a``, one ``getrandbits`` of
            ``ceil(k/2)`` bits for a ``k``-bit ``n``; OS entropy when omitted.

    Returns:
        A :class:`Ciphertext` under ``pk``.
    """
    if not 0 <= m < pk.n:
        raise InvalidInputError("plaintext outside [0, n)")
    draw = rng.getrandbits if rng is not None else secrets.randbits
    a = draw((pk.n.bit_length() + 1) // 2)
    n_sq = pk.n_squared
    value = (1 + m * pk.n) * _powmod(pk.h_n, a, n_sq) % n_sq
    return Ciphertext(value=value, modulus=pk.n)


def decrypt(c: Ciphertext, kp: PaillierKeyPair) -> int:
    """Recover the plaintext of ``c`` by CRT over ``p`` and ``q``; the key must match."""
    if c.modulus != kp.public.n:
        raise KeyMismatchError("ciphertext was produced under a different key")
    sk = kp.private
    mp = _crt_half(c.value, sk.p, sk.hp)
    mq = _crt_half(c.value, sk.q, sk.hq)
    return mq + (mp - mq) * sk.q_inv % sk.p * sk.q


def add(c1: Ciphertext, c2: Ciphertext, pk: PaillierPublicKey) -> Ciphertext:
    """Homomorphic addition: decrypts to the sum of the two plaintexts."""
    if c1.modulus != pk.n or c2.modulus != pk.n:
        raise KeyMismatchError("ciphertexts under different keys cannot be added")
    return Ciphertext(value=c1.value * c2.value % pk.n_squared, modulus=pk.n)


def encode_fixed(x: float) -> int:
    """Map ``x`` in ``[0, 1]`` to ``round(x * SCALE)``."""
    if not 0.0 <= x <= 1.0 or not math.isfinite(x):
        raise InvalidInputError(f"value {x} outside [0, 1]")
    return round(x * SCALE)


def _slot_count(width: int, n: int) -> int:
    """Slots of ``width`` bits that fit a plaintext below ``n``."""
    slots = (n.bit_length() - 1) // width
    if slots < 1:
        raise ConfigurationError(
            f"a {width}-bit slot does not fit a {n.bit_length()}-bit modulus"
        )
    return slots


def encrypt_vector(
    xs: Sequence[float],
    pk: PaillierPublicKey,
    rng: random.Random | None = None,
    *,
    contributors: int,
) -> PackedVector:
    """Fixed-point encode ``xs``, pack the components into slots, encrypt each chunk.

    Args:
        xs: Components in ``[0, 1]``.
        pk: Public key; encryption needs nothing else.
        rng: Source of blinding randomness; OS entropy when omitted.
        contributors: Most vectors that will ever be summed with this one;
            slots are ``(contributors * SCALE).bit_length()`` bits wide so
            that the sum of that many components cannot overflow a slot.

    Returns:
        A :class:`PackedVector` with one ciphertext per chunk of slots.
    """
    if contributors < 1:
        raise ConfigurationError("contributors must be >= 1")
    width = (contributors * SCALE).bit_length()
    slots = _slot_count(width, pk.n)
    values = [encode_fixed(float(x)) for x in xs]
    chunks = tuple(
        encrypt(
            sum(v << (i * width) for i, v in enumerate(values[start : start + slots])),
            pk,
            rng,
        )
        for start in range(0, len(values), slots)
    )
    return PackedVector(chunks=chunks, length=len(values), width=width)


def secure_mean(
    encrypted_vectors: Sequence[PackedVector],
    kp: PaillierKeyPair,
) -> np.ndarray:
    """Component-wise mean of packed encrypted fixed-point vectors.

    Ciphertexts are folded homomorphically chunk by chunk, each chunk sum is
    decrypted once, and its slots are unpacked, decoded and divided by the
    number of vectors.

    Args:
        encrypted_vectors: One packed vector per contributor.
        kp: Key pair of the single decrypting party.

    Returns:
        Real-valued mean vector.
    """
    count = len(encrypted_vectors)
    if count == 0:
        raise EmptyAggregationError("secure mean over zero contributors")
    first = encrypted_vectors[0]
    if any(
        (vec.length, vec.width, len(vec.chunks))
        != (first.length, first.width, len(first.chunks))
        for vec in encrypted_vectors
    ):
        raise InvalidInputError("encrypted vectors have differing lengths or slot widths")
    width = first.width
    slots = _slot_count(width, kp.public.n)
    if len(first.chunks) != -(-first.length // slots):
        raise InvalidInputError("chunk count does not match length and slot width")
    if count * SCALE >= 1 << width:
        raise ConfigurationError(f"{count} contributors overflow {width}-bit slots")
    mask = (1 << width) - 1
    out = np.empty(first.length, dtype=np.float64)
    for k, acc in enumerate(first.chunks):
        for vec in encrypted_vectors[1:]:
            acc = add(acc, vec.chunks[k], kp.public)
        total = decrypt(acc, kp)
        for j in range(k * slots, min((k + 1) * slots, first.length)):
            out[j] = (total & mask) / SCALE / count
            total >>= width
    return out
