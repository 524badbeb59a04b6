"""Additive homomorphism, fixed-point coding, CRT decryption, the packed mean,
and the modular exponentiation every operation rests on.

All tests share one 512-bit key pair; key generation is the slow part.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gossipseg import paillier
from gossipseg.errors import (
    ConfigurationError,
    EmptyAggregationError,
    InvalidInputError,
    KeyMismatchError,
)
from gossipseg.paillier import (
    Ciphertext,
    add,
    decode_fixed,
    decrypt,
    encode_fixed,
    encrypt,
    encrypt_vector,
    keygen,
    secure_mean,
)


def test_keygen_modulus_bit_length(small_keypair):
    n = small_keypair.public.n
    assert n.bit_length() == 512
    assert small_keypair.public.g == n + 1


def test_keygen_deterministic_under_seed():
    a = keygen(bits=256, seed=99)
    b = keygen(bits=256, seed=99)
    c = keygen(bits=256, seed=100)
    assert a.public.n == b.public.n
    assert (a.private.p, a.private.q) == (b.private.p, b.private.q)
    assert a.public.n != c.public.n


def test_roundtrip_and_homomorphism(small_keypair):
    kp = small_keypair
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randrange(0, 10**12)
        b = rng.randrange(0, 10**12)
        ca = encrypt(a, kp.public, rng)
        cb = encrypt(b, kp.public, rng)
        assert decrypt(ca, kp) == a
        assert decrypt(add(ca, cb, kp.public), kp) == a + b


def test_ciphertexts_are_randomized(small_keypair):
    kp = small_keypair
    rng = random.Random(6)
    c1 = encrypt(42, kp.public, rng)
    c2 = encrypt(42, kp.public, rng)
    assert c1.value != c2.value
    assert decrypt(c1, kp) == decrypt(c2, kp) == 42


def test_plaintext_range_enforced(small_keypair):
    pk = small_keypair.public
    with pytest.raises(InvalidInputError):
        encrypt(-1, pk)
    with pytest.raises(InvalidInputError):
        encrypt(pk.n, pk)


def test_wrong_key_rejected(small_keypair):
    other = keygen(bits=256, seed=7)
    c = encrypt(5, other.public, random.Random(1))
    with pytest.raises(KeyMismatchError):
        decrypt(c, small_keypair)
    with pytest.raises(KeyMismatchError):
        add(c, encrypt(1, small_keypair.public, random.Random(2)), small_keypair.public)


def test_fixed_point_roundtrip_error_bound():
    scale = 10**6
    rng = random.Random(8)
    for _ in range(200):
        x = rng.random()
        assert abs(decode_fixed(encode_fixed(x, scale), scale) - x) <= 0.5 / scale
    assert encode_fixed(0.0, scale) == 0
    assert encode_fixed(1.0, scale) == scale
    with pytest.raises(InvalidInputError):
        encode_fixed(1.5, scale)
    with pytest.raises(InvalidInputError):
        encode_fixed(-0.1, scale)


def test_secure_mean_matches_plaintext_loop(small_keypair):
    kp = small_keypair
    scale = 10**6
    rng = random.Random(9)
    np_rng = np.random.default_rng(9)
    vectors = np_rng.random((5, 4))
    encrypted = [
        encrypt_vector(v, kp.public, scale, rng, contributors=len(vectors))
        for v in vectors
    ]
    got = secure_mean(encrypted, kp, scale)

    # reference: plain python accumulation, no numpy mean
    want = []
    for j in range(vectors.shape[1]):
        total = 0.0
        for i in range(vectors.shape[0]):
            total += vectors[i, j]
        want.append(total / vectors.shape[0])
    assert np.max(np.abs(got - np.array(want))) < 1e-6


def test_secure_mean_guards(small_keypair):
    kp = small_keypair
    scale = 10**6
    with pytest.raises(EmptyAggregationError):
        secure_mean([], kp, scale)
    rng = random.Random(3)
    mixed = [encrypt_vector(v, kp.public, scale, rng, contributors=2) for v in ([0.5], [0.5, 0.5])]
    with pytest.raises(InvalidInputError):
        secure_mean(mixed, kp, scale)


def textbook_decrypt(c, kp):
    """``L(c^lambda mod n^2) * mu mod n`` without CRT, with ``lambda = (p-1)(q-1)``
    and ``mu = lambda^-1 mod n``."""
    n = kp.public.n
    lam = (kp.private.p - 1) * (kp.private.q - 1)
    return (pow(c.value, lam, n * n) - 1) // n * pow(lam, -1, n) % n


@pytest.mark.parametrize("bits,seed", [(512, 1234), (257, 5), (300, 6)])
def test_crt_decrypt_matches_textbook_on_random_ciphertexts(small_keypair, bits, seed):
    kp = small_keypair if bits == 512 else keygen(bits=bits, seed=seed)
    n = kp.public.n
    assert kp.private.p * kp.private.q == n
    rng = random.Random(seed)
    checked = 0
    while checked < 40:
        # any unit mod n^2 is a ciphertext of some plaintext
        value = rng.randrange(1, n * n)
        if math.gcd(value, n) != 1:
            continue
        c = Ciphertext(value=value, modulus=n)
        assert decrypt(c, kp) == textbook_decrypt(c, kp)
        checked += 1


@given(
    data=st.data(),
    length=st.sampled_from([1, 4, 32, 60]),
    count=st.integers(min_value=1, max_value=5),
    spare=st.sampled_from([0, 1, 7, 1000]),
    scale=st.sampled_from([10**3, 10**6]),
)
def test_packed_secure_mean_equals_integer_reference(
    small_keypair, data, length, count, spare, scale
):
    kp = small_keypair
    contributors = count + spare
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    np_rng = np.random.default_rng(seed)
    vectors = np_rng.random((count, length))
    # exact endpoints exercise the widest slot value
    vectors[0, 0] = data.draw(st.sampled_from([0.0, 1.0, float(vectors[0, 0])]))
    encrypted = [
        encrypt_vector(v, kp.public, scale, random.Random(seed + i), contributors=contributors)
        for i, v in enumerate(vectors)
    ]
    width = (contributors * scale).bit_length()
    slots = (kp.public.n.bit_length() - 1) // width
    assert all(vec.width == width for vec in encrypted)
    assert all(len(vec.chunks) == -(-length // slots) for vec in encrypted)

    got = secure_mean(encrypted, kp, scale)
    want = [
        sum(encode_fixed(float(vectors[i, j]), scale) for i in range(count)) / scale / count
        for j in range(length)
    ]
    assert got.tolist() == want


def test_slot_capacity_enforced(small_keypair):
    kp = small_keypair
    scale = 10**6
    rng = random.Random(4)
    # sized for one contributor: 20-bit slots hold at most 1,048,575 < 2 * scale
    enc = [encrypt_vector([1.0, 1.0], kp.public, scale, rng, contributors=1) for _ in range(2)]
    with pytest.raises(ConfigurationError):
        secure_mean(enc, kp, scale)

    # a slot as wide as n leaves no room for even one slot below n
    huge = 1 << kp.public.n.bit_length()
    with pytest.raises(ConfigurationError):
        encrypt_vector([0.5], kp.public, scale, rng, contributors=huge)
    too_wide = replace(enc[0], width=kp.public.n.bit_length())
    with pytest.raises(ConfigurationError):
        secure_mean([too_wide], kp, scale)


@given(data=st.data(), bits=st.integers(min_value=64, max_value=2048))
def test_powmod_matches_builtin_pow(data, bits):
    mod = data.draw(st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)) | 1
    base = data.draw(
        st.one_of(st.just(0), st.integers(0, mod - 1), st.integers(mod, 3 * mod))
    )
    exp = data.draw(st.one_of(st.just(0), st.integers(0, 2**bits - 1)))
    assert paillier._powmod(base, exp, mod) == pow(base, exp, mod)


@pytest.mark.parametrize("bits", [64, 512, 1024, 2048])
def test_powmod_edge_operands_match_builtin_pow(bits):
    rng = random.Random(bits)
    mod = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    exp = rng.getrandbits(bits)
    # zero base, bases of at least the modulus, zero exponent
    cases = [(0, exp), (mod, exp), (mod + 12345, exp), (2 * mod, exp), (rng.randrange(mod), 0)]
    for base, e in cases + [(0, 0)]:
        assert paillier._powmod(base, e, mod) == pow(base, e, mod)


@pytest.mark.skipif(paillier._powmod is pow, reason="libcrypto is not reachable")
def test_powmod_rejects_even_modulus():
    with pytest.raises(ValueError):
        paillier._powmod(3, 5, 10)


def test_builtin_pow_fallback_gives_identical_keys_and_ciphertexts(monkeypatch):
    def outputs():
        kp = keygen(bits=512, seed=77)
        c = encrypt(123456789, kp.public, random.Random(3))
        vec = encrypt_vector(
            [0.0, 0.25, 1.0], kp.public, 10**6, random.Random(4), contributors=3
        )
        return kp, c, vec, decrypt(c, kp), secure_mean([vec], kp, 10**6).tolist()

    default = outputs()
    monkeypatch.setattr(paillier, "_powmod", pow)
    assert outputs() == default
    assert default[3:] == (123456789, [0.0, 0.25, 1.0])
