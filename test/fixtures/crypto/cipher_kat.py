#!/usr/bin/env python3
"""Known answers for lib/crypto's ChaCha20, Poly1305 and Cipher.

Computed with the python3 `cryptography` package (tested with 48.0), so
the pins in test/test_crypto.ml do not depend on the OCaml code they
check.  dune does not run this script; run it by hand and paste its
output over the pins after a deliberate change of construction:

    python3 test/fixtures/crypto/cipher_kat.py

The OCaml ChaCha20 takes a 64-bit block counter and a 64-bit nonce
(Bernstein's layout); `algorithms.ChaCha20` takes a 16-byte "nonce" that
is the four state words 12-15, so le64(counter) || nonce is the same
block.  Each Cipher lane is a stock Poly1305 over RFC 8439's AEAD input
with the nonce as AAD, keyed by r || s: r a half of the MAC subkey (the
package clamps it), s 16 bytes of ChaCha20 block 0.
"""

import hashlib
import struct

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.poly1305 import Poly1305


def chacha20(key, counter, nonce, length):
    ctx = Cipher(algorithms.ChaCha20(key, struct.pack("<Q", counter) + nonce), mode=None)
    return ctx.encryptor().update(bytes(length))


def pad16(b):
    return b"\0" * (-len(b) % 16)


def mac_data(nonce, body):
    return nonce + pad16(nonce) + body + pad16(body) + struct.pack("<QQ", len(nonce), len(body))


def tag(mac, pads, nonce, body):
    data = mac_data(nonce, body)
    return b"".join(
        Poly1305.generate_tag(mac[16 * i : 16 * i + 16] + pads[16 * i : 16 * i + 16], data)
        for i in range(2)
    )


def seal(raw, nonce, plain):
    enc = hashlib.sha256(b"cipher-enc|" + raw).digest()
    mac = hashlib.sha256(b"cipher-mac|" + raw).digest()
    stream = chacha20(enc, 0, nonce, 32 + len(plain))
    body = bytes(p ^ k for p, k in zip(plain, stream[32:]))
    return body, tag(mac, stream[:32], nonce, body)


def counting(n):
    return bytes(i & 0xFF for i in range(n))


def main():
    # RFC 8439 2.3.2: key 00..1f, RFC nonce 000000090000004a00000000,
    # block count 1.  In the 64-bit layout the RFC nonce's first word
    # (0x09000000, little-endian) is the counter's high word.
    key = bytes(range(32))
    nonce = bytes.fromhex("0000004a00000000")
    counter = 1 + (0x09000000 << 32)
    print("chacha20 rfc8439 2.3.2 block:", chacha20(key, counter, nonce, 64).hex())
    # Counter and nonce words with high bits set, and a keystream run.
    nonce = bytes.fromhex("8102030405060708")
    for counter in (0, 1, 0xFFFFFFFF, 0x0123456789ABCDEF):
        print("chacha20 key 00..1f counter %#x:" % counter, chacha20(key, counter, nonce, 64).hex())
    print("chacha20 4096 bytes from 0, sha256:",
          hashlib.sha256(chacha20(key, 0, nonce, 4096)).hexdigest())

    # RFC 8439 2.5.2.
    rfc_key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
    msg = b"Cryptographic Forum Research Group"
    print("poly1305 rfc8439 2.5.2:", Poly1305.generate_tag(rfc_key, msg).hex())
    # Every final-block length 0..48 under one key: sha256 of the tags.
    tags = b"".join(Poly1305.generate_tag(rfc_key, counting(n)) for n in range(49))
    print("poly1305 lengths 0..48, sha256 of tags:", hashlib.sha256(tags).hexdigest())
    # A key whose r and s are all ones before clamping: the largest limbs
    # and the final carry.
    ones = b"\xff" * 32
    print("poly1305 all-ones key, 64 x ff:", Poly1305.generate_tag(ones, b"\xff" * 64).hex())

    # Whole seals under "cipher-kat-key", nonce 0x8102030405060708,
    # plaintext 00 01 02 ...
    raw = b"cipher-kat-key"
    for n in (0, 1, 15, 16, 17, 32, 33, 1040):
        body, t = seal(raw, nonce, counting(n))
        shown = body.hex() if n <= 33 else "sha256 " + hashlib.sha256(body).hexdigest()
        print("seal %d body:" % n, shown)
        print("seal %d tag:" % n, t.hex())

    # Tag only (Cipher.mac_into): 12 clear bytes under nonce 3 << 32 | 9.
    data = bytes.fromhex("000000030000000900000002")
    enc = hashlib.sha256(b"cipher-enc|" + raw).digest()
    mac = hashlib.sha256(b"cipher-mac|" + raw).digest()
    ack_nonce = struct.pack(">Q", (3 << 32) | 9)
    pads = chacha20(enc, 0, ack_nonce, 32)
    print("mac_into 12 bytes:", tag(mac, pads, ack_nonce, data).hex())


if __name__ == "__main__":
    main()
