#!/usr/bin/env python3
"""Derive the jump polynomials of src/common/rng_stream.cpp.

A jump of N steps of xoshiro256's state transition T is the polynomial
x^N mod P, where P is T's characteristic polynomial: since P(T) = 0,
T^N s is the XOR of T^i s over the set coefficients i of that polynomial.
P comes from the Berlekamp-Massey algorithm over one state bit's sequence.
The script prints the C++ table of x^(k * L) mod P for lanes k = 0..7,
checks each against L * k plain steps, and checks that it reproduces
xoshiro's published 2^128 jump constant.

Usage: python3 tools/xoshiro_jumps.py [L]   (default 4096)
"""

import sys

MASK = (1 << 64) - 1
LANES = 8
# xoshiro256's own jump() constant: x^(2^128) mod P.
JUMP_2_128 = [0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
              0xa9582618e03fc9aa, 0x39abdc4529b1661c]


def rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


def step(s):
    s0, s1, s2, s3 = s
    t = (s1 << 17) & MASK
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = rotl(s3, 45)
    return [s0, s1, s2, s3]


def characteristic_polynomial():
    """Berlekamp-Massey over bit 0 of s0; T's minimal polynomial has full
    degree 256 because the generator has full period."""
    s = [0x0123456789abcdef, 0xfedcba9876543210, 0x0f0f0f0f0f0f0f0f, 0x1234]
    bits = []
    for _ in range(1024):
        bits.append(s[0] & 1)
        s = step(s)
    c, b, degree, m = 1, 1, 0, 1
    for i, bit in enumerate(bits):
        d = bit
        for j in range(1, degree + 1):
            d ^= ((c >> j) & 1) & bits[i - j]
        if d == 0:
            m += 1
        elif 2 * degree <= i:
            c, b = c ^ (b << m), c
            degree, m = i + 1 - degree, 1
        else:
            c ^= b << m
            m += 1
    assert degree == 256, degree
    # The connection polynomial's reciprocal.
    return sum(1 << (degree - j) for j in range(degree + 1) if (c >> j) & 1)


def mulmod(a, b, p):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> 256) & 1:
            a ^= p
    return r


def x_power(n, p):
    result, base = 1, 2
    while n:
        if n & 1:
            result = mulmod(result, base, p)
        base = mulmod(base, base, p)
        n >>= 1
    return result


def words(poly):
    return [(poly >> (64 * w)) & MASK for w in range(4)]


def jump(s, poly):
    acc = [0, 0, 0, 0]
    for i in range(256):
        if (poly >> i) & 1:
            acc = [a ^ b for a, b in zip(acc, s)]
        s = step(s)
    return acc


def main():
    lane = int(sys.argv[1]) if len(sys.argv) > 1 else 4096
    p = characteristic_polynomial()
    assert words(x_power(1 << 128, p)) == JUMP_2_128
    start = [0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 7]
    print("constexpr std::uint64_t kJumps[RngStream::kLanes][4] = {")
    for k in range(LANES):
        poly = x_power(k * lane, p)
        stepped = start
        for _ in range(k * lane):
            stepped = step(stepped)
        assert jump(start, poly) == stepped, k
        print("    {" + ", ".join("0x%016xull" % w for w in words(poly)) +
              "},  // %d steps" % (k * lane))
    print("};")
    return 0


if __name__ == "__main__":
    sys.exit(main())
