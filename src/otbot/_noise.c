/* Standard normal draws with the bits of numpy's default_rng(seed)
 * .standard_normal(n), without numpy.random. The seed's little-endian 32-bit
 * words go through numpy's SeedSequence (a pool of four words: mix_entropy,
 * then generate_state(4, uint64)), which seeds a PCG64 (O'Neill 2014: a
 * 128-bit LCG with the XSL-RR output). Its draws feed numpy's own 256-layer
 * ziggurat (Marsaglia & Tsang 2000), random_standard_normal_fill of
 * libnpyrandom.a, linked after this file.
 */
#include <stdint.h>
#include "numpy/random/bitgen.h"

/* as distributions.h, which includes Python.h, declares it (npy_intp is intptr_t) */
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
typedef unsigned __int128 u128;  /* PCG64's state, and its default multiplier: */
#define MULTIPLIER ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL)

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ r >> 16;
}

/* one LCG step of the state st[0] by the increment st[1], then XSL-RR */
static uint64_t next_uint64(void *st)
{
    u128 *s = st;
    s[0] = s[0] * MULTIPLIER + s[1];
    uint64_t x = (uint64_t)(s[0] >> 64) ^ (uint64_t)s[0];
    unsigned rot = (unsigned)(s[0] >> 122);
    return x >> rot | x << (-rot & 63);
}

static double next_double(void *st) { return (next_uint64(st) >> 11) * (1.0 / 9007199254740992.0); }

/* out[0:n] = default_rng(seed).standard_normal(n), the seed as n_words words */
void normal_fill(const uint32_t *words, long n_words, long n, double *out)
{
    uint32_t pool[4], a = 0x43b0d7e5u, b = 0x8b51f9ddu;  /* INIT_A, INIT_B */
    uint64_t w[4] = {0};
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n_words ? words[i] : 0, &a);
    for (int s = 0; s < 4; s++)
        for (int d = 0; d < 4; d++)
            if (s != d)
                pool[d] = mix(pool[d], hashmix(pool[s], &a));
    for (long s = 4; s < n_words; s++)
        for (int d = 0; d < 4; d++)
            pool[d] = mix(pool[d], hashmix(words[s], &a));
    for (int i = 0; i < 8; i++) {  /* eight 32-bit words, paired little-endian */
        uint32_t v = pool[i % 4] ^ b;
        b *= 0x58f38dedu;
        v *= b;
        w[i / 2] |= (uint64_t)(v ^ v >> 16) << 32 * (i % 2);
    }
    /* pcg64_set_seed; the first word of a pair is the high half */
    u128 s[2] = {0, ((u128)w[2] << 64 | w[3]) << 1 | 1};
    next_uint64(s);
    s[0] += (u128)w[0] << 64 | w[1];
    next_uint64(s);
    bitgen_t g = {s, next_uint64, 0, next_double, 0};
    random_standard_normal_fill(&g, n, out);
}
