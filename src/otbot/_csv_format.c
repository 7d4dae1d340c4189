// Rows of doubles as CSV text, every double spelled the way Python's repr
// spells it, for otbot.simulate.write_csv.
//
// The digits are the shortest that read back as the same double, the
// nearest such string where two are equally short: the digits of repr
// (David Gay's dtoa, mode 0). They come from Schubfach (R. Giulietti, "The
// Schubfach way to render doubles", 2020): the double's rounding interval
// is scaled by a 128-bit power of ten, rounded to odd, and the shortest
// decimal inside it is read off with a few comparisons, with no division
// and no loop over candidates. The caller builds the table of those powers
// from their definition (below) when it loads this library, and passes it
// to format_rows. Integers below 2**53 skip it. The digits are written two
// at a time from a table, straight into repr's layout:
//   - fixed notation when the decimal exponent is in [-4, 16), with ".0" on
//     integral values;
//   - otherwise d.ddde+XX or d.ddde-XX, with at least two exponent digits;
//   - "-0.0", "inf", "-inf", and "nan" for every NaN whatever its sign.
//
// Built by otbot._ckernel with: cc -O2 -shared -fPIC
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 uint128;

// The most characters one double and its separator take: the longest
// spelling, "-2.2250738585072014e-308", has 24.
#define CELL ((long)sizeof "-2.2250738585072014e-308")

// "00", "01", ..., "99"
static const char DIGITS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

static const uint64_t POW10_64[] = {
    1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull, 100000000ull,
    1000000000ull, 10000000000ull, 100000000000ull, 1000000000000ull, 10000000000000ull,
    100000000000000ull, 1000000000000000ull, 10000000000000000ull, 100000000000000000ull,
    1000000000000000000ull, 10000000000000000000ull,
};

// Row k - K_MIN of that table, pow10, is the {high, low} 64 bits of g(k) =
// ceil(10^k / 2^(floor(log2 10^k) - 127)), 10^k scaled into [2^127, 2^128),
// for k from K_MIN to K_MAX: the powers that scale the exponents of every
// double, subnormals included. The range is exported for the caller.
#define K_MIN (-292)
#define K_MAX 324
const int POW10_K_MIN = K_MIN, POW10_K_MAX = K_MAX;

// floor(log10(2^q)), or floor(log10(3/4 2^q)) with three_quarters, for |q| <= 1500;
// >> on a negative int is an arithmetic shift in gcc and clang, so it floors
static int floor_log10_pow2(int q, int three_quarters)
{
    return (q * 1262611 - (three_quarters ? 524031 : 0)) >> 22;
}

// floor(log2(10^k)) for |k| <= 1233
static int floor_log2_pow10(int k)
{
    return (k * 1741647) >> 19;
}

// floor(g x / 2^128) for the 128-bit g, rounded to odd: its lowest bit is
// set where the product is not exact
static uint64_t round_to_odd(const uint64_t *g, uint64_t x)
{
    const uint128 lo = (uint128)x * g[1];
    const uint128 hi = (uint128)x * g[0] + (uint64_t)(lo >> 64);
    return (uint64_t)(hi >> 64) | ((uint64_t)hi > 1);
}

// The positive finite double of the given bits as m 10^e: m has the fewest
// digits of any decimal that rounds back to it, and is the nearest such
// decimal to it, the even one of two equally near. Schubfach's ToDecimal64,
// on the table pow10 of g(k).
static uint64_t to_decimal(const uint64_t (*pow10)[2], uint64_t bits, int *e)
{
    const uint64_t fraction = bits & ((1ull << 52) - 1);
    const int biased = (int)(bits >> 52);
    uint64_t c;
    int q;
    if (biased) {
        c = fraction | (1ull << 52);
        q = biased - 1075;
        // an integer: the three tests with no branch between them (the
        // shift by -q & 63 is defined where q is out of range, and ignored)
        if ((q <= 0) & (q > -53) & ((c & ((1ull << (-q & 63)) - 1)) == 0)) {
            *e = 0;
            return c >> -q;
        }
    } else {  // subnormal
        c = fraction;
        q = -1074;
    }
    // the doubles next to c 2^q, as 4 c 2^(q-2) -+ the halfway points
    const int even = (c & 1) == 0;
    const int closer_below = fraction == 0 && biased > 1;
    const uint64_t cbl = 4 * c - 2 + closer_below, cb = 4 * c, cbr = 4 * c + 2;
    const int k = floor_log10_pow2(q, closer_below);
    const int h = q + floor_log2_pow10(-k) + 1;  // from 1 to 4
    const uint64_t *g = pow10[-k - K_MIN];
    const uint64_t vbl = round_to_odd(g, cbl << h);
    const uint64_t vb = round_to_odd(g, cb << h);
    const uint64_t vbr = round_to_odd(g, cbr << h);
    // the interval of decimals that round back, its ends in only where c is even
    const uint64_t lower = vbl + !even, upper = vbr - !even;
    // every candidate is computed and one picked with no branch: which one
    // wins depends on the digits, and a mispredicted branch costs more.
    // One digit fewer where a multiple of 10 alone is in the interval:
    const uint64_t s = vb / 4, sp = s / 10;
    const int shorter = (s >= 10) & ((lower <= 40 * sp) != (40 * sp + 40 <= upper));
    // else s or s + 1 where one alone is in, else the nearer, the even one on a tie
    const int u_in = lower <= 4 * s, w_in = 4 * s + 4 <= upper;
    const uint64_t mid = 4 * s + 2;
    const int nearer_up = (vb > mid) | ((vb == mid) & (int)(s & 1));
    const uint64_t m = s + (u_in != w_in ? w_in : nearer_up);
    *e = k + shorter;
    return shorter ? sp + (40 * sp + 40 <= upper) : m;
}

// m without its trailing zeros, counted into e
static uint64_t strip_zeros(uint64_t m, int *e)
{
    if (m % 10 != 0) return m;  // the common case
    while (m % 100000000 == 0) {
        m /= 100000000;
        *e += 8;
    }
    static const int steps[] = {4, 2, 1};
    for (int i = 0; i < 3; i++) {
        const uint64_t p = POW10_64[steps[i]];
        if (m % p == 0) {
            m /= p;
            *e += steps[i];
        }
    }
    return m;
}

// The number of decimal digits of m >= 1
static int digit_count(uint64_t m)
{
    const int t = ((64 - __builtin_clzll(m)) * 1233) >> 12;
    return t + 1 - (m < POW10_64[t]);
}

// The digits of r ending before end, two at a time from the right: 2 * pairs
// digits (leading zeros included), or with pairs 0 as many as r has
static char *put_pairs(uint32_t r, char *end, int pairs)
{
    for (int i = 0; pairs ? i < pairs : r >= 100; i++) {
        const uint32_t d = r / 100;
        end -= 2;
        memcpy(end, DIGITS + 2 * (r - 100 * d), 2);
        r = d;
    }
    if (pairs) return end;
    if (r >= 10) {
        end -= 2;
        memcpy(end, DIGITS + 2 * r, 2);
    } else {
        *--end = (char)('0' + r);
    }
    return end;
}

// The digits of m ending before end, eight at a time in 32-bit arithmetic
static void put_digits(uint64_t m, char *end)
{
    while (m >= 100000000) {
        const uint64_t d = m / 100000000;
        end = put_pairs((uint32_t)(m - 100000000 * d), end, 4);
        m = d;
    }
    put_pairs((uint32_t)m, end, 0);
}

static char *put(char *p, const char *s, long n)
{
    memcpy(p, s, n);
    return p + n;
}

static char *format_double(const uint64_t (*pow10)[2], double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if ((bits << 1) > (0x7ffull << 53)) return put(p, "nan", 3);
    if (bits >> 63) {
        *p++ = '-';
        bits &= ~(1ull << 63);
    }
    if (bits == 0x7ffull << 52) return put(p, "inf", 3);
    if (bits == 0) return put(p, "0.0", 3);

    int e;
    const uint64_t m = strip_zeros(to_decimal(pow10, bits, &e), &e);
    const int n = digit_count(m);
    const int point = n + e;  // the decimal exponent is point - 1
    if (point > 16 || point < -3) {  // d[.ddd]e(+|-)XX[X]
        put_digits(m, p + 1 + n);
        p[0] = p[1];
        if (n > 1) {
            p[1] = '.';
            p += n + 1;
        } else {
            p += 1;
        }
        int a = point - 1;
        *p++ = 'e';
        *p++ = a < 0 ? '-' : '+';
        a = a < 0 ? -a : a;
        if (a >= 100) {
            *p++ = (char)('0' + a / 100);
            a %= 100;
        }
        return put(p, DIGITS + 2 * a, 2);
    }
    if (point <= 0) {  // "0." and -point zeros, then the digits
        p = put(p, "0.000", 2 - point);
        put_digits(m, p + n);
        return p + n;
    }
    if (n <= point) {  // the digits, point - n zeros and ".0"
        put_digits(m, p + n);
        memset(p + n, '0', point - n);
        return put(p + point, ".0", 2);
    }
    // the digits with a point after the first point of them
    put_digits(m, p + n + 1);
    memmove(p, p + 1, point);
    p[point] = '.';
    return p + n + 1;
}

// Writes rows x cols doubles (row-major) to the size bytes at out, values
// separated by commas and every row ended by the n_eol characters of eol;
// returns the number of characters written. Returns -1, having written only
// whole rows, where the longest spelling of a row might not fit in what is
// left of out. pow10 is the table of g(k), K_MAX - K_MIN + 1 rows.
long format_rows(const uint64_t (*pow10)[2], const double *x, long rows, long cols,
                 const char *eol, long n_eol, char *out, long size)
{
    char *p = out;
    for (long i = 0; i < rows; ++i) {
        if (out + size - p < CELL * cols + n_eol) return -1;
        for (long j = 0; j < cols; ++j) {
            if (j > 0) *p++ = ',';
            p = format_double(pow10, x[i * cols + j], p);
        }
        p = put(p, eol, n_eol);
    }
    return p - out;
}
