// Rows of doubles as CSV text, every double spelled the way Python's repr
// spells it, for otbot.simulate.write_csv.
//
// std::to_chars in scientific format without a precision gives the shortest
// digits that read back as the same double, the nearest such string where
// two are equally short: the digits of repr (David Gay's dtoa, mode 0).
// They are laid out as repr lays them out:
//   - fixed notation when the decimal exponent is in [-4, 16), with ".0" on
//     integral values;
//   - otherwise d.ddde+XX or d.ddde-XX, with at least two exponent digits;
//   - "-0.0", "inf", "-inf", and "nan" for every NaN whatever its sign.
//
// Built by otbot._ckernel with: c++ -O2 -std=c++17 -shared -fPIC
#include <charconv>
#include <cmath>
#include <cstring>

namespace {

// The most characters one double and its separator take: the longest
// spelling, "-2.2250738585072014e-308", has 24.
constexpr long kCell = sizeof "-2.2250738585072014e-308";

char *put(char *p, const char *s, long n) {
    std::memcpy(p, s, n);
    return p + n;
}

char *format_double(double x, char *p) {
    if (std::isnan(x)) return put(p, "nan", 3);
    if (std::signbit(x)) {
        *p++ = '-';
        x = -x;
    }
    if (std::isinf(x)) return put(p, "inf", 3);
    if (x == 0.0) return put(p, "0.0", 3);

    // d[.ddd]e(+|-)XX[X]
    char sci[32];
    const char *end = std::to_chars(sci, sci + sizeof sci, x, std::chars_format::scientific).ptr;
    char digits[17];
    int n = 0;
    const char *s = sci;
    for (; *s != 'e'; ++s)
        if (*s != '.') digits[n++] = *s;
    int e = 0;
    for (const char *q = s + 2; q < end; ++q) e = 10 * e + (*q - '0');
    if (s[1] == '-') e = -e;

    if (e >= 16 || e < -4) {
        *p++ = digits[0];
        if (n > 1) {
            *p++ = '.';
            p = put(p, digits + 1, n - 1);
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        int a = e < 0 ? -e : e;
        if (a >= 100) *p++ = static_cast<char>('0' + a / 100);
        *p++ = static_cast<char>('0' + a / 10 % 10);
        *p++ = static_cast<char>('0' + a % 10);
    } else if (e < 0) {
        p = put(p, "0.000", 1 - e);  // "0." and -e - 1 zeros
        p = put(p, digits, n);
    } else if (n <= e + 1) {
        p = put(p, digits, n);
        for (int i = n; i <= e; ++i) *p++ = '0';
        p = put(p, ".0", 2);
    } else {
        p = put(p, digits, e + 1);
        *p++ = '.';
        p = put(p, digits + e + 1, n - e - 1);
    }
    return p;
}

}  // namespace

// Writes rows x cols doubles (row-major) to the size bytes at out, values
// separated by commas and every row ended by the n_eol characters of eol;
// returns the number of characters written. Returns -1, having written only
// whole rows, where the longest spelling of a row might not fit in what is
// left of out.
extern "C" long format_rows(const double *x, long rows, long cols, const char *eol, long n_eol,
                            char *out, long size) {
    char *p = out;
    for (long i = 0; i < rows; ++i) {
        if (out + size - p < kCell * cols + n_eol) return -1;
        for (long j = 0; j < cols; ++j) {
            if (j > 0) *p++ = ',';
            p = format_double(x[i * cols + j], p);
        }
        p = put(p, eol, n_eol);
    }
    return p - out;
}
