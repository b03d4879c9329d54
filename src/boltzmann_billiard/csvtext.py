"""CSV rows of a float array, each field byte for byte as "%.17g" writes it, NaN as an empty field.

A value with 1e-230 < |v| < 1e230 is scaled to 17 digits by 10**(16 - X), X its decimal
exponent, in Dekker's double-length product ("A floating-point technique for extending the
available precision", 1971), exact to about 1e-14.  Values within _UNSURE of a rounding tie,
+-inf and the values outside the range are formatted by "%.17g" one at a time.  The 17-digit
integer is cut into a first digit and four groups of four by n // c and n - (n // c) * c:
numpy divides an integer array by a scalar with libdivide (a multiply and a shift) in floor
division, but takes a hardware division per value in % and np.divmod.  Each field is four
little-endian 8-byte words, NUL where its text is shorter: comma, sign and "0.000" prefix, then
the digits with the dot and the exponent; one bytes.translate drops the NULs.  What of a field
hangs on X alone (where the dot goes, the fewest digits written, the zeros after "0." and the
exponent) is one take each from tables by X.  The lookup tables are built on first use (their
cost is in CHANGES.md, "Fewer passes in the %.17g kernel"), so a command that writes no CSV
never builds them.  The Dekker product is levelset._two_product, which the library uses too;
cli is the one module that imports this one, so importing the library does not load it.
"""

from functools import lru_cache

import numpy as np

from .levelset import _two_product

_RANGE = 1e230  # the kernel formats 1/_RANGE < |v| < _RANGE; "%.17g" formats the rest
_K_LO, _K_HI = -231, 246  # exponents of the tabled powers of ten
_UNSURE = 1e-6  # scaled values this close to a half go to "%.17g"


@lru_cache(maxsize=None)
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**k for k in [_K_LO, _K_HI] as hi + lo, hi the nearest double and lo the rest, rounded;
    and the least double >= 10**k.  int / int and float(int) are correctly rounded."""
    hi, lo = [], []
    p = 10 ** -_K_LO
    for _ in range(_K_LO, 0):  # 10**k = 1 / p
        hi.append(1 / p)
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((h_den - h_num * p) / (p * h_den))
        p //= 10
    for _ in range(_K_HI + 1):  # 10**k = p
        hi.append(float(p))
        lo.append(float(p - int(hi[-1])))
        p *= 10
    hi, lo = np.array(hi), np.array(lo)
    return hi, lo, np.where(lo > 0, np.nextafter(hi, np.inf), hi)


@lru_cache(maxsize=None)
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """"%04d" of 0-9999 as "<u4"; and by group j of the 16 digits after the first, and its value,
    the count of digits up to the group's last nonzero one, or 1 (a number's is the largest)."""
    two = [b"%02d" % i for i in range(100)]
    ascii2 = np.array(two, "S2").view("<u2").astype("<u4")
    last = np.array([len(t.rstrip(b"0")) for t in two], np.int8)
    last4 = np.where(np.arange(100) > 0, 2 + last, last[:, None]).ravel()  # the same of "%04d"
    nsig = np.where(last4 > 0, np.arange(1, 14, 4, dtype=np.int8)[:, None] + last4, np.int8(1))
    return (ascii2[:, None] | ascii2 << 16).ravel(), nsig


@lru_cache(maxsize=None)
def _field_tables() -> tuple[np.ndarray, ...]:
    """The field's word tables.

    left, right, point: by 18 * dot + keep, the masks and the "." of the 24 digit bytes: digit
    i < min(dot, keep) stays at byte i, digit i in [dot, keep) moves to byte i + 1, and "." is
    at byte dot when keep > dot.  prefix: comma, sign and "0.000", by 5 * negative + the zeros
    after the dot of fixed notation below 1.
    """
    b, dot, keep = np.arange(24), np.arange(18)[:, None, None], np.arange(18)[:, None]
    masks = [np.where(cond, byte, 0).astype(np.uint8).reshape(-1, 24).view("<u8") for cond, byte in
             [(b < np.minimum(dot, keep), 255), ((b > dot) & (b <= keep), 255),
              ((b == dot) & (keep > dot), ord("."))]]
    prefix = [b"," + s + b"0.000"[:z and z + 1] for s in (b"", b"-") for z in range(5)]
    return (*masks, np.array(prefix, "S8").view("<u8"))


@lru_cache(maxsize=None)
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """By decimal exponent x - _K_LO, what of a field hangs on x alone: 18 * dot, dot the digits
    before the dot (17: none, as in fixed notation below 1); the fewest digits written, the
    integer part's in fixed notation and 0 otherwise; the zeros after the dot of fixed notation
    below 1; and "e+XX" in bytes 18-22 of the last digit word, none in fixed notation."""
    x = np.arange(_K_LO, _K_HI + 1)
    fixed = (x >= -4) & (x < 17)
    dot = np.where(fixed, np.where(x >= 0, x + 1, 17), 1)
    exponent = [b"" if f else b"\0\0e%+03d" % k for k, f in zip(x.tolist(), fixed.tolist())]
    return (18 * dot, np.where(fixed & (x >= 0), x + 1, 0), np.where(fixed & (x < 0), -x, 0),
            np.array(exponent, "S8").view("<u8"))


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's 17 digits as an integer, rounded half to even, its decimal exponent, and whether
    they are known: not at 0, NaN, +-inf, out of range or near a tie, where both are 0."""
    p_hi, p_lo, p_ceil = _powers_of_ten()
    a = np.abs(v)
    exact = (a > 1 / _RANGE) & (a < _RANGE)
    a[~exact] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)  # may be one off next to a power of ten
    x += a >= np.take(p_ceil, x + (1 - _K_LO))
    x -= a < np.take(p_ceil, x - _K_LO)
    s = (16 - _K_LO) - x  # a * 10**(16 - x) = hi + lo to about 1e-14, hi an integer in [1e16, 1e17]
    hi, lo = _two_product(a, np.take(p_hi, s))
    lo += a * np.take(p_lo, s)
    floor = np.floor(lo)
    lo -= floor  # the fraction
    exact &= np.abs(lo - 0.5) > _UNSURE
    digits = hi.astype(np.int64)
    digits += floor.astype(np.int64)
    digits += lo > 0.5
    carry = digits == 10 ** 17  # rounded up to the next power of ten
    digits[carry] = 10 ** 16
    x += carry
    unknown = ~exact
    digits[unknown] = 0
    x[unknown] = 0
    return digits, x, exact


def _split(n: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """n // c and n % c of n >= 0, the second as n - (n // c) * c in place.  numpy divides an
    integer array by a scalar with libdivide in floor division, but not in % or np.divmod, which
    take a hardware division per value."""
    q = n // c
    r = q * c
    np.subtract(n, r, out=r)
    return q, r


def _ascii17(n: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Each n < 10**17 as 17 ASCII digits in bytes 0-16 of three words, and its digits up to the
    last nonzero one."""
    ascii4, nsig_table = _digit_tables()
    first, rest = _split(n, 10 ** 16)
    high, low = _split(rest, 10 ** 8)
    ascii16 = np.empty((len(n), 4), "<u4")
    nsig = np.ones(len(n), np.int8)
    for j, group in enumerate((*_split(high, 10000), *_split(low, 10000))):
        ascii16[:, j] = np.take(ascii4, group)
        np.maximum(nsig, np.take(nsig_table[j], group), out=nsig)
    w0, w1 = ascii16.view("<u8").T
    first += 48
    c = first.view(np.uint64)
    return (c | w0 << 8, w0 >> 56 | w1 << 8, w1 >> 56), nsig


def _fields(v: np.ndarray) -> np.ndarray:
    """The four words of each value's field, a comma first."""
    left, right, point, prefix_words = _field_tables()
    dot18, least, zeros, exponent_words = _exponent_tables()
    digits, x, exact = _decimal(v)
    unshifted, nsig = _ascii17(digits)
    # here and below, freed once used: kept, they lift a slice's live peak (CHANGES.md,
    # "Subtract round 8"; BENCH_csv_kernel.json, tracemalloc_live_peak)
    del digits
    nan = v != v
    x -= _K_LO  # the exponent tables' index; x = 0 unless exact
    keep = np.take(least, x)  # digits written
    np.maximum(keep, nsig, out=keep)
    keep[nan] = 0
    code = np.take(dot18, x)
    code += keep
    del keep
    fields = np.empty((len(v), 4), "<u8")
    prefix = np.take(zeros, x)  # after the dot, before the digits
    prefix += 5 * (np.signbit(v) & ~nan)
    fields[:, 0] = np.take(prefix_words, prefix)
    del prefix
    for j, u in enumerate(unshifted):
        shifted = u << 8 | (unshifted[j - 1] >> 56 if j else 0)  # one byte up, past the dot
        fields[:, 1 + j] = (u & np.take(left[:, j], code) | shifted & np.take(right[:, j], code)
                            | np.take(point[:, j], code))
    fields[:, 3] |= np.take(exponent_words, x)
    text = fields.view(np.uint8)
    for i in np.flatnonzero(~(exact | nan | (v == 0))).tolist():
        field = b"%.17g" % v[i]
        text[i, 1:31] = 0
        text[i, 1:1 + len(field)] = np.frombuffer(field, np.uint8)
    return fields


def csv_rows(vals: np.ndarray) -> str:
    """The CSV text of the (n, k) float array vals: "%.17g" of each value, NaN empty."""
    k = vals.shape[1]
    text = _fields(vals.ravel()).view(np.uint8)
    text[::k, 0] = 0  # no comma before a row's first field
    text[k - 1::k, 31] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")
