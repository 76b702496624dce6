"""Signed fixed-point arithmetic shared by the training datapath.

Per-sample scores, gradients and hessians are stored as raw int64 values
scaled by 2**frac_bits.  All cross-sample accumulation happens on the raw
integers, so sums are exact and independent of summation order; only the
final gain/weight ratios are evaluated in double precision.
"""

import sys

import numpy as np

FRAC_BITS = 24
INT64_LIMIT = float(1 << 63)      # raw values lie in [-2**63, 2**63)


def exact_count(frac_bits: int = FRAC_BITS) -> int:
    """The largest m with m * 2**frac_bits < 2**53: the partial sums of m
    raw values, each at most 2**frac_bits in magnitude as every raw gradient
    and hessian is, are then all exact float64 integers."""
    return ((1 << 53) - 1) >> frac_bits


def is_int(value) -> bool:
    """An integer parameter: a Python int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real parameter: a float, or an integer that a float holds exactly.
    A JSON file may spell 10**400 or 2**53 + 1, and neither may be rounded."""
    return isinstance(value, float) or (is_int(value) and abs(value) <= sys.float_info.max
                                        and float(value) == value)


def scale(frac_bits: int = FRAC_BITS) -> float:
    return float(1 << frac_bits)


def quantize(value, frac_bits: int = FRAC_BITS):
    """Round a real value to the nearest fixed-point grid step, ties to even.

    Accepts scalars or numpy arrays; returns int64.  Multiplying by a power
    of two is exact in binary64, so the only rounding happens in rint.  A
    rounded value that is NaN or outside [-2**63, 2**63) raises ValueError:
    casting it to int64 would give a platform-dependent integer.
    """
    raw = np.rint(np.asarray(value, dtype=np.float64) * scale(frac_bits))
    if raw.size:
        lo, hi = raw.min(), raw.max()       # NaN propagates into both
        if not (lo >= -INT64_LIMIT and hi < INT64_LIMIT):
            bad = hi if lo >= -INT64_LIMIT else lo
            raise ValueError(f"fixed-point value {float(bad) / scale(frac_bits)!r} "
                             f"does not fit int64 at frac_bits={frac_bits}")
    out = raw.astype(np.int64)
    return out if out.ndim else np.int64(out)


def dequantize(raw, frac_bits: int = FRAC_BITS):
    """Exact real value of a raw fixed-point integer (power-of-two scaling)."""
    return np.asarray(raw, dtype=np.float64) / scale(frac_bits) if np.ndim(raw) else float(raw) / scale(frac_bits)


def sigmoid(x, out=None, scratch=None):
    """Numerically stable logistic function, elementwise.

    With ex = exp(-|x|), 1 / (1 + ex) for x >= 0 and ex / (1 + ex) below:
    exp never overflows, and no branch splits the array.  minimum(x, -x) is
    -|x| that keeps a NaN's sign and payload, as exp(x) does.  Some of
    numpy's exp kernels flag a signalling NaN as invalid; the NaN still
    comes back, so that flag is ignored.

    The numerator, 1.0 where x >= 0 and ex elsewhere, is selected as
    maximum(ex, x >= 0): ex lies in [0, 1], so the maximum with 1.0 is 1.0
    and the maximum with 0.0 is ex itself, NaN included, bit for bit what
    a where() gives, at about a quarter of its time (8.5 against 32 us
    over 10,048 values, compare included).  x >= 0 is copied into the
    numerator first, so no ufunc casts a bool operand: a cast takes a
    buffer of its own, up to 64 KiB, on every call.

    out, when given, receives the result (a float64 array of x's shape);
    scratch, when given, is (ex, nonneg): a float64 and a bool array of x's
    shape.  With both, nothing of x's size is allocated.
    """
    x = np.asarray(x, dtype=np.float64)
    ex, nonneg = (np.empty_like(x), np.empty(x.shape, dtype=bool)) if scratch is None else scratch
    out = np.empty_like(x) if out is None else out
    np.negative(x, out=ex)
    np.minimum(x, ex, out=ex)
    with np.errstate(invalid="ignore"):
        np.exp(ex, out=ex)
    np.greater_equal(x, 0.0, out=nonneg)
    np.copyto(out, nonneg)
    np.maximum(ex, out, out=out)
    np.add(ex, 1.0, out=ex)
    np.divide(out, ex, out=out)
    return float(out) if out.ndim == 0 else out


def margin_probability(scores_raw, frac_bits: int = FRAC_BITS, out=None,
                       scratch=None) -> np.ndarray:
    """p = sigmoid of the dequantized margins, in double precision.

    The margins are scores_raw * 2**-frac_bits, which equals the division by
    2**frac_bits bit for bit: both scale by a power of two, exactly.  out is
    sigmoid's; scratch, when given, is (x, ex, nonneg): x a float64 array of
    the scores' shape for the margins, then sigmoid's scratch.
    """
    if scratch is None:
        x, rest = np.empty(np.shape(scores_raw)), None
    else:
        x, *rest = scratch
    np.copyto(x, scores_raw)        # int64 to float64 outside a ufunc, which would buffer it
    np.multiply(x, 1.0 / scale(frac_bits), out=x)
    return sigmoid(x, out, rest)


def grad_hess(p, labels, frac_bits: int = FRAC_BITS, out=None, scratch=None):
    """Quantized grad = p - y and hess = p * (1 - p) from probabilities p.

    The hessian is floored at one fixed-point step before quantization so it
    can never round to zero; every stored hessian is therefore >= 1 raw unit.
    Each is rounded as quantize rounds, rint of the value times 2**frac_bits,
    without its range check: for p in [0, 1], as margin_probability gives,
    and labels 0 or 1, both lie in [-1, 1] and fit int64 at any frac_bits
    below 63.
    out, when given, is the (grads, hess) pair of int64 arrays to fill;
    scratch, when given, a float64 array of p's shape.  With both, and
    labels already float64, nothing of p's size is allocated.
    """
    y = np.asarray(labels, dtype=np.float64)
    grads, hess = (np.empty(np.shape(p), dtype=np.int64) for _ in range(2)) if out is None else out
    work = np.empty(np.shape(p)) if scratch is None else scratch
    s = scale(frac_bits)
    np.subtract(p, y, out=work)
    _round_into(work, s, grads)
    np.subtract(1.0, p, out=work)
    np.multiply(p, work, out=work)
    np.maximum(work, 1.0 / s, out=work)
    _round_into(work, s, hess)
    return grads, hess


def _round_into(values: np.ndarray, s: float, out: np.ndarray) -> None:
    """out = rint(values * s), through values, which it overwrites."""
    np.multiply(values, s, out=values)
    np.rint(values, out=values)
    np.copyto(out, values, casting="unsafe")
