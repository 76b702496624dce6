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


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    With ex = exp(-|x|), 1 / (1 + ex) for x >= 0 and ex / (1 + ex) below:
    exp never overflows, and no branch splits the array.  minimum(x, -x) is
    -|x| that keeps a NaN's sign and payload, as exp(x) does.
    """
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, ex) / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


def margin_probability(scores_raw, frac_bits: int = FRAC_BITS) -> np.ndarray:
    """p = sigmoid of the dequantized margins, in double precision."""
    return sigmoid(np.asarray(scores_raw, dtype=np.float64) / scale(frac_bits))


def grad_hess(p, labels, frac_bits: int = FRAC_BITS):
    """Quantized grad = p - y and hess = p * (1 - p) from probabilities p.

    The hessian is floored at one fixed-point step before quantization so it
    can never round to zero; every stored hessian is therefore >= 1 raw unit.
    """
    y = np.asarray(labels, dtype=np.float64)
    ulp = 1.0 / scale(frac_bits)
    grad = quantize(p - y, frac_bits)
    hess = quantize(np.maximum(p * (1.0 - p), ulp), frac_bits)
    return grad, hess
