"""Bit-level fault primitives for IEEE-754 double and single precision.

Silent data corruption is modeled, as in the SDC-detection literature
the paper builds on (Elliott & Hoemmen's bit-flip-resilient GMRES),
as the flip of a single bit in the binary representation of a floating
point number.  The *position* of the flipped bit determines the
magnitude of the induced error.  For float64 (the default everywhere):

* bits 0-51  -- mantissa: small relative error (at most a factor of 2);
* bits 52-62 -- exponent: error can be astronomically large or drive
  the value toward zero;
* bit 63     -- sign flip.

Float32 arrays (the mixed-precision layer's compute dtype) are flipped
natively through 32-bit patterns -- bits 0-22 mantissa, 23-30 exponent,
31 sign -- instead of erroring or silently upcasting, so ``bitflip``
fault models compose with ``precision="fp32"`` solves.

All helpers operate out-of-place on NumPy data and never use Python
``struct`` in inner loops; views via :func:`numpy.ndarray.view` keep
array-scale injection vectorized and contiguity-preserving.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_integer

__all__ = [
    "bits_of",
    "flip_bit_float64",
    "flip_bit_array",
    "flip_random_bit",
    "max_bit_index",
    "relative_perturbation",
]

#: dtype -> same-width unsigned integer type for pattern views.
_BIT_VIEWS = {
    np.dtype(np.float64): (np.uint64, 63),
    np.dtype(np.float32): (np.uint32, 31),
}


def max_bit_index(dtype) -> int:
    """Highest flippable bit index for a float dtype (63 or 31)."""
    try:
        return _BIT_VIEWS[np.dtype(dtype)][1]
    except KeyError:
        raise TypeError(
            f"bit flips support float64 and float32 data, got {np.dtype(dtype)}"
        ) from None


def bits_of(value: float) -> int:
    """Return the 64-bit integer pattern of a double-precision value."""
    return int(np.float64(value).view(np.uint64))


def flip_bit_float64(value: float, bit: int) -> float:
    """Flip bit ``bit`` (0..63) of a double-precision value.

    Parameters
    ----------
    value:
        The original value.
    bit:
        Bit index; 0 is the least-significant mantissa bit and 63 is
        the sign bit.

    Returns
    -------
    float
        The corrupted value.  Note that exponent-bit flips can yield
        ``inf`` or ``nan``; this is intentional and the skeptical
        checks must cope with it.
    """
    bit = check_integer(bit, "bit")
    if not 0 <= bit <= 63:
        raise ValueError(f"bit must be in [0, 63], got {bit}")
    pattern = np.uint64(bits_of(value)) ^ np.uint64(1 << bit)
    return float(pattern.view(np.float64))


def flip_bit_array(
    array: np.ndarray,
    index: Union[int, Tuple[int, ...]],
    bit: int,
    *,
    inplace: bool = False,
) -> np.ndarray:
    """Flip one bit of one element of a float64 or float32 array.

    Parameters
    ----------
    array:
        Array of dtype ``float64`` or ``float32`` (other dtypes are
        rejected to avoid silent precision surprises).  The flip runs
        through a same-width unsigned-integer view, so float32 arrays
        are corrupted natively via 32-bit patterns.
    index:
        Flat index (int) or multi-dimensional index tuple of the
        element to corrupt.
    bit:
        Bit position, 0..63 for float64 or 0..31 for float32.
    inplace:
        If ``True`` the array is modified in place and returned;
        otherwise a corrupted copy is returned and the input is left
        untouched.
    """
    arr = np.asarray(array)
    if arr.dtype not in _BIT_VIEWS:
        raise TypeError(
            f"flip_bit_array requires float64 or float32 data, got {arr.dtype}"
        )
    uint_type, max_bit = _BIT_VIEWS[arr.dtype]
    bit = check_integer(bit, "bit")
    if not 0 <= bit <= max_bit:
        raise ValueError(
            f"bit must be in [0, {max_bit}] for {arr.dtype}, got {bit}"
        )
    out = arr if inplace else arr.copy()
    if isinstance(index, tuple):
        flat_index = int(np.ravel_multi_index(index, out.shape))
    else:
        flat_index = int(index)
        if flat_index < 0:
            flat_index += out.size
    if not 0 <= flat_index < out.size:
        raise IndexError(f"index {index!r} out of bounds for size {out.size}")
    # A same-width view shares ``out``'s memory in any layout, where
    # ``reshape(-1)`` of a non-contiguous array would be a copy.
    view = out.view(uint_type)
    where = np.unravel_index(flat_index, out.shape)
    view[where] = view[where] ^ uint_type(1 << bit)
    return out


def flip_random_bit(
    array: np.ndarray,
    rng: Union[None, int, np.random.Generator] = None,
    *,
    bit_range: Optional[Tuple[int, int]] = None,
    inplace: bool = False,
) -> Tuple[np.ndarray, int, int]:
    """Flip a uniformly random bit of a uniformly random element.

    Parameters
    ----------
    array:
        Target float64 or float32 array.
    rng:
        Seed or generator controlling the random choice.
    bit_range:
        Inclusive ``(low, high)`` range of bit positions to choose
        from.  Defaults to the full width of the dtype (0..63 for
        float64, 0..31 for float32).  Restricting the range (e.g.
        ``(52, 62)`` for float64 exponent bits) is how experiments
        sweep error magnitudes.
    inplace:
        Whether to modify the array in place.

    Returns
    -------
    (corrupted, flat_index, bit):
        The corrupted array, the flat index of the victim element and
        the flipped bit position.
    """
    arr = np.asarray(array)
    if arr.size == 0:
        raise ValueError("cannot flip a bit of an empty array")
    max_bit = max_bit_index(arr.dtype)
    gen = as_generator(rng)
    low, high = bit_range if bit_range is not None else (0, max_bit)
    low = check_integer(low, "bit_range[0]")
    high = check_integer(high, "bit_range[1]")
    if not (0 <= low <= high <= max_bit):
        raise ValueError(
            f"invalid bit_range {bit_range!r} for {arr.dtype} "
            f"(bits 0..{max_bit})"
        )
    flat_index = int(gen.integers(0, arr.size))
    bit = int(gen.integers(low, high + 1))
    corrupted = flip_bit_array(arr, flat_index, bit, inplace=inplace)
    return corrupted, flat_index, bit


def relative_perturbation(original: float, corrupted: float) -> float:
    """Return ``|corrupted - original| / max(|original|, tiny)``.

    Infinite or NaN corrupted values map to ``inf`` so that experiment
    tables can bucket "catastrophic" flips separately.
    """
    if not np.isfinite(corrupted):
        return float("inf")
    denom = max(abs(original), np.finfo(float).tiny)
    with np.errstate(over="ignore"):
        ratio = abs(corrupted - original) / denom
    return float(ratio)
