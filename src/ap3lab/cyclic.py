"""Real-valued functions on Z/PZ (P prime) with normalized Fourier analysis.

Conventions, fixed once to avoid sign drift:

  forward:  coeff[t] = (1/P) * sum_x f(x) * exp(+2*pi*i*x*t/P)
  inverse:  f(x)     =         sum_t coeff[t] * exp(-2*pi*i*x*t/P)

so the transform is an average (coeff[0] is the mean) and convolution
(f*g)(x) = (1/P) sum_y f(y) g(x-y) diagonalizes as coeff(f*g) = coeff(f)*coeff(g).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import InvalidArgumentError
from .primes import is_prime

# Row width of fixed_sum: few enough rows that the Python loop over them is
# short, few enough partial sums that fsum over them is cheap.
SUM_BLOCK = 4096

_FUNCTION_MAGIC = b"ZPFN"
_SPECTRUM_MAGIC = b"ZPSP"
_FORMAT_VERSION = 1


class CyclicFunction:
    """Dense real function on Z/PZ. Index i holds the value at residue i;
    a value "at -x" therefore lives at index P - x.

    Immutable; the spectrum is memoized on first use.
    """

    __slots__ = ("modulus", "values", "_spectrum")

    def __init__(self, modulus: int, values, validate_modulus: bool = True):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (modulus,):
            raise InvalidArgumentError(
                f"expected {modulus} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("function values must be finite")
        if validate_modulus and not is_prime(modulus):
            raise InvalidArgumentError(f"modulus {modulus} is not prime")
        values.setflags(write=False)
        self.modulus = modulus
        self.values = values
        self._spectrum = None

    @classmethod
    def constant(cls, modulus: int, value: float) -> "CyclicFunction":
        return cls(modulus, np.full(modulus, float(value)))

    @classmethod
    def indicator(cls, modulus: int, support, scale: float = 1.0) -> "CyclicFunction":
        values = np.zeros(modulus)
        idx = np.asarray(list(support), dtype=np.int64) % modulus
        values[idx] = scale
        return cls(modulus, values)

    def spectrum(self) -> "Spectrum":
        if self._spectrum is None:
            self._spectrum = forward_transform(self)
        return self._spectrum

    def mean(self) -> float:
        return fixed_sum(self.values) / self.modulus

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


class Spectrum:
    """Fourier coefficients of a function on Z/PZ; coefficient t at index t."""

    __slots__ = ("modulus", "coefficients")

    def __init__(self, modulus: int, coefficients, validate_modulus: bool = True):
        coefficients = np.ascontiguousarray(coefficients, dtype=np.complex128)
        if coefficients.shape != (modulus,):
            raise InvalidArgumentError(
                f"expected {modulus} coefficients, got shape {coefficients.shape}"
            )
        if validate_modulus and not is_prime(modulus):
            raise InvalidArgumentError(f"modulus {modulus} is not prime")
        coefficients.setflags(write=False)
        self.modulus = modulus
        self.coefficients = coefficients


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

def forward_transform(f: CyclicFunction) -> Spectrum:
    """Normalized transform: coeff[t] = mean_x f(x) exp(+2*pi*i*x*t/P).

    numpy's ifft is exactly this average; its pocketfft applies
    Bluestein's chirp-z method to prime lengths.
    """
    return Spectrum(f.modulus, np.fft.ifft(f.values), validate_modulus=False)


def inverse_transform(s: Spectrum) -> CyclicFunction:
    """Recover f(x) = sum_t coeff[t] exp(-2*pi*i*x*t/P) as a real function.

    The spectrum must come from a real function (conjugate-symmetric); a
    large imaginary residual is rejected rather than silently dropped.
    """
    complex_values = np.fft.fft(s.coefficients)
    scale = float(np.max(np.abs(complex_values))) or 1.0
    imag_residual = float(np.max(np.abs(complex_values.imag)))
    if imag_residual > 1e-6 * scale:
        raise InvalidArgumentError(
            "spectrum is not conjugate-symmetric: inverse is not a real function"
        )
    return CyclicFunction(s.modulus, complex_values.real, validate_modulus=False)


def convolve(f: CyclicFunction, g: CyclicFunction) -> CyclicFunction:
    """(f*g)(x) = (1/P) sum_y f(y) g(x-y), computed spectrally.

    The result carries the product spectrum fhat * ghat as its memoized
    spectrum, so it is never transformed forward again.
    """
    if f.modulus != g.modulus:
        raise InvalidArgumentError(
            f"modulus mismatch: {f.modulus} vs {g.modulus}"
        )
    product = Spectrum(
        f.modulus,
        f.spectrum().coefficients * g.spectrum().coefficients,
        validate_modulus=False,
    )
    out = inverse_transform(product)
    out._spectrum = product
    return out


def clamp_at_zero(f: CyclicFunction) -> CyclicFunction:
    """max(f, 0), keeping the memoized spectrum of f.

    Only for clamps that remove rounding noise: if c = max(f, 0) - f, then
    |chat(t)| <= max |c| for every t, so the kept spectrum is off by no
    more than the largest clamped value. The caller bounds that value.
    """
    out = CyclicFunction(f.modulus, np.maximum(f.values, 0.0), validate_modulus=False)
    out._spectrum = f._spectrum
    return out


# ----------------------------------------------------------------------
# reductions, norms and the large spectrum
# ----------------------------------------------------------------------

def fixed_sum(values) -> float:
    """Sum of a float64 array in an order fixed by its length alone.

    Consecutive rows of SUM_BLOCK values are added elementwise into one
    accumulator, row after row; each elementwise addition is one IEEE
    operation, so no SIMD width or build can reorder it. math.fsum then
    adds the partial sums and the leftover tail with a single rounding.
    numpy's own sum and mean reduce in an order that depends on the build.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = values.size // SUM_BLOCK
    partial = np.zeros(SUM_BLOCK)
    for row in values[: rows * SUM_BLOCK].reshape(rows, SUM_BLOCK):
        partial += row
    return math.fsum(partial.tolist() + values[rows * SUM_BLOCK :].tolist())


def lp_norm(f: CyclicFunction, k: float) -> float:
    """Normalized L^k norm (mean_x |f(x)|^k)^(1/k).

    For integer k the power is taken by repeated multiplication, and the
    mean is a fixed_sum, so the result does not depend on the numpy build.
    """
    if k < 1:
        raise InvalidArgumentError(f"norm exponent must be >= 1, got {k}")
    magnitudes = np.abs(f.values)
    if float(k).is_integer():
        power = magnitudes.copy()
        for _ in range(int(k) - 1):
            power *= magnitudes
    else:
        power = magnitudes**k
    return (fixed_sum(power) / f.modulus) ** (1.0 / k)


def spectral_lp_norm(s: Spectrum, k: float) -> float:
    """Unnormalized little-ell^k norm (sum_t |coeff[t]|^k)^(1/k)."""
    if k < 1:
        raise InvalidArgumentError(f"norm exponent must be >= 1, got {k}")
    return float(np.sum(np.abs(s.coefficients) ** k) ** (1.0 / k))


def threshold_spectrum(s: Spectrum, delta: float) -> np.ndarray:
    """Frequencies t with |coeff[t]| >= delta, with 1 always adjoined.

    The raw threshold set obeys the Markov count
    |{t : |coeff| >= delta}| <= sum |coeff|^4 / delta^4, asserted here.
    """
    if delta <= 0:
        raise InvalidArgumentError(f"delta must be positive, got {delta}")
    magnitudes = np.abs(s.coefficients)
    raw = np.flatnonzero(magnitudes >= delta)
    fourth_moment = float(np.sum(magnitudes**4))
    assert raw.size * delta**4 <= fourth_moment or raw.size == 0, (
        "Markov bound on the large spectrum failed; transform is inconsistent"
    )
    return np.union1d(raw, np.array([1], dtype=np.int64)).astype(np.int64)


# ----------------------------------------------------------------------
# binary serialization
# ----------------------------------------------------------------------

def save_function(f: CyclicFunction, path) -> None:
    """Write magic ZPFN, u32 version, u64 P, then P little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", _FUNCTION_MAGIC, _FORMAT_VERSION, f.modulus))
        fh.write(f.values.astype("<f8").tobytes())


def load_function(path) -> CyclicFunction:
    with open(path, "rb") as fh:
        magic, version, modulus = struct.unpack("<4sIQ", fh.read(16))
        if magic != _FUNCTION_MAGIC:
            raise InvalidArgumentError(f"bad magic {magic!r}, expected ZPFN")
        if version != _FORMAT_VERSION:
            raise InvalidArgumentError(f"unsupported format version {version}")
        data = np.frombuffer(fh.read(8 * modulus), dtype="<f8")
    return CyclicFunction(modulus, data.copy())


def save_spectrum(s: Spectrum, path) -> None:
    """Write magic ZPSP, u32 version, u64 P, then interleaved re/im float64."""
    interleaved = np.empty(2 * s.modulus, dtype="<f8")
    interleaved[0::2] = s.coefficients.real
    interleaved[1::2] = s.coefficients.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", _SPECTRUM_MAGIC, _FORMAT_VERSION, s.modulus))
        fh.write(interleaved.tobytes())


def load_spectrum(path) -> Spectrum:
    with open(path, "rb") as fh:
        magic, version, modulus = struct.unpack("<4sIQ", fh.read(16))
        if magic != _SPECTRUM_MAGIC:
            raise InvalidArgumentError(f"bad magic {magic!r}, expected ZPSP")
        if version != _FORMAT_VERSION:
            raise InvalidArgumentError(f"unsupported format version {version}")
        data = np.frombuffer(fh.read(16 * modulus), dtype="<f8")
    return Spectrum(modulus, data[0::2] + 1j * data[1::2])
