"""Real-valued functions on Z/PZ (P prime) with normalized Fourier analysis.

Conventions, fixed once to avoid sign drift:

  forward:  coeff[t] = (1/P) * sum_x f(x) * exp(+2*pi*i*x*t/P)
  inverse:  f(x)     =         sum_t coeff[t] * exp(-2*pi*i*x*t/P)

so the transform is an average (coeff[0] is the mean) and convolution
(f*g)(x) = (1/P) sum_y f(y) g(x-y) diagonalizes as coeff(f*g) = coeff(f)*coeff(g).

Every function here is real, so coeff[P - t] = conj(coeff[t]) and a Spectrum
stores only t <= P//2: P//2 + 1 coefficients. Consumers read that half, and
a sum over all P coefficients is a fixed_sum over the mirrored sequence
(mirrored_sum), formed row by row without building it.

A function is held one of two ways: CyclicFunction, dense, as its P values;
or ScaledIndicator, c * 1_S, as its support S and the scale c, which is
how the W-trick lift and the Bohr kernel's half set are made. Both answer
.modulus and .spectrum(), and forward_transform takes either through one
chirp-z core, so the indicator's transform reads |S| values and builds no
length-P float array.
"""

from __future__ import annotations

import math
import struct
import threading

import numpy as np

from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .primes import is_prime

# Row width of fixed_sum: few enough rows that the Python loop over them is
# short, few enough partial sums that fsum over them is cheap.
SUM_BLOCK = 4096

_FUNCTION_MAGIC = b"ZPFN"
_SPECTRUM_MAGIC = b"ZPSP"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")
# The largest P of any P-point array. Each P is checked where it is first
# read (from N and z, --p or a file header), before any such allocation.
FFT_BUDGET = 1 << 23
# The Markov count holds exactly; this allows for rounding in the fourth moment.
_MARKOV_REL_TOL = 1e-9
# The forward transform squares chirp indices |n| <= 2P - 2 in int64:
# (2P - 1)^2 must fit.
_EXACT_PHASE_MAX_MODULUS = (math.isqrt(np.iinfo(np.int64).max) + 1) // 2
# Row length of _row_column_fft: its column count is the divisor of the
# transform length nearest this. Rows of 256 to 512 values measured
# fastest, at S = 4194304 about 0.10-0.12 s a pass against 0.22 s for
# numpy's in-place 1-D FFT (2-core x86_64); 512 also leaves the N = 1e7
# report bit for bit as it was with the 1-D FFT.
_FFT_ROW_LENGTH = 512
# Chirp values per block of _chirp: its phases and gathered factors
# (512 KiB) stay in L2 cache.
_CHIRP_BLOCK = 16384
# Rows of _row_column_fft twiddled and row-transformed at a time: 64 rows
# of 512 complex values are 512 KiB, about an L2 cache.
_TWIDDLE_ROWS = 64
# Arrays shorter than this are worked on by the caller alone (_in_two).
# On a 2-core x86_64 machine (median of 5), forward_transform on two
# threads took 1.14-1.55x its one-thread time at transform lengths S from
# 84375 to 839808 (P = 100003 to 1000003), where the GIL hand-offs between
# short numpy calls cost more than the second core gives, and 0.85x at
# S = 1679616; with one more busy process on the machine, 1.02x at 839808
# and 0.95-0.98x above. 2^20 sits at that crossover: every stage at
# P <= 1000003 stays on one thread, the N = 1e7 stages (P = 5000011) split.
_THREAD_FLOOR = 1 << 20
# Chunks per _in_two call. Each thread claims the next chunk when it ends
# one, so a thread the host slows down does less of the work instead of
# holding up the other, which waits for it at most one chunk. With two
# fixed halves, N = 1e7 pipeline runs on this shared machine came in two
# modes, near 0.8x and up to 1.3x the one-thread time, as if the host
# sometimes took the second core for the length of a half.
_THREAD_CHUNKS = 16
# A float64 FFT convolution of two 0/1 vectors with supports X and Y errs
# by about 1e-16 * log2(length) * sqrt(|X| * |Y|), below 1e-8 for any sets
# the pipeline convolves (A0 with itself, and A0 with a Bohr set); a value
# farther than this from an integer means the transform failed.
AUTOCONVOLUTION_ROUNDING_BOUND = 1e-3
# Values of a sum count (_sum_counts) rounded and checked at a time, so
# only one block of it is ever held as int64 (512 KiB).
_COUNT_BLOCK = 1 << 16


class CyclicFunction:
    """Dense real function on Z/PZ. Index i holds the value at residue i;
    a value "at -x" therefore lives at index P - x.

    Immutable; the spectrum is memoized on first use.
    """

    __slots__ = ("modulus", "values", "_spectrum")

    def __init__(self, modulus: int, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (modulus,):
            raise InvalidArgumentError(
                f"expected {modulus} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("function values must be finite")
        if not is_prime(modulus):
            raise InvalidArgumentError(f"modulus {modulus} is not prime")
        values.setflags(write=False)
        self.modulus = modulus
        self.values = values
        self._spectrum = None

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


class ScaledIndicator:
    """scale * 1_S on Z/PZ, held as its support S: a read-only, ascending
    int64 array of distinct residues in [0, P). No length-P array is held.

    Immutable; the spectrum is memoized on first use, and is
    forward_transform(CyclicFunction.indicator(P, S, scale)) in every bit.
    """

    __slots__ = ("modulus", "support", "scale", "_spectrum")

    def __init__(self, modulus: int, support, scale: float):
        support = np.asarray(support, dtype=np.int64)
        if support.ndim != 1 or (support.size and (
            support[0] < 0 or support[-1] >= modulus or np.any(support[1:] <= support[:-1])
        )):
            raise InvalidArgumentError(
                f"support must be ascending distinct residues in [0, {modulus})"
            )
        if not math.isfinite(scale):
            raise InvalidArgumentError(f"scale must be finite, got {scale!r}")
        if not is_prime(modulus):
            raise InvalidArgumentError(f"modulus {modulus} is not prime")
        support.setflags(write=False)
        self.modulus = modulus
        self.support = support
        self.scale = float(scale)
        self._spectrum = None

    def spectrum(self) -> "Spectrum":
        if self._spectrum is None:
            self._spectrum = forward_transform(self)
        return self._spectrum


class Spectrum:
    """Fourier coefficients of a real function on Z/PZ.

    Only coefficients t <= P//2 are held, coefficient t at half[t]; the
    others are coeff[P - t] = conj(coeff[t]). full() is the one expansion
    to all P. fourth_moment() is sum_t |coeff[t]|^4, memoized, so the
    Markov check and the pipeline's exact cross-check share one sum.
    """

    __slots__ = ("modulus", "half", "_fourth_moment")

    def __init__(self, modulus: int, half):
        half = np.ascontiguousarray(half, dtype=np.complex128)
        if half.shape != (modulus // 2 + 1,):
            raise InvalidArgumentError(
                f"expected {modulus // 2 + 1} coefficients for P = {modulus}, "
                f"got shape {half.shape}"
            )
        if not is_prime(modulus):
            raise InvalidArgumentError(f"modulus {modulus} is not prime")
        half.setflags(write=False)
        self.modulus = modulus
        self.half = half
        self._fourth_moment = None

    def full(self) -> np.ndarray:
        """All P coefficients, a new array: coeff[P - t] = conj(half[t])."""
        p, size = self.modulus, self.half.size
        out = np.empty(p, dtype=np.complex128)
        out[:size] = self.half
        np.conjugate(self.half[p - size : 0 : -1], out=out[size:])
        return out

    def fourth_moment(self) -> float:
        """sum_t |coeff[t]|^4 over all P frequencies, as mirrored_sum forms
        it (fixed order, repeated multiplication), on first use."""
        if self._fourth_moment is None:
            self._fourth_moment = mirrored_sum(self.half, self.modulus, _powers(4))
        return self._fourth_moment


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

def forward_transform(f: CyclicFunction | ScaledIndicator) -> Spectrum:
    """Normalized transform: coeff[t] = mean_x f(x) exp(+2*pi*i*x*t/P).

    f is real, so only t <= P/2 is computed and held (see Spectrum). Those
    coefficients come from Bluestein's
    chirp-z method, restricted to the shortest cyclic window that holds
    the nonzero values of f, with each chirp phase n^2 mod 2P formed in
    exact integers (see _half_chirp_z). The lift's a lives in [1, P/3],
    so its convolution is about 5P/6 long instead of the 2P a generic
    prime-length FFT pads to. A dense f's nonzero values are found by one
    scan of its P values; a ScaledIndicator's are its support (none at
    scale 0), whose window is read off its |S| sorted residues.
    """
    p = f.modulus
    if p > _EXACT_PHASE_MAX_MODULUS:
        raise ResourceLimitError(
            f"P = {p} is past {_EXACT_PHASE_MAX_MODULUS}, where the chirp phase "
            "n^2 mod 2P could overflow int64"
        )
    if isinstance(f, ScaledIndicator):
        nonzero = f.support if f.scale != 0 else f.support[:0]
        return Spectrum(p, _half_chirp_z(p, nonzero, scale=f.scale))
    return Spectrum(p, _half_chirp_z(p, np.flatnonzero(f.values), f.values))


def _half_chirp_z(p: int, nonzero: np.ndarray, values: np.ndarray | None = None,
                  scale: float = 0.0) -> np.ndarray:
    """(1/P) sum_x f(x) exp(2*pi*i*x*t/P) for t in [0, P//2], for the real
    f on Z/PZ that is nonzero exactly at the ascending residues nonzero:
    values[x] for the dense values of f, or scale there when values is
    None.

    With x*t = (x^2 + t^2 - (t - x)^2)/2 and w(n) = exp(i*pi*n^2/P),
    coeff[t] = w(t)/P * sum_x f(x) w(x) conj(w(t - x)), which holds
    for any integer representative x of a residue. So x runs over the
    window [x0, x0 + L) of the nonzero values and t over [0, P//2], and
    the sum is a linear convolution of L chirped values with
    P//2 + L conjugate chirps. A cyclic convolution of any length
    >= P//2 + L holds it without wrap-around; the least 5-smooth one, S,
    is used. Its three FFTs are row-column passes over an R x C grid
    (_row_column_fft): both spectra come out in the same transposed
    order, so their product needs no transpose, and no pass needs
    scratch of length S. Dense values fill all L window slots, their
    chirps times the values; without them scale * w(x) is scattered at
    the offsets of the nonzero residues alone, the same complex products
    at the same slots and zeros elsewhere.
    """
    half = p // 2 + 1
    x0, length = _support_window(nonzero, p)
    size = _five_smooth_at_least(half + length - 1)
    columns = _fft_columns(size)

    kernel = np.zeros(size, dtype=np.complex128)
    _chirp(1 - length - x0, half - x0, p, kernel[: half + length - 1])
    window = np.zeros(size, dtype=np.complex128)
    # w is even, so w(x0 + j) = w(-x0 - j), which kernel holds at L - 1 - j
    if values is None:
        offsets = nonzero - x0
        offsets %= p
        window[offsets] = kernel[length - 1 - offsets] * scale
        del offsets
    else:
        window[:length] = kernel[length - 1 :: -1]
        head = min(length, p - x0)  # the window wraps past P - 1 after head values
        window[:head] *= values[x0 : x0 + head]
        window[head:length] *= values[: length - head]
    np.conjugate(kernel, out=kernel)
    _row_column_fft(kernel, columns)

    _row_column_fft(window, columns)
    window *= kernel
    del kernel
    _row_column_fft(window, columns, inverse=True)

    spectrum = window[length - 1 : length - 1 + half].copy()
    del window
    chirp = np.empty(half, dtype=np.complex128)
    _chirp(0, half, p, chirp)
    spectrum *= chirp
    del chirp
    spectrum /= p
    return spectrum


def _in_two(work, stop: int, step: int, values: int) -> None:
    """Run work(lo, hi) over [0, stop) on the caller and one new thread.
    [0, stop) is cut into about _THREAD_CHUNKS chunks whose bounds are
    multiples of step, and each thread claims the next chunk whenever it
    ends one. numpy releases the GIL inside its FFTs, gathers and
    elementwise operations, so the chunks run on two cores. Each value is
    formed by the same numpy calls whichever chunk and thread hold it, so
    the result is the same in every bit as one work(0, stop).

    An array of fewer than _THREAD_FLOOR values, or a range of one step,
    stays on the caller: no thread is started. The thread is always joined
    before this returns. An exception in either thread leaves no further
    chunk to start, and one raised by the new thread is raised again here
    as the same object. If the thread cannot be started, the caller does
    every chunk.
    """
    if values < _THREAD_FLOOR or stop <= step:
        work(0, stop)
        return
    size = -(-stop // (_THREAD_CHUNKS * step)) * step
    starts = iter(range(0, stop, size))  # next() on it is atomic under the GIL
    failure = []

    def claim() -> None:
        try:
            for lo in starts:
                work(lo, min(lo + size, stop))
        except BaseException:
            for _ in starts:  # leave the other thread no chunk to start
                pass
            raise

    def worker() -> None:
        try:
            claim()
        except BaseException as exc:  # raised again on the caller
            failure.append(exc)

    thread = threading.Thread(target=worker, name="ap3lab-worker")
    try:
        thread.start()
    except RuntimeError:  # no thread to be had: the caller does every chunk
        claim()
        return
    try:
        claim()
    finally:
        thread.join()
    if failure:
        raise failure[0]


def _fft_columns(size: int) -> int:
    """The divisor of size nearest _FFT_ROW_LENGTH, the smaller on a tie.
    1 is a divisor within _FFT_ROW_LENGTH - 1, so none past
    2 * _FFT_ROW_LENGTH can be nearer."""
    return min(
        (d for d in range(1, 2 * _FFT_ROW_LENGTH) if size % d == 0),
        key=lambda d: abs(d - _FFT_ROW_LENGTH),
    )


def _row_column_fft(data: np.ndarray, columns: int, inverse: bool = False) -> None:
    """numpy's DFT of the contiguous length-S array data, in place and in a
    transposed order, by Bailey's four-step method without its transpose.

    data is viewed as the R x C grid g[r, c] = data[r*C + c]. The forward
    pass takes an FFT down each column, multiplies g[k, c] by the twiddle
    exp(-2*pi*i*k*c/S) and takes an FFT along each row, which leaves
    X[k + R*j] at g[k, j]. Two spectra in that order multiply coefficient
    by coefficient, so a cyclic convolution needs no transpose.
    inverse=True takes such a spectrum back to values in natural order:
    row iFFTs, conjugate twiddles, column iFFTs, with numpy's 1/S.

    Each twiddle has the exact integer phase k*c < S and is the product of
    a fine entry (k mod _TWIDDLE_ROWS) and a coarse one (the rest of k);
    each block of _TWIDDLE_ROWS rows is twiddled and row-transformed while
    it is in cache. The columns, and then the row blocks, are shared out
    in chunks between two threads (_in_two).
    """
    grid = data.reshape(-1, columns)
    rows = grid.shape[0]
    step = min(_TWIDDLE_ROWS, rows)
    sign = 1.0 if inverse else -1.0
    fine = _unit_roots(np.arange(step), columns, data.size, sign)
    coarse = _unit_roots(np.arange(0, rows, step), columns, data.size, sign)
    transform = np.fft.ifft if inverse else np.fft.fft

    def column_pass(lo: int, hi: int) -> None:
        part = grid[:, lo:hi]
        transform(part, axis=0, out=part)  # out= needs numpy >= 2.0

    def row_pass(lo: int, hi: int) -> None:
        scratch = np.empty_like(fine)
        for start in range(lo, hi, step):
            block = grid[start : start + step]
            twiddles = np.multiply(
                fine[: len(block)], coarse[start // step], out=scratch[: len(block)]
            )
            if inverse:
                np.fft.ifft(block, axis=1, out=block)
                block *= twiddles
            else:
                block *= twiddles
                np.fft.fft(block, axis=1, out=block)

    if not inverse:
        _in_two(column_pass, columns, 1, data.size)
    _in_two(row_pass, rows, step, data.size)
    if inverse:
        _in_two(column_pass, columns, 1, data.size)


def _real_convolution(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """The cyclic convolution r(s) = sum_n x[n] y[s - n] of real float64
    arrays of even length S, written over x, which is returned; y=None
    convolves x with itself. y, if given, is overwritten too.

    x's buffer is viewed as the S/2 complex values z[n] = x[2n] + i*x[2n+1]
    and transformed in place (_row_column_fft); with E = (Z(k) +
    conj Z(-k))/2 and O = (Z(k) - conj Z(-k))/(2i), the DFTs of x's even
    and odd samples, X(k) = E + w^k O for w = exp(-2*pi*i/S). The even and
    odd samples of r then have the DFT
    Z'(k) = E_x E_y + w^2k O_x O_y + i(E_x O_y + O_x E_y), which is
    Z(k) Y(k) - (1 + w^2k) D_x D_y / 4 with D = Z(k) - conj Z(-k), and
    Z'(-k) is Y(-k) Z(-k) less the conjugate of that correction. One
    inverse pass leaves r in x's float64 view, in natural order.

    Frequency k + R*j sits at g[k, j] of the R x C grid, and its negative
    at g[0, (C - j) mod C] in row 0 and at g[R - k, C - 1 - j] below. So
    rows k and R - k are combined together, in blocks of _TWIDDLE_ROWS
    pairs shared out between two threads (_in_two); row 0, and row R/2
    for even R, are their own mirrors. w^2k is the product of a row and a
    column root of unity with exact integer phases (_unit_roots).
    """
    z = x.view(np.complex128)
    z_y = z if y is None else y.view(np.complex128)
    size = z.size
    columns = _fft_columns(size)
    _row_column_fft(z, columns)
    if y is not None:
        _row_column_fft(z_y, columns)
    grid, grid_y = z.reshape(-1, columns), z_y.reshape(-1, columns)
    rows = grid.shape[0]
    row_roots = _unit_roots(np.array([1]), rows, size, -1.0)[0]
    column_roots = _unit_roots(np.array([rows]), columns, size, -1.0)[0]

    def combine(top, bottom, top_y, bottom_y, row_root, scratch, scratch_y) -> None:
        """Z'(k) over top and Z'(-k) over bottom, where bottom[i, j] holds
        the mirror of top[i, j] and w^2k = row_root[i] * column_roots[j]."""
        np.multiply(row_root, column_roots, out=scratch)
        scratch += 1.0
        scratch *= 0.25
        np.conjugate(bottom, out=scratch_y)
        np.subtract(top, scratch_y, out=scratch_y)
        scratch *= scratch_y
        if y is not None:
            np.conjugate(bottom_y, out=scratch_y)
            np.subtract(top_y, scratch_y, out=scratch_y)
        scratch *= scratch_y  # the correction for Z'(k)
        top *= top_y
        top -= scratch
        bottom *= bottom_y
        np.conjugate(scratch, out=scratch)
        bottom -= scratch

    for row in [0] if rows % 2 else [0, rows // 2]:
        # the row's mirror is gathered (a copy) before the row is written,
        # so every column gets its own Z'
        mirror = -np.arange(columns) % columns if row == 0 else np.arange(columns)[::-1]
        top, top_y = grid[row : row + 1], grid_y[row : row + 1]
        combine(top, top[:, mirror], top_y, top_y[:, mirror], row_roots[row],
                np.empty_like(top), np.empty_like(top))

    pairs = (rows - 1) // 2  # rows 1 .. pairs pair with rows - 1 .. rows - pairs

    def pair_pass(lo: int, hi: int) -> None:
        scratch = np.empty((min(_TWIDDLE_ROWS, pairs), columns), dtype=np.complex128)
        scratch_y = np.empty_like(scratch)
        for start in range(lo, hi, _TWIDDLE_ROWS):
            stop = min(start + _TWIDDLE_ROWS, hi)
            n = stop - start
            combine(
                grid[1 + start : 1 + stop],
                grid[rows - stop : rows - start][::-1, ::-1],
                grid_y[1 + start : 1 + stop],
                grid_y[rows - stop : rows - start][::-1, ::-1],
                row_roots[1 + start : 1 + stop, None],
                scratch[:n],
                scratch_y[:n],
            )

    _in_two(pair_pass, pairs, _TWIDDLE_ROWS, size)
    _row_column_fft(z, columns, inverse=True)
    return x


def _sum_counts(x: np.ndarray, y: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(r, rounding error) with r[s] = #{(u, v) in X x Y : u + v = s} for
    s <= max X + max Y, as float64 values that are exact integers. X and Y
    are int64 arrays of distinct nonnegative integers; y=None counts X + X.

    The indicators are convolved (_real_convolution) at the least even
    5-smooth length S > max X + max Y, so no sum wraps, and r is a view of
    X's indicator; X + X takes one length-S array. r is rounded in place,
    _COUNT_BLOCK values at a time, the blocks shared out in chunks
    between two threads (_in_two), and InvariantError is raised unless
    every value lay within AUTOCONVOLUTION_ROUNDING_BOUND of its integer
    and the integers sum to |X| * |Y|. The rounding is elementwise and
    both results are a max and an integer sum, so no bit depends on the
    split.
    """
    sets = [x] if y is None else [x, y]
    top = int(x.max(initial=0)) + int(sets[-1].max(initial=0))
    length = 2 * _five_smooth_at_least(top // 2 + 1)
    indicators = [np.zeros(length) for _ in sets]
    for indicator, members in zip(indicators, sets):
        indicator[members] = 1.0
    r = _real_convolution(*indicators)[: top + 1]
    del indicators  # frees Y's indicator; r is a view of X's
    errors, counts = [0.0], []  # list.append is atomic under the GIL

    def round_blocks(lo: int, hi: int) -> None:
        for start in range(lo, hi, _COUNT_BLOCK):
            chunk = r[start : min(start + _COUNT_BLOCK, hi)]
            rounded = np.rint(chunk)
            errors.append(float(np.max(np.abs(chunk - rounded))))
            chunk[:] = rounded
            counts.append(int(rounded.astype(np.int64).sum()))

    _in_two(round_blocks, r.size, _COUNT_BLOCK, r.size)
    rounding_error, counted = max(errors), sum(counts)
    total = x.size * sets[-1].size
    if rounding_error > AUTOCONVOLUTION_ROUNDING_BOUND or counted != total:
        raise InvariantError(
            f"sum counts of {x.size} x {sets[-1].size} elements: rounding error "
            f"{rounding_error:.3g} (bound {AUTOCONVOLUTION_ROUNDING_BOUND}), "
            f"total {counted} (want {total})"
        )
    return r, rounding_error


def _unit_roots(rows: np.ndarray, columns: int, size: int, sign: float) -> np.ndarray:
    """exp(sign*2*pi*i*r*c/size) for r in rows and c < columns, as a
    len(rows) x columns table; each phase r*c is an exact int64."""
    angle = np.outer(rows.astype(np.int64), np.arange(columns, dtype=np.int64))
    angle = angle * (sign * 2 * np.pi / size)
    out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _support_window(nonzero: np.ndarray, p: int) -> tuple[int, int]:
    """(x0, L) with 0 <= x0 < P: the shortest cyclic window
    [x0, x0 + L) mod P that holds every residue of the ascending array
    nonzero. It lies opposite the widest cyclic gap between them."""
    if nonzero.size == 0:
        return 0, 1
    gaps = np.diff(nonzero, append=nonzero[0] + p)
    widest = int(np.argmax(gaps))
    return int(nonzero[(widest + 1) % nonzero.size]), p + 1 - int(gaps[widest])


def _five_smooth_at_least(n: int) -> int:
    """The least 2^a * 3^b * 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        power35 = power5
        while power35 < best:
            length = power35
            while length < n:
                length *= 2
            best = min(best, length)
            power35 *= 3
        power5 *= 5
    return best


def _chirp(start: int, stop: int, p: int, out: np.ndarray) -> None:
    """Write w(n) = exp(i*pi*n^2/P) for n in [start, stop) into out. The
    phase phi = n^2 mod 2P is formed in int64 from n itself: _half_chirp_z
    passes only |n| <= 2P - 2, so under _EXACT_PHASE_MAX_MODULUS n^2 fits
    and needs no reduction first. The phase is exact, and w(n) is read
    off two tables of exp(i*pi*r/P) with K = 2^k >= sqrt(2P) entries each,
    as fine[phi mod K] * coarse[phi // K] (see _unit_roots), so no cosine
    or sine is taken per point. The n are taken in blocks of
    _CHIRP_BLOCK, so no integer or real temporary as long as out is made,
    and the blocks are shared out in chunks between two threads (_in_two).
    """
    shift = ((2 * p - 1).bit_length() + 1) // 2  # K = 2^shift, K^2 >= 2P
    fine = _unit_roots(np.array([1]), 1 << shift, 2 * p, 1.0)[0]
    coarse = _unit_roots(np.array([1 << shift]), -(-2 * p >> shift), 2 * p, 1.0)[0]
    block = min(_CHIRP_BLOCK, stop - start)
    offsets = np.arange(block, dtype=np.int64)

    def fill(lo: int, hi: int) -> None:
        phase = np.empty(block, dtype=np.int64)
        high = np.empty(block, dtype=np.int64)
        factor = np.empty(block, dtype=np.complex128)
        for first in range(start + lo, start + hi, block):
            n = min(block, start + hi - first)
            np.add(offsets[:n], first, out=phase[:n])
            phase[:n] *= phase[:n]
            phase[:n] %= 2 * p
            np.right_shift(phase[:n], shift, out=high[:n])
            phase[:n] &= (1 << shift) - 1
            chunk = out[first - start : first - start + n]
            np.take(fine, phase[:n], out=chunk, mode="clip")
            np.take(coarse, high[:n], out=factor[:n], mode="clip")
            chunk *= factor[:n]

    _in_two(fill, stop - start, block, stop - start)


def inverse_transform(s: Spectrum) -> CyclicFunction:
    """Recover f(x) = sum_t coeff[t] exp(-2*pi*i*x*t/P) as a real function.

    The half spectrum is expanded once and transformed in place; the real
    part of the result is f, since a Spectrum is that of a real function.
    """
    values = s.full()
    np.fft.fft(values, out=values)
    return CyclicFunction(s.modulus, values.real)


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
    This is mirrored_sum with nothing to mirror.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    return mirrored_sum(values, values.size)


def lp_norm(f: CyclicFunction, k: float) -> float:
    """Normalized L^k norm (mean_x |f(x)|^k)^(1/k).

    For integer k the power is taken by repeated multiplication, and the
    mean is a fixed_sum, so the result does not depend on the numpy build.
    The powers are formed and summed one row of SUM_BLOCK values at a
    time, in fixed_sum's order (mirrored_sum with nothing to mirror), so
    no length-P temporary is made.
    """
    if k < 1:
        raise InvalidArgumentError(f"norm exponent must be >= 1, got {k}")
    return (mirrored_sum(f.values, f.modulus, _powers(k)) / f.modulus) ** (1.0 / k)


def _powers(k: float):
    """mirrored_sum's terms |values|^k, by repeated multiplication for
    integer k."""
    scratch = np.empty(SUM_BLOCK)

    def terms(values: np.ndarray, power: np.ndarray) -> np.ndarray:
        magnitudes = np.abs(values, out=scratch[: values.size])
        if not float(k).is_integer():
            return np.power(magnitudes, k, out=power)
        power[:] = magnitudes
        for _ in range(int(k) - 1):
            power *= magnitudes
        return power

    return terms


def mirrored_sum(half: np.ndarray, p: int, terms=None) -> float:
    """fixed_sum of the length-P sequence y with y[i] = v[i] for i < h and
    y[i] = v[P - i] for i >= h, where v = terms(half) and h = len(half):
    the values at all P frequencies when half holds those at t <= P//2
    and v[P - t] = v[t], as |coeff| and a spectral operator's terms do.
    With h = P nothing is mirrored, and y is v itself.

    y is never built. Each row of SUM_BLOCK values is read from half as up
    to two contiguous views, the second added in reverse, into fixed_sum's
    accumulator; the last, short row is fixed_sum's tail. So the sum is
    fixed_sum(y) in every bit. terms(view, out) writes the terms of a
    contiguous view of half into the float64 scratch out and returns it;
    None takes half's float64 values as they are.
    """
    size = half.size
    rows = p // SUM_BLOCK
    partial = np.zeros(SUM_BLOCK)
    tail = np.empty(p - rows * SUM_BLOCK)
    scratch = np.empty(SUM_BLOCK)
    ascending = min(size // SUM_BLOCK, rows)  # whole rows of y that are rows of half
    for row in half[: ascending * SUM_BLOCK].reshape(ascending, SUM_BLOCK):
        partial += row if terms is None else terms(row, scratch)
    for start in range(ascending * SUM_BLOCK, p, SUM_BLOCK):
        stop = min(start + SUM_BLOCK, p)
        split = min(max(start, size), stop)  # y[i] = v[P - i] from here on
        pieces = []
        if start < split:
            pieces.append((0, half[start:split], False))
        if split < stop:  # v[P - split], ..., v[P - stop + 1], formed ascending
            pieces.append((split - start, half[p - stop + 1 : p - split + 1], True))
        for offset, view, descending in pieces:
            if terms is not None:
                view = terms(view, scratch[: view.size])
            if descending:
                view = view[::-1]
            if stop - start == SUM_BLOCK:
                partial[offset : offset + view.size] += view
            else:
                tail[offset : offset + view.size] = view
    return math.fsum(partial.tolist() + tail.tolist())


def spectral_lp_norm(s: Spectrum, k: float) -> float:
    """Unnormalized little-ell^k norm (sum_t |coeff[t]|^k)^(1/k).

    The powers are formed as in lp_norm and summed over all P frequencies
    by mirrored_sum, so the result does not depend on the numpy build and
    no length-P temporary is made.
    """
    if k < 1:
        raise InvalidArgumentError(f"norm exponent must be >= 1, got {k}")
    return mirrored_sum(s.half, s.modulus, _powers(k)) ** (1.0 / k)


def threshold_spectrum(s: Spectrum, delta: float) -> tuple[np.ndarray, int]:
    """(frequencies t with |coeff[t]| >= delta, with 1 always adjoined;
    the size of the raw threshold set, before 1 is adjoined).

    |coeff[P - t]| = |coeff[t]|, so each t in [1, P - 1 - P//2] that passes
    brings P - t along. The raw threshold set obeys the Markov count
    |{t : |coeff| >= delta}| <= sum |coeff|^4 / delta^4, checked here up to
    summation rounding.
    """
    if delta <= 0:
        raise InvalidArgumentError(f"delta must be positive, got {delta}")
    p = s.modulus
    magnitudes = np.abs(s.half)
    low = np.flatnonzero(magnitudes >= delta)
    mirrored = low[(low >= 1) & (low <= p - magnitudes.size)]
    raw = np.concatenate((low, p - mirrored[::-1]))
    if raw.size * delta**4 > s.fourth_moment() * (1 + _MARKOV_REL_TOL):
        raise InvariantError(
            "Markov bound on the large spectrum failed; transform is inconsistent"
        )
    freqs = np.union1d(raw, np.array([1], dtype=np.int64)).astype(np.int64)
    return freqs, int(raw.size)


# ----------------------------------------------------------------------
# binary serialization
# ----------------------------------------------------------------------

def check_fft_budget(p: int) -> None:
    """Refuse a modulus P past FFT_BUDGET, before any P-point array exists."""
    if p > FFT_BUDGET:
        raise ResourceLimitError(f"P = {p} exceeds the FFT budget {FFT_BUDGET}")


def _read_payload(path, magic: bytes, floats_per_point: int):
    """Check a ZPFN or ZPSP header, its P against the FFT budget before the
    payload is read, and the payload length; return P, the float64s."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise InvalidArgumentError(f"truncated header of {len(header)} bytes")
        found, version, modulus = _HEADER.unpack(header)
        if found != magic:
            raise InvalidArgumentError(f"bad magic {found!r}, expected {magic.decode()}")
        if version != _FORMAT_VERSION:
            raise InvalidArgumentError(f"unsupported format version {version}")
        check_fft_budget(modulus)
        payload = fh.read()
    if len(payload) != 8 * floats_per_point * modulus:
        raise InvalidArgumentError(f"payload has {len(payload)} bytes for P = {modulus}")
    return modulus, np.frombuffer(payload, dtype="<f8")


def load_function(path) -> CyclicFunction:
    modulus, data = _read_payload(path, _FUNCTION_MAGIC, 1)
    return CyclicFunction(modulus, data.copy())


def save_spectrum(s: Spectrum, path) -> None:
    """Write magic ZPSP, u32 version, u64 P, then interleaved re/im float64
    of all P coefficients (the half spectrum is expanded here)."""
    interleaved = s.full().view(np.float64).astype("<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_SPECTRUM_MAGIC, _FORMAT_VERSION, s.modulus))
        fh.write(interleaved.tobytes())

