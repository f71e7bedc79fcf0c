"""Closed-form optimal quadrature weights for Fourier integrals on uniform grids.

The weights minimize the worst-case error over the unit ball of the Sobolev
seminorm (L2 norm of the first derivative) with nodes fixed.  The kernel is
e^{2 pi i omega x} with omega in cycles per unit.  Everything here is a pure
function of its arguments.  The closed forms (coefficient_matrix, error_norm,
monomial_fourier_integral) take frequencies one way: a scalar gives the
result for that frequency, a 1-d array one result per entry.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import UniformGrid, check_integer

TWO_PI = 2.0 * math.pi

# Below this |2 pi omega h| the closed forms are evaluated by truncated
# series; cancellation in the direct expressions (numerators ~ theta^2)
# would otherwise lose about half the significant digits.  The series
# degrees are chosen so truncation stays below 1e-17 at the threshold.
SMALL_THETA = 0.5

# The series coefficients are stored highest degree first, for np.polyval.
# (e^z - 1 - z)/z^2 = sum_k z^k/(k+2)!          (z = i theta)
_LEFT_SERIES = np.array(
    [1.0 / math.factorial(k + 2) for k in reversed(range(17))], dtype=complex
)
# 2(1 - cos t)/t^2 = sum_m 2(-1)^m t^{2m}/(2m+2)!
_INTERIOR_SERIES = np.array(
    [2.0 * (-1.0) ** m / math.factorial(2 * m + 2) for m in reversed(range(10))]
)
# (1 - 2(1 - cos t)/t^2)/t^2 = sum_m 2(-1)^m t^{2m}/(2m+4)!
_NORM_SERIES = np.array(
    [2.0 * (-1.0) ** m / math.factorial(2 * m + 4) for m in reversed(range(10))]
)


# The closed forms square theta = 2 pi omega h and error_norm squares
# 2 pi omega; frequencies beyond |2 pi omega max(h, 1)| = 2**511 would
# overflow them, so they are rejected.
_MAX_THETA = 2.0**511

# The dense path builds at most this many weights at a time, so a long
# non-uniform lattice never holds the whole M x (n+1) matrix; the chirp-z
# path's FFT buffer holds at most this many entries, or one node block.
_DENSE_BLOCK_WEIGHTS = 1 << 20

# The chirp-z path sums a uniform lattice in contiguous blocks of at least
# this many frequencies (see _frequency_block), and each block's interior
# nodes in contiguous node blocks (see _node_block), so its working set is
# bounded for K sample columns however long the lattice and the grid are.
_CHIRP_BLOCK = 1 << 14


def _frequency_block(n: int, columns: int) -> int:
    """m, the frequencies of one chirp-z block, on a grid of n intervals with
    K = columns sample columns (0 counts as 1).

    Past _CHIRP_BLOCK, m grows with the grid up to n + 1 frequencies while
    one node block's FFT buffer, about K (m + _node_block(m)) = 5 K m
    entries, holds at most _DENSE_BLOCK_WEIGHTS.  A lattice and a grid both
    longer than one block cost M n (1/m + 1/L) log(m + L), so the longer the
    blocks the less; past n + 1 a block gains little, and m <= n + 1 keeps
    apply_weights' sample bound above the FFT length.
    """
    return max(_CHIRP_BLOCK, min(n + 1, _DENSE_BLOCK_WEIGHTS // (5 * max(columns, 1))))


def _node_block(m: int) -> int:
    """L, the interior nodes of one chirp-z node block, for m frequencies.

    A node block costs an FFT pair of length about m + L, of which L spans
    its nodes, and m exactly reduced centre phases, so each node pays
    (1 + m/L) log(m + L) in transforms and m/L phases: at L = 4m the
    frequencies add a quarter.  At L = 2m the phases made n = 200000,
    M = 2001 a fifth slower, and n = 8000, M = 2001 took two blocks, slower
    than one.  Below _CHIRP_BLOCK / 4 = 4096 nodes the per-block numpy calls
    cost more than shorter transforms save.
    """
    return max(4 * m, _CHIRP_BLOCK // 4)

# A lattice takes the chirp-z path when every entry lies within this many
# ulps of max|omega| of the straight line through its centre entry with the
# end-to-end mean step; np.linspace and UniformGrid.nodes() stay within one.
_UNIFORM_ULPS = 4


def _by_theta(theta, series, direct, *args):
    """series(t) where |theta| < SMALL_THETA, direct(t, *args) elsewhere.  Vectorized.

    Each form runs only on its own entries of theta and of args, arrays
    aligned with theta, and not at all where it has none: the series' top
    power would overflow above about 1e17, and the direct forms divide by
    theta^2.  A direct form's overflow, or its division by a square that
    underflows (error_norm at a very large step), gives inf without a warning.
    """
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < SMALL_THETA
    count = np.count_nonzero(small)
    if count == theta.size:
        return series(theta)
    with np.errstate(divide="ignore", over="ignore"):
        if count == 0:
            return direct(theta, *args)
        near, far = small.nonzero(), (~small).nonzero()
        wide = direct(theta[far], *(np.asarray(a)[far] for a in args))
    out = np.empty(theta.shape, dtype=wide.dtype)
    out[far] = wide
    out[near] = series(theta[near])
    return out


def _interior_factor(theta):
    """2(1 - cos theta)/theta^2, stable near theta = 0.  Vectorized."""
    return _by_theta(theta, lambda t: np.polyval(_INTERIOR_SERIES, t * t),
                     lambda t: 2.0 * (1.0 - np.cos(t)) / (t * t))


def _left_factor(theta):
    """(1 + i theta - e^{i theta})/theta^2, stable near theta = 0.  Vectorized.

    Equals (e^z - 1 - z)/z^2 with z = i theta.
    """
    return _by_theta(theta, lambda t: np.polyval(_LEFT_SERIES, 1j * t),
                     lambda t: (1.0 + 1j * t - np.exp(1j * t)) / (t * t))


def _trapezoid_weights(grid: UniformGrid) -> np.ndarray:
    w = np.full(grid.n + 1, grid.h, dtype=complex)
    w[0] = w[-1] = grid.h / 2.0
    return w


def _frequencies(omegas, h: float) -> np.ndarray:
    """Frequencies as a 1-d float array, checked against _MAX_THETA at step h."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if omegas.ndim != 1:
        raise ValueError(f"frequencies must be a scalar or 1-d, got shape {omegas.shape}")
    limit = _MAX_THETA / (TWO_PI * max(h, 1.0))
    if not np.abs(omegas).max(initial=0.0) <= limit:  # also catches NaN
        raise ValueError(
            f"frequencies must be finite with |omega| <= {limit:.6g} "
            f"(|2 pi omega max(h, 1)| <= 2**511) at h = {h:g}"
        )
    return omegas


def coefficient_matrix(grid: UniformGrid, omegas) -> np.ndarray:
    """Optimal weights C_beta(omega) of the quadrature for
    int_a^b e^{2 pi i omega x} phi(x) dx on the given grid.

    A scalar frequency gives the (n+1,) weights; 1-d frequencies give an
    array of shape (len(omegas), n+1) whose row k holds the weights for
    omegas[k].
    """
    scalar = np.ndim(omegas) == 0
    h = grid.h
    omegas = _frequencies(omegas, h)
    theta = TWO_PI * omegas * h

    # Every node takes h I(theta) e^{2 pi i omega x}; then the end nodes take theirs.
    phases = np.exp(1j * math.pi * _node_turns(grid.nodes(), omegas))
    weights = (h * _interior_factor(theta))[:, None] * phases
    weights[:, 0], weights[:, -1] = _end_weights(h, theta, phases)
    return weights[0] if scalar else weights


def apply_weights(grid: UniformGrid, omegas, values) -> np.ndarray:
    """``coefficient_matrix(grid, omegas) @ values`` without the matrix.

    ``values`` holds samples on the grid nodes, shape (n+1,) or (n+1, K);
    the result has shape (M,) or (M, K).  A frequency lattice that is
    uniform to rounding (at least 2 entries, increasing or decreasing) is
    summed as chirp-z transforms of contiguous blocks of
    m = _frequency_block(n, K) frequencies; within a block the interior
    nodes from the first to the last with a non-zero sample, s of them, are
    summed in contiguous node blocks of L = _node_block(m), each its own
    chirp-z transform about its middle node, and a support of at most L
    nodes is one node block.  The time is O((M + s) log(m + L) + n K) while
    M or s is within one block and grows as M s / m when both pass it, with
    m about _DENSE_BLOCK_WEIGHTS / 5K on long grids; samples that vanish
    towards the grid's ends cost their support, not the grid.  Any other
    lattice builds the dense weights a block of rows at a time.

    The samples must satisfy F = max(|Re f|, |Im f|) <= 2**1020 / max(N**3,
    b - a) with N = 2 (m + n), where m = min(M, max(_CHIRP_BLOCK, n + 1)) is
    at least the frequency count of one chirp-z block, so N exceeds its FFT
    length.  Then no FFT intermediate passes sqrt(2) N**3 F (the unnormalized
    inverse sums N products of two transforms, each at most the sum of its N
    inputs) and no weighted sum, nor any partial sum over node blocks, passes
    sqrt(2) (b - a) F (the weights' moduli add up to at most b - a), so both
    stay below 2**1021.  NaN and inf fail the bound.
    """
    omegas = _frequencies(omegas, grid.h)
    values = np.asarray(values, dtype=complex)
    if values.ndim not in (1, 2) or values.shape[0] != grid.n + 1:
        raise ValueError(
            f"expected {grid.n + 1} samples per column, got shape {values.shape}"
        )
    fft_bound = 2.0 * (min(omegas.size, max(_CHIRP_BLOCK, grid.n + 1)) + grid.n)
    limit = 2.0**1020 / max(fft_bound**3, grid.b - grid.a)
    parts = values.ravel(order="K").view(float)  # a view when values is contiguous
    peak = np.maximum(parts.max(initial=0.0), -parts.min(initial=0.0))
    if not peak <= limit:  # also catches NaN
        raise ValueError(f"samples must be finite with max(|Re f|, |Im f|) <= {limit:.6g} "
                         f"for {grid.n + 1} nodes on [{grid.a:g}, {grid.b:g}]")
    step = _lattice_step(omegas)
    if step is None:
        length = max(1, _DENSE_BLOCK_WEIGHTS // (grid.n + 1))
        def evaluate(block):
            return coefficient_matrix(grid, block) @ values
    else:
        # Every block keeps the whole lattice's step: a block near omega = 0 need
        # not pass _lattice_step's test, whose tolerance scales with its own max|omega|.
        length = _frequency_block(grid.n, values.size // (grid.n + 1))
        def evaluate(block):
            return _apply_chirp(grid, block, step, values)
    if omegas.size <= length:  # one block: no copy into a separate result
        return evaluate(omegas)
    out = np.empty(omegas.shape + values.shape[1:], dtype=complex)
    for start in range(0, omegas.size, length):
        block = slice(start, start + length)
        out[block] = evaluate(omegas[block])
    return out


def _lattice_step(omegas: np.ndarray) -> float | None:
    """The non-zero step of a lattice uniform to rounding, or None."""
    m = omegas.size
    if m < 2:
        return None
    step = (omegas[-1] - omegas[0]) / (m - 1)
    if step == 0:  # constant: the dense rows for one frequency are bit-equal
        return None
    # |omegas - line| in one temporary, which bounds a long lattice's working set
    dev = np.arange(-(m // 2), m - m // 2, dtype=float)
    dev *= step
    dev += omegas[m // 2]
    dev -= omegas
    tol = _UNIFORM_ULPS * np.spacing(np.abs(omegas).max())
    return step if np.abs(dev, out=dev).max() <= tol else None


def _half_turns(rate, x) -> np.ndarray:
    """The phase rate * x in half-turns, reduced mod 2.  rate and x broadcast.

    The product's rounding error is recovered exactly (Dekker's two-product)
    and added after the reduction, so the phase keeps full precision however
    large rate * x is; index arguments such as q**2 are exact below 2**53.
    """
    prod = rate * x
    # (2**27 + 1) rate overflows past about 1.3e300, so a rate beyond 2**996
    # is split at 2**-28 its size and the scale moves onto x's halves, which
    # is exact: rate's high half, rounded up, may not scale back below the
    # float limit.  x, a frequency or an index product, stays far below that.
    # Any other rate takes a scale of 1, which changes no bit, so where no
    # rate passes 2**996 the scaling is skipped.
    x_hi, x_lo = _split(x)
    big = np.abs(rate) > 2.0**996
    if big.any():
        scale = np.where(big, 2.0**28, 1.0)
        rate = rate / scale
        x_hi, x_lo = x_hi * scale, x_lo * scale
    rate_hi, rate_lo = _split(rate)
    err = ((rate_hi * x_hi - prod) + rate_hi * x_lo + rate_lo * x_hi) + rate_lo * x_lo
    return _mod2(_mod2(prod) + err)


def _mod2(v):
    """np.fmod(v, 2.0), bit for bit on finite v, at a cost that does not grow with |v|.

    half = trunc(v/2) is taken as trunc(trunc(v)/2), which halves no subnormal
    (that would underflow).  Below 2, half is 0; from 2 up, 2 half has v's sign
    and lies within a factor of 2 of v, so v - 2 half is exact (Sterbenz).
    copysign gives a zero fmod's sign.
    """
    half = np.trunc(0.5 * np.trunc(v))
    return np.copysign(v - (half + half), v)


def _node_turns(nodes: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """2 omega x in half-turns mod 2, a row per frequency and a column per node, as x
    (2 omega): a doubled node could overflow, a doubled frequency cannot (_MAX_THETA)."""
    return _half_turns(nodes, 2.0 * omegas[:, None])


def _end_weights(h: float, theta: np.ndarray, phases: np.ndarray):
    """The end nodes' weights h L(theta) e^{2 pi i omega a} and h conj(L(theta))
    e^{2 pi i omega b}, from the first and last columns of the node phases."""
    left = _left_factor(theta)
    return h * left * phases[:, 0], h * np.conj(left) * phases[:, -1]


def _split(a):
    """Veltkamp split of a into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _fft_length(n: int) -> int:
    """The smallest 5-smooth integer >= n."""
    best = 2 * n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _interior_support(cols: np.ndarray) -> tuple[int, int]:
    """[lo, hi), the interior nodes from the first to the last that hold a
    non-zero sample in some row of cols (a row per sample column, a column
    per node); lo == hi when every interior sample is zero.

    When the first and the last interior nodes both hold one, that is every
    interior node, found at O(K) cost; otherwise one pass over the samples.
    """
    n = cols.shape[1] - 1
    if cols[:, 1].any() and cols[:, n - 1].any():
        return 1, n
    nonzero = cols[:, 1:n].any(axis=0)
    if not nonzero.any():
        return 1, 1
    return 1 + int(nonzero.argmax()), n - int(nonzero[::-1].argmax())


def _apply_chirp(
    grid: UniformGrid, omegas: np.ndarray, step: float, values: np.ndarray
) -> np.ndarray:
    """Chirp-z evaluation of the weights applied to values on a uniform lattice.

    Row k is h*interior_k * sum_j e^{2 pi i omega_k x_j} f_j over the interior
    nodes plus the two endpoint terms.  Only the support is summed: the s =
    hi - lo interior nodes [lo, hi) from the first to the last that hold a
    non-zero sample (_interior_support), and the endpoint terms only where an
    end sample is non-zero.  The support is summed in contiguous node blocks
    of L = _node_block(m) nodes, or as one block when s is no more; the last
    block spans the support's last L nodes, with zeros for those the block
    before it summed, so its middle is a node of the grid.  So the time is
    O((m + s) log(m + L)) beside O(n K) to find the support when the first
    or the last interior sample is zero; samples whose first and last
    interior entries are non-zero take lo = 1, hi = n, the whole interior.
    Both index ranges are centred (p = k - m//2, q = j - c
    over the L nodes j a block spans, with c its middle node) so the chirp
    phases stay small, and pq = (p^2 + q^2 - (p-q)^2)/2 turns each block's
    sum into a convolution:

        e^{2 pi i omega_k x_j} = e^{2 pi i omega_k x_c} e^{2 pi i omega_c h q}
                                 e^{i pi b p^2} e^{i pi b q^2} e^{-i pi b (p-q)^2}

    with b = step * h.  Every block has the same q, so all share one table of
    b k^2, one pre-chirp and one chirp-kernel FFT, whose phases and the end
    nodes' are reduced in one pass; each block's convolution is
    one row of a batched FFT, and only its centre phase e^{2 pi i omega_k x_c}
    is its own.  Blocks run in groups whose FFT buffer holds at most
    _DENSE_BLOCK_WEIGHTS entries, or one block, and each group's post-chirp
    phases are reduced in a pass of their own: one pass over every group's
    would hold about ten temporaries of about s/4 entries, past the memory
    bound of a long inverse transform.  The per-row factors use the
    actual omega_k; the convolution runs on the line omega_c + p * step.
    ``omegas`` is a block of a lattice within _UNIFORM_ULPS ulps of its own
    line with this step, so the block may miss its line by twice that, and an
    interior term's phase can be off by 2 pi * 8 ulp(max|omega|) * |x_j - x_c|.
    """
    m, n, h = omegas.size, grid.n, grid.h
    cols = values.reshape(n + 1, -1).T  # one row per column of values
    rows = cols.shape[0]
    theta = TWO_PI * omegas * h
    ends = cols[:, [0, -1]]
    lo, hi = _interior_support(cols)
    # The phases the node blocks share take one _half_turns call over
    # concatenated (rate, x) pairs and one exp: the end nodes' 2 omega x where
    # an end sample is non-zero, and where the support holds a node, the table
    # of -b k^2 for k up to max|lag| and the pre-chirp's centre phase.  Both
    # index ranges hold 0, so no |q| or |p| passes max|lag|, and the one table
    # serves all three chirps.
    end_nodes = grid.nodes([0, n]) if ends.any() else np.empty(0)
    if not end_nodes.size and hi <= lo:  # every sample is zero
        return np.zeros(omegas.shape + values.shape[1:], dtype=complex)
    rates, xs = [np.repeat(end_nodes, m)], [2.0 * omegas] * end_nodes.size
    at = end_nodes.size * m  # where the -b k^2 table starts
    table = 0
    if hi > lo:
        span = min(hi - lo, _node_block(m))
        q = np.arange(1, span + 1, dtype=np.int64) - (span + 1) // 2
        p = np.arange(m, dtype=np.int64) - m // 2
        lags = np.arange(p[0] - q[-1], p[-1] - q[0] + 1, dtype=np.int64)
        nfft = _fft_length(lags.size)
        table = max(-lags[0], lags[-1]) + 1
        rates += [np.full(table, -step * h), np.full(span, 2.0 * omegas[m // 2] * h)]
        xs += [np.arange(table, dtype=float) ** 2, q.astype(float)]
    turns = _half_turns(np.concatenate(rates), np.concatenate(xs))
    chirp = turns[at : at + table]
    if hi > lo:  # the pre-chirp takes b q^2 from the table
        turns[at + table :] -= chirp[np.abs(q)]
    phases = np.exp(1j * math.pi * turns)
    if at:
        out = ends @ np.stack(_end_weights(h, theta, phases[:at].reshape(2, m).T))
    else:  # both end samples are zero in every column
        out = np.zeros((rows, m), dtype=complex)

    if hi > lo:
        pre = phases[at + table :]
        kernel = np.fft.fft(phases[at : at + table][np.abs(lags)], nfft)
        scale = h * _interior_factor(theta)
        # Each node block sums the nodes from its first one up to its span's
        # end.  The last span ends on node hi - 1, and the nodes it shares with
        # the block before stay zero, so every centre is a node of the grid.
        firsts = np.arange(lo, hi, span)
        begins = np.minimum(firsts, hi - span)
        group = max(1, _DENSE_BLOCK_WEIGHTS // (rows * nfft))
        for start in range(0, firsts.size, group):
            batch = slice(start, start + group)
            count = firsts[batch].size
            buf = np.zeros((count * rows, nfft), dtype=complex)
            for row, first, begin in zip(range(0, buf.shape[0], rows),
                                         firsts[batch].tolist(), begins[batch].tolist()):
                skip = first - begin
                np.multiply(cols[:, first : begin + span], pre[skip:],
                            out=buf[row : row + rows, skip:span])
            np.fft.fft(buf, out=buf)
            buf *= kernel
            conv = np.fft.ifft(buf, out=buf)[:, span - 1 : span - 1 + m]
            conv = conv.reshape(count, rows, m)
            # the post-chirp with each block's centre phase, a row per block
            centres = grid.nodes(begins[batch] + ((span + 1) // 2 - 1))
            post = _node_turns(centres, omegas).T - chirp[np.abs(p)]
            conv *= (scale * np.exp(1j * math.pi * post))[:, None, :]
            for part in conv:
                out += part

    # Exact omega == 0 gives the exact trapezoid sum, which is what
    # coefficient_matrix's weights reduce to there.
    zero = omegas == 0.0
    if zero.any():
        out[:, zero] = (cols @ _trapezoid_weights(grid))[:, None]
    return out.T.reshape(omegas.shape + values.shape[1:])


def _polyval_rows(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval(row, x) for every row of coeffs (highest degree first) in one
    Horner pass, with np.polyval's steps, so bit for bit."""
    y = np.zeros((coeffs.shape[0], x.size), dtype=complex)
    for column in coeffs.T:
        y *= x
        y += column[:, None]
    return y


def error_norm(omegas, h: float):
    """Squared norm of the error functional of the optimal weights at step h,
    the squared worst-case error over the Sobolev unit ball.

    (1 - interior(theta))/(2 pi omega)^2 with theta = 2 pi omega h, summed as
    a series in theta below SMALL_THETA.  A scalar frequency gives a float,
    1-d frequencies a float array.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step must be finite and positive, got h={h}")
    scalar = np.ndim(omegas) == 0
    omegas = _frequencies(omegas, h)
    norm_sq = _by_theta(
        TWO_PI * omegas * h,
        lambda t: h * h * np.polyval(_NORM_SERIES, t * t),
        lambda t, om: (1.0 - _interior_factor(t)) / (TWO_PI * om) ** 2,
        omegas,
    )
    return float(norm_sq[0]) if scalar else norm_sq


def monomial_fourier_integral(alpha: int, omegas, a: float, b: float):
    """Closed-form int_a^b e^{2 pi i omega x} x^alpha dx at each frequency.

    ``omegas`` is a scalar, giving a complex, or 1-d, giving a complex array.
    With z = 2 pi i omega, frequencies where |z| (b - a) <= max(1, alpha) take
    the Taylor series about the midpoint c = (a + b)/2, r = (b - a)/2:

        e^{zc} sum_j binom(alpha, j) c^(alpha-j) r^(j+1) int_{-1}^{1} t^j e^{zrt} dt,
        int_{-1}^{1} t^j e^{zrt} dt = sum_k (zr)^k (1 + (-1)^(j+k)) / (k! (j+k+1)),

    which covers omega = 0.  The others take e^{zb} S(b) - e^{za} S(a) with
    S(x) = sum_k (-1)^k alpha!/(alpha-k)! x^(alpha-k) / z^(k+1), whose two
    terms cancel by a factor that grows like alpha! / (|z| (b - a))^alpha.
    Against a 40-digit quadrature both branches stay within 2.1e-15 of
    int_a^b |x|^alpha dx for alpha <= 8.
    """
    check_integer("alpha", alpha, 0)
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError(f"interval must be finite with end above start: a={a}, b={b}")
    z = 2j * math.pi * _frequencies(omegas, b - a)
    out = np.empty(z.shape, dtype=complex)
    big = np.abs(z) * (b - a) > max(1.0, alpha)

    zs = z[big]
    k = np.arange(alpha + 1)
    falling = (-1.0) ** k * np.array([float(math.perm(alpha, i)) for i in k])
    w = 1.0 / zs
    # S(x) by Horner in w = 1/z, from the smallest term up.
    coeffs = np.array([(falling * x ** (alpha - k))[::-1] for x in (b, a)])
    s_b, s_a = w * _polyval_rows(coeffs, w)
    out[big] = np.exp(zs * b) * s_b - np.exp(zs * a) * s_a

    # |zr| <= max(1, alpha)/2, whose K-th power over K! is below 1e-20 for
    # K = 24 + 2 alpha terms.  zr = i s has a zero real part, and series j
    # holds only the powers of j's parity, so Horner's complex steps in i s
    # come to one real recurrence e <- c - s (s e) over every other power,
    # with the same roundings: series j is e for even j and i s e for odd j.
    zs = z[~big]
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    s = (zs * r).imag
    j = np.arange(alpha + 1)[:, None]
    k = j % 2 + 2 * np.arange(12 + alpha)  # the powers series j holds
    inv_factorials = np.array([1.0 / math.factorial(i) for i in range(24 + 2 * alpha)])
    series = 2.0 * inv_factorials[k] / (j + k + 1)
    scales = np.array([math.comb(alpha, i) * c ** (alpha - i) * r ** (i + 1)
                       for i in range(alpha + 1)])
    terms = np.zeros((alpha + 1, s.size))
    for column in series.T[::-1]:
        terms *= s
        terms *= s
        np.subtract(column[:, None], terms, out=terms)
    terms[1::2] *= s
    terms *= scales[:, None]
    total = np.empty(s.size, dtype=complex)
    total.real = terms[0::2].sum(axis=0)
    total.imag = terms[1::2].sum(axis=0)
    out[~big] = np.exp(zs * c) * total
    return complex(out[0]) if np.ndim(omegas) == 0 else out
