"""Transfer matrices and overflow-safe cocycle products.

Conventions (base point (x, y) fixed):
    a_j = a(y + j*omega),   v_j = v(T^j(x, y)),
    A_j   = (1/a_{j+1}) [[lam*v_j - E, -a_j], [a_{j+1}, 0]],
    A'_j  =             [[lam*v_j - E, -a_j], [a_{j+1}, 0]],
    M_n   = A_n ... A_1  (identity at n = 0),   det M_n = a_1 / a_{n+1}.

Every product, one or a stack, is a `CocycleProduct`: unit-Frobenius
matrices, their log magnitudes and exact log|det|, so that norms growing like
lam^n never overflow (lambda = 1e3 would overflow a double near n = 300).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, JacobiModel, ModelAdmissionError, _quarter
from .torus import TorusPoint, exact_orbit_phases, orbit_offsets, q64

_RESCALE = 1e100
_LOG_RESCALE = math.log(_RESCALE)
_A_FLOOR = 1.0 - 1e-9
_BLOCK = 16384  # elements per block of the batched sweep
# steps per segment of `orbit_product`.  In-segment phases are the kernel's
# exact offsets from the segment's start, so the length bounds no phase
# error; long products cost the same within 5 % from 64 to 256 steps
_SEGMENT = 128
# steps between the sweep's exact re-anchorings of its offset rotation
# (`_OffsetTurns`).  The rotated trig drifts by about an ulp per step, and
# the anchors cost 1/_ANCHOR of taking the trig at every step; at 32 the
# drift reaches 1.2e-14 and a 1024-step log-norm 1.8e-12 of the exact oracle
_ANCHOR = 8
# steps per running product of |a_{j+1}| in the sweep's log sum: as
# 1 <= |a| <= 2, a product stays below 2^_PRODUCT, and 2^1000 < DBL_MAX
_PRODUCT = 512


@dataclass(frozen=True)
class CocycleProduct:
    """An n-factor product exp(log_scale) * unit, ||unit||_F = 1, with its
    log|det| tracked exactly (the unit determinant of a strongly hyperbolic
    product cancels below float precision); or a stack of w of them, `unit`
    of shape (w, 2, 2) and the log fields of shape (w,), with `c[i]` the
    i-th product (a slice gives a sub-stack).
    """

    unit: np.ndarray
    log_scale: float | np.ndarray
    log_det: float | np.ndarray
    n: int

    @classmethod
    def from_matrices(cls, m, log_scale=0.0) -> "CocycleProduct":
        """exp(log_scale) m, one factor, for a (2, 2) matrix or a (w, 2, 2)
        stack.  Entries are divided by a power of two >= their largest |entry|
        before squaring, so any finite nonzero m is taken, with ||m||_F
        bitwise the plain one wherever that does not overflow.  log_det comes
        from the entries' `np.frexp` parts, which never underflow (-inf iff
        det m = 0): det m = 2^k (p 2^(e - k) - q 2^(f - k)), k the larger
        exponent of a nonzero product."""
        m = np.asarray(m, dtype=np.float64)
        if m.shape[-2:] != (2, 2) or m.ndim not in (2, 3):
            raise ValueError("expected a 2x2 matrix or a stack of them")
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.ldexp(1.0, np.frexp(np.abs(m).max(axis=(-2, -1)))[1])
            r = m / s[..., None, None]
            fro = np.sqrt(np.sum(r * r, axis=(-2, -1))) * s
        if not np.all(np.isfinite(fro) & (fro > 0.0)):
            raise ValueError("matrix must be nonzero with finite entries")
        mant, ex = np.frexp(m)
        p, q = mant[..., 0, 0] * mant[..., 1, 1], mant[..., 0, 1] * mant[..., 1, 0]
        e, f = ex[..., 0, 0] + ex[..., 1, 1], ex[..., 0, 1] + ex[..., 1, 0]
        k = np.maximum(np.where(p == 0, f, e), np.where(q == 0, e, f))
        det = np.ldexp(p, e - k) - np.ldexp(q, f - k)
        with np.errstate(divide="ignore"):
            log_det = 2.0 * log_scale + (np.log(np.abs(det)) + k * math.log(2.0))
        return cls(m / fro[..., None, None], _scalar(log_scale + np.log(fro)),
                   _scalar(log_det), 1)

    def __getitem__(self, i) -> "CocycleProduct":
        return CocycleProduct(self.unit[i], _scalar(self.log_scale[i]),
                              _scalar(self.log_det[i]), self.n)

    def __len__(self) -> int:
        return len(self.log_scale)  # a TypeError for one product

    @property
    def log_norm(self):
        """log of the spectral norm of each represented matrix."""
        rows = self.unit.reshape(self.unit.shape[:-2] + (4,)).T  # m00, m01, m10, m11
        return self.log_scale + _log_unit_norm(*rows)


def _scalar(a):
    return float(a) if np.ndim(a) == 0 else a


def _log_unit_norm(m00, m01, m10, m11):
    """log||u||_2 of unit-Frobenius 2x2 matrices u in closed form:
    ||u||_2^2 = (1 + sqrt(1 - 4 det(u)^2)) / 2."""
    det_u = m00 * m11 - m01 * m10
    disc = np.maximum(1.0 - 4.0 * det_u * det_u, 0.0)
    return 0.5 * np.log(0.5 * (1.0 + np.sqrt(disc)))


def transfer_matrix(m: JacobiModel, base: TorusPoint, E: float, n: int) -> np.ndarray:
    """The one-step matrix A_n at the base point."""
    if n < 1:
        raise ValueError("n must be positive")
    a_n, a_n1, d = _one_step(m, base, E, n)
    return np.array([[d / a_n1, -a_n / a_n1], [1.0, 0.0]])


def inverse_transfer_matrix(m: JacobiModel, base: TorusPoint, E: float, n: int) -> np.ndarray:
    """A_n^{-1} = (1/a_n) [[0, a_n], [-a_{n+1}, lam*v_n - E]]."""
    a_n, a_n1, d = _one_step(m, base, E, n)
    return (1.0 / a_n) * np.array([[0.0, a_n], [-a_n1, d]])


def _one_step(m: JacobiModel, base: TorusPoint, E: float, n: int) -> tuple[float, float, float]:
    """(a_n, a_{n+1}, lam*v_n - E) at exact phases, for any integer n."""
    xs, ys = exact_orbit_phases(base.x, base.y, [n, n + 1], m.omega)
    a_n, a_n1 = (m.a.eval_scalar(float(t)) for t in ys)
    return a_n, a_n1, m.lam * m.v.eval_scalar(float(xs[0]), float(ys[0])) - E


def orbit_values(m: JacobiModel, base: TorusPoint, n: int):
    """(a_vals, v_vals) along the orbit: a_vals[j] = a_j for j = 1..n+1,
    v_vals[j] = v_j for j = 1..n (index 0 unused).

    All phases come from one `exact_orbit_phases` call, so a_j depends on j
    alone and calls of different lengths see bitwise-identical values (the
    determinant identity telescopes).
    """
    xs, ys = exact_orbit_phases(base.x, base.y, np.arange(1, n + 2), m.omega)
    a_vals = np.empty(n + 2)
    v_vals = np.empty(n + 1)
    a_vals[0] = v_vals[0] = np.nan
    a_vals[1:] = m.a(ys)
    v_vals[1:] = m.v(xs[:n], ys[:n])
    return a_vals, v_vals


def orbit_product(m: JacobiModel, x, y, E: float,
                  n: int) -> tuple[CocycleProduct, CocycleProduct]:
    """The stacks (M_n, A'_n ... A'_1) at the base points (x[i], y[i]) from
    wide kernel sweeps.

    M_n = A'_n ... A'_1 / prod_j a_{j+1} has log_det = log|a_1| -
    log|a_{n+1}|, from `a` at the exact phases of steps 1 and n + 1; the
    un-divided product adds 2 sum_j log|a_{j+1}| to it.
    The sign of prod_j a_{j+1} is sign(a_1)^n, since an admitted `a` has one
    sign (|a| >= 1 on the whole circle).

    Each orbit is cut into K = ceil(n / _SEGMENT) segments; segment k starts
    at T^{k _SEGMENT}(x, y), exactly from `exact_orbit_phases`, and the
    kernel moves it by exact offsets.  One kernel call sweeps the segments of
    a chunk of max(1, _BLOCK // K) points side by side (all points at once
    when w <= that), so memory stays O(max(_BLOCK, K)) whatever w and n
    are; each point's last segment, n - (K-1) _SEGMENT steps long, is read
    at its own checkpoint.  The segments of each point are then multiplied
    by `_tree_fold` in ceil(log2 K) levels, vectorized over points.
    A point's values do not depend on the chunking, and for n <= _SEGMENT
    (K = 1) its one segment is the read-out of `batched_log_norm_checkpoints`.

    A step j whose a_j or a_{j+1} lies below 1 in absolute value raises
    ModelAdmissionError naming the first such j (of the first point that
    has one); it is read from the `a` rows the kernel evaluates anyway.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    w = x.size
    seg = _SEGMENT
    K = max(1, -(-n // seg))
    last = n - (K - 1) * seg  # steps in each point's last segment
    cps = sorted({last, seg}) if K > 1 else [last]
    lengths = np.full(K, seg)
    lengths[-1] = last
    starts = np.arange(K) * seg
    unit = np.empty((w, 2, 2))
    log_scale, sum_log_a_next = np.empty(w), np.empty(w)
    chunk = max(1, _BLOCK // K)
    for c0 in range(0, w, chunk):
        c = min(chunk, w - c0)
        xs, ys = exact_orbit_phases(x[c0:c0 + c, None], y[c0:c0 + c, None], starts, m.omega)
        # the state of every segment, as (segments, rows, points)
        U = np.empty((K, 4, c))
        S, A, B = (np.empty((K, c)) for _ in range(3))
        # |a| = 0 makes logs of 0 on the way to the admission error below
        with np.errstate(divide="ignore", invalid="ignore"):
            for cp, u, scale, a_sum, _, small in _sweep(m, xs.ravel(), ys.ravel(), E, cps,
                                                        _A_FLOOR):
                ends = lengths == cp
                U[ends] = u.reshape(4, c, K)[:, :, ends].transpose(2, 0, 1)
                for dst, src in zip((S, A, B), (scale, a_sum, small)):
                    dst[ends] = src.reshape(c, K)[:, ends].T
        # a_i of segment k is a_{k seg + i} of the orbit
        first = np.where(B > 0, B + starts[:, None], np.inf).min(axis=0)
        if np.isfinite(first).any():
            a_i = int(first[np.isfinite(first)][0])
            # a_1 and a_2 enter step 1, a_{j+1} step j
            raise ModelAdmissionError(f"|a| < 1 along the orbit at step {max(1, a_i - 1)}")
        rows = slice(c0, c0 + c)
        u, log_scale[rows] = _tree_fold(U, S)
        unit[rows] = u.T.reshape(c, 2, 2)
        sum_log_a_next[rows] = _running_total(A[0], A[1:])
    a_1, a_n1 = m.a(exact_orbit_phases(x[:, None], y[:, None], [1, n + 1], m.omega)[1]).T
    log_det = np.log(np.abs(a_1)) - np.log(np.abs(a_n1)) if n else np.zeros(w)
    sign_a = np.sign(a_1) ** (n % 2)
    return (CocycleProduct(sign_a[:, None, None] * unit, log_scale - sum_log_a_next, log_det, n),
            CocycleProduct(unit, log_scale, log_det + 2.0 * sum_log_a_next, n))


def fundamental_matrix(m: JacobiModel, base: TorusPoint, E: float, n: int) -> CocycleProduct:
    """M_n = A_n ... A_1 as a log-scaled product (identity at n = 0).

    The one-point view of `orbit_product`: exact segment starts, one kernel
    sweep over the segments, folded pairwise.  Raises
    ModelAdmissionError at the first step that meets |a| < 1.
    """
    return orbit_product(m, [base.x], [base.y], E, n)[0][0]


def fundamental_matrix_a(m: JacobiModel, base: TorusPoint, E: float, n: int) -> CocycleProduct:
    """The un-divided product A'_n ... A'_1 (see `fundamental_matrix`)."""
    return orbit_product(m, [base.x], [base.y], E, n)[1][0]


def normalize_unimodular(c: CocycleProduct) -> CocycleProduct:
    """M / |det M|^{1/2}, of each product of a stack; the result has |det| = 1."""
    if not np.all(np.isfinite(c.log_det)):
        raise ValueError("log_det must be finite")
    return CocycleProduct(c.unit, c.log_scale - 0.5 * c.log_det,
                          _scalar(np.zeros(np.shape(c.log_det))), c.n)


def _f_product(m: JacobiModel, base: TorusPoint, E: float, n: int):
    """P = F_n ... F_1 with F_j = [[lam*v_j - E, -a_j^2], [1, 0]], n >= 1.

    F_j maps (f_{j-1}, f_{j-2}) to (f_j, f_{j-1}) for the three-term
    recurrence f_j = (lam*v_j - E) f_{j-1} - a_j^2 f_{j-2}, f_0 = 1,
    f_{-1} = 0, so P = [[f_n, -a_1^2 f'_{n-1}], [f_{n-1}, -a_1^2 f'_{n-2}]]
    with f' the recurrence at the shifted base T(x, y) (f'_{-1} = 0).
    The K = ceil(n / _SEGMENT) segments of the product are stepped side by
    side with per-step Frobenius renormalization (the last, shorter one is
    read at its own step) and multiplied by `_tree_fold`.  Returns the
    (2, 2) unit part, its log scale and `orbit_values`' a_vals.
    """
    a_vals, v_vals = orbit_values(m, base, n)
    seg = _SEGMENT
    K = -(-n // seg)
    last = n - (K - 1) * seg
    # steps past n, never read, are padded with the swap [[0, 1], [1, 0]]
    d, a_sq = np.zeros(K * seg), np.full(K * seg, -1.0)
    d[:n] = m.lam * v_vals[1:] - E
    a_sq[:n] = a_vals[1:n + 1] * a_vals[1:n + 1]
    d, a_sq = d.reshape(K, seg).T, a_sq.reshape(K, seg).T
    u = np.zeros((4, K))  # the unit part m00, m01, m10, m11 of each segment
    u[0] = u[3] = 1.0
    t, fro = np.empty((2, K)), np.empty((seg, K))
    U = np.empty((K, 4, 1))
    for i in range(seg):
        np.multiply(d[i], u[:2], out=t)
        t -= a_sq[i] * u[2:]
        u[2:] = u[:2]
        u[:2] = t
        f = fro[i]
        np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + u[3] * u[3], out=f)
        u /= f
        if i == last - 1:
            U[-1, :, 0] = u[:, -1]
    U[:-1, :, 0] = u[:, :-1].T
    logs = np.log(fro)
    logs[last:, -1] = 0.0
    unit, log_scale = _tree_fold(U, logs.sum(axis=0)[:, None])
    return unit.reshape(2, 2), float(log_scale[0]), a_vals


def f_determinant(m: JacobiModel, base: TorusPoint, E: float, n: int) -> tuple[float, int]:
    """(log|f_n|, sign) for the n x n tridiagonal determinant with diagonal
    lam*v_j - E and off-diagonal -a_j, read from `_f_product`."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0, 1
    unit, log_scale, _ = _f_product(m, base, E, n)
    f = float(unit[0, 0])
    if f == 0.0:
        return -math.inf, 0
    return math.log(abs(f)) + log_scale, 1 if f > 0 else -1


def fundamental_matrix_via_f(m: JacobiModel, base: TorusPoint, E: float, n: int) -> CocycleProduct:
    """M_n assembled from the f-recurrence product P of `_f_product` and
    log-sums of the a_j.

    Entry layout (f' evaluated at the shifted base T(x, y), where
    a'_j = a_{j+1} and v'_j = v_{j+1}):
        [ f_n/prod_{2..n+1} a_j          -(a_1/a_2) f'_{n-1}/prod_{3..n+1} a_j ]
        [ f_{n-1}/prod_{2..n} a_j        -(a_1/a_2) f'_{n-2}/prod_{3..n} a_j   ]
    that is diag(1, a_{n+1}) P diag(1, 1/a_1) / prod_{2..n+1} a_j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    unit, log_scale, a_vals = _f_product(m, base, E, n)
    a_1, a_n1, rest = a_vals[1], a_vals[n + 1], a_vals[2:n + 2]
    scaled = unit * np.array([[1.0, 1.0 / a_1], [a_n1, a_n1 / a_1]]) * np.prod(np.sign(rest))
    c = CocycleProduct.from_matrices(scaled, log_scale - float(np.sum(np.log(np.abs(rest)))))
    return CocycleProduct(c.unit, c.log_scale, math.log(abs(a_1)) - math.log(abs(a_n1)), n)


@dataclass(frozen=True)
class DifferenceSolution:
    """A solution of the difference equation on sites n_min..n_max, carried
    as (sign, log|value|) pairs so large-disorder growth cannot overflow."""

    n_min: int
    n_max: int
    sign: np.ndarray
    log_abs: np.ndarray

    def value(self, n: int) -> float:
        i = n - self.n_min
        with np.errstate(over="ignore"):
            return float(self.sign[i] * np.exp(self.log_abs[i]))


def solve_difference_equation(
    m: JacobiModel,
    base: TorusPoint,
    E: float,
    n_min: int,
    n_max: int,
    initial: tuple[float, float],
) -> DifferenceSolution:
    """The unique solution of H phi = E phi with (phi(0), phi(1)) given.

    Recurrence at site k: -a_{k+1} phi(k+1) - a_k phi(k-1) + lam v_k phi(k)
    = E phi(k).  Sites n_min..n_max with n_min <= 0 < 1 <= n_max and the
    range bounded by 1e4 on either side.
    """
    if not (n_min <= 0 and n_max >= 1):
        raise ValueError("range must contain sites 0 and 1")
    if max(abs(n_min), abs(n_max)) > 10_000:
        raise ValueError("|n| must be <= 1e4")
    size = n_max - n_min + 1
    sign = np.zeros(size)
    log_abs = np.full(size, -np.inf)

    def store(site: int, val: float, offset: float):
        i = site - n_min
        if val == 0.0:
            sign[i], log_abs[i] = 0.0, -np.inf
        else:
            sign[i] = 1.0 if val > 0 else -1.0
            log_abs[i] = math.log(abs(val)) + offset

    # a_k and lam*v_k - E at every site, from one call of the exact orbit primitive
    xs, ys = exact_orbit_phases(base.x, base.y, np.arange(n_min, n_max + 1), m.omega)
    a_all = m.a(ys).tolist()
    d_all = [m.lam * v - E for v in m.v(xs, ys).tolist()]

    def sweep(sites, step: int, prev: float, cur: float, b: list, c: list):
        # phi(k + step) = (d_k phi(k) - b_k phi(k - step)) / c_k for k in sites,
        # rescaled by _RESCALE whenever the pair outgrows it
        offset = 0.0
        for k in sites:
            i = k - n_min
            prev, cur = cur, (d_all[i] * cur - b[i] * prev) / c[i]
            if max(abs(prev), abs(cur)) > _RESCALE:
                prev /= _RESCALE
                cur /= _RESCALE
                offset += _LOG_RESCALE
            store(k + step, cur, offset)

    phi0, phi1 = float(initial[0]), float(initial[1])
    store(0, phi0, 0.0)
    store(1, phi1, 0.0)
    # forward: b_k = a_k, c_k = a_{k+1}; backward: b_k = a_{k+1}, c_k = a_k
    sweep(range(1, n_max), 1, phi0, phi1, a_all, a_all[1:])
    sweep(range(0, n_min, -1), -1, phi1, phi0, a_all[1:], a_all)
    return DifferenceSolution(n_min, n_max, sign, log_abs)


def wronskian(m: JacobiModel, base: TorusPoint, phi: DifferenceSolution,
              psi: DifferenceSolution, n: int) -> float:
    """W_n = a_{n+1} (psi(n) phi(n+1) - phi(n) psi(n+1)); constant in n for
    two solutions of the same equation."""
    a_n1 = m.a.eval_scalar(float(exact_orbit_phases(base.x, base.y, n + 1, m.omega)[1]))
    return a_n1 * (psi.value(n) * phi.value(n + 1) - phi.value(n) * psi.value(n + 1))


def _running_total(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., added left to right as a loop of
    `total += row` adds them.

    A block with at least as many rows as a row has elements is summed by
    np.add.accumulate, which adds sequentially like the loop (np.sum and
    np.add.reduce may add pairwise, which changes the bits) without paying
    numpy's per-call cost on every row; wider rows keep the loop, where
    accumulate's strided inner loop would cost more.
    """
    if len(rows) > 1 and len(rows) >= rows[0].size:
        return np.add.accumulate(np.concatenate((total[None], rows)), axis=0)[-1]
    total = total.copy()
    for row in rows:
        total += row
    return total


def _running_product(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total * rows[0] * rows[1] * ..., multiplied left to right as a loop
    of `total *= row` multiplies them, in one call: np.multiply.reduce has no
    pairwise form and multiplies in row order along any axis."""
    if len(rows) == 1:
        return total * rows[0]
    return np.multiply.reduce(np.concatenate((total[None], rows)), axis=0)


def _tree_fold(U: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U_{K-1} ... U_1 U_0 of a (K, 4, c) stack of unit matrices (rows m00,
    m01, m10, m11) with (K, c) log scales, as ((4, c) unit, (c,) log scale).

    Each level multiplies the pairs U_{2i+1} U_{2i} side by side, divides
    each product by its Frobenius norm and adds the log of that norm to the
    pair's log scales; an odd last matrix carries to the next level.  So
    ceil(log2 K) levels replace K - 1 steps, and every value is a function
    of its column of U and S alone.
    """
    U = U.reshape(len(U), 2, 2, -1)
    while len(U) > 1:
        h = len(U) // 2
        left, right = U[1:2 * h:2], U[0:2 * h:2]
        p = left[:, :, :1] * right[:, :1] + left[:, :, 1:] * right[:, 1:]
        sq = p * p
        fro = np.sqrt(sq[:, 0, 0] + sq[:, 0, 1] + sq[:, 1, 0] + sq[:, 1, 1])
        p /= fro[:, None, None]
        s = S[0:2 * h:2] + S[1:2 * h:2] + np.log(fro)
        U, S = np.concatenate((p, U[2 * h:])), np.concatenate((s, S[2 * h:]))
    return U[0].reshape(4, -1), S[0]


def _renorm_every(m: JacobiModel, E: float) -> int:
    """Steps r between renormalizations of the sweep state: ||A'_j||_2 <=
    G = sqrt((lam sup|v| + |E|)^2 + 2 sup|a|^2) and |det A'_j| >= inf|a|^2,
    so r steps scale a unit state's norm by e^{+-300} at most, and the
    squares the Frobenius norm sums stay normal floats."""
    g = math.hypot(m.lam * m.sup_norm_v + abs(E), math.sqrt(2.0) * m.sup_abs_a)
    return max(1, int(300.0 / math.log(max(g, g / m.inf_abs_a ** 2))))


def _signed(q: np.ndarray) -> np.ndarray:
    """Q0.64 turns as signed offsets in [-1/2, 1/2), which keeps trig
    arguments small (an int64 view times 2^-64, cheap where uint64 -> float64
    is not)."""
    return q.view(np.int64) * 2.0**-64


class _OffsetTurns:
    """(cos, sin) of 2 pi k Phi_j(y) for the x-frequencies k of v, one
    y-block of steps at a time, without trig at y's shape on most steps.

    Phi_{j+1} = Phi_j + Y + theta_j, so step j + 1 is step j turned by
    F_j = e^{2 pi i k Y} e^{2 pi i k theta_j}: a table of y taken once per
    sweep, trig of theta_j (one value per step), and two complex multiplies
    in real arithmetic at y's shape.  Every step j with (j - 1) % _ANCHOR == 0
    is set from the exact offset instead (k Phi_j reduced mod 1 in Q0.64,
    through `_quarter`), and a block's last step carries into the next, so a
    value depends on its step and point alone, never on block lengths.  The
    steps that sit at one place of their anchor interval are turned together,
    so a block costs min(_ANCHOR - 1, steps) vectorized passes.
    """

    def __init__(self, ks, Y: np.ndarray, rows: int):
        self.Y, self.ks, self.last = Y, [(k, np.uint64(k % 2**64)) for k in ks], 0
        with np.errstate(over="ignore"):
            angles = [TWO_PI * _signed(q * Y) for _, q in self.ks]
        self.tables = [(np.cos(t), np.sin(t)) for t in angles]
        # per k, cos and sin of the block's steps, row 0 the step before it
        self.turns = np.empty((len(ks), 2, rows + 1) + Y.shape)
        self.f = np.empty((3, rows if ks else 0) + Y.shape)  # F_j's cos, sin, scratch

    def __call__(self, steps: np.ndarray, phi0: np.ndarray, theta: np.ndarray) -> dict:
        """The turns of steps j0 .. j1 - 1, as {k: (cos, sin)} rows, from
        the column of steps j0 - 1 .. j1 - 1 with Phi_s(0) and theta_s of
        each (Q0.64); Phi_s(y) = s Y + Phi_s(0)."""
        L = len(steps) - 1
        if not self.ks:
            return {}
        j0 = int(steps[1].flat[0])
        first = 1 + (1 - j0) % _ANCHOR  # the row of the block's first anchor
        anchors = slice(first, L + 1, _ANCHOR)
        fc, fs, tmp = self.f[:, :L]
        out = {}
        with np.errstate(over="ignore"):
            phi = steps[anchors].astype(np.uint64) * self.Y + phi0[anchors]
            for (k, q), (tc, ts), (rc, rs) in zip(self.ks, self.tables, self.turns):
                rc[0], rs[0] = rc[self.last], rs[self.last]
                rc[anchors], rs[anchors] = _quarter(TWO_PI, _signed(q * phi))
                ang = TWO_PI * _signed(q * theta[:L])
                ec, es = np.cos(ang), np.sin(ang)
                # F of steps j0 - 1 .. j1 - 2
                np.multiply(tc, ec, out=fc)
                fc -= np.multiply(ts, es, out=tmp)
                np.multiply(ts, ec, out=fs)
                fs += np.multiply(tc, es, out=tmp)
                for p in range(1, _ANCHOR):
                    i = 1 + (p + 1 - j0) % _ANCHOR
                    if i > L:
                        continue
                    cur, prev = slice(i, L + 1, _ANCHOR), slice(i - 1, L, _ANCHOR)
                    t = tmp[prev]
                    np.multiply(rc[prev], fc[prev], out=rc[cur])
                    rc[cur] -= np.multiply(rs[prev], fs[prev], out=t)
                    np.multiply(rs[prev], fc[prev], out=rs[cur])
                    rs[cur] += np.multiply(rc[prev], fs[prev], out=t)
                out[k] = rc[1:L + 1], rs[1:L + 1]
        self.last = L
        return out


def _sweep(m: JacobiModel, x: np.ndarray, y: np.ndarray, E: float,
           checkpoints: list[int], a_floor: float | None = None):
    """The batched sweep kernel: yields the state at each checkpoint.

    Yields (n, u, log_scale, sum_log_a_next, log_det, small_a) once per
    distinct checkpoint n, in order.  u is the (4, ...) unit part m00, m01,
    m10, m11 of A'_n ... A'_1, log_scale its log magnitude (both at the
    broadcast shape); sum_log_a_next = sum_j log|a_{j+1}| and log_det =
    log|a_1| - log|a_{n+1}| live at y's shape.  With `a_floor`, small_a (y's
    shape) holds the first i in 1..n+1 with |a_i| < a_floor, 0 if there is
    none; without it, small_a is None.  The arrays are the sweep's own and
    change when it resumes: read or copy them first.

    `x` and `y` are equal-rank arrays (see `batched_log_norm_checkpoints`).
    Step j sits at (x + Phi_j(y), y + theta_j), exact offsets of y and omega
    quantized once (`torus.orbit_offsets`); a and lam*v - E come from `along`
    tables of x and y, so trig runs on theta_j alone, and on Phi_j only at
    the anchors of `_OffsetTurns`, which turns the rest.  y-blocks of
    max(1, _BLOCK // y.size) steps, cut at every checkpoint, do what has y's
    shape (offsets, a, a^2, the running products of |a|, v's offset stage);
    x-blocks of max(1, _BLOCK // samples) steps inside them write
    lam*v_j - E into rows allocated once per sweep.  The state is the top
    rows t_j and t_{j-1} of P_j = [t_j; a_{j+1} t_{j-1}], stepped by
    t_j = (lam*v_j - E) t_{j-1} - a_j^2 t_{j-2} from t_0 = (1, 0) / sqrt 2.
    It is divided by its Frobenius norm (within a factor 2 of ||P_j||, as
    1 <= |a| <= 2) after each step j with j % r == 0 (`_renorm_every`).
    sum_log_a_next adds the log of each product of |a_{j+1}| over steps
    j <= k _PRODUCT, reset at every such step, and of the running one.  A
    checkpoint reads out [t_n; a_{n+1} t_{n-1}] normalized, so its values
    are bitwise those of a sweep that stops there.
    """
    shape = np.broadcast_shapes(x.shape, y.shape)
    y_block = max(1, _BLOCK // max(1, y.size))
    x_block = max(1, _BLOCK // max(1, math.prod(shape)))
    spans, done = [], 0  # y-blocks of steps j0 <= j < j1
    for n in checkpoints:
        spans += [(j0, min(j0 + y_block, n + 1)) for j0 in range(done + 1, n + 1, y_block)]
        done = n
    every = _renorm_every(m, E)
    W, origin = q64(m.omega), np.zeros((1,) * len(shape), dtype=np.uint64)
    a_at, v_at = m.a.along(y), m.v.along(x, y, m.lam, -E)
    turns = _OffsetTurns(m.v.x_frequencies, q64(y), y_block)

    r = math.sqrt(2.0)
    t, s, spare = np.zeros((3, 2) + shape)  # s is P_0's bottom row until a_1 is known
    t[0] = s[1] = 1.0 / r
    log_scale = np.full(shape, math.log(r))
    sum_log_a_next = np.zeros(y.shape)  # logs of the finished products
    a_next = np.ones(y.shape)           # the running product of |a_{j+1}|
    log_a_1 = None
    small_a = None if a_floor is None else np.zeros(y.shape, dtype=np.int64)
    # the state is updated in place and the scratch rows are preallocated: a
    # working set that outgrows the cache costs more at wide blocks than it saves
    unit = np.empty((4,) + shape)  # a read-out's m00, m01, m10, m11
    inv, fro = np.empty(shape), np.empty(shape)
    d = np.empty((x_block,) + shape)  # lam*v_j - E of an x-block

    def frobenius(bottom, f):
        # ||(t, bottom)||_F into f, its inverse into inv
        np.multiply(t, t, out=spare)
        np.add(spare[0], spare[1], out=f)
        np.multiply(bottom, bottom, out=spare)
        f += spare[0]
        f += spare[1]
        np.sqrt(f, out=f)
        return np.divide(1.0, f, out=inv)

    def readout(n, a_n1):
        # P_n = [t; a_{n+1} s] normalized into the read-out rows
        f = np.empty(shape)
        bottom = np.multiply(a_n1, s, out=unit[2:])
        np.multiply(t, frobenius(bottom, f), out=unit[:2])
        bottom *= inv
        np.log(f, out=f)
        f += log_scale
        if n == 0:
            return n, unit, f, np.zeros(y.shape), np.zeros(y.shape), small_a
        log_a_n1 = np.log(np.abs(a_n1))
        return (n, unit, f, sum_log_a_next + np.log(a_next), log_a_1 - log_a_n1, small_a)

    if 0 in checkpoints:
        yield readout(0, 1.0)
    for j0, j1 in spans:
        steps = np.arange(j0 - 1, j1 + 1).reshape((-1,) + (1,) * len(shape))
        # Phi_s(0) and theta_s of steps j0 - 1 <= s <= j1, one value per step
        phi0, theta_q = orbit_offsets(origin, W, steps)
        theta = _signed(theta_q)
        a = a_at(theta[1:])  # a_j, j0 <= j <= j1
        abs_a = np.abs(a)
        if j0 == 1:
            s /= a[0]
            log_a_1 = np.log(abs_a[0])
        a_sq = a[:-1] * a[:-1]
        if a_floor is not None and abs_a.min() < a_floor:
            low = abs_a < a_floor
            first = j0 + np.argmax(low, axis=0)
            small_a = np.where((small_a == 0) & low.any(axis=0), first, small_a)
        v_rows = v_at.offsets(None, theta[1:-1], turns(steps[:-1], phi0[:-1], theta_q[:-1]))
        for i0 in range(0, j1 - j0, x_block):
            rows = v_rows(slice(i0, i0 + x_block), d[:j1 - j0 - i0])  # lam*v_j - E
            for j, d_j, a_sq_j in zip(range(j0 + i0, j1), rows, a_sq[i0:]):
                # t_j = d_j t_{j-1} - a_j^2 t_{j-2}
                np.multiply(d_j, t, out=spare)
                np.multiply(a_sq_j, s, out=s)
                np.subtract(spare, s, out=spare)
                t, s, spare = spare, t, s
                if j % every == 0:
                    frobenius(s, fro)
                    t *= inv
                    s *= inv
                    log_scale += np.log(fro, out=fro)
        # |a_{j+1}| of steps j0 <= j < j1 into the running products
        i = 0
        for j in range(-(-j0 // _PRODUCT) * _PRODUCT, j1, _PRODUCT):
            a_next = _running_product(a_next, abs_a[1 + i:2 + j - j0])
            sum_log_a_next += np.log(a_next)
            a_next, i = np.ones(y.shape), j - j0 + 1
        a_next = _running_product(a_next, abs_a[1 + i:])
        if j1 - 1 in checkpoints:
            yield readout(j1 - 1, a[-1])


def batched_log_norm_checkpoints(
    m: JacobiModel,
    x: np.ndarray,
    y: np.ndarray,
    E: float,
    checkpoints: list[int],
) -> dict[int, dict[str, np.ndarray]]:
    """log||M_n||_2 at many base points and several scales in one pass.

    The estimators' kernel.  The sweep (`_sweep`) runs to the largest of the
    ascending `checkpoints` and reads out every checkpoint on the way,
    vectorized over samples.  It builds the un-divided product
    A'_n ... A'_1 = [t_n; a_{n+1} t_{n-1}] from the two top rows of the
    three-term recurrence t_j = (lam*v_j - E) t_{j-1} - a_j^2 t_{j-2} at exact
    orbit offsets, with lam*v_j - E in one pass and Frobenius renormalization
    on a fixed schedule of steps; the plain and unimodular log-norms follow by
    the exact scalar relations M_n = M_n^a / prod a_{j+1} and M^u = M /
    |det M|^{1/2}.  A checkpoint reads out a normalized copy of the state, so
    its values are bitwise those of a separate n-step sweep.  `batched_log_norms` is the
    one-scale view that folds long orbits in log depth.

    `x` and `y` are equal-length sample lists or broadcastable axes of a
    product grid, e.g. x of shape (R, 1) or (R, C) and y of shape (1, C).
    What depends on y alone (the offsets and their trig, a_j, log|a_j| and
    their sums) is computed at y's shape, once per grid column; broadcasting hands every
    sample the same operands in the same order, so the values are bitwise
    those of the ravelled points.  Maps each checkpoint n to arrays
    log_norm, log_norm_u, log_norm_a, log_det, ravelled in C (x-major) order.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    shape = np.broadcast_shapes(x.shape, y.shape)
    checkpoints = [int(n) for n in checkpoints]
    if checkpoints != sorted(checkpoints) or (checkpoints and checkpoints[0] < 0):
        raise ValueError("checkpoints must be nonnegative and ascending")
    # equal ranks, so that a block stacks its steps on a leading axis
    x = x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
    y = y.reshape((1,) * (len(shape) - y.ndim) + y.shape)
    out = {}
    for n, u, log_scale, sum_log_a_next, log_det, _ in _sweep(m, x, y, E, checkpoints):
        if n == 0:
            z = np.zeros(math.prod(shape))
            out[0] = {"log_norm": z, "log_norm_u": z.copy(), "log_norm_a": z.copy(),
                      "log_det": z.copy()}
            continue
        log_norm_a = log_scale + _log_unit_norm(*u)
        log_norm = log_norm_a - sum_log_a_next
        out[n] = {
            "log_norm": log_norm.ravel(),
            "log_norm_u": (log_norm - 0.5 * log_det).ravel(),
            "log_norm_a": log_norm_a.ravel(),
            "log_det": np.broadcast_to(log_det, shape).flatten(),
        }
    return out


def batched_log_norms(
    m: JacobiModel,
    x: np.ndarray,
    y: np.ndarray,
    E: float,
    n: int,
) -> dict[str, np.ndarray]:
    """log||M_n||_2 at many base points, with exact long-orbit phases.

    Returns arrays log_norm, log_norm_u, log_norm_a, log_det, ravelled as in
    `batched_log_norm_checkpoints`.  For n <= _SEGMENT this is that kernel's
    one-checkpoint view, bitwise.  Beyond, the values come from
    `orbit_product` over the ravelled points (segments swept side by side
    and folded in log depth, the faster form for narrow inputs), so
    log_norm at each point is bitwise `fundamental_matrix(...).log_norm`
    there, and |a| < 1 along an orbit raises ModelAdmissionError as there.
    """
    if n <= _SEGMENT:
        return batched_log_norm_checkpoints(m, x, y, E, [n])[n]
    x, y = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=np.float64)),
                               np.atleast_1d(np.asarray(y, dtype=np.float64)))
    M, A = orbit_product(m, x, y, E, n)
    log_norm = M.log_norm
    return {
        "log_norm": log_norm,
        "log_norm_u": log_norm - 0.5 * M.log_det,
        "log_norm_a": A.log_norm,
        "log_det": M.log_det,
    }
