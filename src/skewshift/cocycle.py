"""Transfer matrices and overflow-safe cocycle products.

Conventions (base point (x, y) fixed):
    a_j = a(y + j*omega),   v_j = v(T^j(x, y)),
    A_j   = (1/a_{j+1}) [[lam*v_j - E, -a_j], [a_{j+1}, 0]],
    A'_j  =             [[lam*v_j - E, -a_j], [a_{j+1}, 0]],
    M_n   = A_n ... A_1  (identity at n = 0),   det M_n = a_1 / a_{n+1}.

Products are carried as (unit-Frobenius matrix, log magnitude) pairs so
that norms growing like lam^n never overflow; lambda = 1e3 would already
overflow a double near n = 300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import JacobiModel, ModelAdmissionError
from .torus import TorusPoint, exact_orbit_phases, orbit_offsets, q64

_RESCALE = 1e100
_LOG_RESCALE = math.log(_RESCALE)
_A_FLOOR = 1.0 - 1e-9
_BLOCK = 16384  # elements per block of the batched sweep
# steps per segment of `orbit_product`.  In-segment phases are the kernel's
# exact offsets from the segment's start, so the length bounds no phase
# error; long products cost the same within 5 % from 64 to 256 steps
_SEGMENT = 128


def spectral_norm(m: np.ndarray) -> float:
    """Operator 2-norm of a 2x2 matrix in closed form (no iteration)."""
    f2 = float(np.sum(m * m))
    d = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    disc = max(f2 * f2 - 4.0 * d * d, 0.0)
    return math.sqrt(0.5 * (f2 + math.sqrt(disc)))


@dataclass(frozen=True)
class LogScaledMatrix:
    """A 2x2 matrix stored as exp(log_scale) * unit with ||unit||_F = 1."""

    unit: np.ndarray
    log_scale: float

    @classmethod
    def from_matrix(cls, m: np.ndarray, log_scale: float = 0.0) -> "LogScaledMatrix":
        m = np.asarray(m, dtype=np.float64)
        fro = math.sqrt(float(np.sum(m * m)))
        if fro == 0.0 or not math.isfinite(fro):
            raise ValueError("matrix must be nonzero with finite entries")
        return cls(m / fro, log_scale + math.log(fro))

    @classmethod
    def identity(cls) -> "LogScaledMatrix":
        return cls.from_matrix(np.eye(2))

    def __matmul__(self, other: "LogScaledMatrix") -> "LogScaledMatrix":
        return LogScaledMatrix.from_matrix(
            self.unit @ other.unit, self.log_scale + other.log_scale
        )

    @property
    def log_norm2(self) -> float:
        """log of the spectral norm of the represented matrix."""
        return self.log_scale + math.log(spectral_norm(self.unit))

    @property
    def log_det(self) -> float:
        """log|det| recomputed from the unit entries.

        Unreliable for strongly hyperbolic matrices: the unit determinant
        cancels below float precision (CocycleProduct tracks the exact value
        separately for that reason).  -inf marks full cancellation.
        """
        d = float(self.unit[0, 0] * self.unit[1, 1] - self.unit[0, 1] * self.unit[1, 0])
        if d == 0.0:
            return -math.inf
        return 2.0 * self.log_scale + math.log(abs(d))

    def scaled(self, log_factor: float) -> "LogScaledMatrix":
        return LogScaledMatrix(self.unit, self.log_scale + log_factor)

    def to_matrix(self) -> np.ndarray:
        return math.exp(self.log_scale) * self.unit


@dataclass(frozen=True)
class CocycleProduct:
    """An n-step cocycle product with its determinant tracked in log form."""

    m: LogScaledMatrix
    log_det: float
    n: int

    @property
    def log_norm(self) -> float:
        return self.m.log_norm2


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


@dataclass(frozen=True)
class OrbitProducts:
    """The un-divided products A'_n ... A'_1 at w base points.

    `unit` (w, 2, 2) has unit Frobenius norm and `log_scale` its log
    magnitude; `sum_log_a_next` is sum_j log|a_{j+1}| and `log_det` the log
    determinant of the divided product, log|a_1| - log|a_{n+1}|.  `sign_a`
    is the sign of prod_j a_{j+1}, sign(a_1)^n, since an admitted `a` has
    one sign (|a| >= 1 on the whole circle).
    """

    n: int
    unit: np.ndarray
    log_scale: np.ndarray
    sum_log_a_next: np.ndarray
    log_det: np.ndarray
    sign_a: np.ndarray

    def cocycle(self, i: int, divide: bool = True) -> CocycleProduct:
        """M_n = A'_n ... A'_1 / prod_j a_{j+1} (divide) or A'_n ... A'_1
        at the i-th base point."""
        if divide:
            m = LogScaledMatrix(self.sign_a[i] * self.unit[i],
                                float(self.log_scale[i] - self.sum_log_a_next[i]))
            return CocycleProduct(m, float(self.log_det[i]), self.n)
        m = LogScaledMatrix(self.unit[i], float(self.log_scale[i]))
        return CocycleProduct(m, float(self.log_det[i] + 2.0 * self.sum_log_a_next[i]), self.n)


def orbit_product(m: JacobiModel, x, y, E: float, n: int) -> OrbitProducts:
    """A'_n ... A'_1 at the base points (x[i], y[i]) from wide kernel sweeps.

    Each orbit is cut into K = ceil(n / _SEGMENT) segments; segment k starts
    at T^{k _SEGMENT}(x, y), exactly from `exact_orbit_phases`, and the
    kernel moves it by exact offsets.  One kernel call sweeps the segments of
    a chunk of max(1, _BLOCK // K) points side by side (all points at once
    when w <= that), so memory stays O(max(_BLOCK, K)) whatever w and n
    are; each point's last segment, n - (K-1) _SEGMENT steps long, is read
    at its own checkpoint.  The segments of each point are then multiplied
    by `_tree_fold` in ceil(log2 K) levels, vectorized over points.
    A point's values do not depend on the chunking, and for n <= _SEGMENT
    (K = 1) they are bitwise those of `batched_log_norm_checkpoints`.

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
    log_scale, sum_log_a_next, log_det = np.empty(w), np.empty(w), np.empty(w)
    chunk = max(1, _BLOCK // K)
    for c0 in range(0, w, chunk):
        c = min(chunk, w - c0)
        xs, ys = exact_orbit_phases(x[c0:c0 + c, None], y[c0:c0 + c, None], starts, m.omega)
        # the state of every segment, as (segments, rows, points)
        U = np.empty((K, 4, c))
        S, A, D, B = (np.empty((K, c)) for _ in range(4))
        # |a| = 0 makes logs of 0 on the way to the admission error below
        with np.errstate(divide="ignore", invalid="ignore"):
            for cp, *state in _sweep(m, xs.ravel(), ys.ravel(), E, cps, _A_FLOOR):
                ends = lengths == cp
                U[ends] = state[0].reshape(4, c, K)[:, :, ends].transpose(2, 0, 1)
                for dst, src in zip((S, A, D, B), state[1:]):
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
        log_det[rows] = _running_total(D[0], D[1:])
    sign_a = np.sign(m.a(exact_orbit_phases(x, y, 1, m.omega)[1])) ** (n % 2)
    return OrbitProducts(n, unit, log_scale, sum_log_a_next, log_det, sign_a)


def fundamental_matrix(m: JacobiModel, base: TorusPoint, E: float, n: int) -> CocycleProduct:
    """M_n = A_n ... A_1 as a log-scaled product (identity at n = 0).

    The one-point view of `orbit_product`: exact segment starts, one kernel
    sweep over the segments, folded pairwise.  Raises
    ModelAdmissionError at the first step that meets |a| < 1.
    """
    return orbit_product(m, [base.x], [base.y], E, n).cocycle(0)


def fundamental_matrix_a(m: JacobiModel, base: TorusPoint, E: float, n: int) -> CocycleProduct:
    """The un-divided product A'_n ... A'_1 (see `fundamental_matrix`)."""
    return orbit_product(m, [base.x], [base.y], E, n).cocycle(0, divide=False)


def normalize_unimodular(c: CocycleProduct) -> CocycleProduct:
    """M / |det M|^{1/2}; the result has |det| = 1."""
    if not math.isfinite(c.log_det):
        raise ValueError("log_det must be finite")
    return CocycleProduct(c.m.scaled(-0.5 * c.log_det), 0.0, c.n)


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
    lsm = LogScaledMatrix.from_matrix(scaled, log_scale - float(np.sum(np.log(np.abs(rest)))))
    return CocycleProduct(lsm, math.log(abs(a_1)) - math.log(abs(a_n1)), n)


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

    @property
    def values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.sign * np.exp(self.log_abs)


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


def _sweep(m: JacobiModel, x: np.ndarray, y: np.ndarray, E: float,
           checkpoints: list[int], a_floor: float | None = None):
    """The batched sweep kernel: yields the state at each checkpoint.

    Yields (n, u, log_scale, sum_log_a_next, log_det, small_a) once per
    distinct checkpoint n, in order.  u is the (4, ...) unit part m00, m01,
    m10, m11 of A'_n ... A'_1, log_scale its log magnitude (both at the
    broadcast shape); sum_log_a_next = sum_j log|a_{j+1}| and log_det =
    sum_j log|a_j| - log|a_{j+1}| live at y's shape.  With `a_floor`,
    small_a (y's shape) holds the first i in 1..n+1 with |a_i| < a_floor, 0
    if there is none; without it, small_a is None.  The arrays are the
    sweep's own and change when it resumes: read or copy them first.

    `x` and `y` are equal-rank arrays (see `batched_log_norm_checkpoints`).
    Step j sits at (x + Phi_j(y), y + theta_j), exact offsets of y and omega
    quantized once (`torus.orbit_offsets`); a and v come from `along`
    tables of x and y, so trig runs on the offsets alone, at y's shape.
    Steps run in blocks of max(1, _BLOCK // samples) steps, cut at every
    checkpoint; only the 2x2 update runs step by step.  The state is
    renormalized after each step j with j % r == 0 (`_renorm_every`) and a
    checkpoint reads out a normalized copy, so with the log sums added in
    step order (`_running_total`) its values are bitwise those of a sweep
    that stops there, whatever the block length.
    """
    shape = np.broadcast_shapes(x.shape, y.shape)
    block = max(1, _BLOCK // max(1, math.prod(shape)))
    spans, done = [], 0  # blocks of steps j0 <= j < j1
    for n in checkpoints:
        spans += [(j0, min(j0 + block, n + 1)) for j0 in range(done + 1, n + 1, block)]
        done = n
    every = _renorm_every(m, E)
    Y, W = q64(y), q64(m.omega)
    a_at, v_at = m.a.along(y), m.v.along(x, y)

    r = math.sqrt(2.0)
    u = np.zeros((4,) + shape)  # the unit part m00, m01, m10, m11
    u[0] = u[3] = 1.0 / r
    log_scale = np.full(shape, math.log(r))
    sum_log_a_next = np.zeros(y.shape)   # sum_j log|a_{j+1}|
    log_det = np.zeros(y.shape)          # accumulates log|a_j| - log|a_{j+1}|
    small_a = None if a_floor is None else np.zeros(y.shape, dtype=np.int64)
    # u is updated in place and the scratch rows are preallocated: a working
    # set that outgrows the cache costs more at wide blocks than it saves
    sq = np.empty_like(u)
    prod = sq[:2]
    inv = np.empty(shape)
    u_top, u_bottom = u[:2], u[2:]
    sq0, sq1, sq2, sq3 = sq

    def normalized(f, out):
        # u / ||u||_F into `out`, with ||u||_F in f
        np.multiply(u, u, out=sq)
        np.add(sq0, sq1, out=f)
        f += sq2
        f += sq3
        np.sqrt(f, out=f)
        np.divide(1.0, f, out=inv)
        return np.multiply(u, inv, out=out)

    def readout(n):
        # the normalized copy goes to the scratch rows, free until resumed
        f = np.empty(shape)
        unit = normalized(f, out=sq)
        np.log(f, out=f)
        f += log_scale
        return n, unit, f, sum_log_a_next, log_det, small_a

    if 0 in checkpoints:
        yield readout(0)
    for j0, j1 in spans:
        steps = np.arange(j0, j1 + 1).reshape((-1,) + (1,) * len(shape))
        # signed offsets in [-1/2, 1/2) turns keep the trig arguments small
        phi, theta = (q.view(np.int64) * 2.0**-64 for q in orbit_offsets(Y, W, steps))
        a = a_at(theta)  # a_j, j0 <= j <= j1
        if a_floor is not None:
            low = np.abs(a) < a_floor
            first = j0 + np.argmax(low, axis=0)
            small_a = np.where((small_a == 0) & low.any(axis=0), first, small_a)
        d = v_at(phi[:-1], theta[:-1])
        d *= m.lam
        d -= E  # lam*v_j - E
        fro = np.empty(d.shape)
        for j, d_j, a_j, a_j1, f in zip(range(j0, j1), d, a, a[1:], fro):
            # u <- A'_j u = [[d_j m00 - a_j m10, d_j m01 - a_j m11],
            #                [a_{j+1} m00,       a_{j+1} m01]]
            np.multiply(a_j, u_bottom, out=prod)
            np.multiply(a_j1, u_top, out=u_bottom)
            np.multiply(d_j, u_top, out=u_top)
            np.subtract(u_top, prod, out=u_top)
            if j % every == 0:
                normalized(f, out=u)
        log_scale = _running_total(log_scale, np.log(fro[-j0 % every::every]))
        log_a = np.log(np.abs(a))
        log_det = _running_total(log_det, log_a[:-1] - log_a[1:])
        sum_log_a_next = _running_total(sum_log_a_next, log_a[1:])
        if j1 - 1 in checkpoints:
            yield readout(j1 - 1)


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
    vectorized over samples.  It multiplies the un-divided factors A'_j at
    exact orbit offsets, with Frobenius renormalization on a fixed schedule
    of steps; the plain and unimodular log-norms follow by the exact scalar
    relations M_n = M_n^a / prod a_{j+1} and M^u = M / |det M|^{1/2}.  A
    checkpoint reads out a normalized copy of the state, so its values are
    bitwise those of a separate n-step sweep.  `batched_log_norms` is the
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
        m00, m01, m10, m11 = u
        det_u = m00 * m11 - m01 * m10
        disc = np.maximum(1.0 - 4.0 * det_u * det_u, 0.0)
        log_unit_norm = 0.5 * np.log(0.5 * (1.0 + np.sqrt(disc)))
        log_norm_a = log_scale + log_unit_norm
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
    p = orbit_product(m, x, y, E, n)
    log_unit_norm = np.array([math.log(spectral_norm(u)) for u in p.unit])
    log_norm = (p.log_scale - p.sum_log_a_next) + log_unit_norm
    return {
        "log_norm": log_norm,
        "log_norm_u": log_norm - 0.5 * p.log_det,
        "log_norm_a": p.log_scale + log_unit_norm,
        "log_det": p.log_det,
    }
