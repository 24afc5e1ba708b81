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
from .torus import TorusPoint, mod1, orbit_phases

_RESCALE = 1e100
_LOG_RESCALE = math.log(_RESCALE)
_A_FLOOR = 1.0 - 1e-9
_BLOCK = 16384  # elements per block of the batched sweep


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
    from .torus import skew_shift_iterate

    p = skew_shift_iterate(base, n, m.omega)
    a_n = m.eval_a(p.y)
    a_n1 = m.eval_a(mod1(p.y + m.omega))
    d = m.lam * m.eval_v(p) - E
    return np.array([[d / a_n1, -a_n / a_n1], [1.0, 0.0]])


def inverse_transfer_matrix(m: JacobiModel, base: TorusPoint, E: float, n: int) -> np.ndarray:
    """A_n^{-1} = (1/a_n) [[0, a_n], [-a_{n+1}, lam*v_n - E]]."""
    from .torus import _iterate_signed

    p = _iterate_signed(base, n, m.omega)
    a_n = m.eval_a(p.y)
    a_n1 = m.eval_a(mod1(p.y + m.omega))
    d = m.lam * m.eval_v(p) - E
    return (1.0 / a_n) * np.array([[0.0, a_n], [-a_n1, d]])


def orbit_values(m: JacobiModel, base: TorusPoint, n: int):
    """(a_vals, v_vals) along the orbit: a_vals[j] = a_j for j = 1..n+1,
    v_vals[j] = v_j for j = 1..n (index 0 unused).

    Points are advanced one skew-shift step at a time so consecutive calls
    see bitwise-identical a_j values (the determinant identity telescopes).
    """
    a_vals = np.empty(n + 2)
    v_vals = np.empty(n + 1)
    a_vals[0] = v_vals[0] = np.nan
    x_c, y_c = base.x, base.y
    omega = m.omega
    a_eval, v_eval = m.a.eval_scalar, m.v.eval_scalar
    for j in range(1, n + 1):
        x_c = mod1(x_c + y_c)
        y_c = mod1(y_c + omega)
        a_vals[j] = a_eval(y_c)
        v_vals[j] = v_eval(x_c, y_c)
    a_vals[n + 1] = a_eval(mod1(y_c + omega))
    return a_vals, v_vals


def _product_loop(m: JacobiModel, base: TorusPoint, E: float, n: int, divide: bool) -> CocycleProduct:
    """Ordered product of A_n...A_1 (divide=True) or A'_n...A'_1, renormalized
    to unit Frobenius norm after every factor."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # unit part entries; identity has Frobenius norm sqrt(2)
    r = math.sqrt(2.0)
    u00, u01, u10, u11 = 1.0 / r, 0.0, 0.0, 1.0 / r
    log_scale = math.log(r)
    log_det = 0.0
    lam = m.lam
    omega = m.omega
    a_eval = m.a.eval_scalar
    v_eval = m.v.eval_scalar
    x_c, y_c = base.x, base.y
    # each step's y_{j+1}, a_{j+1} and log|a_{j+1}| are the next step's y_j,
    # a_j and log|a_j|; a value is checked against the floor before its log
    y_next = mod1(y_c + omega)
    a_next = a_eval(y_next)
    if n and abs(a_next) < _A_FLOOR:
        raise ModelAdmissionError("|a| < 1 along the orbit at step 1")
    log_a_next = math.log(abs(a_next)) if n else 0.0
    for j in range(1, n + 1):
        x_c = mod1(x_c + y_c)
        y_c, a_j, log_a_j = y_next, a_next, log_a_next
        y_next = mod1(y_c + omega)
        a_next = a_eval(y_next)
        if abs(a_next) < _A_FLOOR:
            raise ModelAdmissionError(f"|a| < 1 along the orbit at step {j}")
        log_a_next = math.log(abs(a_next))
        d = lam * v_eval(x_c, y_c) - E
        if divide:
            # A_j = [[d/a_{j+1}, -a_j/a_{j+1}], [1, 0]]
            t00 = (d * u00 - a_j * u10) / a_next
            t01 = (d * u01 - a_j * u11) / a_next
            t10, t11 = u00, u01
            log_det += log_a_j - log_a_next
        else:
            t00 = d * u00 - a_j * u10
            t01 = d * u01 - a_j * u11
            t10, t11 = a_next * u00, a_next * u01
            log_det += log_a_j + log_a_next
        fro = math.sqrt(t00 * t00 + t01 * t01 + t10 * t10 + t11 * t11)
        u00, u01, u10, u11 = t00 / fro, t01 / fro, t10 / fro, t11 / fro
        log_scale += math.log(fro)
    unit = np.array([[u00, u01], [u10, u11]])
    return CocycleProduct(LogScaledMatrix(unit, log_scale), log_det, n)


def fundamental_matrix(m: JacobiModel, base: TorusPoint, E: float, n: int) -> CocycleProduct:
    """M_n = A_n ... A_1 as a log-scaled product (identity at n = 0)."""
    return _product_loop(m, base, E, n, divide=True)


def fundamental_matrix_a(m: JacobiModel, base: TorusPoint, E: float, n: int) -> CocycleProduct:
    """The un-divided product A'_n ... A'_1."""
    return _product_loop(m, base, E, n, divide=False)


def normalize_unimodular(c: CocycleProduct) -> CocycleProduct:
    """M / |det M|^{1/2}; the result has |det| = 1."""
    if not math.isfinite(c.log_det):
        raise ValueError("log_det must be finite")
    return CocycleProduct(c.m.scaled(-0.5 * c.log_det), 0.0, c.n)


def _f_sequence(a_vals: np.ndarray, v_vals: np.ndarray, lam: float, E: float, n: int):
    """Signed-log values of f_0..f_n via the three-term recurrence
    f_j = (lam*v_j - E) f_{j-1} - a_j^2 f_{j-2}, rescaled to avoid overflow.

    Returns (signs, log_abs) arrays; an exact zero is marked sign = 0,
    log_abs = -inf.
    """
    signs = np.zeros(n + 1, dtype=np.int8)
    logs = np.full(n + 1, -np.inf)
    f_prev, f_cur = 0.0, 1.0  # f_{-1}, f_0
    offset = 0.0
    signs[0], logs[0] = 1, 0.0
    for j in range(1, n + 1):
        d = lam * v_vals[j] - E
        f_next = d * f_cur - a_vals[j] * a_vals[j] * f_prev
        f_prev, f_cur = f_cur, f_next
        mag = max(abs(f_prev), abs(f_cur))
        if mag > _RESCALE:
            f_prev /= _RESCALE
            f_cur /= _RESCALE
            offset += _LOG_RESCALE
        if f_cur == 0.0:
            signs[j], logs[j] = 0, -np.inf
        else:
            signs[j] = 1 if f_cur > 0 else -1
            logs[j] = math.log(abs(f_cur)) + offset
    return signs, logs


def f_determinant(m: JacobiModel, base: TorusPoint, E: float, n: int) -> tuple[float, int]:
    """(log|f_n|, sign) for the n x n tridiagonal determinant with diagonal
    lam*v_j - E and off-diagonal -a_j."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0, 1
    a_vals, v_vals = orbit_values(m, base, n)
    signs, logs = _f_sequence(a_vals, v_vals, m.lam, E, n)
    return float(logs[n]), int(signs[n])


def fundamental_matrix_via_f(m: JacobiModel, base: TorusPoint, E: float, n: int) -> CocycleProduct:
    """M_n assembled from four f-recurrences and log-sums of the a_j.

    Entry layout (f' evaluated at the shifted base T(x, y), where
    a'_j = a_{j+1} and v'_j = v_{j+1}):
        [ f_n/prod_{2..n+1} a_j          -(a_1/a_2) f'_{n-1}/prod_{3..n+1} a_j ]
        [ f_{n-1}/prod_{2..n} a_j        -(a_1/a_2) f'_{n-2}/prod_{3..n} a_j   ]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a_vals, v_vals = orbit_values(m, base, n)
    s, lg = _f_sequence(a_vals, v_vals, m.lam, E, n)
    # shifted-base recurrence, reusing the same orbit values one index up
    s2, lg2 = _f_sequence(a_vals[1:], v_vals[1:], m.lam, E, n - 1)
    log_a = np.log(np.abs(a_vals[1:]))  # log|a_j| for j = 1..n+1
    sign_a = np.sign(a_vals[1:])

    def prod_log(j_lo: int, j_hi: int) -> tuple[float, float]:
        # (log, sign) of prod_{j=j_lo}^{j_hi} a_j; empty product = 1
        if j_hi < j_lo:
            return 0.0, 1.0
        sl = slice(j_lo - 1, j_hi)
        return float(np.sum(log_a[sl])), float(np.prod(sign_a[sl]))

    ratio_log = log_a[0] - log_a[1]  # log|a_1/a_2|
    ratio_sign = sign_a[0] * sign_a[1]

    entries_log = np.empty(4)
    entries_sign = np.empty(4)
    specs = [
        (s[n], lg[n], *prod_log(2, n + 1), 1.0, 0.0),
        (s2[n - 1], lg2[n - 1], *prod_log(3, n + 1), -ratio_sign, ratio_log),
        (s[n - 1], lg[n - 1], *prod_log(2, n), 1.0, 0.0),
        (s2[n - 2] if n >= 2 else 0, lg2[n - 2] if n >= 2 else -np.inf,
         *prod_log(3, n), -ratio_sign, ratio_log),
    ]
    for i, (sgn, lnum, lden, sden, pref_s, pref_l) in enumerate(specs):
        entries_sign[i] = sgn * sden * pref_s
        entries_log[i] = lnum - lden + pref_l
    finite = np.isfinite(entries_log)
    if not finite.any():
        raise ValueError("all matrix entries vanish")
    top = float(entries_log[finite].max())
    with np.errstate(invalid="ignore"):
        vals = np.where(finite, entries_sign * np.exp(entries_log - top), 0.0)
    unit = vals.reshape(2, 2)
    lsm = LogScaledMatrix.from_matrix(unit, log_scale=top)
    log_det = log_a[0] - log_a[n]  # log|a_1| - log|a_{n+1}|
    return CocycleProduct(lsm, float(log_det), n)


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
    from .torus import _iterate_signed

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

    def coeffs(k: int) -> tuple[float, float, float]:
        if k >= 0:
            # forward sites reachable by cheap modular arithmetic
            yk = mod1(base.y + k * m.omega)
            xk = mod1(base.x + k * base.y + (k * (k - 1) // 2) * m.omega)
        else:
            p = _iterate_signed(base, k, m.omega)
            xk, yk = p.x, p.y
        a_k = m.a.eval_scalar(yk)
        a_k1 = m.a.eval_scalar(mod1(yk + m.omega))
        v_k = m.v.eval_scalar(xk, yk)
        return a_k, a_k1, v_k

    phi0, phi1 = float(initial[0]), float(initial[1])
    store(0, phi0, 0.0)
    store(1, phi1, 0.0)

    # forward sweep
    prev, cur, offset = phi0, phi1, 0.0
    for k in range(1, n_max):
        a_k, a_k1, v_k = coeffs(k)
        nxt = ((m.lam * v_k - E) * cur - a_k * prev) / a_k1
        prev, cur = cur, nxt
        mag = max(abs(prev), abs(cur))
        if mag > _RESCALE:
            prev /= _RESCALE
            cur /= _RESCALE
            offset += _LOG_RESCALE
        store(k + 1, cur, offset)

    # backward sweep
    nand, cur, offset = phi1, phi0, 0.0  # phi(k+1), phi(k)
    for k in range(0, n_min, -1):
        a_k, a_k1, v_k = coeffs(k)
        prv = ((m.lam * v_k - E) * cur - a_k1 * nand) / a_k
        nand, cur = cur, prv
        mag = max(abs(nand), abs(cur))
        if mag > _RESCALE:
            nand /= _RESCALE
            cur /= _RESCALE
            offset += _LOG_RESCALE
        store(k - 1, cur, offset)

    return DifferenceSolution(n_min, n_max, sign, log_abs)


def wronskian(m: JacobiModel, base: TorusPoint, phi: DifferenceSolution,
              psi: DifferenceSolution, n: int) -> float:
    """W_n = a_{n+1} (psi(n) phi(n+1) - phi(n) psi(n+1)); constant in n for
    two solutions of the same equation."""
    a_n1 = m.a.eval_scalar(mod1(base.y + (n + 1) * m.omega))
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
    total = total + rows[0]
    for row in rows[1:]:
        total += row
    return total


def batched_log_norm_checkpoints(
    m: JacobiModel,
    x: np.ndarray,
    y: np.ndarray,
    E: float,
    checkpoints: list[int],
) -> dict[int, dict[str, np.ndarray]]:
    """log||M_n||_2 at many base points and several scales in one pass.

    The sweep runs to the largest of the ascending `checkpoints` and reads
    out every checkpoint on the way, vectorized over samples.  It multiplies
    the un-divided factors A'_j with per-step Frobenius renormalization; the
    plain and unimodular log-norms follow by the exact scalar relations
    M_n = M_n^a / prod a_{j+1} and M^u = M / |det M|^{1/2}.  A checkpoint
    runs the same elementwise operations as a sweep that stops there, so its
    values are bitwise those of a separate n-step sweep.

    `x` and `y` are equal-length sample lists or broadcastable axes of a
    product grid, e.g. x of shape (R, 1) or (R, C) and y of shape (1, C).
    What depends on y alone (the y phases, a_j, log|a_j| and their sums) is
    computed at y's shape, once per grid column; broadcasting hands every
    sample the same operands in the same order, so the values are bitwise
    those of the ravelled points.  Maps each checkpoint n to arrays
    log_norm, log_norm_u, log_norm_a, log_det, ravelled in C (x-major) order.

    Steps run in blocks of max(1, _BLOCK // samples) steps, cut at every
    checkpoint.  One vectorized pass per block computes the phases, a_{j+1},
    log|a_{j+1}| and lam*v_j - E of all its steps (the next block's phases
    are computed one block ahead, so its first a_j is evaluated once); only
    the 2x2 update and its renormalization run step by step, and the log
    sums are added in step order (`_running_total`).  Every value is the
    one a step-by-step sweep gives, whatever the block length.
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
    lam, omega = m.lam, m.omega
    block = max(1, _BLOCK // max(1, math.prod(shape)))
    spans, done = [], 0  # blocks of steps j0 <= j < j1
    for n in checkpoints:
        spans += [(j0, min(j0 + block, n + 1)) for j0 in range(done + 1, n + 1, block)]
        done = n

    def phases(j0, j1):
        steps = np.arange(j0, j1).reshape((-1,) + (1,) * len(shape))
        return orbit_phases(x, y, steps, omega)

    r = math.sqrt(2.0)
    u = np.zeros((4,) + shape)  # the unit part m00, m01, m10, m11
    u[0] = u[3] = 1.0 / r
    log_scale = np.full(shape, math.log(r))
    sum_log_a_next = np.zeros(y.shape)   # sum_j log|a_{j+1}|
    log_det = np.zeros(y.shape)          # accumulates log|a_j| - log|a_{j+1}|
    # u is updated in place and the scratch rows are preallocated: a working
    # set that outgrows the cache costs more at wide blocks than it saves
    sq = np.empty_like(u)
    prod = sq[:2]
    inv = np.empty(shape)
    u_top, u_bottom = u[:2], u[2:]
    sq0, sq1, sq2, sq3 = sq
    out = {}
    if 0 in checkpoints:
        z = np.zeros(math.prod(shape))
        out[0] = {"log_norm": z, "log_norm_u": z.copy(), "log_norm_a": z.copy(),
                  "log_det": z.copy()}
    if spans:
        xj, yj = phases(*spans[0])
        a_j = m.a(yj[0])
        log_a_j = np.log(np.abs(a_j))
    for i, (j0, j1) in enumerate(spans):
        x_ahead, y_ahead = phases(*spans[i + 1]) if i + 1 < len(spans) else phases(j1, j1 + 1)
        a_next = m.a(np.concatenate((yj[1:], y_ahead[:1])))  # a_{j+1}, j0 <= j < j1
        d = lam * m.v(xj, yj) - E
        fro = np.empty(d.shape)
        for d_j, a_j1, f in zip(d, a_next, fro):
            # u <- A'_j u = [[d_j m00 - a_j m10, d_j m01 - a_j m11],
            #                [a_{j+1} m00,       a_{j+1} m01]]
            np.multiply(a_j, u_bottom, out=prod)
            np.multiply(a_j1, u_top, out=u_bottom)
            np.multiply(d_j, u_top, out=u_top)
            np.subtract(u_top, prod, out=u_top)
            np.multiply(u, u, out=sq)
            np.add(sq0, sq1, out=f)
            f += sq2
            f += sq3
            np.sqrt(f, out=f)
            np.divide(1.0, f, out=inv)
            np.multiply(u, inv, out=u)
            a_j = a_j1
        log_scale = _running_total(log_scale, np.log(fro))
        log_a_next = np.log(np.abs(a_next))
        log_det = _running_total(
            log_det, np.concatenate((log_a_j[None], log_a_next[:-1])) - log_a_next)
        log_a_j = log_a_next[-1]
        sum_log_a_next = _running_total(sum_log_a_next, log_a_next)
        xj, yj = x_ahead, y_ahead
        n = j1 - 1
        if n in checkpoints:
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
    """log||M_n||_2 at many base points: the one-checkpoint view of
    `batched_log_norm_checkpoints`.  Returns arrays log_norm, log_norm_u,
    log_norm_a, log_det."""
    return batched_log_norm_checkpoints(m, x, y, E, [n])[n]
