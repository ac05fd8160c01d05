"""Exact arithmetic in Q_p with capped relative precision.

A :class:`PadicNumber` is either a certified-nonzero value ``p**v * unit`` with
an exact valuation and ``k <= N`` known unit digits, or a "zero" carrying an
absolute-precision bound ("the value is O(p**m)").  All arithmetic tracks
precision pessimistically and raises :class:`~padicdyn.errors.PrecisionError`
rather than guess whenever a comparison or valuation is undecidable.
"""

from __future__ import annotations

from collections import namedtuple

from . import _core
from .errors import PrecisionError

INF_BOUND = _core.INF_BOUND

# checker.validate refuses a nonzero value with |v| above this: far above the
# about 14,300 that a problem-file rational can carry (int() reads at most
# 4,300 digits), and far below INF_BOUND, the valuation of an exact zero
VALUATION_BOUND = 1 << 30

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least strong pseudoprime to all of _SMALL_PRIMES (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the 13 prime bases 2..41.

    The answer is proven for n < psi_13 = 3317044064679887385961981 (about
    3.3e24); larger n raise ValueError rather than risk accepting a composite.
    """
    if n >= _PSI_13:
        raise ValueError(f"{n} is outside the proven primality range n < {_PSI_13}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split_p(n: int, p: int):
    """(v, n // p**v) for the valuation v of a nonzero integer n at p.

    Divides by p, p**2, p**4, ... while that power divides what is left, then
    by the same powers in reverse where they still divide: O(log v) divisions
    where one per factor of p makes loading a large power of p quadratic.
    """
    powers = [p]
    v = 0
    while True:
        q, r = divmod(n, powers[-1])
        if r:
            break
        n = q
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[i])
        if not r:
            n = q
            v += 1 << i
    return v, n


def triple_pow(p: int, v: int, u: int, k: int, n: int):
    """(v, u, k)**n for n >= 1 by binary exponentiation with ``_core.tr_mul``.

    The running product starts at the base rather than at one, and the base is
    not squared after the top bit.  Both give the triples of the loop that
    starts at one: one times x is bitwise x, because a value carries at most
    the working precision and one carries exactly that.
    """
    rv = None
    while True:
        if n & 1:
            if rv is None:
                rv, ru, rk = v, u, k
            else:
                rv, ru, rk = _core.tr_mul(p, rv, ru, rk, v, u, k)
        n >>= 1
        if not n:
            return rv, ru, rk
        v, u, k = _core.tr_mul(p, v, u, k, v, u, k)


class PadicContext(namedtuple("PadicContext", "prime working_precision")):
    """Ambient field Q_p with a relative-precision cap.

    prime: the prime p (checked deterministically).
    working_precision: number N of significant base-p digits carried.
    """

    __slots__ = ()

    def __new__(cls, prime: int, working_precision: int):
        if prime < 2 or not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if working_precision < 1:
            raise ValueError("working_precision must be >= 1")
        return super().__new__(cls, prime, working_precision)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and _replace, which calls it) would skip the checks
        return cls(*iterable)

    def zero(self, bound: int | None = None) -> "PadicNumber":
        """Exact zero, or a value known only to be O(p**bound)."""
        return PadicNumber(self, INF_BOUND if bound is None else min(bound, INF_BOUND), 0, 0)

    def element(self, x) -> "PadicNumber":
        """``x`` as a number of this context: a PadicNumber of this context as
        it is, anything else through ``integer``; another context raises."""
        if isinstance(x, PadicNumber):
            if x.ctx is not self and x.ctx != self:
                raise ValueError("operands from different p-adic contexts")
            return x
        return self.integer(x)

    def one(self) -> "PadicNumber":
        return PadicNumber(self, 0, 1, self.working_precision)

    def integer(self, n: int) -> "PadicNumber":
        return self.from_rational(n, 1)

    def from_rational(self, numerator: int, denominator: int = 1) -> "PadicNumber":
        """Image of numerator/denominator in Q_p at full working precision."""
        if denominator == 0:
            raise ZeroDivisionError("zero denominator")
        if numerator == 0:
            return self.zero()
        p, n = self.prime, self.working_precision
        vn, un = _split_p(numerator, p)
        vd, ud = _split_p(denominator, p)
        pk = p**n
        u = un * pow(ud, -1, pk) % pk
        return PadicNumber(self, vn - vd, u, n)


class PadicNumber:
    """Element of Q_p at capped relative precision.  Immutable."""

    __slots__ = ("ctx", "_v", "_u", "_k")

    def __init__(self, ctx: PadicContext, v: int, u: int, k: int):
        self.ctx = ctx
        self._v = v
        self._u = u
        self._k = k

    # -- state predicates ---------------------------------------------------

    @property
    def is_certified_nonzero(self) -> bool:
        return self._u != 0

    @property
    def is_zero_to_precision(self) -> bool:
        """True when no nonzero digit is visible at the carried precision."""
        return self._u == 0

    @property
    def is_exact_zero(self) -> bool:
        return self._u == 0 and self._v >= INF_BOUND

    @property
    def valuation(self) -> int:
        """Exact p-adic valuation; undecidable for (possibly inexact) zeros."""
        if self._u == 0:
            raise PrecisionError(
                f"valuation undecidable: value is zero to O(p^{self._bound_str()})"
            )
        return self._v

    @property
    def valuation_lower_bound(self) -> int:
        """Certified lower bound on the valuation (INF_BOUND for exact zero)."""
        return self._v

    @property
    def relative_precision(self) -> int:
        return self._k

    @property
    def zero_bound(self) -> int:
        """Absolute-precision bound of a zero value."""
        if self._u != 0:
            raise ValueError("not a zero value")
        return self._v

    def _bound_str(self):
        return "inf" if self._v >= INF_BOUND else str(self._v)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (PadicNumber, int)):
            return self.ctx.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.prime
        v, u, k = _core.tr_add(p, self._v, self._u, self._k, o._v, o._u, o._k)
        return PadicNumber(self.ctx, v, u, k)

    __radd__ = __add__

    def __neg__(self):
        v, u, k = _core.tr_neg(self.ctx.prime, self._v, self._u, self._k)
        return PadicNumber(self.ctx, v, u, k)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.prime
        v, u, k = _core.tr_mul(p, self._v, self._u, self._k, o._v, o._u, o._k)
        return PadicNumber(self.ctx, v, u, k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.prime
        v, u, k = _core.tr_div(p, self._v, self._u, self._k, o._v, o._u, o._k)
        return PadicNumber(self.ctx, v, u, k)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        """Binary exponentiation; n >= 0."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if n == 0:
            return self.ctx.one()
        v, u, k = triple_pow(self.ctx.prime, self._v, self._u, self._k, n)
        return PadicNumber(self.ctx, v, u, k)

    def __eq__(self, other):
        """Certified comparison; raises when precision cannot decide."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self - o
        if d.is_certified_nonzero:
            return False
        if d.is_exact_zero:
            return True
        raise PrecisionError(
            f"equality undecidable: difference is zero to O(p^{d._bound_str()})"
        )

    __hash__ = None  # mutable-precision equality; not hashable

    # -- presentation ---------------------------------------------------------

    def digits(self, count: int = 8) -> list[int]:
        """First base-p digits of the unit part (low to high)."""
        if self._u == 0:
            return []
        n = min(count, self._k)
        u = self._u
        p = self.ctx.prime
        out = []
        for _ in range(n):
            u, d = divmod(u, p)
            out.append(d)
        return out

    def __repr__(self):
        p = self.ctx.prime
        if self._u == 0:
            if self._v >= INF_BOUND:
                return f"padic(p={p}, 0 exact)"
            return f"padic(p={p}, O({p}^{self._v}))"
        ds = "".join(str(d) for d in self.digits(8))
        return f"padic(p={p}, v={self._v}, unit={ds}..., prec={self._k})"


class Ball(namedtuple("Ball", "center radius_valuation")):
    """Closed-valuation ball {z : v(z - center) >= radius_valuation}.

    An open ball of radius p**(-s) corresponds to the integer cutoff
    floor(s) + 1, so every Ball is contained in the open ball it stands for.
    """

    __slots__ = ()

    def contains(self, z: PadicNumber) -> bool:
        """Exact membership; raises if precision cannot decide."""
        return self._holds(z - self.center)

    def _holds(self, d: PadicNumber) -> bool:
        """``contains`` read from the difference d = z - center."""
        if d.is_certified_nonzero:
            return d.valuation >= self.radius_valuation
        if d.zero_bound >= self.radius_valuation:
            return True
        raise PrecisionError(
            f"membership undecidable: v(z - center) only known to be"
            f" >= {d.zero_bound} < {self.radius_valuation}"
        )
