"""Multiplicative theta function and friends on the annulus model of an elliptic curve.

Conventions.  The curve is C^x / q^Z with nome 0 <= |q| < 1, and

    theta(z) = prod_{i>=0} (1 - q^i z) * prod_{i>0} (1 - q^i z^{-1}).

For a function f on C^x we write fdot(z) = z f'(z) (derivative in ln z).  The
logarithmic derivative thetadot/theta, the Weierstrass function
p(ln z) = -(thetadot/theta)dot(z), and the two-point kernel

    K(x, w) = theta(x w) / (theta(x) theta(w))

are the only special functions the rest of the package needs.  Everything is
evaluated by truncated products/series after moving the argument to the
fundamental annulus |q| < |z| <= 1 with the quasi-periodicity laws

    theta(q z)   = -z^{-1} theta(z)
    thetadot/theta(q z) = thetadot/theta(z) - 1
    p(ln q z)    = p(ln z)

so the truncation error is uniform.  Each evaluation canonicalizes its point
once and the pole guard reuses that representative.  thetadot/theta and p
share one series loop (_log_deriv_and_wp), which callers needing both at one
point use directly; theta_log_deriv and weierstrass_p each run only their own
terms of it.  At q = 0 the closed forms

    theta = 1 - z,   thetadot/theta = -z/(1-z),   p = z/(1-z)^2

are used directly.
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache


class DomainError(ValueError):
    """Argument outside the domain of the function (e.g. z = 0)."""


class ParameterError(ValueError):
    """Invalid elliptic parameters (e.g. |q| >= 1, bad truncation order)."""


class PoleError(ValueError):
    """Evaluation requested within tolerance of a pole (z in q^Z)."""


#: Global sign sigma in the exact product law for the raw kernel
#:   K(x, w) * K(x^{-1}, w) = sigma * (p(ln x) - p(ln w)) / phi(q)^4,
#: where phi(q) = prod_{m>=1}(1 - q^m) is the Euler product (euler_phi).
#: Fixed once by the small-q series oracle (see tests); at q = 0 the phi
#: factor is 1, both sides reduce to rational functions, and the identity
#: holds with sigma = -1.  The normalized kernel (normalized_lame_kernel)
#: absorbs the phi factor, so for it the law reads
#:   Kn(x, w) * Kn(x^{-1}, w) = p(ln w) - p(ln x)   exactly.
KERNEL_PRODUCT_SIGN = -1


def _auto_trunc(q, tol):
    # smallest T with |q|^T < tol; geometric tail bound for the products
    aq = abs(q)
    if aq == 0.0:
        return 1
    t = max(1, math.ceil(math.log(tol) / math.log(aq)))
    while aq ** t >= tol:
        t += 1
    return t


@dataclass(frozen=True)
class EllipticParams:
    """Nome, truncation order and tolerance governing all theta evaluation.

    trunc defaults to the smallest order with |q|^trunc < tol.
    """

    q: complex = 0.0
    trunc: int = 0
    tol: float = 1e-12
    pole_tol: float = field(default=0.0, repr=False)

    def __post_init__(self):
        q = complex(self.q)
        if abs(q) >= 1.0:
            raise ParameterError(f"nome must satisfy |q| < 1, got |q| = {abs(q)}")
        if not (self.tol > 0.0):
            raise ParameterError(f"tol must be positive, got {self.tol}")
        object.__setattr__(self, "q", q)
        if self.trunc == 0:
            object.__setattr__(self, "trunc", _auto_trunc(q, self.tol))
        elif self.trunc < 0:
            raise ParameterError(f"trunc must be positive, got {self.trunc}")
        elif abs(q) ** self.trunc >= self.tol:
            raise ParameterError(
                f"trunc = {self.trunc} too small: |q|^trunc = {abs(q) ** self.trunc} >= tol = {self.tol}"
            )
        if self.pole_tol == 0.0:
            # multiplicative distance to q^Z below which evaluation is refused
            object.__setattr__(self, "pole_tol", 10.0 * self.tol)


@dataclass(frozen=True)
class AnnulusPoint:
    """A point of C^x together with its fundamental-annulus representative.

    rep = z * q^{-n} satisfies |q| < |rep| <= 1 (for q != 0); n is the winding.
    """

    z: complex
    rep: complex
    n: int
    canonical: bool


def canonicalize(z, p):
    """Move z to the fundamental annulus |q| < |z| <= 1 by a power of q."""
    z = complex(z)
    if z == 0:
        raise DomainError("z = 0 is not a point of C^x")
    q = p.q
    if q == 0:
        return AnnulusPoint(z, z, 0, True)
    # |q|^{n+1} < |z| <= |q|^n  <=>  n <= ln|z|/ln|q| < n+1
    ratio = math.log(abs(z)) / math.log(abs(q))
    n = math.floor(ratio)
    rep = z * q ** (-n)
    # guard against floating roundoff at the annulus edges
    if abs(rep) > 1.0 + 1e-15:
        n -= 1
        rep = z * q ** (-n)
    elif abs(rep) <= abs(q) * (1.0 + 1e-15):
        n += 1
        rep = z * q ** (-n)
    return AnnulusPoint(z, rep, n, n == 0)


def _lattice_dist(a, p):
    """Multiplicative distance min_n |Log(z q^{-n})| from a canonicalized point to q^Z."""
    best = abs(cmath.log(a.rep))
    if p.q == 0:
        return best
    for m in (-1, 1):
        best = min(best, abs(cmath.log(a.rep * p.q ** (-m))))
    return best


def _mult_dist_to_lattice(z, p):
    """Multiplicative distance min_n |Log(z q^{-n})| from z to q^Z."""
    return _lattice_dist(canonicalize(z, p), p)


def _theta_annulus(z, p):
    # truncated product on the fundamental annulus
    q = p.q
    out = 1.0 - z
    qi = q
    for _ in range(1, p.trunc + 1):
        out *= (1.0 - qi * z) * (1.0 - qi / z)
        qi *= q
    return out


def _theta_at(a, p):
    # theta at a canonicalized point
    if p.q == 0:
        return 1.0 - a.z
    n = a.n
    # theta(q^n zt) = (-1)^n q^{-n(n-1)/2} zt^{-n} theta(zt)
    unwind = (-1) ** n * p.q ** (-(n * (n - 1)) // 2) * a.rep ** (-n)
    return unwind * _theta_annulus(a.rep, p)


def theta(z, p):
    """theta(z) = prod_{i>=0}(1 - q^i z) prod_{i>0}(1 - q^i z^{-1})."""
    return _theta_at(canonicalize(z, p), p)


def _log_deriv_and_wp(z, p, log_deriv=True, wp=True):
    """(thetadot/theta(z), p(ln z)) from one canonicalization and one series.

    Either entry is None when not requested, and its series terms are then
    skipped, so a caller that needs one value pays for one.  The pole guard
    raises in the name of the first value requested.
    """
    a = canonicalize(z, p)
    if _lattice_dist(a, p) < p.pole_tol:
        name = "theta_log_deriv" if log_deriv else "weierstrass_p"
        raise PoleError(f"{name} pole: z = {z} lies on q^Z within tolerance")
    zt = a.rep
    # thetadot/theta(zt) = -sum_{i>=0} q^i zt/(1-q^i zt) + sum_{i>0} (q^i/zt)/(1-q^i/zt)
    # p(ln zt) = sum_{i>=0} q^i zt/(1-q^i zt)^2 + sum_{i>0} (q^i/zt)/(1-q^i/zt)^2
    td = -zt / (1.0 - zt) if log_deriv else None
    pw = zt / (1.0 - zt) ** 2 if wp else None
    q = p.q
    if q == 0:
        return td, pw
    qi = q
    for _ in range(1, p.trunc + 1):
        d_in, d_out = 1.0 - qi * zt, 1.0 - qi / zt
        if log_deriv:
            td += -qi * zt / d_in + (qi / zt) / d_out
        if wp:
            pw += qi * zt / d_in ** 2 + (qi / zt) / d_out ** 2
        qi *= q
    # quasi-periodicity: each factor of q shifts thetadot/theta by -1
    return (td - a.n if log_deriv else None), pw


def theta_log_deriv(z, p):
    """thetadot/theta(z) = z theta'(z)/theta(z), with fdot = z df/dz."""
    return _log_deriv_and_wp(z, p, wp=False)[0]


def weierstrass_p(z, p):
    """p(ln z) = -(thetadot/theta)dot(z); double pole p(tau) ~ tau^{-2} at q^Z."""
    return _log_deriv_and_wp(z, p, log_deriv=False)[1]


def lame_kernel(x, w, p):
    """Two-point kernel K(x, w) = theta(x w) / (theta(x) theta(w)).

    Simple poles where theta(x) or theta(w) vanishes, i.e. on x, w in q^Z.
    """
    x = complex(x)
    w = complex(w)
    if x == 0 or w == 0:
        raise DomainError("lame_kernel arguments must be nonzero")
    ax = canonicalize(x, p)
    if _lattice_dist(ax, p) < p.pole_tol:
        raise PoleError(f"lame_kernel pole: x = {x} lies on q^Z within tolerance")
    aw = canonicalize(w, p)
    if _lattice_dist(aw, p) < p.pole_tol:
        raise PoleError(f"lame_kernel pole: w = {w} lies on q^Z within tolerance")
    return theta(x * w, p) / (_theta_at(ax, p) * _theta_at(aw, p))


@lru_cache(maxsize=256)
def _euler_phi_cached(q, trunc):
    out = 1.0 + 0.0j
    qi = q
    for _ in range(1, trunc + 1):
        out *= 1.0 - qi
        qi *= q
    return out


def euler_phi(p):
    """Euler product phi(q) = prod_{m>=1}(1 - q^m), truncated like theta.

    Controls the normalization of theta near its zeros: theta(z) ~ phi^2 (1-z)
    as z -> 1, so theta'(1) = -phi^2.
    """
    if p.q == 0:
        return 1.0 + 0.0j
    return _euler_phi_cached(p.q, p.trunc)


def normalized_lame_kernel(x, w, p):
    """Kernel -phi(q)^2 * theta(x w) / (theta(x) theta(w)).

    The prefactor makes the residue at the w = 1 pole equal to 1 in the
    logarithmic coordinate (Kn ~ 1/ln(w) as w -> 1), matching the rational
    kernel 1/(z - z_a) convention, and makes the product law exact:
    Kn(x, w) Kn(x^{-1}, w) = p(ln w) - p(ln x).
    """
    return -(euler_phi(p) ** 2) * lame_kernel(x, w, p)
