"""Linear differential operators with black-box analytic coefficients.

An operator is a finite sum  sum_I c_I(x) d^I  over derivative multi-indices
I in len(vars) complex variables.  Coefficients are Coefficient objects: they
evaluate at a point and know how to differentiate themselves, analytically
when a rule is available and through a Cauchy circle quadrature otherwise.

Operator equality is certified probabilistically: apply the difference to all
monomial test functions up to a degree that pins down every coefficient of
that order, at random sample points, and look at the largest residual.  There
is no canonical normal form for theta-function coefficients, so closed-form
comparison is not on the table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iterproduct
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

ORDER_CAP = 8


class OperatorError(ValueError):
    pass


class VariableMismatchError(OperatorError):
    pass


class OrderCapError(OperatorError):
    pass


# --------------------------------------------------------------- coefficients


@lru_cache(maxsize=64)
def _node_weights(nodes, k):
    """rot^k for the nodes-th roots of unity rot, in node order."""
    return tuple(cmath.exp(2j * math.pi * j / nodes) ** k for j in range(nodes))


def cauchy_derivs(fn, point, axes, orders, radius=1e-2, nodes=16):
    """d^k/ds^k fn(point + s e) at s = 0 for each integer k in orders, where
    e is the sum of the unit vectors e_i, i in axes.

    One trapezoid rule on the circle |s| = radius: at the node rot every
    coordinate in axes moves to x_i + radius*rot and the others stay, so fn
    is evaluated nodes times and every order is read off those values.  With
    axes = (i,) this is the partial d^k/dx_i^k; with axes = (i, j) it is the
    derivative along e_i + e_j that polydisk_derivs polarizes.  Spectrally
    accurate for s -> fn(point + s e) holomorphic on |s| <= radius.
    """
    vals = []
    for rot in _node_weights(nodes, 1):
        pt = list(point)
        for i in axes:
            pt[i] = point[i] + radius * rot
        vals.append(fn(tuple(pt)))
    out = []
    for k in orders:
        acc = 0.0 + 0.0j
        for v, w in zip(vals, _node_weights(nodes, k)):
            acc += v / w
        out.append(acc * math.factorial(k) / (nodes * radius ** k))
    return out


def cauchy_partial(fn, point, i, radius=1e-2, nodes=16):
    """d fn / d x_i at point, by trapezoid quadrature of the Cauchy integral.

    Spectrally accurate for holomorphic fn on the disk |x_i - point_i| <= radius.
    """
    return cauchy_derivs(fn, point, (i,), (1,), radius, nodes)[0]


class Coefficient:
    """Callable point -> complex that can produce its own partials."""

    def __call__(self, point) -> complex:
        raise NotImplementedError

    def partial(self, i: int) -> "Coefficient":
        raise NotImplementedError

    def __add__(self, other):
        try:
            return SumCoef((self, as_coef(other)))
        except TypeError:
            return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        try:
            return ProdCoef((self, as_coef(other)))
        except TypeError:
            return NotImplemented  # lets DifferentialOperator.__rmul__ run

    __rmul__ = __mul__

    def __neg__(self):
        return ProdCoef((ConstCoef(-1.0), self))

    def __sub__(self, other):
        try:
            return SumCoef((self, -as_coef(other)))
        except TypeError:
            return NotImplemented


@dataclass(frozen=True)
class ConstCoef(Coefficient):
    value: complex

    def __call__(self, point):
        return self.value

    def partial(self, i):
        return ConstCoef(0.0)


@dataclass(frozen=True)
class Monomial(Coefficient):
    """c * prod x_i^{e_i}; exponents may be arbitrary complex (principal powers).

    Doubles as the test-function family for op_equal / op_apply, where exact
    derivative rules matter.
    """

    exponents: Tuple[complex, ...]
    coeff: complex = 1.0

    def __call__(self, point):
        out = self.coeff
        for x, e in zip(point, self.exponents):
            if e == 0:
                continue
            out *= x ** e
        return out

    def partial(self, i):
        e = self.exponents[i]
        if e == 0 or self.coeff == 0:
            return ConstCoef(0.0)
        exps = list(self.exponents)
        exps[i] = e - 1
        return Monomial(tuple(exps), self.coeff * e)


@dataclass(frozen=True)
class FuncCoef(Coefficient):
    """Black-box coefficient; partials analytic when supplied, Cauchy otherwise."""

    fn: Callable
    partials: Optional[Tuple] = None  # per-variable Coefficient/callable/None

    def __call__(self, point):
        return self.fn(point)

    def partial(self, i):
        if self.partials is not None and self.partials[i] is not None:
            return as_coef(self.partials[i])
        fn = self.fn
        return FuncCoef(lambda pt, _i=i: cauchy_partial(fn, pt, _i))


@dataclass(frozen=True)
class SumCoef(Coefficient):
    parts: Tuple[Coefficient, ...]

    def __call__(self, point):
        return sum(p(point) for p in self.parts)

    def partial(self, i):
        return SumCoef(tuple(p.partial(i) for p in self.parts))


@dataclass(frozen=True)
class ProdCoef(Coefficient):
    parts: Tuple[Coefficient, ...]

    def __call__(self, point):
        out = 1.0 + 0.0j
        for p in self.parts:
            out *= p(point)
        return out

    def partial(self, i):
        terms = []
        for k, p in enumerate(self.parts):
            dp = p.partial(i)
            if isinstance(dp, ConstCoef) and dp.value == 0:
                continue
            terms.append(ProdCoef(tuple(self.parts[:k]) + (dp,) + tuple(self.parts[k + 1:])))
        if not terms:
            return ConstCoef(0.0)
        return SumCoef(tuple(terms))


def as_coef(x) -> Coefficient:
    if isinstance(x, Coefficient):
        return x
    if isinstance(x, (int, float, complex)):
        return ConstCoef(complex(x))
    if callable(x):
        return FuncCoef(x)
    raise TypeError(f"cannot interpret {x!r} as a coefficient")


def _is_zero(c: Coefficient) -> bool:
    return isinstance(c, ConstCoef) and c.value == 0


def coef_derivative(c: Coefficient, index: Tuple[int, ...]) -> Coefficient:
    """d^index c, applying .partial per variable in order."""
    out = c
    for i, k in enumerate(index):
        for _ in range(k):
            out = out.partial(i)
            if _is_zero(out):
                return out
    return out


# ------------------------------------------------------------------- operators


def _check_index(I, nvars):
    if len(I) != nvars or any(k < 0 or not isinstance(k, int) for k in I):
        raise OperatorError(f"bad multi-index {I} for {nvars} variables")


@dataclass(frozen=True)
class DifferentialOperator:
    vars: Tuple[str, ...]
    terms: Mapping[Tuple[int, ...], Coefficient]

    def __post_init__(self):
        for I in self.terms:
            _check_index(I, len(self.vars))

    @property
    def order(self) -> int:
        return max((sum(I) for I in self.terms), default=0)

    def coeff(self, I) -> Coefficient:
        return self.terms.get(tuple(I), ConstCoef(0.0))

    def __add__(self, other):
        _same_vars(self, other)
        terms = dict(self.terms)
        for I, c in other.terms.items():
            terms[I] = SumCoef((terms[I], c)) if I in terms else c
        return DifferentialOperator(self.vars, terms)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        # scalar or Coefficient multiplication from the left
        c = as_coef(scalar)
        return DifferentialOperator(
            self.vars,
            {I: ProdCoef((c, t)) for I, t in self.terms.items()},
        )

    __rmul__ = __mul__


def make_op(varnames: Sequence[str], terms: Mapping) -> DifferentialOperator:
    vs = tuple(varnames)
    tidy = {}
    for I, c in terms.items():
        c = as_coef(c)
        if _is_zero(c):
            continue
        tidy[tuple(I)] = c
    return DifferentialOperator(vs, tidy)


def zero_op(varnames) -> DifferentialOperator:
    return make_op(varnames, {})


def identity_op(varnames) -> DifferentialOperator:
    vs = tuple(varnames)
    return make_op(vs, {(0,) * len(vs): ConstCoef(1.0)})


def axis_index(nvars, i, power=1) -> Tuple[int, ...]:
    """Multi-index with power in slot i and 0 elsewhere."""
    I = [0] * nvars
    I[i] = power
    return tuple(I)


def axis_monomial(nvars, i, power=1, scale=1.0) -> Monomial:
    """scale * x_i^power in nvars variables."""
    return Monomial(axis_index(nvars, i, power), scale)


def d_op(varnames, i, coeff=1.0, power=1) -> DifferentialOperator:
    """coeff * d^power/dx_i^power."""
    vs = tuple(varnames)
    return make_op(vs, {axis_index(len(vs), i, power): as_coef(coeff)})


def _same_vars(A, B):
    if A.vars != B.vars:
        raise VariableMismatchError(f"{A.vars} vs {B.vars}")


def _binom_prod(I, K):
    out = 1
    for a, b in zip(I, K):
        out *= math.comb(a, b)
    return out


def op_compose(A: DifferentialOperator, B: DifferentialOperator,
               order_cap: int = ORDER_CAP) -> DifferentialOperator:
    """Normal-ordered A after B, by the Leibniz rule.

    c_I d^I (b_J d^J f) = sum_{K <= I} binom(I,K) c_I (d^{I-K} b_J) d^{K+J} f.
    """
    _same_vars(A, B)
    if A.order + B.order > order_cap:
        raise OrderCapError(f"composite order {A.order + B.order} exceeds cap {order_cap}")
    n = len(A.vars)
    out: Dict[Tuple[int, ...], list] = {}
    for I, a in A.terms.items():
        subranges = [range(k + 1) for k in I]
        for J, b in B.terms.items():
            for K in _iterproduct(*subranges):
                D = tuple(i - k for i, k in zip(I, K))
                db = coef_derivative(b, D)
                if _is_zero(db):
                    continue
                coef = ProdCoef((ConstCoef(_binom_prod(I, K)), a, db)) \
                    if any(D) else ProdCoef((a, b))
                tgt = tuple(k + j for k, j in zip(K, J))
                out.setdefault(tgt, []).append(coef)
    terms = {I: (cs[0] if len(cs) == 1 else SumCoef(tuple(cs))) for I, cs in out.items()}
    return DifferentialOperator(A.vars, terms)


def op_commutator(A, B, order_cap: int = ORDER_CAP) -> DifferentialOperator:
    return op_compose(A, B, order_cap) - op_compose(B, A, order_cap)


def op_apply(A: DifferentialOperator, f, point) -> complex:
    """(A f)(point); f is any Coefficient-like with derivative rules."""
    f = as_coef(f)
    pt = tuple(point)
    out = 0.0 + 0.0j
    for I, c in A.terms.items():
        df = coef_derivative(f, I)
        if _is_zero(df):
            continue
        out += c(pt) * df(pt)
    return out


def eval_terms(A: DifferentialOperator, point) -> Dict[Tuple[int, ...], complex]:
    """Numeric snapshot of A at a point: multi-index -> coefficient value."""
    pt = tuple(point)
    return {I: complex(c(pt)) for I, c in A.terms.items()}


# --------------------------------------------------------------- verification


@dataclass(frozen=True)
class VerificationReport:
    label: str
    samples: int
    max_residual: float
    tol: float
    seed: int
    anchor: str = ""
    expect_failure: bool = False  # negative controls: a planted defect must fire

    @property
    def passed(self) -> bool:
        if self.expect_failure:
            return self.max_residual >= self.tol
        return self.max_residual < self.tol


def monomials_up_to(nvars: int, degree: int):
    """All monomial test functions of total degree <= degree."""
    out = []
    for total in range(degree + 1):
        for I in _compositions(total, nvars):
            out.append(Monomial(I))
    return out


def _compositions(total, n):
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, n - 1):
            yield (head,) + rest


def default_sampler(nvars, center=1.0, spread=0.75):
    """Polydisk sampler off the coordinate hyperplanes."""

    def sample(rng):
        pt = []
        for _ in range(nvars):
            r = spread * math.sqrt(rng.uniform(0.1, 1.0))
            ang = rng.uniform(0.0, 2 * math.pi)
            pt.append(center + r * cmath.exp(1j * ang))
        return tuple(pt)

    return sample


def op_equal(A, B, sampler=None, test_degree=None, tol=1e-9, samples=8,
             seed=0, label="op_equal", anchor="") -> VerificationReport:
    """Certify A == B on monomials of degree <= test_degree at random points.

    Degree order(A-B)+1 determines all coefficients of an operator of that
    order, so a pass certifies coefficient-wise equality on the sampled region.
    """
    _same_vars(A, B)
    diff = A - B
    deg = test_degree if test_degree is not None else diff.order + 1
    sampler = sampler or default_sampler(len(A.vars))
    rng = np.random.default_rng(seed)
    tests = monomials_up_to(len(A.vars), deg)
    worst = 0.0
    for _ in range(samples):
        pt = sampler(rng)
        for mono in tests:
            worst = max(worst, abs(op_apply(diff, mono, pt)))
    return VerificationReport(label, samples, worst, tol, seed, anchor)


# ------------------------------------------------------------- coordinate maps


@dataclass(frozen=True)
class CoordinateMap:
    """Analytic chart old -> new with enough data to move operators across.

    jacobian(old_pt)[i][j] = d new_i / d old_j.  The inverse map is required
    for pullback (coefficients must become functions of the new point).
    """

    forward: Callable
    inverse: Callable
    jacobian: Callable
    inverse_jacobian: Optional[Callable] = None


def fd_jacobian(fn, pt, h=1e-6):
    """Central-difference Jacobian of fn at pt (complex step along +h)."""
    pt = tuple(pt)
    base = np.asarray(fn(pt), dtype=complex)
    J = np.zeros((base.size, len(pt)), dtype=complex)
    for j in range(len(pt)):
        up = list(pt)
        dn = list(pt)
        up[j] += h
        dn[j] -= h
        J[:, j] = (np.asarray(fn(tuple(up)), dtype=complex)
                   - np.asarray(fn(tuple(dn)), dtype=complex)) / (2 * h)
    return J


_PULLBACK_MEMO = 4096  # points per op_pullback memo


def op_pullback(A: DifferentialOperator, m: CoordinateMap, new_vars) -> DifferentialOperator:
    """Express A in the new coordinates of m.

    First-order generators transform by the Jacobian; higher multi-indices by
    composing the transformed generators (partial derivatives commute, so any
    composition order agrees on test functions).

    Every coefficient of the result reads the old point and the Jacobian at
    a new point from one memo, so all of them share one m.inverse and one
    m.jacobian call per node (the memo holds up to _PULLBACK_MEMO points and
    is then cleared).  This assumes m.inverse and m.jacobian are pure
    functions of the point.
    """
    new_vars = tuple(new_vars)
    n_old = len(A.vars)
    n_new = len(new_vars)
    memo = {}

    def chart(new_pt):
        key = tuple(new_pt)
        hit = memo.get(key)
        if hit is None:
            old_pt = tuple(m.inverse(new_pt))
            if len(memo) >= _PULLBACK_MEMO:
                memo.clear()
            hit = memo[key] = (old_pt, m.jacobian(old_pt))
        return hit

    def entry(j_new, i_old):
        return FuncCoef(lambda new_pt: complex(chart(new_pt)[1][j_new][i_old]))

    # realizations of d/d old_i
    gens = []
    for i in range(n_old):
        gens.append(make_op(new_vars, {axis_index(n_new, j): entry(j, i)
                                       for j in range(n_new)}))

    out = zero_op(new_vars)
    for I, c in A.terms.items():
        def moved(new_pt, _c=c):
            return _c(chart(new_pt)[0])

        piece = identity_op(new_vars)
        for i, k in enumerate(I):
            for _ in range(k):
                piece = op_compose(piece, gens[i])
        out = out + FuncCoef(moved) * piece
    return out


# --------------------------------------------------- high-order differentiation


def polydisk_derivs(fn, point, max_order=2, radius=1e-2, nodes=12):
    """All derivatives d^I fn(point) with |I| <= max_order <= 2, each from a
    one-dimensional Cauchy circle (cauchy_derivs) of the given radius.

    The circle on axis i gives d_i and d_i^2.  The circle that moves x_i and
    x_j together gives the second derivative D^2 along e_i + e_j, and
    polarization gives d_i d_j = (D^2 - d_i^2 - d_j^2) / 2.  For n variables
    that is 1 + nodes * n (n + 1) / 2 evaluations of fn, which must be
    holomorphic on the closed polydisk of the given radius.
    """
    if not 0 <= max_order <= 2:
        raise OperatorError(f"polydisk_derivs takes max_order 0, 1 or 2, got {max_order}")
    point = tuple(point)
    n = len(point)
    orders = tuple(range(1, max_order + 1))
    out = {(0,) * n: complex(fn(point))}
    for i in range(n):
        vals = cauchy_derivs(fn, point, (i,), orders, radius, nodes)
        out.update(zip([axis_index(n, i, k) for k in orders], vals))
    if max_order == 2:
        for i in range(n):
            for j in range(i + 1, n):
                dvv = cauchy_derivs(fn, point, (i, j), (2,), radius, nodes)[0]
                mixed = tuple(int(a in (i, j)) for a in range(n))
                out[mixed] = (dvv - out[axis_index(n, i, 2)] - out[axis_index(n, j, 2)]) / 2
    return {I: out[I] for total in range(max_order + 1) for I in _compositions(total, n)}


def apply_term_map(term_map: Mapping[Tuple[int, ...], complex],
                   derivs: Mapping[Tuple[int, ...], complex]) -> complex:
    """Apply a numeric operator snapshot to precomputed derivatives."""
    out = 0.0 + 0.0j
    for I, c in term_map.items():
        out += c * derivs[I]
    return out
