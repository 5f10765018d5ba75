"""Finite-dimensional fibers of the Clifford construction at chosen base
points: exact quadratic towers, structure-constant algebras, radical and
center computations, and matrix-algebra certification.

Scalars live in a small tower of quadratic extensions of Q (at most two
square roots, which is all the idempotent constructions need) or in a
prime field.  Everything is exact; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .clifford import CliffordAlgebra, central_odd
from .exactalg import (
    PrimeField,
    adjugate3,
    as_int,
    is_square_fraction,
    mat_kernel,
    mat_rank,
    rref,
    span_coords,
    span_residual,
)


class FiberError(Exception):
    """A fiber construction hit a degenerate input."""


# ---------------------------------------------------------------------------
# quadratic towers
# ---------------------------------------------------------------------------

class TowerElem:
    """Element of Q(sqrt a, sqrt b) on the basis (1, √a, √b, √ab), stored
    as four integer numerators n over one positive denominator d.

    This is the integral representation of number-field elements (Cohen,
    A Course in Computational Algebraic Number Theory, GTM 138, §4.2):
    coordinates n/d with gcd(n₀, n₁, n₂, n₃, d) = 1 and d > 0, so (n, d)
    is canonical, equality and the zero test compare integers, and the
    field operations work on integers and reduce once.  Basis index bit 0
    marks a factor √a, bit 1 a factor √b; products combine by xor with
    carry a and/or b on the shared bits (see QuadraticTower).  `c` is a
    read-only view of the coordinates as Fractions.
    """

    __slots__ = ("tower", "n", "d")

    def __init__(self, tower, n, d=1):
        """n is a tuple of four ints and d a nonzero int; the pair is
        brought to canonical form (a denominator of 1 already is)."""
        if d != 1:
            n0, n1, n2, n3 = n
            if d < 0:
                n0, n1, n2, n3, d = -n0, -n1, -n2, -n3, -d
            g = gcd(n0, n1, n2, n3, d)
            if g != 1:
                n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
            n = (n0, n1, n2, n3)
        self.tower = tower
        self.n = n
        self.d = d

    @property
    def c(self):
        return tuple(Fraction(x, self.d) for x in self.n)

    def _coerce(self, other):
        """other as an element with our coordinate meaning: an element of
        this tower or of one with the same radicands as it is, anything
        else through tower.coerce; None if it does not coerce."""
        if other.__class__ is TowerElem and (
                other.tower is self.tower
                or other.tower.radicands == self.tower.radicands):
            return other
        try:
            return self.tower.coerce(other)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x0, x1, x2, x3 = self.n
        y0, y1, y2, y3 = other.n
        d, e = self.d, other.d
        if d == e:
            return TowerElem(self.tower, (x0 + y0, x1 + y1, x2 + y2, x3 + y3), d)
        return TowerElem(self.tower, (x0 * e + y0 * d, x1 * e + y1 * d,
                                      x2 * e + y2 * d, x3 * e + y3 * d), d * e)

    __radd__ = __add__

    def __neg__(self):
        x0, x1, x2, x3 = self.n
        return TowerElem(self.tower, (-x0, -x1, -x2, -x3), self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x0, x1, x2, x3 = self.n
        y0, y1, y2, y3 = other.n
        d, e = self.d, other.d
        if d == e:
            return TowerElem(self.tower, (x0 - y0, x1 - y1, x2 - y2, x3 - y3), d)
        return TowerElem(self.tower, (x0 * e - y0 * d, x1 * e - y1 * d,
                                      x2 * e - y2 * d, x3 * e - y3 * d), d * e)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x0, x1, x2, x3 = self.n
        y0, y1, y2, y3 = other.n
        d = self.d * other.d
        if not (y1 or y2 or y3):
            return TowerElem(self.tower, (x0 * y0, x1 * y0, x2 * y0, x3 * y0), d)
        if not (x1 or x2 or x3):
            return TowerElem(self.tower, (x0 * y0, x0 * y1, x0 * y2, x0 * y3), d)
        k0, k1, k2, k3 = self.tower._carry
        return TowerElem(self.tower, (
            k0 * x0 * y0 + k1 * x1 * y1 + k2 * x2 * y2 + k3 * x3 * y3,
            k0 * (x0 * y1 + x1 * y0) + k2 * (x2 * y3 + x3 * y2),
            k0 * (x0 * y2 + x2 * y0) + k1 * (x1 * y3 + x3 * y1),
            k0 * (x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1),
        ), d * k0)

    __rmul__ = __mul__

    def inverse(self):
        """1/x = σ_b(x)·σ_a(N_b(x)) / N(x), where σ_b negates √b (and
        √ab), σ_a negates √a, N_b(x) = x·σ_b(x) lies in Q(√a) and
        N(x) = N_b(x)·σ_a(N_b(x)) is rational."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        t = self.tower
        n0, n1, n2, n3 = self.n
        conj_b = TowerElem(t, (n0, n1, -n2, -n3), self.d)
        nb = self * conj_b  # lands in Q(√a)
        conj_a = TowerElem(t, (nb.n[0], -nb.n[1], 0, 0), nb.d)
        r = nb * conj_a
        if not r.is_rational() or not r:
            raise ZeroDivisionError("norm degenerated; tower is not a field")
        return conj_b * conj_a * TowerElem(t, (r.d, 0, 0, 0), r.n[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.d == other.d and self.n == other.n

    def __bool__(self):
        return any(self.n)

    def __hash__(self):
        # a rational element equals its int or Fraction value, so it hashes
        # like it; the embedding of a shallower tower keeps (n, d)
        if self.is_rational():
            return hash(Fraction(self.n[0], self.d))
        return hash((self.n, self.d))

    def is_rational(self):
        return not (self.n[1] or self.n[2] or self.n[3])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is irrational")
        return Fraction(self.n[0], self.d)

    def __repr__(self):
        rads = self.tower.radicands
        labels = ["", None, None, None]
        if len(rads) >= 1:
            labels[1] = f"*sqrt({rads[0]})"
        if len(rads) >= 2:
            labels[2] = f"*sqrt({rads[1]})"
            labels[3] = f"*sqrt({rads[0] * rads[1]})"
        parts = [f"{c}{labels[k]}" if k else f"{c}"
                 for k, c in enumerate(self.c) if c]
        return " + ".join(parts) if parts else "0"


class QuadraticTower:
    """Q with zero, one, or two adjoined square roots of rationals.

    The stored radicands are constrained so the result is a field: each
    is a non-square, and at level two the product of the two is also a
    non-square (so neither root lies in the subfield generated by the
    other).

    Elements are integer coordinate vectors over a common denominator
    (TowerElem).  With a = aₙ/a_d and b = bₙ/b_d (zero above the level)
    and L = a_d·b_d, the basis products carry 1, a, b or ab, that is
    (L, aₙb_d, bₙa_d, aₙbₙ)/L: `_carry` holds those four integers, so a
    product of two elements is sixteen integer products over d·d'·L.
    """

    def __init__(self, radicands=()):
        rads = tuple(Fraction(r) for r in radicands)
        if len(rads) > 2:
            raise ValueError("tower depth capped at two")
        for r in rads:
            if r == 0 or is_square_fraction(r) is not None:
                raise ValueError(f"radicand {r} is redundant")
        if len(rads) == 2:
            if is_square_fraction(rads[0] * rads[1]) is not None:
                raise ValueError("second radicand lies in the first extension")
        self.radicands = rads
        self.level = len(rads)
        self._a = rads[0] if self.level >= 1 else Fraction(0)
        self._b = rads[1] if self.level >= 2 else Fraction(0)
        an, ad = self._a.numerator, self._a.denominator
        bn, bd = self._b.numerator, self._b.denominator
        self._carry = (ad * bd, an * bd, bn * ad, an * bn)
        self.zero = TowerElem(self, (0, 0, 0, 0))
        self.one = TowerElem(self, (1, 0, 0, 0))
        self.name = self.describe()

    def describe(self):
        if self.level == 0:
            return "Q"
        inner = ", ".join(f"sqrt {r}" for r in self.radicands)
        return f"Q({inner})"

    def __repr__(self):
        return f"QuadraticTower({self.radicands})"

    def __eq__(self, other):
        return isinstance(other, QuadraticTower) and self.radicands == other.radicands

    def __hash__(self):
        return hash(self.radicands)

    def make(self, c0, c1=0, c2=0, c3=0):
        c = [Fraction(x) for x in (c0, c1, c2, c3)]
        d = lcm(*(x.denominator for x in c))
        return TowerElem(self, tuple(x.numerator * (d // x.denominator) for x in c), d)

    def coerce(self, x):
        if isinstance(x, TowerElem):
            # the same tower, or a shallower one whose radicands are a
            # prefix of ours: the coordinates embed unchanged
            if x.tower.radicands == self.radicands[: x.tower.level]:
                return TowerElem(self, x.n, x.d)
            raise ValueError("element of an incompatible tower")
        if isinstance(x, int):
            return TowerElem(self, (x, 0, 0, 0))
        if isinstance(x, (str, Fraction)):
            x = Fraction(x)
            return TowerElem(self, (x.numerator, 0, 0, 0), x.denominator)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def sqrt(self, x):
        """A square root of a RATIONAL tower element if one exists in the
        tower (as c, c√a, c√b, or c√ab), else None."""
        x = self.coerce(x)
        if not x.is_rational():
            return None
        v = x.rational_value()
        if v == 0:
            return self.zero
        s = is_square_fraction(v)
        if s is not None:
            return self.make(s)
        if self.level >= 1:
            s = is_square_fraction(v / self._a)
            if s is not None:
                return self.make(0, s)
        if self.level >= 2:
            s = is_square_fraction(v / self._b)
            if s is not None:
                return self.make(0, 0, s)
            s = is_square_fraction(v / (self._a * self._b))
            if s is not None:
                return self.make(0, 0, 0, s)
        return None

    def extended(self, r):
        """Tower with √r adjoined (r rational).  Returns (tower, √r);
        returns self if √r already exists."""
        r = Fraction(r)
        s = self.sqrt(self.make(r))
        if s is not None:
            return self, s
        new = QuadraticTower(self.radicands + (r,))
        return new, new.sqrt(new.make(r))

    @staticmethod
    def create(radicands):
        """Smallest tower containing √r for every requested rational r,
        together with those square roots.  Square and proportional-by-a-
        square radicands do not grow the tower."""
        rads = [Fraction(r) for r in radicands]
        tower = QuadraticTower(())
        for r in rads:
            tower, _ = tower.extended(r) if r != 0 else (tower, None)
        roots = [tower.sqrt(tower.make(r)) for r in rads]
        if any(s is None for s in roots):
            raise AssertionError("tower construction lost a radicand")
        return tower, roots


def describe_field(field):
    if isinstance(field, QuadraticTower):
        return field.describe()
    if isinstance(field, PrimeField):
        return f"F_{field.p}"
    return getattr(field, "name", repr(field))


def _char_ok(field, dim):
    """Trace-form radicals are only trusted in characteristic 0 or > dim."""
    if isinstance(field, PrimeField) and field.p <= dim:
        raise ValueError(f"characteristic {field.p} too small for dimension {dim}")


# ---------------------------------------------------------------------------
# structure-constant algebras
# ---------------------------------------------------------------------------

class FinAlg:
    """Associative unital algebra given by dense structure constants.

    table[i][j] is the coordinate tuple of e_i·e_j.  `proof` names why the
    table is a unital associative algebra with unit `unit`:

    - "checked": check_associativity() passed on all basis triples, and
      the unit was verified by the constructor or covered by an earlier
      proof;
    - "clifford": a fiber of a Clifford normal-form engine proven once
      over Q[u] by CliffordAlgebra.verify_associativity, whose family (i)
      also proves e₀ the unit; evaluation at a point, a tower embedding
      and reduction of integer constants mod p are ring homomorphisms, so
      they carry both to the fiber;
    - "embedding": a base change (map_field) of a table with a proof; a
      ring embedding maps 1 to 1 and keeps every identity;
    - "tensor": a tensor product of two tables with a proof, whose unit
      is u_A ⊗ u_B;
    - "corner": e·A·e with e idempotent in an A with a proof, closed under
      multiplication, hence a subalgebra with unit e, because
      e·(e x e) = e x e = (e x e)·e;
    - "even": the even part of a Clifford fiber with a proof, likewise a
      subalgebra holding the unit (see even_subalgebra);
    - None: no claim.  The constructor verifies the unit (2·dim
      products), and associativity holds only after check_associativity().

    check_associativity() stays available on every table as the long path.
    mul() reads a sparse copy of the table, kept as the tuple of nonzero
    (k, t) pairs of each entry.
    """

    def __init__(self, field, table, unit, gens=None, tensor_factors=None,
                 proof=None):
        self.field = field
        self.dim = len(table)
        for row in table:
            if len(row) != self.dim:
                raise ValueError("structure table is not square")
            for vec in row:
                if len(vec) != self.dim:
                    raise ValueError("structure vector has wrong length")
        self.table = table
        self._sparse = [
            [tuple((k, t) for k, t in enumerate(vec) if t) for vec in row]
            for row in table
        ]
        self.unit = tuple(unit)
        self.gens = [tuple(g) for g in gens] if gens is not None else None
        self.tensor_factors = tensor_factors
        self.proof = proof
        if proof is None:
            self._verify_unit()

    # -- vector helpers ------------------------------------------------------

    def vzero(self):
        return tuple(self.field.zero for _ in range(self.dim))

    def basis_vec(self, i):
        return tuple(self.field.one if k == i else self.field.zero
                     for k in range(self.dim))

    def scalar_vec(self, c):
        c = self.field.coerce(c)
        return tuple(c * x for x in self.unit)

    def vadd(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def vsub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def vscale(self, x, c):
        return tuple(a * c for a in x)

    def mul(self, x, y):
        out = [self.field.zero] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self._sparse[i]
            for j, yj in ys:
                s = xi * yj
                for k, t in row[j]:
                    out[k] = out[k] + s * t
        return tuple(out)

    # -- verification --------------------------------------------------------

    def _verify_unit(self):
        for i in range(self.dim):
            e = self.basis_vec(i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise ValueError("unit coordinates are wrong")

    def check_associativity(self):
        t = self.table
        for i in range(self.dim):
            for j in range(self.dim):
                ij = t[i][j]
                for k in range(self.dim):
                    left = self.mul(ij, self.basis_vec(k))
                    right = self.mul(self.basis_vec(i), t[j][k])
                    if left != right:
                        raise ValueError(
                            f"associativity fails on basis triple {(i, j, k)}"
                        )
        self.proof = "checked"
        return True

    # -- base change -----------------------------------------------------------

    def map_field(self, new_field):
        """Base-change the structure constants through new_field.coerce.
        Coercion is a ring embedding, so a proof transfers ("embedding")."""
        conv = new_field.coerce
        table = [
            [tuple(conv(x) for x in vec) for vec in row] for row in self.table
        ]
        unit = tuple(conv(x) for x in self.unit)
        gens = ([tuple(conv(x) for x in g) for g in self.gens]
                if self.gens is not None else None)
        factors = (tuple(f.map_field(new_field) for f in self.tensor_factors)
                   if self.tensor_factors else None)
        return FinAlg(new_field, table, unit, gens=gens, tensor_factors=factors,
                      proof="embedding" if self.proof else None)


def tensor_product(A, B):
    """Plain tensor product (the factors commute with each other).  It
    carries the proof "tensor" only when both factors carry a proof."""
    if A.field is not B.field and A.field != B.field:
        raise ValueError("tensor factors live over different fields")
    n, m = A.dim, B.dim
    dim = n * m
    zero = A.field.zero

    def pair(i, j):
        return i * m + j

    table = []
    for i1 in range(n):
        for j1 in range(m):
            row = []
            for i2 in range(n):
                ta = A.table[i1][i2]
                for j2 in range(m):
                    tb = B.table[j1][j2]
                    vec = [zero] * dim
                    for k, ca in enumerate(ta):
                        if not ca:
                            continue
                        for l, cb in enumerate(tb):
                            if cb:
                                vec[pair(k, l)] = ca * cb
                    row.append(tuple(vec))
            table.append(row)

    def embed_left(x):
        vec = [zero] * dim
        for k, c in enumerate(x):
            if c:
                for l, ub in enumerate(B.unit):
                    if ub:
                        vec[pair(k, l)] = c * ub
        return tuple(vec)

    def embed_right(y):
        vec = [zero] * dim
        for l, c in enumerate(y):
            if c:
                for k, ua in enumerate(A.unit):
                    if ua:
                        vec[pair(k, l)] = ua * c
        return tuple(vec)

    unit = embed_left(A.unit)
    gens = None
    if A.gens is not None and B.gens is not None:
        gens = [embed_left(g) for g in A.gens] + [embed_right(g) for g in B.gens]
    return FinAlg(A.field, table, unit, gens=gens, tensor_factors=(A, B),
                  proof="tensor" if A.proof and B.proof else None)


def corner_algebra(A, e, gens=None):
    """The algebra e·A·e for an idempotent e, on an echelon basis of the
    image.  When e is central this is a quotient of A, so images of
    generators of A still generate the corner.

    The corner is checked closed under multiplication, so it is a
    subalgebra of A; a subalgebra of an associative algebra is
    associative, with unit e: e·(e x e) = e x e = (e x e)·e by
    associativity and e² = e.  So a corner of a table with a proof carries
    "corner"; a corner of a table without one verifies its unit and runs
    the full check on all basis triples."""
    if A.mul(e, e) != e:
        raise ValueError("corner needs an idempotent")
    pivots, basis = rref([A.mul(e, A.mul(A.basis_vec(i), e))
                          for i in range(A.dim)])
    m = len(basis)
    table = []
    for x in basis:
        row = []
        for y in basis:
            coords = span_coords(pivots, basis, A.mul(x, y))
            if coords is None:
                raise ValueError("corner is not multiplicatively closed")
            row.append(tuple(coords))
        table.append(row)
    unit = span_coords(pivots, basis, e)
    if unit is None:
        raise ValueError("idempotent escaped its own corner")
    gvecs = None
    if gens is not None:
        gvecs = []
        for g in gens:
            c = span_coords(pivots, basis, A.mul(e, A.mul(g, e)))
            if c is None:
                raise ValueError("generator image escaped the corner")
            gvecs.append(tuple(c))
    C = FinAlg(A.field, table, tuple(unit), gens=gvecs,
               proof="corner" if A.proof else None)
    if C.proof is None:
        C.check_associativity()
    return C


# ---------------------------------------------------------------------------
# radical and center
# ---------------------------------------------------------------------------

def gram_matrix(A):
    """Trace form of left multiplication on basis pairs."""
    t = A.table
    n = A.dim
    g = []
    for i in range(n):
        grow = []
        ti = t[i]
        for j in range(n):
            tj = t[j]
            acc = A.field.zero
            for l in range(n):
                til = ti[l]
                for k in range(n):
                    x = til[k]
                    if x:
                        y = tj[k][l]
                        if y:
                            acc = acc + x * y
            grow.append(acc)
        g.append(grow)
    return g


def radical_dim(A):
    """Dimension of the radical via the trace form (char 0 or > dim)."""
    _char_ok(A.field, A.dim)
    return A.dim - mat_rank(gram_matrix(A))


def center_basis(A):
    """Kernel of x ↦ [x, probes]; probes are the declared generators when
    available (they generate, so commuting with them is central)."""
    probes = A.gens if A.gens else [A.basis_vec(i) for i in range(A.dim)]
    rows = []
    for v in probes:
        cols = []
        for k in range(A.dim):
            ek = A.basis_vec(k)
            cols.append(A.vsub(A.mul(ek, v), A.mul(v, ek)))
        for r in range(A.dim):
            rows.append([cols[k][r] for k in range(A.dim)])
    return mat_kernel(rows, A.dim, A.field)


def center_dim(A):
    """Dimension of the center, from center_basis."""
    return len(center_basis(A))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def certify_matrix_algebra(A, n):
    """Verdict 'M{n}' when A has dimension n², zero radical, and trivial
    center: a form of rank n² that becomes the full matrix algebra after
    any base change splitting it (the certificate is closure-level).  A
    declared tensor product is read off its factors."""
    return certify_tensor_product(A.tensor_factors or (A,), n)


def certify_tensor_product(factors, n):
    """certify_matrix_algebra of (A₁ ⊗ … ⊗ A_k) ⊗ K, K any extension of the
    factors' field, without the product table: the trace-form Gram matrix
    of A ⊗ B is the Kronecker product of the factors' Grams, so its rank is
    the product of their ranks (dim − radical_dim); Z(A ⊗ B) = Z(A) ⊗ Z(B)
    over a field; and ranks and kernel dimensions do not change under
    field extension."""
    dim = prod(f.dim for f in factors)
    if dim != n * n:
        return f"fail:dim-{dim}"
    _char_ok(factors[0].field, dim)
    r = dim - prod(f.dim - radical_dim(f) for f in factors)
    if r:
        return f"fail:radical-{r}"
    c = prod(center_dim(f) for f in factors)
    if c != 1:
        return f"fail:center-{c}"
    return f"M{n}"


# ---------------------------------------------------------------------------
# fibers of the Clifford construction
# ---------------------------------------------------------------------------

def clifford_fiber(alg, u, field, proof=None):
    """Structure constants of a Clifford algebra at the base point u.
    The generator vectors are recorded so centers stay cheap.  Monomials
    of u are evaluated once, in ints where u and the coefficients
    (alg.structure_terms) are integral.

    proof is "clifford" when alg was proven over its coefficient ring
    (the side algebras of SideFibers.algebra): the fiber is a
    ring-homomorphic image of alg's table, so it is not re-checked.  With
    proof=None the table makes no claim (see FinAlg)."""
    n = 1 << alg.ngens
    zero = field.zero
    point = [as_int(alg.ring.field.coerce(c)) for c in u]
    monomials = {}
    table = []
    for terms_row in alg.structure_terms():
        row = []
        for entry in terms_row:
            vec = [zero] * n
            for mask, terms in entry:
                acc = 0
                for e, c in terms:
                    m = monomials.get(e)
                    if m is None:
                        m = monomials[e] = prod(x ** k for x, k in zip(point, e))
                    acc += c * m
                vec[mask] = field.coerce(acc)
            row.append(tuple(vec))
        table.append(row)
    unit = tuple(field.one if k == 0 else zero for k in range(n))
    gens = []
    for g in range(alg.ngens):
        gens.append(tuple(field.one if k == (1 << g) else zero for k in range(n)))
    return FinAlg(field, table, unit, gens=gens, proof=proof)


def eval_element(e, u, field, dim):
    vec = [field.zero] * dim
    for mask, poly in e.coeffs.items():
        vec[mask] = field.coerce(poly.eval(u))
    return tuple(vec)


def _point(u):
    u = tuple(Fraction(c) for c in u)
    if len(u) != 3:
        raise ValueError("base points have three coordinates")
    if not any(u):
        raise ValueError("the zero point is not allowed")
    return u


def _det_value(P, side, u):
    return P.det_curves().side(side).eval(u)


EVEN_MASKS = (0, 3, 5, 6)
ODD_MASKS = (1, 2, 4, 7)


def even_subalgebra(A):
    """C₀ = span(e_0, e_3, e_5, e_6) of an 8-dimensional Clifford fiber A
    that carries a proof.  The 16 products of even masks are checked to be
    even, so C₀ is a subalgebra holding A's unit, labelled "even".  A table
    without a proof raises ValueError: even_part proves A first."""
    if A.proof is None:
        raise ValueError("the even subalgebra needs a table with a proof")
    table = []
    for i in EVEN_MASKS:
        row = []
        for j in EVEN_MASKS:
            vec = A.table[i][j]
            if any(vec[k] for k in ODD_MASKS):
                raise ValueError("even masks are not closed under multiplication")
            row.append(tuple(vec[k] for k in EVEN_MASKS))
        table.append(row)
    return FinAlg(A.field, table, tuple(A.unit[k] for k in EVEN_MASKS),
                  proof="even")


def even_part(A, d, f):
    """C₀ = even_subalgebra(A) for an 8-dimensional fiber A with odd
    central vector d at a point where the determinant takes the value f,
    once A ≅ C₀ ⊗ Q[x]/(x² − f) is checked at that point:

    1. f ≠ 0;
    2. A is associative (check_associativity() when A carries no proof);
    3. e_m·d has no even coordinate for every m in EVEN_MASKS;
    4. d commutes with A.gens, or with every basis vector when A has none;
    5. d·d = f·1.

    By 1, 2 and 5, (x·d)·d = f·x with f ≠ 0, so right multiplication by d
    is invertible; by 3 it maps C₀ into the 4-dimensional odd span C₁, so
    A = C₀ ⊕ C₀·d.  By 4 d is central (the generators generate A), so with
    5, a ⊗ xᵏ ↦ a·dᵏ is an algebra isomorphism C₀ ⊗ Q[x]/(x² − f) → A: the
    structure theorem for odd-rank Clifford algebras (Lam, Introduction to
    Quadratic Forms over Fields, GSM 67, Ch. V §2), checked at the point.
    On a Clifford fiber off the curve, 3 to 5 hold by prop3.5 (grading)
    and prop3.12 (d odd and central, d² = f).  A failed condition raises
    FiberError naming it."""
    if not f:
        raise FiberError("base point lies on a determinant curve")
    if A.proof is None:
        try:
            A.check_associativity()
        except ValueError as exc:
            raise FiberError(str(exc)) from exc
    for m in EVEN_MASKS:
        md = A.mul(A.basis_vec(m), d)
        if any(md[k] for k in EVEN_MASKS):
            raise FiberError(f"e_{m}·d has an even coordinate")
    for g in A.gens or [A.basis_vec(i) for i in range(A.dim)]:
        if A.mul(g, d) != A.mul(d, g):
            raise FiberError("d does not commute with the generators")
    if A.mul(d, d) != A.scalar_vec(f):
        raise FiberError("d·d is not f(u)·1")
    return even_subalgebra(A)


class SideFibers:
    """The two side algebras of one pencil and their 8-dimensional fibers
    over Q, each built once.

    A CheckContext owns one for the length of a run, so checks visiting
    the same (side, point) share one fiber, and per side the odd central
    element is built once and the symbolic associativity proof runs once;
    memory is bounded by the two side algebras and two fibers (with their
    even parts) per sampled point.  Every fiber function takes
    one first and reads the pencil from it."""

    def __init__(self, P):
        self.P = P
        self._blocks = {}
        self._central = {}
        self._proven = set()
        self._fibers = {}
        self._evens = {}

    def _block(self, side):
        if side not in self._blocks:
            if side not in ("plus", "minus"):
                raise ValueError("side must be 'plus' or 'minus'")
            self._blocks[side] = CliffordAlgebra.from_pencil(self.P, side)
        return self._blocks[side]

    def central(self, side):
        """(alg, its CentralOddResult) for one block over Q[u], built once;
        prop3.12 reads it without the associativity proof."""
        if side not in self._central:
            alg = self._block(side)
            self._central[side] = (alg, central_odd(alg))
        return self._central[side]

    def algebra(self, side):
        """central(side), with alg proven associative by
        CliffordAlgebra.verify_associativity (before d is built, so a
        broken engine fails the proof first) and its structure constants
        checked to lie in Z[u], so associativity carries to every fiber:
        over a tower by evaluation and embedding, over F_p by the ring
        homomorphism Z[u] → F_p."""
        if side not in self._proven:
            alg = self._block(side)
            alg.verify_associativity()
            if not alg.integral_structure():
                raise ValueError("non-integer structure constant")
            self._proven.add(side)
        return self.central(side)

    def fiber(self, side, u):
        """side_fiber(self, side, u) over Q, memoized."""
        key = (side, _point(u))
        got = self._fibers.get(key)
        if got is None:
            got = self._fibers[key] = side_fiber(self, side, u)
        return got

    def even(self, side, u):
        """(C₀, certify_matrix_algebra(C₀, 2)) for C₀ = even_part of the
        fiber at (side, u), built once per point; FiberError on a curve
        point or a fiber that fails even_part's conditions."""
        key = (side, _point(u))
        if key not in self._evens:
            C0 = even_part(*self.fiber(side, u))
            self._evens[key] = (C0, certify_matrix_algebra(C0, 2))
        return self._evens[key]


def side_fiber(sides, side, u, field=None):
    """The 8-dimensional fiber of one block of sides.P at u, with its
    central odd vector and the determinant value.  field=None means exact
    rationals (a trivial tower, so later quadratic extensions can reuse
    it).  Its consumers check d² = f(u): even_part, corank1_quotient, and
    the idempotent law of _corner_by_idempotent."""
    u = _point(u)
    alg, dres = sides.algebra(side)
    if field is None:
        field = QuadraticTower(())
    A = clifford_fiber(alg, u, field, proof="clifford")
    dvec = eval_element(dres.element, u, field, 8)
    fval = field.coerce(_det_value(sides.P, side, u))
    return A, dvec, fval


def _corner_by_idempotent(A, dvec, s):
    """Corner of the central idempotent (1 + d/s)/2; d must act as s there."""
    half = A.field.one / A.field.coerce(2)
    e = A.vscale(A.vadd(A.unit, A.vscale(dvec, A.field.one / s)), half)
    if A.mul(e, e) != e:
        raise AssertionError("idempotent law failed")
    if A.mul(dvec, e) != A.vscale(e, s):
        raise AssertionError("central element does not act as its square root")
    return corner_algebra(A, e, gens=A.gens), e


def certify_ordinary_m4(sides, u):
    """(field, verdict) for the 16-dimensional ordinary fiber at u off both
    curves of sides.P, over K = Q(√f₊(u), √f₋(u)).

    Each side fiber is C₀ ⊗ Q[x]/(x² − f(u)) ≅ C₀,K × C₀,K over K
    (SideFibers.even), and the side corner cut by (1 + d/√f(u))/2 is C₀,K,
    so the ordinary fiber, the tensor product of the two side corners, is
    (C₀₊ ⊗ C₀₋) ⊗ K: the verdict is certify_tensor_product of the even
    parts (M4 when both are M2), and K is only named."""
    u = _point(u)
    evens = [sides.even(side, u) for side in ("plus", "minus")]
    field, _ = QuadraticTower.create([_det_value(sides.P, side, u)
                                      for side in ("plus", "minus")])
    if all(verdict == "M2" for _, verdict in evens):
        return field, "M4"
    return field, certify_tensor_product([C0 for C0, _ in evens], 4)


def certify_side_split(sides, side, u):
    """(field, verdict) certifying the side fiber A at u off its curve as
    M2 × M2 after one square root.  A = C₀ ⊗ E with E = Q[x]/(x² − f(u))
    étale of dimension 2 (SideFibers.even).  When C₀ is M2, A has center
    span(1, d) with d² = f(u), and over K = Q(√f(u)) it is C₀,K × C₀,K:
    M2xM2, with K named by QuadraticTower.create([f(u)]).  Otherwise
    rad(A) = rad(C₀) ⊗ E and Z(A) = Z(C₀) ⊗ E, so A fails with twice C₀'s
    radical or center dimension, over A's own field (which C₀ shares)."""
    u = _point(u)
    C0, verdict = sides.even(side, u)
    if verdict == "M2":
        return QuadraticTower.create([_det_value(sides.P, side, u)])[0], "M2xM2"
    kind, dim = verdict.rsplit("-", 1)
    return C0.field, f"{kind}-{2 * int(dim)}"


def corank1_quotient(sides, side, u, field=None):
    """At a curve point of corank one, the central odd vector squares to
    zero; the quotient by the 4-dimensional two-sided ideal it generates
    is certified as a rank-2 matrix algebra.

    Over a prime field the 8-dimensional fiber is not re-checked for
    associativity: the side algebra's structure constants are integer
    polynomials (checked by SideFibers.algebra), so the
    F_p table is the image of the Z[u]-table under the ring homomorphism
    Z[u] → F_p, and the proof over Q[u] carries over.  The 4-dimensional
    quotient table itself is checked on all basis triples."""
    if field is None:
        field = QuadraticTower(())
    P = sides.P
    uc = _point(u)
    fval = field.coerce(_det_value(P, side, uc))
    if fval:
        raise FiberError("the quotient only exists on the curve")
    # corank exactly one: the adjugate of the block must survive
    block = P.block_at(uc, side)
    adj = adjugate3([[field.coerce(x) for x in r] for r in block])
    if all(not x for row in adj for x in row):
        raise FiberError("corank at least two at this point")
    A, dvec, _ = side_fiber(sides, side, uc, field)
    if any(A.mul(dvec, dvec)):
        raise AssertionError("central element square must vanish on the curve")
    pivots, ideal = rref([A.mul(dvec, A.basis_vec(i)) for i in range(8)])
    if len(ideal) != 4:
        raise FiberError(f"ideal dimension {len(ideal)} instead of 4")
    for b in ideal:
        for i in range(8):
            if span_coords(pivots, ideal, A.mul(A.basis_vec(i), b)) is None:
                raise AssertionError("ideal is not left-stable")
            if span_coords(pivots, ideal, A.mul(b, A.basis_vec(i))) is None:
                raise AssertionError("ideal is not right-stable")
    complement = [i for i in range(8) if i not in pivots]

    def project(v):
        red = span_residual(pivots, ideal, v)
        return tuple(red[i] for i in complement)

    lifts = [A.basis_vec(i) for i in complement]
    table = [[project(A.mul(x, y)) for y in lifts] for x in lifts]
    Q = FinAlg(field, table, project(A.unit),
               gens=[project(g) for g in A.gens])
    Q.check_associativity()
    verdict = certify_matrix_algebra(Q, 2)
    return Q, verdict


# ---------------------------------------------------------------------------
# point sampling
# ---------------------------------------------------------------------------

def sample_invertible_points(P, rng, count, bound=9):
    """Integer base points where both determinant cubics are nonzero, from
    at most 5000 draws."""
    curves = P.det_curves()
    seen = set()
    out = []
    for _ in range(5000):
        if len(out) >= count:
            break
        u = tuple(rng.randint(-bound, bound) for _ in range(3))
        if not any(u) or u in seen:
            continue
        seen.add(u)
        uf = tuple(Fraction(c) for c in u)
        if curves.f_plus.eval(uf) and curves.f_minus.eval(uf):
            out.append(u)
    if len(out) < count:
        raise FiberError("could not sample enough invertible points")
    return out


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def _rational_roots(coeffs):
    """Rational roots of Σ coeffs[k] t^k with integer coefficients.

    Each candidate n/d (n | constant term, d | leading coefficient) is
    tested by the integer Σ coeffs[k] n^k d^(deg-k) = d^deg·p(n/d), which
    vanishes exactly when n/d is a root; candidates are visited in a fixed
    order and each hit is listed, repeats included."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots
    deg = len(coeffs) - 1
    dens = _divisors(coeffs[-1])
    # coeffs[k]·d^(deg-k), highest degree first, for each denominator d
    scaled = {d: [c * d ** (deg - k) for k, c in reversed(list(enumerate(coeffs)))]
              for d in dens}
    for num in _divisors(coeffs[0]):
        for den in dens:
            terms = scaled[den]
            for n in (num, -num):
                acc = 0
                for c in terms:
                    acc = acc * n + c
                if acc == 0:
                    roots.append(Fraction(n, den))
    return roots


def rational_curve_point(P, side, rng):
    """Search for a rational point of one determinant cubic by
    intersecting with 200 random integer lines and checking for rational
    roots; None if the budget runs out (the cubic is a genus-one curve,
    so rational points can legitimately be absent or hard to hit).  The
    cubic is the determinant of an integer block, so its coefficients are
    integers and each restriction is integer arithmetic."""
    f = P.det_curves().side(side)
    if any(Fraction(c).denominator != 1 for c in f.terms.values()):
        raise FiberError("determinant cubic has a non-integer coefficient")
    terms = [(exps, int(c)) for exps, c in f.terms.items()]
    for _ in range(200):
        base = tuple(rng.randint(-4, 4) for _ in range(3))
        dirv = tuple(rng.randint(-4, 4) for _ in range(3))
        if not any(dirv):
            continue
        # restrict to the line base + t·dir: a univariate integer cubic
        coeffs = [0, 0, 0, 0]
        for exps, c in terms:
            # expand Π (base_i + t dir_i)^{e_i}
            poly_t = [c]
            for i, e in enumerate(exps):
                for _ in range(e):
                    nxt = [0] * (len(poly_t) + 1)
                    for k, a in enumerate(poly_t):
                        nxt[k] += a * base[i]
                        nxt[k + 1] += a * dirv[i]
                    poly_t = nxt
            for k, a in enumerate(poly_t):
                coeffs[k] += a
        if not any(coeffs):
            continue
        for t in _rational_roots(coeffs):
            u = tuple(Fraction(b) + t * d for b, d in zip(base, dirv))
            if not any(u):
                continue
            den_lcm = lcm(*(c.denominator for c in u))
            uz = tuple(int(c * den_lcm) for c in u)
            g = gcd(*uz)
            uz = tuple(c // g for c in uz)
            uf = tuple(Fraction(c) for c in uz)
            if f.eval(uf) != 0:
                continue
            # corank must be exactly one for the quotient construction
            adj = adjugate3(P.block_at(uf, side))
            if any(x for row in adj for x in row):
                return uz
    return None
