"""Blade arithmetic for real and complexified Clifford algebras Cl(p, q), in ints.

A basis blade is a bitmask over the generators: bit i (counting from 0)
stands for the generator e_{i+1}. Generators e_1 .. e_p square to +1 and
e_{p+1} .. e_{p+q} square to -1. The package computes on masks and int terms:
a phased blade i^c e_m is the int pair (m, c), and an element is a dict from
mask to int coefficient.

One sign rule serves every algebra in the package: e_a e_b equals
(-1)^popcount(a & F(b)) e_(a^b), where bit i of F(b) is the parity of the
generators of b below generator i, XORed with whether b holds generator i
and it squares to -1. A descriptor with a nonzero `cuts` mask (a tensor
product, see `cl8.tensoriso.ProductAlgebra`) counts that parity only inside
the block of i, so generators in different blocks commute. F(b) is
recomputed per product; there is no sign cache. Every product runs in
`_product_terms`; a blade e_a times x, such as an ideal rep 2^k e_A f, permutes
x's terms with the signs of one transposed mask G = anticommute_mask(a) ^ F(a):
popcount(b & G) = popcount(a & F(b)).

The same rule, as `anticommute_mask` and `blades_anticommute`, decides every
relation between blades in `cl8.classify` and `cl8.tensoriso`. `blade_square`
reads Q(m) in closed form in one block, from m's grade and its minus generators,
and `_splits_center` decides whether a phased blade splits the center, off Q and
beta. The tests hold these mask rules to `MV` products in `tests/naive.py`.

`MV` and `GaussianRational`, the exact multivector and its Q(i) coefficients,
are not used by the package (see their docstrings). Their constructors validate
masks and coefficients; their own results are built by the trusted `MV._made` and
`_gaussian`, which no other module names.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "GaussianRational", "MV", "Signature", "anticommute_mask", "blade_product",
    "blade_square", "blades_anticommute", "omega_square",
]


class GaussianRational:
    """Element of Q(i): a complex number with Fraction real and imaginary parts.

    Nothing in the package calls it. It stays only for the benchmark harness,
    `perfbench/spans.py`, which counts its `__mul__`, and as the tests' oracle."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"bad GaussianRational parts {re!r}, {im!r}")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if type(other) is GaussianRational or isinstance(other, GaussianRational):
            return other
        return GaussianRational(other, 0) if isinstance(other, (int, Fraction)) else None

    def __add__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return _gaussian(self.re + w.re, self.im + w.im)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return _gaussian(self.re - w.re, self.im - w.im)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return _gaussian(w.re - self.re, w.im - self.im)

    def __mul__(self, other):
        """(a + bi)(c + di), forming only the partial products of nonzero parts."""
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, w.re, w.im
        if not b:  # a(c + di)
            return _gaussian(a * c, a * d if d else d)
        if not d:  # (a + bi)c
            return _gaussian(a * c if a else a, b * c)
        if not a:  # bi(c + di)
            return _gaussian(-(b * d), b * c if c else c)
        if not c:  # (a + bi)di
            return _gaussian(-(b * d), a * d)
        return _gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        n = w.re * w.re + w.im * w.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _gaussian(
            (self.re * w.re + self.im * w.im) / n,
            (self.im * w.re - self.re * w.im) / n,
        )

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w / self

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return _gaussian(self.re, -self.im)

    def __eq__(self, other):
        if type(other) is int:  # the unit and zero tests, with no coercion
            return self.re == other and self.im == 0
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self.re == w.re and self.im == w.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


# the slot setters behind _gaussian; GaussianRational.__setattr__ refuses assignment
_set_re, _set_im = GaussianRational.re.__set__, GaussianRational.im.__set__


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    """Trusted constructor of Q(i) results: both parts are already Fractions."""
    out = object.__new__(GaussianRational)
    _set_re(out, re)
    _set_im(out, im)
    return out


class _SignatureFields(NamedTuple):
    p: int
    q: int
    complexified: bool = False


class Signature(_SignatureFields):
    """Quadratic form signature: p pluses, q minuses, optionally complexified."""

    __slots__ = ()

    cuts = 0  # one block: every pair of distinct generators anticommutes

    def __new__(cls, p: int, q: int, complexified: bool = False):
        for v in (p, q):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"invalid signature ({p!r}, {q!r})")
        if not isinstance(complexified, bool):  # a truthy "no" would complexify
            raise ValueError(f"invalid signature ({p!r}, {q!r}, complexified={complexified!r})")
        return super().__new__(cls, p, q, complexified)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def minus_mask(self) -> int:
        return ((1 << self.q) - 1) << self.p


def _sign_flips(b: int, sig) -> int:
    """F(b): e_a e_b has sign (-1)^popcount(a & F(b)).

    A prefix parity of b << 1 by doubling shifts, restarted at each cut,
    XORed with b's generators that square to -1."""
    cuts, n = sig.cuts, sig.n
    x = (b << 1) & ~cuts
    shift = 1
    while shift < n:
        x ^= (x << shift) & ~cuts
        cuts |= cuts << shift
        shift <<= 1
    return x ^ (b & sig.minus_mask)


def blade_product(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Geometric product of two basis blades: returns (sign, result mask)."""
    top = 1 << sig.n
    if not (0 <= a < top and 0 <= b < top):
        raise ValueError(f"blade mask out of range for {sig.n} generators")
    return (-1 if (a & _sign_flips(b, sig)).bit_count() & 1 else 1), a ^ b


def blade_square(m: int, sig) -> int:
    """Q(m), the sign of e_m e_m. In one block (cuts = 0) popcount(m & F(m)) counts,
    for each generator of m, the generators of m below it, g(g - 1)/2 for grade g,
    plus m's generators that square to -1; with cuts, F itself is read."""
    if sig.cuts:
        return -1 if (m & _sign_flips(m, sig)).bit_count() & 1 else 1
    g = m.bit_count()
    return -1 if (g * (g - 1) // 2 + (m & sig.minus_mask).bit_count()) & 1 else 1


def anticommute_mask(b: int, sig) -> int:
    """beta(., b) as an n-bit mask c: e_a e_b = (-1)^popcount(a & c) e_b e_a.

    beta(a, b) = popcount(a & F(b)) + popcount(b & F(a)) mod 2, so c = F(b) ^ F^T(b):
    b XOR each block in which b has odd parity (the -1 squares cancel). That
    parity is read at the block's top bit of b ^ F(b) ^ (b & minus_mask), the
    parity of b up to that bit; F's bits at and above n are never read. In one
    block (cuts = 0) that parity is b's grade, with no F."""
    if not sig.cuts:
        return b ^ ((1 << sig.n) - 1) if b.bit_count() & 1 else b
    upto = b ^ _sign_flips(b, sig) ^ (b & sig.minus_mask)
    c, lo = b, 0
    tops = sig.cuts | 1 << sig.n  # each block ends below a cut or at n
    while tops:
        hi = (tops & -tops).bit_length() - 1
        tops &= tops - 1
        if hi > lo and upto >> (hi - 1) & 1:
            c ^= (1 << hi) - (1 << lo)
        lo = hi
    return c


def blades_anticommute(masks, sig) -> bool:
    """e_a e_b = -e_b e_a, that is beta(a, b) odd, for every pair of masks."""
    betas = [anticommute_mask(a, sig) for a in masks]
    return all((b & c).bit_count() & 1 for i, c in enumerate(betas) for b in masks[i + 1:])


def omega_square(sig: Signature) -> int:
    """Sign of the square of the volume element, always +1 or -1."""
    return blade_square((1 << sig.n) - 1, sig)


def _splits_center(mask: int, c: int, sig) -> bool:
    """Whether alpha = i^c e_mask splits the algebra through lambda+- = (1 +- alpha)/2.

    alpha is central when every e_i commutes with e_mask, that is beta(., mask) = 0
    (e_i maps distinct masks to distinct masks, and the phase commutes); and
    lambda+-^2 - lambda+- = -lambda+ lambda- = (alpha^2 - 1)/4, zero exactly when
    alpha^2 = (-1)^c Q(mask) = 1."""
    return not anticommute_mask(mask, sig) and (-1 if c & 1 else 1) * blade_square(mask, sig) == 1


def _product_terms(left: dict, right: dict, sig) -> dict:
    """Terms of left * right, for int, Fraction or GaussianRational terms.

    A one-term left e_a times more terms reads each sign as popcount(b & G),
    G = beta(., a) ^ F(a) (F transposed, one mask per product); its masks a ^ b
    are distinct, so nothing is accumulated or tested for zero, and ca = 1 is
    not multiplied; each coefficient object is negated at most once."""
    if len(left) == 1 and len(right) > 1:
        (a, ca), = left.items()
        g = anticommute_mask(a, sig) ^ _sign_flips(a, sig)
        if ca == 1:
            out, negs = {}, {}
            for b, cb in right.items():
                if (b & g).bit_count() & 1:
                    nb = negs.get(id(cb))
                    if nb is None:
                        nb = negs[id(cb)] = -cb
                    cb = nb
                out[a ^ b] = cb
            return out
        neg = -ca
        return {a ^ b: (neg if (b & g).bit_count() & 1 else ca) * cb for b, cb in right.items()}
    out = {}
    right = [(b, cb, _sign_flips(b, sig)) for b, cb in right.items()]
    for a, ca in left.items():
        for b, cb, flips in right:
            mask = a ^ b
            c = ca * cb
            if (a & flips).bit_count() & 1:
                c = -c
            cur = out.get(mask)
            nv = c if cur is None else cur + c
            if nv:
                out[mask] = nv
            else:
                out.pop(mask, None)
    return out


def _coerce_coeff(sig: Signature, value):
    if sig.complexified:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value, 0)
        raise TypeError(f"bad coefficient {value!r}")
    if isinstance(value, GaussianRational):
        if value.im != 0:
            raise ValueError("imaginary coefficient in a real signature")
        return value.re
    if type(value) is Fraction:  # immutable, so terms may share it
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"bad coefficient {value!r}")


class MV:
    """Sparse multivector: dict from blade bitmask to exact coefficient.

    `sig` is a Signature or any descriptor with the same `n`,
    `minus_mask`, `cuts` and `complexified` fields. Nothing in the package
    calls it. It stays only for the benchmark harness, `perfbench/spans.py`,
    which wraps its `__mul__` and `TensorMV`'s, and as the tests' oracle."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms=None):
        object.__setattr__(self, "sig", sig)
        clean = {}
        if terms:
            top = 1 << sig.n
            for mask, c in terms.items():
                if isinstance(mask, bool) or not isinstance(mask, int):
                    raise TypeError(f"blade mask {mask!r} is not an int")
                if not 0 <= mask < top:
                    raise ValueError(f"blade mask {mask:#x} out of range for {sig.n} generators")
                cc = _coerce_coeff(sig, c)
                if cc:
                    clean[mask] = cc
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MV is immutable")

    def _made(self, terms: dict) -> "MV":
        """Trusted constructor for this module's own results: terms must
        already be exact, nonzero and of the signature's coefficient type,
        so nothing is coerced again. The result keeps type(self)."""
        out = object.__new__(type(self))
        _set_sig(out, self.sig)
        _set_terms(out, terms)
        return out

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "MV":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value) -> "MV":
        return cls(sig, {0: value})

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff=1) -> "MV":
        return cls(sig, {mask: coeff})

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "MV":
        """The generator e_i, indexed from 1."""
        if not 1 <= i <= sig.n:
            raise ValueError(f"generator index {i} out of range 1..{sig.n}")
        return cls(sig, {1 << (i - 1): 1})

    # --- ring operations ----------------------------------------------

    def _check_sig(self, other: "MV"):
        if self.sig is not other.sig and self.sig != other.sig:
            raise ValueError(f"signature mismatch: {self.sig} vs {other.sig}")

    def __add__(self, other):
        if not isinstance(other, MV):
            return NotImplemented
        self._check_sig(other)
        out = dict(self.terms)
        for mask, c in other.terms.items():
            cur = out.get(mask)
            nv = c if cur is None else cur + c
            if nv:
                out[mask] = nv
            else:
                out.pop(mask, None)
        return self._made(out)

    def __sub__(self, other):
        if not isinstance(other, MV):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._made({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MV):
            self._check_sig(other)
            return self._made(_product_terms(self.terms, other.terms, self.sig))
        if isinstance(other, (int, Fraction, GaussianRational)):
            c0 = _coerce_coeff(self.sig, other)
            out = {m: c * c0 for m, c in self.terms.items()}
            return self._made(out if c0 else {})  # x * 0 has no terms
        return NotImplemented

    __rmul__ = __mul__  # scalars commute; an MV on the left takes __mul__

    def __eq__(self, other):
        if not isinstance(other, MV):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "MV(0)"
        bits = []
        for m in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            c = self.terms[m]
            if m == 0:
                bits.append(f"{c}")
            else:
                idx = "".join(str(i + 1) for i in range(m.bit_length()) if m >> i & 1)
                bits.append(f"{c}*e{idx}")
        return "MV(" + " + ".join(bits) + ")"


# the slot setters behind _made; MV.__setattr__ refuses plain assignment
_set_sig = MV.sig.__set__
_set_terms = MV.terms.__set__
