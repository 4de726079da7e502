"""Exact arithmetic for real and complexified Clifford algebras Cl(p, q).

A basis blade is a bitmask over the generators: bit i (counting from 0)
stands for the generator e_{i+1}. Generators e_1 .. e_p square to +1 and
e_{p+1} .. e_{p+q} square to -1. Coefficients are Fractions for a real
signature and GaussianRationals (pairs of Fractions) once the algebra is
complexified, so every product in this module is exact.

One sign rule serves every algebra in the package: e_a e_b equals
(-1)^popcount(a & F(b)) e_(a^b), where bit i of F(b) is the parity of the
generators of b below generator i, XORed with whether b holds generator i
and it squares to -1. A descriptor with a nonzero `cuts` mask (a tensor
product, see `cl8.tensoriso.ProductAlgebra`) counts that parity only inside
the block of i, so generators in different blocks commute. F(b) is
recomputed per product; there is no sign cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class GaussianRational:
    """Element of Q(i): a complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def __add__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(self.re + w.re, self.im + w.im)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(self.re - w.re, self.im - w.im)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(w.re - self.re, w.im - self.im)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(
            self.re * w.re - self.im * w.im,
            self.re * w.im + self.im * w.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        n = w.re * w.re + w.im * w.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * w.re + self.im * w.im) / n,
            (self.im * w.re - self.re * w.im) / n,
        )

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
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


@dataclass(frozen=True)
class Signature:
    """Quadratic form signature: p pluses, q minuses, optionally complexified."""

    p: int
    q: int
    complexified: bool = False

    cuts = 0  # one block: every pair of distinct generators anticommutes

    def __post_init__(self):
        for v in (self.p, self.q):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"invalid signature ({self.p!r}, {self.q!r})")

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
    cuts = sig.cuts
    x = (b << 1) & ~cuts
    shift = 1
    while shift < sig.n:
        x ^= (x << shift) & ~cuts
        cuts |= cuts << shift
        shift <<= 1
    return x ^ (b & sig.minus_mask)


def blade_product(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Geometric product of two basis blades: returns (sign, result mask)."""
    top = 1 << sig.n
    if not (0 <= a < top and 0 <= b < top):
        raise ValueError(f"blade mask out of range for Cl({sig.p},{sig.q})")
    return (-1 if (a & _sign_flips(b, sig)).bit_count() & 1 else 1), a ^ b


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
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"bad coefficient {value!r}")


class MV:
    """Sparse multivector: dict from blade bitmask to exact coefficient.

    `sig` is a Signature or any descriptor with the same `n`,
    `minus_mask`, `cuts` and `complexified` fields."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms=None):
        object.__setattr__(self, "sig", sig)
        clean = {}
        if terms:
            for mask, c in terms.items():
                cc = _coerce_coeff(sig, c)
                if cc:
                    clean[mask] = cc
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MV is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "MV":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value) -> "MV":
        return cls(sig, {0: value})

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff=1) -> "MV":
        if not 0 <= mask < (1 << sig.n):
            raise ValueError(f"blade mask {mask:#x} out of range for Cl({sig.p},{sig.q})")
        return cls(sig, {mask: coeff})

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "MV":
        """The generator e_i, indexed from 1."""
        if not 1 <= i <= sig.n:
            raise ValueError(f"generator index {i} out of range 1..{sig.n}")
        return cls(sig, {1 << (i - 1): 1})

    # --- ring operations ----------------------------------------------

    def _check_sig(self, other: "MV"):
        if self.sig != other.sig:
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
        return type(self)(self.sig, out)

    def __sub__(self, other):
        if not isinstance(other, MV):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(self.sig, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MV):
            self._check_sig(other)
            out = {}
            sig = self.sig
            right = [(b, cb, _sign_flips(b, sig)) for b, cb in other.terms.items()]
            for a, ca in self.terms.items():
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
            return type(self)(sig, out)
        if isinstance(other, (int, Fraction, GaussianRational)):
            c0 = _coerce_coeff(self.sig, other)
            return type(self)(self.sig, {m: c * c0 for m, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c0 = _coerce_coeff(self.sig, other)
            return type(self)(self.sig, {m: c0 * c for m, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, MV):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # --- structure ------------------------------------------------------

    def grade_part(self, k: int) -> "MV":
        return MV(self.sig, {m: c for m, c in self.terms.items() if m.bit_count() == k})

    def even_part(self) -> "MV":
        return MV(self.sig, {m: c for m, c in self.terms.items() if m.bit_count() % 2 == 0})

    def odd_part(self) -> "MV":
        return MV(self.sig, {m: c for m, c in self.terms.items() if m.bit_count() % 2 == 1})

    def grades(self) -> set:
        return {m.bit_count() for m in self.terms}

    def scalar_part(self):
        zero = _coerce_coeff(self.sig, 0)
        return self.terms.get(0, zero)

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


_INVOLUTION_SIGNS = {
    "grade_involution": lambda k: -1 if k % 2 else 1,
    "reversion": lambda k: -1 if (k * (k - 1) // 2) % 2 else 1,
    "conjugation": lambda k: -1 if (k * (k + 1) // 2) % 2 else 1,
}


def involute(x: MV, kind: str) -> MV:
    """Apply one of the three canonical involutions, selected by name."""
    try:
        sign = _INVOLUTION_SIGNS[kind]
    except KeyError:
        raise ValueError(f"unknown involution {kind!r}") from None
    out = {}
    for m, c in x.terms.items():
        out[m] = -c if sign(m.bit_count()) < 0 else c
    return MV(x.sig, out)


def volume_element(sig: Signature) -> MV:
    """The oriented unit volume e_1 e_2 ... e_n."""
    return MV.blade(sig, (1 << sig.n) - 1)


def omega_square(sig: Signature) -> int:
    """Sign of the square of the volume element, always +1 or -1."""
    full = (1 << sig.n) - 1
    sign, mask = blade_product(full, full, sig)
    assert mask == 0
    return sign


def even_subalgebra_basis(sig: Signature) -> list[int]:
    """All even-grade blade masks, in (grade, mask) order."""
    masks = [m for m in range(1 << sig.n) if m.bit_count() % 2 == 0]
    masks.sort(key=lambda m: (m.bit_count(), m))
    return masks
