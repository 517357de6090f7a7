"""Exact sparse multivariate polynomials over the rationals.

Coefficients are fractions.Fraction throughout; there is deliberately no
floating-point evaluation here, since the certification pipeline built on
top must be exact end to end.  The zero polynomial is the empty term map
and reports degree -1.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .errors import InputError
from .multiindex import MultiIndex, order
from .ratmat import over_common_denominator


class PolynomialFormatError(InputError):
    """Raised when serialized polynomial data violates the format contract."""


_SIGNED_DIGITS = re.compile(r"-?[0-9]+")
_DIGITS = re.compile(r"[0-9]+")


def decimal_num_den(num, den) -> tuple[int, int]:
    """The integers of a serialized fraction {"num": "-3", "den": "4"}.

    ``num`` must be a string of decimal digits with an optional leading
    minus sign and ``den`` a string of digits; anything else (a JSON
    number, a boolean, a sign on the denominator) raises ValueError.
    """
    if not (
        isinstance(num, str)
        and _SIGNED_DIGITS.fullmatch(num)
        and isinstance(den, str)
        and _DIGITS.fullmatch(den)
    ):
        raise ValueError(f"num/den must be decimal strings, got {num!r}/{den!r}")
    return int(num), int(den)


class SparsePolynomial:
    """Map from exponent vectors to nonzero rational coefficients.

    ``terms`` is never mutated after construction (every operation builds
    a new polynomial), so ``evaluate`` keeps the plan it derives from it.
    """

    __slots__ = ("nvars", "terms", "_plan")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        clean: dict[MultiIndex, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars or any((not isinstance(e, int)) or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for nvars={nvars}")
            coeff = Fraction(coeff)
            if coeff:
                clean[exp] = clean.get(exp, Fraction(0)) + coeff
        self.terms = {e: c for e, c in clean.items() if c}
        self._plan = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePolynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "SparsePolynomial":
        return cls(nvars, {tuple(0 for _ in range(nvars)): Fraction(value)})

    @classmethod
    def monomial(cls, exp, coeff=1) -> "SparsePolynomial":
        exp = tuple(exp)
        return cls(len(exp), {exp: Fraction(coeff)})

    # -- ring operations ----------------------------------------------

    def _check_same(self, other: "SparsePolynomial"):
        if self.nvars != other.nvars:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.nvars, other)
        self._check_same(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + coeff
        return SparsePolynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return self.scale(other)
        self._check_same(other)
        terms: dict[MultiIndex, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, Fraction(0)) + c1 * c2
        return SparsePolynomial(self.nvars, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "SparsePolynomial":
        c = Fraction(c)
        return SparsePolynomial(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "SparsePolynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = SparsePolynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries ------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point (see ``over_common_denominator``).

        Integer arithmetic throughout: with the point as p / D over one
        common denominator D and the coefficients as c_e / C over theirs,
        the value is sum c_e * p^e * D^(deg - |e|) over C * D^deg, the one
        Fraction built.  The plan (C, deg, and per term c_e, deg - |e| and
        the nonzero exponents) is built on the first call.
        """
        nums, den = over_common_denominator(point)
        if len(nums) != self.nvars:
            raise ValueError("dimension mismatch")
        if not self.terms:
            return Fraction(0)
        if self._plan is None:
            coeffs, cden = over_common_denominator(self.terms.values())
            deg = self.degree()
            plan = [
                (c, deg - order(e), [(i, x) for i, x in enumerate(e) if x])
                for e, c in zip(self.terms, coeffs)
            ]
            self._plan = cden, deg, plan
        cden, deg, plan = self._plan
        total = 0
        for coeff, lift, nonzero in plan:
            val = coeff * den**lift
            for i, e in nonzero:
                val *= nums[i] ** e
            total += val
        return Fraction(total, cden * den**deg)

    def degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        return max((order(e) for e in self.terms), default=-1)

    def support(self) -> list[MultiIndex]:
        return sorted(self.terms)

    def coefficient(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    # -- transformations ----------------------------------------------

    def homogenize(self) -> "SparsePolynomial":
        """Multiply each term by x_{n+1}^(d - |q|), d the (even) degree."""
        d = self.degree()
        if d < 0:
            return SparsePolynomial.zero(self.nvars + 1)
        if d % 2:
            raise ValueError("homogenization requires even degree")
        terms = {exp + (d - order(exp),): c for exp, c in self.terms.items()}
        return SparsePolynomial(self.nvars + 1, terms)

    def dehomogenize(self) -> "SparsePolynomial":
        """Substitute x_{n+1} = 1 and drop the last variable."""
        if self.nvars < 2:
            raise ValueError("need at least two variables")
        terms: dict[MultiIndex, Fraction] = {}
        for exp, coeff in self.terms.items():
            key = exp[:-1]
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return SparsePolynomial(self.nvars - 1, terms)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
                for exp, c in sorted(self.terms.items())
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data) -> "SparsePolynomial":
        if not isinstance(data, dict) or set(data) != {"nvars", "terms"}:
            raise PolynomialFormatError("expected object with keys nvars, terms")
        nvars = data["nvars"]
        if type(nvars) is not int or nvars < 1:
            raise PolynomialFormatError("nvars must be a positive integer")
        if not isinstance(data["terms"], list):
            raise PolynomialFormatError("terms must be a list")
        terms = {}
        previous = None
        for item in data["terms"]:
            if not isinstance(item, dict) or set(item) != {"exp", "num", "den"}:
                raise PolynomialFormatError("term must have keys exp, num, den")
            exp = item["exp"]
            if (
                not isinstance(exp, list)
                or len(exp) != nvars
                or any(type(e) is not int or e < 0 for e in exp)
            ):
                raise PolynomialFormatError(f"bad exponent vector {exp}")
            exp = tuple(exp)
            if previous is not None and exp <= previous:
                raise PolynomialFormatError("terms must be strictly lex-sorted")
            previous = exp
            try:
                num, den = decimal_num_den(item["num"], item["den"])
            except ValueError as err:
                raise PolynomialFormatError(str(err)) from err
            if den <= 0:
                raise PolynomialFormatError("denominator must be positive")
            if num == 0:
                raise PolynomialFormatError("zero coefficients may not be stored")
            if gcd(num, den) != 1:
                raise PolynomialFormatError("num/den must be coprime")
            terms[exp] = Fraction(num, den)
        return cls(nvars, terms)

    @classmethod
    def loads(cls, text: str) -> "SparsePolynomial":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise PolynomialFormatError(f"invalid JSON: {err}") from err
        return cls.from_json_dict(data)

    # -- display -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = ["x", "y", "z", "w"] if self.nvars <= 4 else [f"x{i}" for i in range(self.nvars)]
        pieces = []
        for exp, coeff in sorted(self.terms.items(), key=lambda t: (-order(t[0]), t[0])):
            mono = "*".join(
                names[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            if not mono:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(mono)
            elif coeff == -1:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{coeff}*{mono}")
        text = " + ".join(pieces)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"SparsePolynomial({self.nvars}, {self})"
