"""The spec parser's limits: deep nesting, non-ASCII digits and integers
too long for int() are ParseErrors, and every power and `*` chain is
charged against the budget before it expands."""

import json

import pytest

from zetakit.cli import main
from zetakit.errors import BudgetExceeded, ParseError
from zetakit.polynomials import Poly

DEEP = ["(" * 1000 + "x0" + ")" * 1000, "-" * 1000 + "x0"]
BASE = "(x0 + x1 + x2 + x3 + 1)"


@pytest.mark.parametrize("text", DEEP, ids=["parentheses", "minus signs"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        Poly.parse(text, 1)


@pytest.mark.parametrize("text", DEEP, ids=["parentheses", "minus signs"])
def test_deep_nesting_in_a_spec_exits_2(tmp_path, capsys, text):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"ambient": {"type": "affine", "dim": 1},
                                "equations": [text]}))
    code = main(["zeta", "--spec", str(path), "--p", "3", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "nested too deeply" in captured.err


def test_shallow_nesting_still_parses():
    assert Poly.parse("(" * 50 + "x0" + ")" * 50, 1) == Poly.variable(1, 0)
    assert Poly.parse("-" * 51 + "x0", 1) == -Poly.variable(1, 0)


@pytest.fixture()
def products(monkeypatch):
    """Every Poly product, as the term counts of its two sides."""
    seen = []
    mul = Poly.__mul__

    def counted(self, other):
        other = self._coerce(other)
        seen.append((len(self.terms), len(other.terms)))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    return seen


def test_a_product_chain_is_charged_before_its_first_product(monkeypatch, products):
    # sum over i of min(5^i, C(4 + i, 4)) * 5 = 212515 term products
    monkeypatch.setenv("ZETAKIT_BUDGET", "10")
    with pytest.raises(BudgetExceeded) as info:
        Poly.parse("*".join([BASE] * 20), 4)
    assert info.value.estimate == 212515
    assert products == []
    monkeypatch.setenv("ZETAKIT_BUDGET", "212515")
    result = Poly.parse("*".join([BASE] * 20), 4)
    assert len(result.terms) == 10626  # the monomials of degree <= 20 in 4 variables
    assert sum(a * b for a, b in products) <= 212515


def test_a_long_chain_is_refused_under_the_default_budget(products):
    # ~1.0e11 term products for 300 factors
    with pytest.raises(BudgetExceeded) as info:
        Poly.parse("*".join([BASE] * 300), 4)
    assert 1.0e11 < info.value.estimate < 1.1e11
    assert products == []


def test_a_cheap_chain_parses(products):
    # sum over i < 30 of min(2^i, i + 1) * 2 = 928 term products
    result = Poly.parse("*".join(["(x0 + 1)"] * 30), 1)
    assert len(result.terms) == 31
    assert sum(a * b for a, b in products) <= 928


def test_charges_add_up_over_one_parse(monkeypatch):
    chain = "*".join([BASE] * 20)  # 212515 term products
    power = BASE + "^20"  # 5 * C(24, 5) = 212520 term products
    monkeypatch.setenv("ZETAKIT_BUDGET", "300000")
    assert Poly.parse(chain, 4) == Poly.parse(power, 4)
    for text in (f"{chain} + {chain}", f"{chain} - {power}", f"({power})*x0 + {chain}"):
        with pytest.raises(BudgetExceeded):
            Poly.parse(text, 4)


@pytest.mark.parametrize("text, message", [
    ("\u00b2", "unexpected character"),
    ("x\u00b2", "expected variable index"),
    ("x0^\u00b2", "expected integer exponent"),
    ("\u0663", "unexpected character"),
    ("9" * 5000, "integer of 5000 digits is too long"),
], ids=["superscript", "superscript-index", "superscript-exponent", "arabic-indic",
        "5000-digit"])
def test_digits_int_cannot_read_are_a_parse_error(text, message):
    with pytest.raises(ParseError, match=message):
        Poly.parse(text, 2)


def test_ascii_digits_still_parse():
    assert Poly.parse("12 + 3*x1^10", 2) == Poly.parse("x1^10*3 + 12", 2)
