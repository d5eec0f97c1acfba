"""Numbers the README quotes, recomputed to the digits it quotes them to.

Each checked number or table carries a marker on the line before it,
``<!-- readme-number: NAME (tests/test_readme_numbers.py) -->``, and one
test here reads the marked text back and recomputes it.  The quoted
rounding is the tolerance: a cell holds when the computed value, rounded
to the cell's significant digits, is the cell's number.
"""

import re
from decimal import Decimal
from pathlib import Path

import numpy as np

from entangle.experiments import PARAMS, default_baseline

README = Path(__file__).resolve().parent.parent / "README.md"


def marked_table(name):
    """The cells of the Markdown table after the marker ``name``, one list
    of stripped cells per row, the separator row left out."""
    text = README.read_text()
    start = text.index(f"<!-- readme-number: {name} ")
    lines = text[start:].splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return [row for row in rows if not set("".join(row)) <= set("-: ")]


def as_quoted(value, quoted):
    """``value`` rounded to the significant digits of the text ``quoted``."""
    digits = len(Decimal(quoted).as_tuple().digits)
    return float(f"{value:.{digits - 1}e}")


def test_as_quoted_keeps_the_digits_of_the_text():
    assert as_quoted(0.29231, "0.292") == 0.292
    assert as_quoted(0.049349, "0.0493") == 0.0493
    assert as_quoted(7.9484e-4, "7.9e-4") == 7.9e-4
    assert as_quoted(7.9484e-4, "7.95e-4") == 7.95e-4
    assert as_quoted(0.2926, "0.292") != 0.292


def test_e_n_along_the_kappa_b_line():
    # "Acceptance status": E_N(+,-) at the default point along kappa_b,
    # all seven cells from one stack
    header, values = marked_table("e_n-along-kappa_b")
    assert header[0] == "`kappa_b/2pi` (Hz)"
    temperature_mk = float(re.fullmatch(r"`E_N` at (\S+) mK", values[0]).group(1))
    kappa_b = np.array([float(cell) for cell in header[1:]])
    stack = default_baseline().evaluate_all({
        "kappa_b": PARAMS["kappa_b"].angular(kappa_b),
        "temperature": PARAMS["temperature"].angular(temperature_mk),
    })
    assert stack.stable.all()
    computed = stack.e_n_pp.tolist()
    assert len(computed) == len(values[1:]) == 7
    assert [as_quoted(value, quoted) for value, quoted in zip(computed, values[1:])] \
        == [float(quoted) for quoted in values[1:]]
