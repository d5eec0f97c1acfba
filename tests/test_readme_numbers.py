"""Numbers the README quotes, recomputed to the digits it quotes them to.

Each checked number or table carries a marker on the line before it,
``<!-- readme-number: NAME (tests/test_readme_numbers.py) -->``, and one
test here reads the marked text back and recomputes it.  The quoted
rounding is the tolerance: a cell holds when the computed value, rounded
to the cell's significant digits, is the cell's number.  A number the
README quotes as a bound holds when the computed value, so rounded, is
at most the number.
"""

import re
from decimal import Decimal
from pathlib import Path

import numpy as np

from entangle.dynamics import run_pipeline
from entangle.experiments import EN_THRESHOLD, PARAMS, SWEEPS, default_baseline
from entangle.model import TWO_PI

from bare_mode_oracle import KAPPA_B_LINE, bare_mode_covariance, symplectic_log_negativity

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


def marked_item(name):
    """The list item after the marker ``name``, its lines joined by single
    spaces."""
    text = README.read_text()
    start = text.index(f"<!-- readme-number: {name} ")
    first, *rest = text[start:].splitlines()[1:]
    item = [first]
    for line in rest:
        if not line.startswith("  "):
            break
        item.append(line)
    return " ".join(line.strip() for line in item)


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


def test_oracle_agreement_along_the_kappa_b_line():
    # "Acceptance status": the largest deviation of run_pipeline from the
    # bare-mode oracle along the kappa_b line, relative, in E_N(+,-) and
    # in the covariance; the README quotes bounds
    quoted_e_n, quoted_cov = re.search(
        r"agrees with `run_pipeline` to `(\S+)` relative in `E_N` along the "
        r"line \(`(\S+)` in the covariance\)", marked_item("oracle-agreement")).groups()
    base = default_baseline()
    e_n_dev = cov_dev = 0.0
    for kappa_b in KAPPA_B_LINE.values():
        params = base.params(kappa_b=PARAMS["kappa_b"].angular(kappa_b))
        result = run_pipeline(params, target_g_minus=base.target_g_minus)
        cov = bare_mode_covariance(params, base.target_g_minus)
        e_n = symplectic_log_negativity(cov[:4, :4])
        e_n_dev = max(e_n_dev, abs(result.e_n_pp - e_n) / e_n)
        cov_dev = max(cov_dev, np.linalg.norm(result.state.cov - cov) / np.linalg.norm(cov))
    assert as_quoted(e_n_dev, quoted_e_n) <= float(quoted_e_n)
    assert as_quoted(cov_dev, quoted_cov) <= float(quoted_cov)


def test_temperature_crossing():
    # "Acceptance status": E_N(+,-) on both sides of the 0.1 mK scan, the
    # default temperature grid's t_crit_mk, and n_+ and n_- at each
    (e_n_below, t_below, e_n_above, t_above, n_scan, step, t_crit, n_crit) = re.search(
        r"`E_N` is `(\S+)` at (\S+) mK and (\S+) at (\S+) mK \(`n_± = (\S+)`\), "
        r"and the default (\S+) mK grid reports `t_crit_mk = (\S+)` \(`n_± = (\S+)`\)",
        marked_item("temperature-crossing")).groups()
    assert float(Decimal(t_above) - Decimal(t_below)) == 0.1
    base = default_baseline()
    temperature = PARAMS["temperature"]
    scan = base.evaluate_all({"temperature": temperature.angular(
        np.array([float(t_below), float(t_above)]))})
    assert as_quoted(scan.e_n_pp[0], e_n_below) == float(e_n_below)
    assert scan.e_n_pp[1] == float(e_n_above) == 0.0
    assert [as_quoted(n[0], n_scan) for n in (scan.basis.n_plus, scan.basis.n_minus)] \
        == [float(n_scan)] * 2
    # t_crit_mk: the first grid temperature below EN_THRESHOLD at the
    # baseline's kappa_b, 100 Hz
    temps = SWEEPS["temp_kappa_b"].defaults[0].values()
    assert as_quoted(temps[1] - temps[0], step) == float(step)
    line = base.evaluate_all({"temperature": temperature.angular(temps)})
    crit = np.flatnonzero(~(line.e_n_pp >= EN_THRESHOLD))[0]
    assert as_quoted(temps[crit], t_crit) == float(t_crit)
    assert [as_quoted(n[crit], n_crit) for n in (line.basis.n_plus, line.basis.n_minus)] \
        == [float(n_crit)] * 2


def test_omega_c_shift_crossings():
    # "Acceptance status": the kappa_b crossing (ten points a decade) with
    # omega_c shifted at a fixed drive frequency, and the frequency shift
    # -|g_pm|^2 / (2 omega_b) of c at the default point.  That -1.6 MHz is
    # the self-consistent shift is not checked: the package does not
    # compute it
    text = marked_item("omega_c-shift")
    shifts = re.search(r"`omega_c` by (\S+), (\S+) and (\S+) MHz", text).groups()
    crossings = re.search(r"the crossing \(ten points a decade\) to (\S+), (\S+) and "
                          r"(\S+) Hz", text).groups()
    fed_back, fed_back_crossing = re.search(
        r"shift of (\S+) MHz\) moves it to (\S+) Hz", text).groups()
    shifts, crossings = shifts + (fed_back,), crossings + (fed_back_crossing,)
    shift_hz = re.search(r"in `couplings`: (-[\d ]+\.\d+) Hz", text).group(1).replace(" ", "")

    kappa_b = KAPPA_B_LINE.values()
    assert np.array_equal(np.log10(kappa_b[[0, 10]]), [2.0, 3.0])  # ten a decade
    base = default_baseline()
    params = base.params()
    computed = []
    for shift in shifts:
        omega_c = params.omega_c + PARAMS["omega_c"].angular(1e6 * float(shift))
        line = base.evaluate_all({"g": params.g, "omega_c": omega_c, "omega_0": params.omega_0,
                                  "kappa_b": PARAMS["kappa_b"].angular(kappa_b)})
        computed.append(kappa_b[np.flatnonzero(~(line.e_n_pp >= EN_THRESHOLD))[0]])
    assert [as_quoted(value, quoted) for value, quoted in zip(computed, crossings)] \
        == [float(quoted) for quoted in crossings]

    g_pm = base.evaluate().couplings.g_pm
    assert as_quoted(-abs(g_pm) ** 2 / (2.0 * params.omega_b) / TWO_PI, shift_hz) \
        == float(shift_hz)
