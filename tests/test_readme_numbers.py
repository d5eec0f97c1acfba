"""Numbers the README quotes, recomputed to the digits it quotes them to.

Each checked number or table carries a marker on the line before it,
``<!-- readme-number: NAME (tests/test_readme_numbers.py) -->``, and one
test here reads the marked text back and recomputes it.  The quoted
rounding is the tolerance: a cell holds when the computed value, rounded
to the cell's significant digits, is the cell's number.  A number the
README quotes as a bound holds when the computed value, so rounded, is
at most the number, and a bare power of ten quoted as "about" or "near"
one holds when the computed value's decimal logarithm rounds to its
exponent.
"""

import math
import re
from decimal import Decimal
from pathlib import Path

import numpy as np

from entangle import gaussian
from entangle.dynamics import run_pipeline
from entangle.errors import EntangleError
from entangle.experiments import EN_THRESHOLD, PARAMS, SWEEPS, default_baseline
from entangle.model import TWO_PI, hbar, hybridize, k_B, thermal_occupation

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
    """The list item or paragraph after the marker ``name``, its lines
    joined by single spaces."""
    text = README.read_text()
    start = text.index(f"<!-- readme-number: {name} ")
    first, *rest = text[start:].splitlines()[1:]
    item = [first]
    for line in rest:
        # an item goes on in its indented lines, a paragraph to a blank one
        if not (line.startswith("  ") if first.startswith("* ") else line):
            break
        item.append(line)
    return " ".join(line.strip() for line in item)


def as_quoted(value, quoted):
    """``value`` rounded to the significant digits of the text ``quoted``."""
    digits = len(Decimal(quoted).as_tuple().digits)
    return float(f"{value:.{digits - 1}e}")


def as_power_of_ten(value):
    """The power of ten nearest ``value`` in decimal logarithm, as text
    such as ``1e301``."""
    return f"1e{round(math.log10(value))}"


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


def test_dimensionless_groups():
    # "Python API": the default baseline's groups and the quoted values
    # they come from
    (kappa_pm, linewidth, kappa_b, omega_b, n_b, omega_b_mhz, temperature_mk) = re.search(
        r"`kappa_±/omega_b = (\S+)` \(both bare linewidths are (\S+) MHz\), "
        r"`kappa_b/omega_b = (\S+)`, `omega_b/omega_a = (\S+)` and `n_b ≈ (\S+)` "
        r"\((\S+) MHz at (\S+) mK\)", marked_item("dimensionless-groups")).groups()
    assert [PARAMS[key].default for key in ("kappa_a", "kappa_c", "omega_b", "temperature")] \
        == [1e6 * float(linewidth)] * 2 + [1e6 * float(omega_b_mhz), float(temperature_mk)]
    params = default_baseline().params()
    basis = hybridize(params)
    assert [as_quoted(k / params.omega_b, kappa_pm)
            for k in (basis.kappa_plus, basis.kappa_minus)] == [float(kappa_pm)] * 2
    assert as_quoted(params.kappa_b / params.omega_b, kappa_b) == float(kappa_b)
    assert as_quoted(params.omega_b / params.omega_a, omega_b) == float(omega_b)
    assert as_quoted(basis.n_b, n_b) == float(n_b)


def test_polariton_occupations():
    # "Acceptance status": the polaritons' own thermal occupation, ln n of
    # omega_a and omega_± at 10 mK, and hbar omega_±/k_B T at t_crit_mk
    log_n, temperature_mk, ratio, t_crit = re.search(
        r"It is about `e\^(\S+)` at (\S+) mK .* where `hbar omega_±/k_B T ≈ (\S+)`"
        r".* reports `t_crit_mk = (\S+)`", marked_item("temperature-crossing")).groups()
    temperature = PARAMS["temperature"]
    params = default_baseline().params(temperature=temperature.angular(float(temperature_mk)))
    basis = hybridize(params)
    omegas = (params.omega_a, basis.omega_plus, basis.omega_minus)
    assert [as_quoted(math.log(thermal_occupation(omega, params.temperature)), log_n)
            for omega in omegas] == [float(log_n)] * 3
    hot = temperature.angular(float(t_crit))
    assert [as_quoted(hbar * omega / (k_B * hot), ratio) for omega in omegas[1:]] \
        == [float(ratio)] * 2


#: what the default point's errors say as its temperature rises, in order:
#: each is raised from its own threshold on until the next takes over
OVERFLOWS = ("overflow the block determinants", "||D||_F overflows",
             "(diffusion entries up to inf)", "the thermal occupation")


def overflow_threshold(stage):
    """The lowest temperature (K) from which the default point raises the
    error of :data:`OVERFLOWS` at ``stage`` or a later one, by bisection
    on log10 T in [0, 308]."""
    base = default_baseline()

    def raises(log_t):
        try:
            base.evaluate(temperature=10.0 ** log_t)
        except EntangleError as exc:
            return any(text in str(exc) for text in OVERFLOWS[stage:])
        return False

    lo, hi = 0.0, 308.0
    assert not raises(lo) and raises(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if raises(mid) else (mid, hi)
    return 10.0 ** hi


def test_noise_overflow_temperatures():
    # "Numerical notes": the temperatures from which the default point's
    # covariance, ||D||_F, the noise and n overflow, and the entry bound
    text = marked_item("noise-overflow")
    entry_max, cov_t = re.search(r"covariance entries exceed `(\S+)`, so the block "
                                 r"determinants would overflow \(on the default point "
                                 r"from about `(\S+) K`\)", text).groups()
    norm_t = re.search(r"overflows `\|\|D\|\|_F`, which squares each entry "
                       r"\(from about `(\S+) K`\)", text).group(1)
    inf_t = re.search(r"From about `(\S+) K` the polariton noise", text).group(1)
    n_t = re.search(r"Near `(\S+) K` the occupation `n` overflows", text).group(1)

    thresholds = [overflow_threshold(stage) for stage in range(len(OVERFLOWS))]
    assert [as_quoted(t, quoted) for t, quoted in zip(thresholds, (cov_t, norm_t))] \
        == [float(cov_t), float(norm_t)]
    assert [as_power_of_ten(t) for t in thresholds[2:]] == [inf_t, n_t]
    # just below the first threshold the largest entry is within the bound
    assert float(entry_max) == gaussian._ENTRY_MAX
    base = default_baseline()
    below = base.evaluate(temperature=thresholds[0] * (1.0 - 1e-5)).state.cov
    assert np.abs(below).max() <= gaussian._ENTRY_MAX
