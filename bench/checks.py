"""Output checks for the benchmark workloads.

Every check returns a list of failure messages (empty when the output is
correct).  The checks use only properties the method must have and
reference values the benchmark computes itself, never figures copied from
an earlier run: chaotic closed-loop statistics differ across machines, so a
golden number would fail a correct program.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances of the checks, fixed here so that no caller can loosen one.

# The predictive gain over 9-bit memoryless at the slowest beta that the
# method promises (acceptance criterion 4).
MIN_GAP_DB = 13.0

# perfect_csi rows against the benchmark's own zero-forcing Monte Carlo: two
# independent means of the same quantity, so any larger gap is a fault.
REFERENCE_SIGMAS = 5.0

# From ORDER_SNR_DB up, gpc at the slow Doppler must be at or above gpc at
# the fast Doppler and memoryless_random.  Below STRICT_ORDER_SNR_DB the
# comparison allows ORDER_SIGMAS combined standard errors: over 40 seeds of
# the sumrate workload the 10 dB gap over fast gpc had a median of 1.0 bit,
# only 2.3 standard errors of a 40-trial mean, and fell to -0.7 standard
# errors.  From 20 dB up it was never under 4.0 standard errors, so those
# comparisons allow nothing.
ORDER_SNR_DB = 10.0
STRICT_ORDER_SNR_DB = 20.0
ORDER_SIGMAS = 3.0


def memoryless_bound(n: int, size: int) -> float:
    """Fixed-rate lower bound ((n-1)/n) * N^(-1/(n-1)) on the mean squared
    chordal error of any N-word one-shot quantizer on G(n,1)."""
    return (n - 1) / n * size ** (-1.0 / (n - 1))


def db(value: float) -> float:
    return 10.0 * math.log10(value)


def parse_csv(text: str) -> list[dict]:
    """Rows of a grasspc CSV (provenance lines skipped) as dicts; numeric
    fields become floats."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, field in zip(columns, line.split(",")):
            try:
                row[key] = float(field)
            except ValueError:
                row[key] = field
        rows.append(row)
    return rows


def data_rows(text: str) -> list[str]:
    """The CSV lines that carry results (the provenance header names paths)."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def _rising(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# mse


def check_mse(rows: list[dict], spec: dict) -> list[str]:
    """Memoryless rows respect the fixed-rate bound and shrink with bits; the
    predictive row rises with beta and beats 9-bit memoryless by the gap the
    method promises at the slowest beta."""
    failures = []
    n, betas = spec["n"], list(spec["beta_grid"])
    table = {(r["scheme"], int(r["bits"]), r["beta"]): r["mse_db"] for r in rows}
    expected = {("gpc", spec["bits"], b) for b in betas} | {
        ("memoryless", m, b) for m in spec["memoryless_bits_grid"] for b in betas
    }
    if set(table) != expected or len(rows) != len(expected):
        return [f"mse rows {sorted(table)} do not match the config {sorted(expected)}"]
    for bits in spec["memoryless_bits_grid"]:
        bound = db(memoryless_bound(n, 2**bits))
        for beta in betas:
            if not table["memoryless", bits, beta] >= bound:
                failures.append(
                    f"memoryless {bits}-bit at beta={beta}: {table['memoryless', bits, beta]} dB "
                    f"is below the fixed-rate bound {bound:.4f} dB"
                )
    low, high = min(spec["memoryless_bits_grid"]), max(spec["memoryless_bits_grid"])
    for beta in betas:
        if not table["memoryless", high, beta] < table["memoryless", low, beta]:
            failures.append(f"memoryless {high}-bit is not below {low}-bit at beta={beta}")
    gpc = [table["gpc", spec["bits"], b] for b in sorted(betas)]
    if not _rising(gpc):
        failures.append(f"predictive row {gpc} does not rise with beta")
    slow = min(betas)
    gap = table["memoryless", high, slow] - table["gpc", spec["bits"], slow]
    if not gap >= MIN_GAP_DB:
        failures.append(f"predictive gain at beta={slow} is {gap:.2f} dB < {MIN_GAP_DB} dB")
    return failures


# ---------------------------------------------------------------------------
# sumrate


def zf_reference(n_t: int, users: int, snr_db_grid, uses: int, seed: int):
    """Monte-Carlo mean sum rate of zero-forcing with perfect CSI on i.i.d.
    CN(0,1) channels, with its standard error, one value per SNR.

    With unit-norm zero-forcing beams the effective gain of user u is
    1 / [(H H^H)^-1]_uu, so no beamformer is built explicitly.
    """
    rng = np.random.default_rng([seed, 0x2F])
    shape = (uses, users, n_t)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    gram_inv = np.linalg.inv(h @ np.conj(np.swapaxes(h, 1, 2)))
    gain = 1.0 / np.diagonal(gram_inv, axis1=1, axis2=2).real
    power = 10.0 ** (np.asarray(snr_db_grid, dtype=float) / 10.0) / users
    rates = np.log2(1.0 + power[:, None, None] * gain[None]).sum(axis=2)
    return rates.mean(axis=1), rates.std(axis=1, ddof=1) / math.sqrt(uses)


def check_sumrate(rows: list[dict], spec: dict, reference) -> list[str]:
    """Means rise with SNR, perfect CSI matches the independent ZF
    computation, slow-fading tracking is at or above fast fading and
    memoryless feedback from 10 dB up, and the table has the configured
    shape."""
    failures = []
    snrs = list(spec["snr_db_grid"])
    cells = {}
    for r in rows:
        cells.setdefault((r["scheme"], r["fdts"]), []).append(r)
    expected = {("perfect_csi", 0.0), ("memoryless_random", 0.0)} | {
        ("gpc", f) for f in spec["fdts_grid"]
    }
    if set(cells) != expected or len(rows) != len(expected) * len(snrs):
        return [f"sumrate cells {sorted(cells)} x {len(rows)} rows do not match the config"]
    if any(int(r["trial_count"]) != spec["trials"] for r in rows):
        failures.append(f"trial_count differs from the configured {spec['trials']}")
    for key, group in cells.items():
        if [r["snr_db"] for r in group] != snrs:
            failures.append(f"{key}: SNR column {[r['snr_db'] for r in group]} != {snrs}")
        means = [r["sum_rate_mean"] for r in group]
        if not _rising(means):
            failures.append(f"{key}: mean sum rate {means} does not rise with SNR")
    ref_mean, ref_err = reference
    for row, m, e in zip(cells["perfect_csi", 0.0], ref_mean, ref_err):
        allowed = REFERENCE_SIGMAS * math.hypot(row["sum_rate_stderr"], e)
        if not abs(row["sum_rate_mean"] - m) <= allowed:
            failures.append(
                f"perfect_csi at {row['snr_db']} dB: {row['sum_rate_mean']} vs reference "
                f"{m:.4f} differs by more than {allowed:.4f}"
            )
    slow = ("gpc", min(spec["fdts_grid"]))
    for other in (("gpc", max(spec["fdts_grid"])), ("memoryless_random", 0.0)):
        for a, b in zip(cells[slow], cells[other]):
            if a["snr_db"] < ORDER_SNR_DB:
                continue
            allowed = 0.0
            if a["snr_db"] < STRICT_ORDER_SNR_DB:
                allowed = ORDER_SIGMAS * math.hypot(a["sum_rate_stderr"], b["sum_rate_stderr"])
            if not a["sum_rate_mean"] >= b["sum_rate_mean"] - allowed:
                failures.append(f"{slow} is below {other} at {a['snr_db']} dB")
    return failures


# ---------------------------------------------------------------------------
# feedback-link


def chordal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise chordal distance between unit rows, computed apart from the
    program: |rho| * ||y / rho - x|| is exact for nearly coincident rows."""
    rho = np.sum(np.conj(x) * y, axis=1)
    return np.abs(rho) * np.linalg.norm(y / rho[:, None] - x, axis=1)


def check_feedback(sessions: dict, spec: dict) -> list[str]:
    """``sessions`` maps each session tag to its arrays: ``observed``
    (trace rows), ``encoded`` and ``decoded`` estimates, ``errors`` (the
    program's estimate_errors), ``sent`` and ``received`` indices."""
    failures = []
    steps_expected = spec["steps"] - 2
    decoded_steps = {beta: 0 for beta in spec["betas"]}
    slow_sq = []
    for tag, s in sorted(sessions.items()):
        beta = float(s["beta"])
        decoded_steps[beta] = decoded_steps.get(beta, 0) + len(s["decoded"])
        if not np.array_equal(s["sent"], s["received"]):
            failures.append(f"{tag}: index stream changed in its file round trip")
        if s["decoded"].shape != s["encoded"].shape or not np.array_equal(
            s["decoded"], s["encoded"]
        ):
            failures.append(f"{tag}: decoded estimates differ from the encoder's")
        norms = np.linalg.norm(s["encoded"], axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            worst = float(np.max(np.abs(norms - 1.0)))
            failures.append(f"{tag}: estimate norms deviate from 1 by up to {worst:.3e}")
        if len(s["errors"]) != steps_expected or len(s["encoded"]) != steps_expected:
            failures.append(f"{tag}: {len(s['errors'])} encoded steps, expected {steps_expected}")
            continue
        recomputed = chordal(s["encoded"], s["observed"][2:])
        if not np.allclose(recomputed, s["errors"], rtol=0.0, atol=1e-10):
            failures.append(f"{tag}: estimate_errors disagree with the coordinates")
        if beta == min(spec["betas"]):
            slow_sq.append(recomputed**2)
    for beta, count in decoded_steps.items():
        if count != spec["trials"] * steps_expected:
            failures.append(
                f"beta={beta}: {count} decoded steps, expected "
                f"{spec['trials']} x {steps_expected}"
            )
    bound = memoryless_bound(spec["n"], spec["n_d"] * spec["n_m"])
    if not slow_sq:
        failures.append("no slow-Doppler session to check")
    elif not float(np.mean(np.concatenate(slow_sq))) < bound:
        failures.append(
            f"pooled tracking error at beta={min(spec['betas'])} is not below the "
            f"memoryless bound {bound:.5f}"
        )
    return failures
