"""Workload table, per-seed inputs and the reference-output check.

A workload is one fracflow scenario on one config template from
``configs/``.  The seed picks one of ``VARIANTS`` input variants, so any
seed maps to inputs whose reference outputs are recorded in
``reference.json``: for depth-search the variant is the program seed (it
draws the random descent starts); for the flow workloads it also sets how
far inside the well the flow starts (``initial.factor``).
"""

import csv
import json
import math
import os
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

VARIANTS = 8

#: relative tolerance on every float scalar of the reference check; loose
#: enough for reordered reductions and a different root-finder, tight
#: enough to catch a changed discretisation or a lost step
RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    config: str
    #: initial.factor is factor0 + factor_step * variant; None leaves the
    #: template's value
    factor0: float = None
    factor_step: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("depth-search", "geometry", "depth-search.cfg"),
        Workload("flow-explicit", "well", "flow-explicit.cfg", 0.36, 0.02),
        # the IMEX inner-iteration count grows with the amplitude, so its
        # variants span a narrow range to keep work per run nearly equal
        Workload("flow-imex-variable", "well", "flow-imex-variable.cfg", 0.40, 0.005),
    )
}


def variant_of(seed):
    return seed % VARIANTS


def config_text(workload, seed):
    """Config file text for ``seed``: the template with the variant's keys."""
    with open(os.path.join(HERE, "configs", workload.config)) as fh:
        text = fh.read()
    if workload.factor0 is None:
        return text
    factor = round(workload.factor0 + workload.factor_step * variant_of(seed), 10)
    text, n = re.subn(
        r"^initial\.factor\s*=.*$", "initial.factor = %r" % factor, text, flags=re.M
    )
    if n != 1:
        raise ValueError("template %s has no single initial.factor line" % workload.config)
    return text


def program_args(workload, seed, config_path, out_dir):
    """Arguments after ``python -m fracflow`` for one scenario run."""
    return [
        workload.scenario,
        "--config",
        config_path,
        "--seed",
        str(variant_of(seed)),
        "--out",
        out_dir,
    ]


# --- output check -------------------------------------------------------------

_VERDICT = re.compile(r"^(.+): (PASS|FAIL)\b")
_GEOMETRY = re.compile(r"\b(lambda_hat|depth_hat)\s*=\s*(\S+)")


def key_scalars(workload, stdout_text, out_dir):
    """The scalars the reference check compares, read from the run's
    printed summary and artifacts."""
    if workload.scenario == "geometry":
        with open(os.path.join(out_dir, "geometry_summary.txt")) as fh:
            return {k: float(v) for k, v in _GEOMETRY.findall(fh.read())}
    with open(os.path.join(out_dir, "trajectory.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    termination = re.search(r"^termination: (\S+)", stdout_text, flags=re.M)
    return {
        "termination": termination.group(1) if termination else None,
        "steps_accepted": len(rows) - 1,
        "E_initial": float(rows[0]["E"]),
        "E_final": float(rows[-1]["E"]),
        "l2_final": float(rows[-1]["l2"]),
    }


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_run(workload, seed, exit_code, stdout_text, out_dir, reference):
    """Return a list of problems; empty means the run is correct.

    A run is correct when it exits 0, prints at least one verdict and every
    verdict passes, and its key scalars match the reference for its variant
    (floats to RTOL, strings and counts exactly).
    """
    problems = []
    if exit_code != 0:
        problems.append("exit status %d" % exit_code)
    verdicts = [m.groups() for m in map(_VERDICT.match, stdout_text.splitlines()) if m]
    if not verdicts:
        problems.append("no verdict lines")
    problems += ["verdict %s: FAIL" % name for name, status in verdicts if status != "PASS"]
    try:
        got = key_scalars(workload, stdout_text, out_dir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return problems + ["cannot read outputs: %s" % exc]
    want = reference[workload.name][str(variant_of(seed))]
    for key, ref in want.items():
        val = got.get(key)
        if isinstance(ref, float):
            ok = isinstance(val, float) and math.isclose(val, ref, rel_tol=RTOL, abs_tol=0.0)
        else:
            ok = val == ref
        if not ok:
            problems.append("%s = %r, reference %r" % (key, val, ref))
    return problems
