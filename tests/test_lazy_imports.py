"""scipy loads only when an LP or a root is actually solved.

Importing any public package must leave ``scipy`` out of
``sys.modules``: only the §5.2 LP (``linprog``) and the bound
root-finders (``brentq``) import it, inside the functions that call
it.  Each check runs in a fresh interpreter, since the test process
itself may already hold scipy.  Bad inputs to those solver entry
points are rejected with a :class:`ConfigurationError` naming the
argument, before anything loads scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

#: Shared by the fresh interpreters and the in-process reference runs.
_PRELUDE = """
import json, math, sys
from dataclasses import astuple
from repro.analysis.lp import thm5_numeric, thm6_numeric, thm7_numeric
from repro.bounds.locality import LocalityBounds
from repro.bounds.salient import BOUND_FAMILIES, k_for_ratio, meeting_point, table1_rows
from repro.errors import ConfigurationError
from repro.experiments.size_dependence import bounds_crossing
nan, inf = math.nan, math.inf

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
"""

_IMPORTED = [
    "repro",
    "repro.analysis",
    "repro.analysis.lp",
    "repro.bounds",
    "repro.bounds.locality",
    "repro.bounds.salient",
    "repro.locality",
    "repro.experiments",
    "repro.experiments.size_dependence",
    "repro.cli.main",
    "repro.campaign",
    "repro.cluster",
    "repro.serving",
    "repro.workloads",
    "repro.obs",
]

#: One call per lazy site, with inputs that reach ``linprog``/``brentq``.
_SITES = {
    "thm5_numeric": "astuple(thm5_numeric(200.0, 50.0))",
    "thm6_numeric": "astuple(thm6_numeric(200.0, 50.0, 8.0))",
    "thm7_numeric": "astuple(thm7_numeric(200.0, 200.0, 50.0, 8.0, t_samples=16))",
    "meeting_point": "meeting_point(BOUND_FAMILIES['gc_upper'], 10_000.0, 64.0)",
    "k_for_ratio": "k_for_ratio(BOUND_FAMILIES['gc_upper'], 10_000.0, 64.0, 3.1)",
    "finv": "LocalityBounds(f=math.sqrt, g=math.sqrt).finv(10.0)",
    "bounds_crossing": "bounds_crossing()",
}

#: (call, the argument its error must name).
_REJECTED = [
    ("thm5_numeric(nan, 50)", "i"),
    ("thm5_numeric(100, 0)", "h"),
    ("thm5_numeric(100, inf)", "h"),
    ("thm6_numeric(100, 50, B=0)", "B"),
    ("thm6_numeric(100, 50, B=inf)", "B"),
    ("thm6_numeric(nan, 50, 8)", "b"),
    ("thm7_numeric(100, 100, 50, B=inf)", "B"),
    ("thm7_numeric(100, 100, nan, 8)", "h"),
    ("thm7_numeric(-1, 100, 50, 8)", "i"),
    ("meeting_point(BOUND_FAMILIES['gc_upper'], nan, 64.0)", "h"),
    ("meeting_point(BOUND_FAMILIES['gc_upper'], 10_000.0, inf)", "B"),
    ("meeting_point(BOUND_FAMILIES['gc_upper'], 10_000.0, 64.0, k_max=inf)", "k_max"),
    ("k_for_ratio(BOUND_FAMILIES['gc_lower'], 10_000.0, 64.0, nan)", "target"),
    ("k_for_ratio(BOUND_FAMILIES['gc_lower'], 10_000.0, 64.0, inf)", "target"),
    ("k_for_ratio(BOUND_FAMILIES['gc_lower'], inf, 64.0, 2.02)", "h"),
    ("k_for_ratio(BOUND_FAMILIES['gc_lower'], 10_000.0, nan, 2.02)", "B"),
    ("table1_rows(h=0)", "h"),
    ("table1_rows(h=nan)", "h"),
    ("table1_rows(B=inf)", "B"),
    ("bounds_crossing(h_small=nan)", "h_small"),
    ("bounds_crossing(h_large=inf)", "h_large"),
    ("bounds_crossing(B=inf)", "B"),
    ("bounds_crossing(k=nan)", "k"),
]


def _fresh(body: str, payload) -> object:
    """Run ``_PRELUDE + body`` in a new interpreter; ``body`` reads
    ``payload`` from stdin as JSON and prints its answer as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + body],
        input=json.dumps(payload),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_scipy_after_import():
    loaded = _fresh(
        "import importlib\n"
        "for name in json.load(sys.stdin):\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n",
        _IMPORTED,
    )
    assert loaded == []


def test_lazy_sites_load_scipy_and_match_in_process():
    out = _fresh(
        "sites = json.load(sys.stdin)\n"
        "before = scipy_loaded()\n"
        "values = {name: eval(call) for name, call in sites.items()}\n"
        "print(json.dumps({'before': before, 'after': scipy_loaded(), 'values': values}))\n",
        _SITES,
    )
    assert out["before"] is False
    assert out["after"] is True
    namespace: dict = {}
    exec(_PRELUDE, namespace)
    expected = {name: eval(call, namespace) for name, call in _SITES.items()}
    # Through JSON, tuples come back as lists and floats round-trip exactly.
    assert out["values"] == json.loads(json.dumps(expected))


@pytest.fixture(scope="module")
def rejections():
    """Every rejected call, run in order in one fresh interpreter."""
    return _fresh(
        "rows = []\n"
        "for call in json.load(sys.stdin):\n"
        "    try:\n"
        "        eval(call)\n"
        "        rows.append({'raised': None})\n"
        "    except Exception as exc:\n"
        "        rows.append({'raised': type(exc).__name__,\n"
        "                     'typed': isinstance(exc, ConfigurationError),\n"
        "                     'message': str(exc), 'scipy': scipy_loaded()})\n"
        "print(json.dumps(rows))\n",
        [call for call, _ in _REJECTED],
    )


@pytest.mark.parametrize(
    "index, call, name",
    [(n, call, name) for n, (call, name) in enumerate(_REJECTED)],
    ids=[call for call, _ in _REJECTED],
)
def test_bad_input_rejected_before_scipy(rejections, index, call, name):
    row = rejections[index]
    assert row["raised"] is not None, f"{call} returned"
    assert row["typed"], f"{call} raised {row['raised']}: {row['message']}"
    assert row["message"].startswith(f"{name} must "), row["message"]
    assert row["scipy"] is False
