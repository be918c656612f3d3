"""Start-up cost: the package imports numpy and the standard library only.

scipy and the process pool load inside the branches that call them, so a
``critvals`` table with beta > 0 and a table-driven ``ci`` never import them.
The beta = 0 quantile (``scipy.special.ndtri``) and the cvar study's
quantile and truth, which load ``scipy.special`` only, must equal their
``scipy.stats.norm`` forms bit for bit; the oldest supported scipy runs this
file too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import obci
from obci import INFINITE, BatchAsymptotics, critical_value, study_setup

SRC = Path(obci.__file__).resolve().parent.parent

_GUARD = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    def lazy():
        return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing"))

    import obci, obci.cli
    seen = {"import": lazy() + sorted(m for m in sys.modules if m.startswith("numpy.random"))}
    work = Path(sys.argv[1])
    data = work / "data.txt"
    data.write_text("\\n".join(str(v) for v in obci.SeedSpec(5, 0).generator().standard_normal(400)))
    table = work / "t.csv"
    codes = [
        obci.cli.main([
            "critvals", "--methods", "ob1", "--betas", "0.25", "--b-inf", "inf",
            "--quantiles", "0.975", "--reps", "10000", "--grid", "64", "--out", str(table),
        ]),
    ]
    seen["critvals"] = lazy()
    codes.append(obci.cli.main([
        "ci", "--method", "ob1", "--m", "100", "--d", "1", "--estimator", "mean",
        "--data", str(data), "--table", str(table),
    ]))
    codes.append(obci.cli.main(["ci", "--method", "ss", "--estimator", "mean", "--data", str(data)]))
    seen["ci"] = lazy()
    obci.study_setup("cvar", 1000)
    seen["cvar"] = [m for m in lazy() if m.startswith("scipy.stats")]
    print(json.dumps({"codes": codes, "seen": seen}))
    """
)


def test_import_and_table_paths_load_no_scipy_or_pool(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["seen"] == {"import": [], "critvals": [], "ci": [], "cvar": []}


@pytest.mark.parametrize("method", ["ob1", "ob2", "ob3"])
@pytest.mark.parametrize("q", [1e-10, 0.05, 0.5, 0.9, 0.95, 0.975, 1 - 1e-10])
def test_small_batch_value_is_the_normal_quantile(method, q):
    for b_inf in (INFINITE, 8.0):
        value = critical_value(method, BatchAsymptotics(0.0, b_inf), q)
        expected = float(stats.norm.ppf(q))
        assert value == expected and np.signbit(value) == np.signbit(expected)


@pytest.mark.parametrize("gamma", [0.123, 0.5, 0.7, 0.9, 0.95, 0.99])
def test_cvar_study_truth(gamma):
    _, truth, est = study_setup("cvar", 1000, gamma=gamma)
    q = float(stats.norm.ppf(gamma))
    assert truth == float(stats.norm.pdf(q) / (1.0 - gamma))
    assert est.num.args == (q,) and est.den.args == (q,)


def test_cip_takes_no_private_name_from_functionals():
    # the OB-III closed form reads its prefix sums through a method of the
    # window-sum estimator, not through the helpers behind it
    import obci.cip

    taken = sorted(
        name for name, value in vars(obci.cip).items()
        if name.startswith("_") and not name.startswith("__")
        and getattr(value, "__module__", None) == "obci.functionals"
    )
    assert taken == []
