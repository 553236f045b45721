"""Record the reference outputs the ``presets`` workload is checked against.

Run from the repository root:  python3 perfbench/make_reference.py

For each transient preset this stores every W_STRIDE-th absorption sample of
the switched transient and the parameters and uncertainties of the on-phase
and off-phase fits, computed through the library (the CLI cannot render the
fig6e on-phase fit at the recording commit).  The file is recorded once and
kept with the benchmark; rerun it only to move the reference on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hanlesim.dynamics import SwitchSchedule, split_phases, switched_transient  # noqa: E402
from hanlesim.fit import FitModel, fit  # noqa: E402
from hanlesim.presets import get_preset  # noqa: E402

from inputs import TRANSIENT_PRESETS  # noqa: E402
from workloads import REFERENCE_PRESETS, W_STRIDE, preset_spec  # noqa: E402


def _fit_record(result) -> dict:
    return {"params": result.params, "uncertainties": result.uncertainties,
            "converged": bool(result.converged), "iterations": result.iterations}


def record(name: str) -> dict:
    config = get_preset(name)["config"]
    spec = preset_spec(config["fg"], config["fe"], config["intensity"])
    schedule = SwitchSchedule(b1=config["b1"], b0=config["b0"], period=config["period"],
                              duty=config["duty"], n_periods=config["n_periods"],
                              samples_per_period=config["samples_per_period"])
    trace = switched_transient(spec, schedule)
    off, on = split_phases(trace)
    drop = float(config["fe"]) == float(config["fg"]) + 1.0
    return {
        "n": int(trace.w.size),
        "w": trace.w[::W_STRIDE].tolist(),
        "fit_on": _fit_record(fit(on, FitModel("exp_plus_damped_sine", drop_exp_term=drop))),
        "fit_off": _fit_record(fit(off, FitModel("single_exp"))),
    }


if __name__ == "__main__":
    reference = {name: record(name) for name in TRANSIENT_PRESETS}
    REFERENCE_PRESETS.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PRESETS}")
