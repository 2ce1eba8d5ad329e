"""Workload inputs, body and output checks for the confprod benchmark.

A workload is a function `inputs(seed, size)` that builds everything a run
needs from the seed alone: a list of scenario checks.  `run_checks(checks,
workdir)` drives confprod through its public entry point `cli.main` and is
the timed section; it returns each check's exit code with the
`time.thread_time()` stamps of its start and end.  `check_reports(checks,
raw, workdir)` judges every operation afterwards and returns an `Outcome`.
An operation is one scenario check.

Both workloads are closed loop with one caller: the next check starts when
the previous one returns.  Dimensions and sample counts are fixed per size,
so the seed moves only continuous parameters, never the amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import thread_time

from confprod import cli
from confprod.catalog import scenarios

MAX_FAILURE_NOTES = 20


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    scenarios: list[dict] = field(default_factory=list)
    report_bytes: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(message)


# --- scenario checks through the CLI ------------------------------------------

@dataclass(frozen=True)
class Check:
    scenario: str
    params: dict
    samples: int

    def argv(self, report: Path) -> list[str]:
        argv = ["check", "--scenario", self.scenario, "--samples", str(self.samples),
                "--report", str(report)]
        for key, value in sorted(self.params.items()):
            argv += ["--param", f"{key}={value!r}"]
        return argv


def _continuous_params(rng: random.Random) -> dict[str, dict]:
    """Draws inside the ranges on which every verdict is known to hold."""
    return {
        "doubly_twisted_einstein": {"R": rng.uniform(0.5, 2.0)},
        "flat_quadratic": {"R": rng.uniform(0.5, 2.0)},
        "sphere_hyperbolic": {"b_bar": rng.uniform(-0.5, 0.5)},
        "twisted_split": {"rate": rng.uniform(0.1, 0.5), "amplitude": rng.uniform(0.1, 0.5)},
    }


def catalog_inputs(seed: int, size: str) -> list[Check]:
    samples = {"full": 2000, "tiny": 20}[size]
    params = _continuous_params(random.Random(seed))
    return [Check(name, params.get(name, {}), samples) for name in scenarios()]


def sweep_inputs(seed: int, size: str) -> list[Check]:
    dims, samples = {"full": ((3, 4, 5), 200), "tiny": ((2,), 20)}[size]
    rng = random.Random(seed)
    checks = []
    for n in dims:
        drawn = _continuous_params(rng)
        checks.append(Check("flat_quadratic", {"n1": n, "n2": n, **drawn["flat_quadratic"]},
                            samples))
        checks.append(Check("sphere_hyperbolic",
                            {"n1": n, "n2": n, **drawn["sphere_hyperbolic"]}, samples))
    return checks


def run_checks(checks: list[Check], workdir: Path) -> list[tuple[int, float, float]]:
    """Timed section: one `confprod check` per scenario, reports to workdir."""
    out = []
    for k, chk in enumerate(checks):
        start = thread_time()
        code = cli.main(chk.argv(workdir / f"report-{k}.json"))
        out.append((code, start, thread_time()))
    return out


def strict_json(text: str):
    """Parse JSON, rejecting the bare NaN / Infinity tokens Python accepts."""
    def reject(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=reject)


def check_reports(checks: list[Check], raw, workdir: Path) -> Outcome:
    outcome = Outcome()
    for k, (chk, (code, *_)) in enumerate(zip(checks, raw)):
        outcome.attempted += 1
        path = workdir / f"report-{k}.json"
        label = f"{chk.scenario} {chk.params}"
        if code != 0:
            outcome.fail(f"{label}: exit code {code}")
            continue
        try:
            text = path.read_text()
            doc = strict_json(text)
            (rep,) = doc["scenarios"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.fail(f"{label}: unreadable report: {exc}")
            continue
        outcome.report_bytes += len(text.encode())
        outcome.scenarios.append({
            "name": rep.get("name"),
            "params": rep.get("params"),
            "verdict": rep.get("verdict"),
            "expected_verdict": rep.get("expected_verdict"),
            "measured": rep.get("measured"),
            "constants": [{"name": row.get("name"), "measured": row.get("measured")}
                          for row in rep.get("constants", [])],
        })
        wanted = {k: float(v) for k, v in chk.params.items()}
        got = {k: v for k, v in rep.get("params", {}).items() if k in wanted}
        if rep.get("name") != chk.scenario or got != wanted:
            outcome.fail(f"{label}: report is for {rep.get('name')} {got}")
        elif not (doc.get("all_matched") is True and rep.get("matched") is True
                  and rep.get("verdict") == rep.get("expected_verdict")):
            outcome.fail(f"{label}: verdict {rep.get('verdict')}, "
                         f"expected {rep.get('expected_verdict')}")
    return outcome


WORKLOADS = {
    "catalog_2k": catalog_inputs,
    "dim_sweep": sweep_inputs,
}
