#!/usr/bin/env python
"""What a template capture costs over the simulation it records.

A capture is a plain ``record_session`` — every recorder logs its clock's
timing atoms in every run — placed, with each replica's tape laid out from
its atoms and rows, so its cost over a bare ``run_training_session`` is the
tape layout's (the ROADMAP item "One way to run a scenario" asks for at most
1.05x before every row becomes capture + price).
``make capture-probe`` prints, per structure at 1 and 2 devices, the
best-of-7 wall time of ``run_training_session`` and of the template compile
of the same config, their ratio, and whether the template prices the config
to the simulation's own result.  Reports, never fails."""

from __future__ import annotations

import timeit
from typing import Dict, List, Sequence, Tuple

from repro.experiments.grid import Scenario
from repro.experiments.replay import TemplateFamily, template_key
from repro.experiments.results import run_scenario
from repro.train.session import TrainingRunConfig, run_training_session

CONV = {"input_size": 32, "num_classes": 10}

#: The probed structures (the event-path suite's), each at 1 and 2 devices.
STRUCTURES = {
    "resnet18": dict(model="resnet18", dataset="cifar10", batch_size=8, model_kwargs=CONV),
    "vgg11": dict(model="vgg11", dataset="cifar10", batch_size=8, model_kwargs=CONV),
    "mlp": dict(model="mlp", dataset="two_cluster", batch_size=512,
                model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 4}),
}


def configs(structures: Dict[str, dict] = STRUCTURES,
            devices: Sequence[int] = (1, 2)) -> List[Tuple[str, TrainingRunConfig]]:
    """``(label, symbolic config)`` per structure and replica count."""
    return [(f"{name} x {n}", TrainingRunConfig(**{
                "iterations": 3, "seed": 3, **settings, "n_devices": n}))
            for name, settings in structures.items() for n in devices]


def _comparable(result) -> dict:
    data = result.to_dict()
    data.pop("wall_time_s")
    return data


def probe(config: TrainingRunConfig, repeats: int = 7) -> Dict[str, object]:
    """Best-of-``repeats`` simulation and compile times (ms), their ratio, and
    whether the compiled template's row equals the simulated one."""
    key = template_key(config)
    simulate_s = min(timeit.repeat(lambda: run_training_session(config),
                                   number=1, repeat=repeats))
    compile_s = min(timeit.repeat(lambda: TemplateFamily(key).capture(config),
                                  number=1, repeat=repeats))
    scenario = Scenario(config=config)
    bandwidths = scenario.resolve_bandwidths()
    template = TemplateFamily(key).capture(config)
    priced = template.replay_batch([scenario], [bandwidths], 0.0)[0]
    equal = _comparable(priced) == _comparable(run_scenario(scenario))
    return {"simulate_ms": simulate_s * 1e3, "compile_ms": compile_s * 1e3,
            "ratio": compile_s / simulate_s, "equal": equal}


def table(rows: Sequence[Tuple[str, Dict[str, object]]]) -> str:
    """One line per config: both walls, the ratio, and the result check."""
    lines = [f"{'config':<14} {'simulate ms':>12} {'compile ms':>12} {'ratio':>7}  results"]
    for label, row in rows:
        lines.append(f"{label:<14} {row['simulate_ms']:>12.2f} {row['compile_ms']:>12.2f} "
                     f"{row['ratio']:>6.2f}x  {'equal' if row['equal'] else 'DIFFER'}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table([(label, probe(config)) for label, config in configs()]))
