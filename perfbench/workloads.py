"""Named benchmark workloads: a synthetic city plus the run config around it.

Every workload runs the same stage sequence; only the synth and run configs
differ. The reasons each workload exists are in README.md.

The city and the network's training are seeded with FIXTURE_SEED, so each
workload measures the same city and the same availability table on every
run. The run seed (``--seed``) drives the on-street search and lot Monte
Carlo streams. Varying the city or the training seed instead moves
sim-on work by up to a third (search lengths follow the predicted
availability), which would swamp the changes the benchmark must detect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FIXTURE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    hours: tuple[int, ...]
    synth: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    onstreet: dict = field(default_factory=dict)
    offstreet: dict = field(default_factory=dict)

    def run_config(self, seed: int, city_dir: str) -> dict:
        """The parksim JSON config; input paths point into ``city_dir``."""
        return {
            "seed": seed,
            "hours": list(self.hours),
            "graph": f"{city_dir}/graph.json",
            "payments": f"{city_dir}/payments.csv",
            "surveys": f"{city_dir}/surveys.csv",
            "lots": f"{city_dir}/lots.json",
            "lot_events": f"{city_dir}/lot_events.csv",
            "synth": dict(self.synth),
            "train": {"seed": FIXTURE_SEED, **self.train},
            "onstreet": dict(self.onstreet),
            "offstreet": dict(self.offstreet),
        }


WORKLOADS = {w.name: w for w in (
    # Default city, every third hour: the availability model carries the
    # weight; walk tables are rebuilt every hour and diff writes 24 layers.
    Workload("city6-8h", hours=tuple(range(0, 24, 3)),
             train={"splits": 4, "epochs": 60}),
    # Larger grid, three hours: Dijkstra table builds dominate both sims.
    Workload("city10-3h", hours=(8, 13, 18),
             synth={"grid_n": 10, "days": 7},
             train={"splits": 2, "epochs": 20}),
    # Busy small grid with four lots: the search and lot Monte Carlo
    # dominate, and lot choice needs hour-dependent drive searches.
    Workload("peak-lots", hours=(7, 11, 15, 19),
             synth={"grid_n": 6, "demand_scale": 3.0,
                    "lot_nodes": ["n1_1", "n1_4", "n4_1", "n4_4"],
                    "lot_capacity": 120},
             train={"splits": 2, "epochs": 40},
             onstreet={"n_samples": 150},
             offstreet={"reps": 40}),
    # Tiny city for the smoke test; not listed in BENCHMARK.json.
    Workload("smoke", hours=(8, 13),
             synth={"grid_n": 3, "days": 7},
             train={"splits": 1, "epochs": 2},
             onstreet={"n_samples": 10},
             offstreet={"reps": 2}),
)}
