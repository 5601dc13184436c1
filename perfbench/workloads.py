"""The benchmark's workloads: what each one runs and how its input is made.

Every input comes from the package's own simulator (``noise.random_gold`` +
``noise.generate_cst_dataset``) at noise 0.25 and is written with
``io.write_dataset``, so a seed fully determines the bytes of the file.
"""

from __future__ import annotations

from dataclasses import dataclass

NOISE_LEVEL = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # simulator task, which is also the payload kind
    items: int
    annotators: int
    command: str  # "compute" or "compare"
    distances: tuple[str, ...]
    n_permutations: int  # agree --exact-ks; 0 keeps the asymptotic KS p-value
    # counts every report of a correct pass must carry, per distance
    observed_pairs: int
    expected_pairs_used: int
    expected_pairs_available: int
    why: str

    def argv(self, input_path: str, out_path: str, seed: int) -> list[str]:
        """Arguments for ``agreekit.cli.main``."""
        if self.command == "compute":
            opts = ["--distance", self.distances[0]]
        else:
            opts = ["--distances", ",".join(self.distances)]
        if self.n_permutations:
            opts += ["--exact-ks", str(self.n_permutations)]
        return [self.command, "--input", input_path, *opts, "--seed", str(seed),
                "--out", out_path]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ranking-tau",
            task="ranking",
            items=300,
            annotators=3,
            command="compute",
            distances=("tau",),
            n_permutations=0,
            observed_pairs=900,
            expected_pairs_used=9_000,
            expected_pairs_available=403_650,
            why="ranking tau, 300 items x 3: per-pair scipy kendalltau dominates, so it "
                "exercises the distances layer",
        ),
        Workload(
            name="spans-ner",
            task="spans",
            items=500,
            annotators=3,
            command="compute",
            distances=("ner_both_lenient",),
            n_permutations=0,
            observed_pairs=1_500,
            expected_pairs_used=15_000,
            expected_pairs_available=1_122_750,
            why="NER spans, 500 items x 3: KDE sigma and its |Do|x3|De| matrix dominate "
                "time and peak RSS; distances are cheap",
        ),
        Workload(
            name="boxes-compare",
            task="boxes",
            items=1_100,
            annotators=2,
            command="compare",
            distances=("box_iou", "count_diff"),
            n_permutations=1000,
            observed_pairs=1_100,
            expected_pairs_used=11_000,
            expected_pairs_available=2_417_800,
            why="boxes compare, 1100 items x 2: the only rejection-sampling planner path "
                "and permutation KS; pairs re-planned per distance",
        ),
    )
}


def build_dataset(workload: Workload, seed: int):
    """The workload's simulated dataset for this seed."""
    from agreekit import noise

    gold, meta = noise.random_gold(workload.task, workload.items, seed)
    spec = noise.NoiseSpec(
        task=workload.task, level=NOISE_LEVEL, n_annotators=workload.annotators, seed=seed
    )
    return noise.generate_cst_dataset(gold, spec, meta=meta)


def write_input(workload: Workload, seed: int, path: str):
    """Write the workload's JSONL input for this seed; returns the dataset."""
    from agreekit import io

    dataset = build_dataset(workload, seed)
    io.write_dataset(path, dataset)
    return dataset
