"""Run the whole pipeline at demo scale and read the tea leaves.

Executes every stage (generate, label, train, evaluate, replay, report)
into ./demo_artifacts with a reduced corpus, then prints the final report.
Rerunning is a no-op: each stage checks the cache key embedded in its
outputs and answers "cached". A stage's key covers only the config keys it
reads and the keys of its inputs, so changing, say, fusion.w_author reruns
just replay and report.

Run with:  python3 demos/pipeline_end_to_end.py
"""

from pathlib import Path

from ltvrank.artifacts import meta_key
from ltvrank.config import load_config
from ltvrank.pipeline import STAGE_FILES, STAGES, run_stage

WORKDIR = Path("demo_artifacts")

OVERRIDES = {
    "seed": "11",
    "gen.n_users": "1200",
    "gen.n_videos": "6000",
    "gen.n_authors": "120",
    "gen.n_days": "9",
    "train.epochs": "2",
    "replay.n_seeds": "5",
}


def main():
    config = load_config(overrides=OVERRIDES)
    print(f"artifacts in {WORKDIR}/\n")
    for stage in STAGES:
        status = run_stage(stage, config, WORKDIR)
        key = meta_key(WORKDIR / STAGE_FILES[stage][1][0])
        print(f"  {stage:7s} {status:6s} key={key}")

    print("\n" + "=" * 60)
    print((WORKDIR / "report.txt").read_text())
    print("=" * 60)
    print("Artifacts are plain text with a #meta line carrying the stage's")
    print("cache key and seed; the same seed reproduces them byte for byte.")
    print("The same run is available from the command line:")
    print("  ltvrank all --workdir demo_artifacts "
          + " ".join(f"--set {k}={v}" for k, v in OVERRIDES.items()))


if __name__ == "__main__":
    main()
