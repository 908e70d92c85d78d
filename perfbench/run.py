"""Benchmark of the ``ltvrank all`` pipeline, run the way a user runs it.

    python3 perfbench/run.py --workload cold-wide --seed 1 --seconds 30 --trace 0

Each run builds its start state (set-up), then repeats the measured
``ltvrank all`` invocation, each time from the same start state, until the
invocations have taken ``--seconds`` seconds in all. Every invocation's
artifacts are checked (see ``checks.py``); one that exits non-zero or fails
a check counts as failed. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced invocations
(see ``tracer.py``) and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

from checks import Log, check_workdir, content_digest  # noqa: E402

#: a whole run must end well inside the 180 s a run may take
RUN_LIMIT_S = 170
Q = 300.0          # cap_q, left at its default by every workload
TEST_DAYS = 1      # train.test_days, left at its default by every workload

#: the generator's defaults on fewer users, videos and authors; nine days is
#: the fewest that train the author head (a 7-day window plus a held-out day)
CORPUS = {"gen.n_users": "60", "gen.n_videos": "2000", "gen.n_authors": "60",
          "gen.n_days": "9"}
#: reruns repeat one corpus; users of near-equal activity keep its size
#: from depending much on the seed
EVEN_USERS = {"gen.activity_shape": "100"}


@dataclass
class Workload:
    overrides: dict[str, str]          # config of the measured invocation
    setup: dict[str, str] = field(default_factory=dict)  # config A, if any
    stages_needed: int = 6             # stages whose inputs or keys changed
    upstream: tuple[str, ...] = ()     # artifacts that must match config A's


WORKLOADS = {
    # one cold run into an empty directory: parsing, writing and the
    # per-impression loops dominate
    "cold-wide": Workload(
        overrides={**CORPUS, "train.epochs": "2", "replay.n_seeds": "2"}),
    # rerun after a change to a key only replay and report read: the stage
    # cache decision and replay dominate
    "fusion-sweep": Workload(
        overrides={**CORPUS, **EVEN_USERS, "gen.n_users": "50", "train.epochs": "2",
                   "replay.n_seeds": "20", "fusion.w_author": "2.0"},
        setup={"fusion.w_author": "1.0"},
        stages_needed=2,
        upstream=("dataset.txt", "groundtruth.txt", "tables.txt", "labeled.txt",
                  "aggregates.txt", "diagnostics.txt", "params.txt",
                  "loss_trace.txt", "metrics.txt", "metrics_summary.txt")),
    # rerun after a change to a key train and later stages read: training
    # and eval's XAUC dominate
    "retrain": Workload(
        overrides={**CORPUS, **EVEN_USERS, "gen.n_users": "40", "train.epochs": "12",
                   "replay.n_seeds": "2", "train.learning_rate": "0.03"},
        setup={"train.learning_rate": "0.05"},
        stages_needed=4,
        upstream=("dataset.txt", "groundtruth.txt", "tables.txt", "labeled.txt",
                  "aggregates.txt", "diagnostics.txt")),
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("artifact_bytes", "bytes"))

STAGES = ("gen", "labels", "train", "eval", "replay", "report")

#: per-layer metric -> unit; values come from layer_metrics()
PER_LAYER = {
    **{f"pipeline.{s}.s": "s" for s in STAGES},
    "pipeline.stages_run": "count", "pipeline.stages_needed": "count",
    "pipeline.self.s": "s", "pipeline.cpu_s": "s",
    "datamodel.load_dataset.s": "s", "datamodel.load_dataset.calls": "count",
    "datamodel.records_parsed": "count", "datamodel.save_dataset.s": "s",
    "datamodel.dataset_bytes": "bytes", "datamodel.load_labeled.s": "s",
    "datamodel.save_labeled.s": "s",
    "synthgen.generate.s": "s", "synthgen.save_ground_truth.s": "s",
    "synthgen.load_ground_truth.s": "s", "synthgen.groundtruth_bytes": "bytes",
    "pdq.fit_tables.s": "s", "pdq.build_pdq_labels.s": "s",
    "attribution.session_attributed_slide_times.s": "s",
    "attribution.table1_diagnostics.s": "s", "attribution.pairs": "count",
    "author_ltv.aggregate_author_days.s": "s", "author_ltv.plan_dual_stream.s": "s",
    "author_ltv.plan_dual_stream.calls": "count", "author_ltv.load_aggregates.s": "s",
    "predictor.train.s": "s", "predictor.forward.s": "s", "predictor.backward.s": "s",
    "predictor.rows_trained": "count", "predictor.encode_features.s": "s",
    "predictor.rows_encoded": "count", "predictor.predict.s": "s",
    "predictor.rows_predicted": "count", "predictor.save_params.s": "s",
    "predictor.load_params.s": "s",
    "metrics.xauc_pair_counts.s": "s", "metrics.xauc_rows": "count",
    "fusion.replay_eval.s": "s", "fusion.replay.calls": "count",
    "fusion.replay.self.s": "s", "fusion.rows_scored_per_heldout_row": "ratio",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


class Interrupted(Exception):
    """The run hit its time limit or was asked to stop."""


def _interrupt(signum, frame):
    raise Interrupted(f"stopped by {signal.Signals(signum).name} "
                      f"(time limit {RUN_LIMIT_S} s)")


def threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # ltvrank's --threads sets these only after the package has imported
    # numpy, so the cap is also set here, before the child starts
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads())
    return env


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


class Runner:
    """Starts child processes in one run directory; kills a child that is
    still running when the run is interrupted."""

    def __init__(self, rundir: Path):
        self.rundir = rundir
        self.child: subprocess.Popen | None = None

    def ltvrank_args(self, config: dict[str, str], seed: int) -> list[str]:
        args = ["all", "--workdir", "work", "--threads", str(threads()),
                "--seed", str(seed)]
        for key, value in config.items():
            args += ["--set", f"{key}={value}"]
        return args

    def start(self, argv: list[str], log_name: str) -> Invocation:
        log = self.rundir / log_name
        with open(log, "w", encoding="utf-8") as out:
            t0 = time.perf_counter()
            self.child = subprocess.Popen(argv, cwd=self.rundir, env=child_env(),
                                          stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(self.child.pid, 0)
            wall = time.perf_counter() - t0
        self.child = None
        return Invocation(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                          peak_rss_mb=usage.ru_maxrss / 1024.0,
                          returncode=os.waitstatus_to_exitcode(status),
                          stdout=log.read_text(encoding="utf-8"))

    def ltvrank(self, config: dict[str, str], seed: int, log_name: str) -> Invocation:
        return self.start([sys.executable, "-m", "ltvrank.cli",
                           *self.ltvrank_args(config, seed)], log_name)

    def traced(self, config: dict[str, str], seed: int, out: str,
               log_name: str) -> Invocation:
        return self.start([sys.executable, str(HERE / "tracer.py"), "--out", out,
                           "--", *self.ltvrank_args(config, seed)], log_name)

    def kill(self) -> None:
        if self.child is not None and self.child.poll() is None:
            self.child.kill()
            self.child.wait()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(trace: dict, inv: Invocation, wl: Workload, work: Path,
                  heldout_rows: int) -> dict[str, float]:
    totals = trace["totals"]

    def get(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"pipeline.{stage}.s"] = get(f"pipeline.{stage}")
    out["pipeline.stages_run"] = sum(1 for line in inv.stdout.splitlines()
                                     if line.startswith("ltvrank ") and line.endswith(": ok"))
    out["pipeline.stages_needed"] = wl.stages_needed
    out["pipeline.self.s"] = sum(get(f"pipeline.{s}", "self_s") for s in STAGES)
    out["pipeline.cpu_s"] = inv.cpu_s
    for name in ("datamodel.load_dataset", "datamodel.save_dataset",
                 "datamodel.load_labeled", "datamodel.save_labeled",
                 "synthgen.generate", "synthgen.save_ground_truth",
                 "synthgen.load_ground_truth", "pdq.fit_tables", "pdq.build_pdq_labels",
                 "attribution.session_attributed_slide_times",
                 "attribution.table1_diagnostics", "author_ltv.aggregate_author_days",
                 "author_ltv.plan_dual_stream", "author_ltv.load_aggregates",
                 "predictor.train", "predictor.forward", "predictor.backward",
                 "predictor.encode_features", "predictor.predict",
                 "predictor.save_params", "predictor.load_params",
                 "metrics.xauc_pair_counts", "fusion.replay_eval"):
        out[f"{name}.s"] = get(name)
    out["datamodel.load_dataset.calls"] = get("datamodel.load_dataset", "calls")
    out["datamodel.records_parsed"] = get("datamodel.load_dataset", "work")
    out["datamodel.dataset_bytes"] = (work / "dataset.txt").stat().st_size
    out["synthgen.groundtruth_bytes"] = (work / "groundtruth.txt").stat().st_size
    out["attribution.pairs"] = get("attribution.session_attributed_slide_times", "work")
    out["author_ltv.plan_dual_stream.calls"] = get("author_ltv.plan_dual_stream", "calls")
    out["predictor.rows_trained"] = get("predictor.train", "work")
    out["predictor.rows_encoded"] = get("predictor.encode_features", "work")
    out["predictor.rows_predicted"] = get("predictor.predict", "work")
    out["metrics.xauc_rows"] = get("metrics.xauc_pair_counts", "work")
    out["fusion.replay.calls"] = get("fusion.replay", "calls")
    out["fusion.replay.self.s"] = get("fusion.replay", "self_s")
    out["fusion.rows_scored_per_heldout_row"] = trace["replay_rows_scored"] / heldout_rows
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    rundir = RUNS / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    work, snapshot = rundir / "work", rundir / "snapshot"
    runner = Runner(rundir)
    try:
        return _measure(wl, runner, seed, work, snapshot, seconds, trace)
    finally:
        runner.kill()
        shutil.rmtree(rundir, ignore_errors=True)


def _measure(wl: Workload, runner: Runner, seed: int, work: Path, snapshot: Path,
             seconds: float, trace: bool) -> dict:
    # set-up: byte-compile and import the package once, then build config
    # A's artifacts when the workload starts from them
    warm = runner.start([sys.executable, "-c", "import ltvrank.cli, ltvrank.pipeline"],
                        "warmup.log")
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import ltvrank:\n{warm.stdout}")
    upstream: dict[str, str] = {}
    if wl.setup:
        setup = runner.ltvrank({**wl.overrides, **wl.setup}, seed, "setup.log")
        if setup.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{setup.stdout}")
        upstream = {name: content_digest(work / name) for name in wl.upstream}
        shutil.copytree(work, snapshot)
    setup_s = time.perf_counter() - _T0

    plain: list[Invocation] = []
    artifact_bytes: list[int] = []
    traced: list[tuple[Invocation, dict]] = []
    attempted = failed = 0
    correct = True
    measured = 0.0
    # with tracing, whole (untraced, traced) pairs on one corpus
    while measured < seconds or (trace and attempted % 2):
        n = attempted
        kind = "traced" if trace and n % 2 else "plain"
        shutil.rmtree(work, ignore_errors=True)
        if wl.setup:
            shutil.copytree(snapshot, work)
            op_seed = seed
        else:
            work.mkdir()
            # a cold run can take a fresh corpus each time, so that one
            # corpus's size does not set the run's median
            op_seed = seed * 1000 + (n // 2 if trace else n)
        if kind == "traced":
            inv = runner.traced(wl.overrides, op_seed, f"trace{n}", f"op{n}.log")
        else:
            inv = runner.ltvrank(wl.overrides, op_seed, f"op{n}.log")
        attempted += 1
        measured += inv.wall_s
        print(f"operation {n} {kind} seed {op_seed}: exit {inv.returncode} "
              f"wall {inv.wall_s:.3f} s peak rss {inv.peak_rss_mb:.1f} MB", file=sys.stderr)
        if inv.returncode != 0:
            failed += 1
            print(f"operation {n} failed:\n{inv.stdout[-2000:]}", file=sys.stderr)
            continue
        log = Log(work / "dataset.txt")
        fails = check_workdir(work, log, Q, upstream)
        if fails:
            failed += 1
            correct = False
            print(f"operation {n} failed its checks:\n" + "\n".join(fails), file=sys.stderr)
            continue
        if kind == "traced":
            spans = json.loads((runner.rundir / f"trace{n}" / "trace.json").read_text())
            traced.append((inv, layer_metrics(spans, inv, wl, work,
                                              log.heldout_rows(TEST_DAYS))))
        else:
            plain.append(inv)
            artifact_bytes.append(dir_bytes(work))

    if not plain or (trace and not traced):
        metrics = {}
    elif trace:
        metrics = {name: statistics.median(m[name] for _, m in traced)
                   for name in traced[0][1]}
        plain_wall = statistics.median(i.wall_s for i in plain)
        traced_wall = statistics.median(i.wall_s for i, _ in traced)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(i.wall_s for i in plain),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in plain),
            "artifact_bytes": statistics.median(artifact_bytes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", required=True, type=float,
                        help="total wall time of the measured invocations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ltvrank" / "cli.py").is_file():
        print(f"perfbench: no ltvrank sources under {SRC}", file=sys.stderr)
        return 2
    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _interrupt)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (Interrupted, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["metrics"] else 4


if __name__ == "__main__":
    sys.exit(main())
