"""Run the ``ltvrank`` command line with a timing span around every call into
each module's public functions, then write the spans and their per-name
totals.

    python3 perfbench/tracer.py --out DIR -- all --workdir W [ltvrank options]

The pipeline reaches every traced function through a module attribute
(``datamodel.load_dataset(...)``, ``replay`` inside ``fusion.replay_eval``,
``forward`` inside ``predictor.train``), so replacing those attributes with
wrappers reaches every call without editing the package. Spans are kept in
memory and written when the command ends: ``DIR/spans.tsv`` holds one line
per span (index, name, start, end, parent index) and ``DIR/trace.json`` the
per-name totals, self times and work counts.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: module -> public functions wrapped in a span named "module.function"
TRACED = {
    "pipeline": ("run_stage",),
    "datamodel": ("load_dataset", "save_dataset", "load_labeled", "save_labeled"),
    "synthgen": ("generate", "save_ground_truth", "load_ground_truth"),
    "pdq": ("fit_tables", "build_pdq_labels"),
    "attribution": ("session_attributed_slide_times", "table1_diagnostics"),
    "author_ltv": ("aggregate_author_days", "plan_dual_stream", "load_aggregates"),
    "predictor": ("train", "forward", "backward", "encode_features", "predict",
                  "save_params", "load_params"),
    "metrics": ("xauc_pair_counts",),
    "fusion": ("replay_eval", "replay"),
}


def _pairs(session) -> int:
    n = len(session.records)
    return n * (n - 1) // 2


def _rows_trained(days, config) -> int:
    rows = sum(len(std) + (len(delayed) if delayed is not None else 0)
               for std, delayed in days)
    return rows * config.epochs


#: span name -> work count of one call, from (args, kwargs, result)
WORK = {
    "datamodel.load_dataset": lambda a, k, r: r.n_records(),
    "attribution.session_attributed_slide_times": lambda a, k, r: _pairs(a[0]),
    "predictor.train": lambda a, k, r: _rows_trained(a[0], a[1]),
    "predictor.encode_features": lambda a, k, r: len(a[0]),
    "predictor.predict": lambda a, k, r: len(a[1]),
    "metrics.xauc_pair_counts": lambda a, k, r: len(a[0]),
}

#: rows encoded inside a replay span are the rows replay scored
REPLAY = "fusion.replay"


class Tracer:
    """In-memory span recorder with per-name totals."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[list] = []   # [name, start, child time, span index]
        self.totals: dict[str, dict[str, float]] = {}
        self.replay_rows_scored = 0

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"pipeline.{args[0]}" if name == "pipeline.run_stage" else name
            index = len(self.spans)
            parent = self.stack[-1][3] if self.stack else -1
            self.spans.append((span_name, 0.0, 0.0, parent))
            frame = [span_name, time.perf_counter(), 0.0, index]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                self.spans[index] = (span_name, frame[1], end, parent)
                if self.stack:
                    self.stack[-1][2] += duration
                total = self.totals.setdefault(
                    span_name, {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
                total["s"] += duration
                total["self_s"] += duration - frame[2]
                total["calls"] += 1
            if work is not None:
                count = work(args, kwargs, result)
                total["work"] += count
                if name == "predictor.encode_features" and any(
                        f[0] == REPLAY for f in self.stack):
                    self.replay_rows_scored += count
            return result

        return traced

    def install(self) -> None:
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"ltvrank.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                setattr(module, fn_name, self.wrap(name, getattr(module, fn_name)))

    def write(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(out / "spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.6f}\t{end - t0:.6f}\t{parent}\n")
        summary = {"totals": self.totals, "replay_rows_scored": self.replay_rows_scored,
                   "spans": len(self.spans)}
        (out / "trace.json").write_text(json.dumps(summary, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="directory for spans.tsv and trace.json")
    parser.add_argument("ltvrank_args", nargs=argparse.REMAINDER,
                        help="arguments of the ltvrank command, after --")
    args = parser.parse_args(argv)
    cli_args = args.ltvrank_args[1:] if args.ltvrank_args[:1] == ["--"] else args.ltvrank_args
    tracer = Tracer()
    tracer.install()
    from ltvrank import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(args.out)


if __name__ == "__main__":
    sys.exit(main())
