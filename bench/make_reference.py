"""Record the reference values the benchmark checks eval outputs against.

    PYTHONPATH=src python3 bench/make_reference.py

Evaluates every eval request the interactive workload can draw and writes
``bench/reference.json``: the rows of each request that succeeds (12
significant digits) under "eval", and the error of each request that fails
under "failing" (the benchmark expects exactly these to fail).  Run it only
at a commit whose outputs are the accepted ones (the values committed here
come from the commit that added the benchmark); a change that moves outputs
must stay within the tolerances in ``workloads.py``, not re-record them.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _is_float(s):
    try:
        return float(s)
    except ValueError:
        return None


def _row(fields):
    out = []
    for f in fields[:2]:
        v = _is_float(f)
        out.append(f if v is None else float("%.12g" % v))
    return out


def record_eval():
    refs, failing = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        for label, requests in workloads.eval_domain().items():
            for argv in requests:
                key = " ".join(argv)
                err = io.StringIO()
                try:
                    with contextlib.redirect_stderr(err):
                        rc = workloads.cli.main(argv + ["--out", path])
                except Exception as exc:  # the benchmark counts a raw exception as a failure
                    failing[key] = f"raises {type(exc).__name__}: {exc}"
                    continue
                if rc != 0:
                    failing[key] = f"exit code {rc}: {err.getvalue().strip()}"
                    continue
                header, rows = workloads._read_csv(path)
                refs[key] = {"header": header, "rows": [_row(r) for r in rows]}
            bad = sum(" ".join(a) in failing for a in requests)
            print(f"eval {label}: {len(requests)} requests, {bad} failing", flush=True)
    return refs, failing


def main():
    evals, failing = record_eval()
    refs = {"eval": evals, "failing": failing}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
