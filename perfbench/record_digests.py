"""Record output digests for the default seed: python3 perfbench/record_digests.py

Runs the first DIGEST_ROUNDS rounds of every workload at run.DEFAULT_SEED and
writes sha256(exit code + stdout) per request to digests.json.  A request whose
output fails its independent check is recorded as null, so a later fix of that
request is not reported as a changed output.  Re-record only in a change that
redefines the benchmark.
"""

from __future__ import annotations

import itertools
import json

from checks import check
from run import DEFAULT_SEED, DIGESTS, _digest, _load_program, run_request
from workloads import WORKLOADS, rounds

DIGEST_ROUNDS = 16


def main() -> None:
    cli = _load_program()
    out = {"seed": DEFAULT_SEED, "rounds": DIGEST_ROUNDS, "workloads": {}}
    for workload in WORKLOADS:
        digests = []
        for batch in itertools.islice(rounds(workload, DEFAULT_SEED), DIGEST_ROUNDS):
            for req in batch:
                _, code, stdout = run_request(cli, req)
                ok = check(req, code, stdout) is None
                digests.append(_digest(code, stdout) if ok else None)
        out["workloads"][workload] = digests
        print(workload, len(digests), "requests,", digests.count(None), "not recorded")
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
