"""Record the sha256 of every default-seed report the benchmark checks.

    python3 perfbench/record_digests.py

Runs each op of each workload's pool once at the default seed and writes
digests.json.  Polarize ops at any workload seed come from the same pool;
rouviere reports at any seed are compared with their default-seed digest
(see workloads.digest_key).  Run it only when a change is meant to alter
reports; a change that claims a speed-up must leave every digest as it is.
"""

import hashlib
import json
import sys

import workloads
from worker import import_cli, run_op


def default_ops():
    for w in workloads.WORKLOADS.values():
        for i in range(w.pool):
            yield w.argv(workloads.DEFAULT_SEED, i)


def main():
    cli = import_cli()
    digests = {}
    for argv in default_ops():
        secs, code, text, error = run_op(cli, argv)
        if error is not None or code != 0:
            sys.exit("%s: exit %r %s" % (" ".join(argv), code, error or ""))
        key, canonical = workloads.digest_key(cli.render, argv, text)
        if key != " ".join(argv):
            sys.exit("%s: report is not canonical" % " ".join(argv))
        digests[key] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        print("%8.3f s  %s" % (secs, key), flush=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"sha256": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
