#!/usr/bin/env python3
"""Print the exit code and output digests of the benchmark's CLI commands.

Runs every command of the cli-artifacts workload (``CLI_COMMANDS`` in
``perfbench/sample.py``) in-process, each into its own fresh directory
under one temporary directory, and prints, per command, the exit code, the
SHA-256 of every output file except the run manifests, and each manifest's
``parameters`` and ``seeds`` (the fields that do not record timestamps,
paths or the command line) as sorted JSON, so two checkouts compare with
one diff:

    PYTHONPATH=src python scripts/cli_digests.py > new.json
"""

import hashlib
import importlib.util
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from freejacobi import cli

SAMPLE = Path(__file__).resolve().parents[1] / "perfbench" / "sample.py"


def _commands():
    spec = importlib.util.spec_from_file_location("perfbench_sample", SAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_COMMANDS


def _run(argv):
    try:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # usage errors exit 2
        return exc.code


def main():
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, command in enumerate(_commands()):
            outdir = Path(tmp) / f"cli-{k:02d}"
            outdir.mkdir()
            code = _run(["--outdir", str(outdir)] + command.split())
            files = sorted(f for f in outdir.iterdir() if f.is_file())
            records[command] = {
                "exit": code,
                "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                          for f in files if not f.name.endswith("_manifest.json")},
                "manifests": {f.name: {key: json.loads(f.read_text())[key]
                                       for key in ("parameters", "seeds")}
                              for f in files if f.name.endswith("_manifest.json")},
            }
    print(json.dumps(records, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
