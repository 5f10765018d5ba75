"""Drive the command-line pipeline in-process.

Equivalent shell session:

    quadclif gen --seed 42 --bound 5 -o inst.json
    quadclif check inst.json --report report.json
    quadclif check prop4.9-segre

The second command runs the full named-check suite; single ids select one
check, and the seven instance-free checks (the model-quadric identities,
the stabilizer tables and the generic Clifford claims) run without an
instance file.
"""

import json
import tempfile
from pathlib import Path

from quadclif.cli import main as cli


def main():
    with tempfile.TemporaryDirectory() as td:
        inst = Path(td) / "inst.json"
        report = Path(td) / "report.json"

        print("$ quadclif gen --seed 42 --bound 5 -o inst.json")
        cli(["gen", "--seed", "42", "--bound", "5", "-o", str(inst)])

        print("$ quadclif check prop2.2-smoothness inst.json --report r.json")
        rc = cli(["check", "prop2.2-smoothness", str(inst),
                  "--report", str(report)])
        print("exit code:", rc)

        rep = json.loads(report.read_text())
        print("report keys:", sorted(rep))
        print("first check record:",
              json.dumps(rep["checks"][0], indent=2)[:400])

        print("$ quadclif check prop4.9-segre   # instance-free")
        cli(["check", "prop4.9-segre"])


if __name__ == "__main__":
    main()
