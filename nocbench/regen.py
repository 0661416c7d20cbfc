"""Record the reference fingerprints in ``golden.json`` and print what moved.

Usage, from the repository root::

    python3 nocbench/regen.py                    # every workload and variant
    python3 nocbench/regen.py --workload ring --variants 0 1 --check

Runs one untimed pass per (workload, variant), prints every fingerprint
field that differs from the recorded one, and rewrites the file unless
``--check`` is given (then the exit code is 1 when anything differs).
A simulator change that is meant to keep results identical must leave
this diff empty; any other re-record needs its reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from refclock import AdjustedTimer

SRC = Path(__file__).resolve().parent.parent / "src"


def record(wl: Any, workload: str, variant: int) -> dict[str, Any]:
    """Fingerprints of every operation of one input set."""
    inputs = wl.build_inputs(workload, variant)
    runner = wl.PassRunner(AdjustedTimer(), reference={})
    result = runner.run(inputs)
    out = {}
    for op in result.operations:
        if op.fingerprint is None:
            raise RuntimeError(f"{workload}/{variant}/{op.name}: {op.error}")
        out[op.name] = op.fingerprint
    return out


def diff(old: dict[str, Any], new: dict[str, Any], where: str) -> list[str]:
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in old:
            lines.append(f"+ {where}/{name}")
        elif name not in new:
            lines.append(f"- {where}/{name}")
        else:
            for key in sorted(set(old[name]) | set(new[name])):
                if old[name].get(key) != new[name].get(key):
                    lines.append(
                        f"~ {where}/{name} {key}: {old[name].get(key)} -> {new[name].get(key)}"
                    )
    return lines


def render(golden: dict[str, Any]) -> str:
    """The golden file as JSON with one line per operation, for readable diffs."""
    lines = ["{", f' "float_digits": {golden["float_digits"]},', ' "workloads": {']
    for i, (workload, variants) in enumerate(sorted(golden["workloads"].items())):
        lines.append(f"  {json.dumps(workload)}: {{")
        ordered = sorted(variants.items(), key=lambda item: int(item[0]))
        for j, (variant, ops) in enumerate(ordered):
            lines.append(f"   {json.dumps(variant)}: {{")
            for k, (name, fingerprint) in enumerate(sorted(ops.items())):
                comma = "," if k < len(ops) - 1 else ""
                lines.append(f"    {json.dumps(name)}: {json.dumps(fingerprint, sort_keys=True)}{comma}")
            lines.append("   }" + ("," if j < len(ordered) - 1 else ""))
        lines.append("  }" + ("," if i < len(golden["workloads"]) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=wl.WORKLOADS, default=list(wl.WORKLOADS))
    parser.add_argument("--variants", nargs="*", type=int, default=list(range(wl.VARIANTS)))
    parser.add_argument("--check", action="store_true", help="diff only; write nothing")
    args = parser.parse_args(argv)
    golden = wl.load_golden()
    golden.setdefault("float_digits", wl.FLOAT_DIGITS)
    recorded = golden.setdefault("workloads", {})
    changes = []
    for workload in args.workload:
        for variant in args.variants:
            new = record(wl, workload, variant)
            old = recorded.setdefault(workload, {}).get(str(variant), {})
            lines = diff(old, new, f"{workload}/{variant}")
            changes.extend(lines)
            print(f"{workload} variant {variant}: {len(lines)} change(s)", flush=True)
            recorded[workload][str(variant)] = new
    for line in changes:
        print(line)
    if args.check:
        return 1 if changes else 0
    wl.GOLDEN_PATH.write_text(render(golden), encoding="utf-8")
    print(f"wrote {wl.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
