"""Stand-in toolchain for exercising the external pipeline without a compiler.

Invoked as a subprocess in three stages, mirroring front-end / optimizer /
linker:

    fake_toolchain.py front <source> <ir>
    fake_toolchain.py opt <ir> <output> [pass...]
    fake_toolchain.py link <ir> <output> [arg...]

The "source" is a directive file whose first line is one of: ok, sleep <s>,
spin, exit1. The optimizer refuses the pass token '-broken' (nonzero exit)
and records the received pass list in the IR, leaving out every '-noop'
token, so sequences that differ only in '-noop' link to byte-identical
programs; the linker emits a runnable
Python script that performs the directive and prints the pass list, so tests
can verify the sequence flowed through the whole pipeline. Extra linker
arguments are printed by the program too, so a link that takes the pass
list depends on more than the IR.
"""

import os
import stat
import sys


def main() -> int:
    stage = sys.argv[1]
    if stage == "front":
        source, ir = sys.argv[2], sys.argv[3]
        with open(source) as fh:
            text = fh.read()
        with open(ir, "w") as fh:
            fh.write(text)
        return 0

    if stage == "opt":
        ir, output = sys.argv[2], sys.argv[3]
        passes = [p for p in sys.argv[4:] if p != "-noop"]
        if "-broken" in passes:
            print("fake-opt: unknown pass '-broken'", file=sys.stderr)
            return 1
        with open(ir) as fh:
            text = fh.read()
        with open(output, "w") as fh:
            fh.write(text)
            fh.write("passes: " + " ".join(passes) + "\n")
        return 0

    if stage == "link":
        ir, output, extra = sys.argv[2], sys.argv[3], sys.argv[4:]
        with open(ir) as fh:
            lines = fh.read().splitlines()
        directive = lines[0].strip() if lines else "ok"
        passes = ""
        for line in lines:
            if line.startswith("passes: "):
                passes = line[len("passes: "):]
        script = "\n".join(
            [
                "#!" + sys.executable,
                "import sys, time",
                f"directive = {directive!r}.split()",
                f"print('passes:', {passes!r})",
                *([f"print('link args:', {' '.join(extra)!r})"] if extra else []),
                "if directive[0] == 'sleep':",
                "    time.sleep(float(directive[1]))",
                "elif directive[0] == 'spin':",
                "    while True:",
                "        pass",
                "elif directive[0] == 'exit1':",
                "    print('deliberate failure', file=sys.stderr)",
                "    sys.exit(1)",
                "",
            ]
        )
        with open(output, "w") as fh:
            fh.write(script)
        os.chmod(output, os.stat(output).st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
        return 0

    print(f"fake_toolchain: unknown stage {stage!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
