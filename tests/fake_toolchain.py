"""Stand-in optimizer and linker for exercising the external pipeline without a compiler.

Started with `python -S` (no site import, most of a stage's start-up) in two
stages, after a `cp` front end copies the source to the IR:

    fake_toolchain.py opt <ir> <output> [pass...]
    fake_toolchain.py link <ir> <output>

The "source" is a directive file whose first line is one of: ok, sleep <s>,
spin, exit1. The optimizer refuses the pass token '-broken' (nonzero exit)
and records the received pass list in the IR, leaving out every '-noop'
token, so sequences that differ only in '-noop' link to byte-identical
programs. The linker emits a `#!/bin/sh` program that prints the pass list,
so tests can verify the sequence flowed through the whole pipeline, and then
performs the directive. The linker reads nothing but the optimized IR, as
every link stage must.
"""

import sys

ACTIONS = {"ok": ":", "spin": "while :; do :; done", "exit1": "echo deliberate failure >&2; exit 1"}


def main() -> int:
    stage, ir, output = sys.argv[1:4]
    with open(ir) as fh:
        text = fh.read()

    if stage == "opt":
        passes = [p for p in sys.argv[4:] if p != "-noop"]
        if "-broken" in passes:
            print("fake-opt: unknown pass '-broken'", file=sys.stderr)
            return 1
        with open(output, "w") as fh:
            fh.write(text + "passes: " + " ".join(passes) + "\n")
        return 0

    if stage == "link":
        # imported here, not at the top: shlex brings in re and enum, which would double the optimizer's start-up
        import os
        import shlex

        lines = text.splitlines()
        word, *args = lines[0].split()
        action = f"sleep {shlex.quote(args[0])}" if word == "sleep" else ACTIONS[word]
        with open(output, "w") as fh:
            # the optimizer appended the pass list as the IR's last line
            fh.write(f"#!/bin/sh\nprintf '%s\\n' {shlex.quote(lines[-1])}\n{action}\n")
        os.chmod(output, 0o755)
        return 0

    print(f"fake_toolchain: unknown stage {stage!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
