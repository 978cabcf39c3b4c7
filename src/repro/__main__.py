"""``python -m repro`` — overview and command launcher.

Usage::

    python -m repro                 # show the overview
    python -m repro experiments     # run the full evaluation
    python -m repro experiments --fast
"""

import sys
from importlib import import_module

#: command -> (module whose ``main(argv)`` runs it, help line).
COMMANDS = {
    "experiments": (
        "repro.experiments.runner",
        "[--fast] [--jobs N] [--only S]   run the full evaluation",
    ),
    "fuzz": (
        "repro.invariants.fuzz",
        "--runs N --seed S | --replay FILE   fuzz fault schedules under monitors",
    ),
    "mesh": (
        "repro.experiments.mesh_scaling",
        "[--fast|--certify] [--jobs N]   datacenter-mesh scaling sweep (D5)",
    ),
}


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        import repro

        print(repro.__doc__)
        print("commands:")
        for command, (_module, usage) in COMMANDS.items():
            print(f"  python -m repro {command} {usage}")
        return 0
    if args[0] not in COMMANDS:
        print(
            f"repro: unknown command {args[0]!r} (commands: {', '.join(COMMANDS)})",
            file=sys.stderr,
        )
        return 2
    module, _usage = COMMANDS[args[0]]
    return import_module(module).main(args[1:])


if __name__ == "__main__":
    raise SystemExit(main())
