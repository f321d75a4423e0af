"""How the command line is read: argparse, with spaced negative values
attached to the options that take a rational.

argparse reads a separate "-1/2" as an option, not as a value (it takes
only "-1" and "-.5" for numbers). A user may write "--x=-1/2"; `Parser`
writes that for them whenever argparse would read the option before the
value as one of `RATIONAL_OPTIONS`, by its full name or by an abbreviation.
`trigasket.cli` imports this module only when it reads a command line.
"""

from __future__ import annotations

import argparse
import re
import sys

RATIONAL_OPTIONS = ("--x", "--y-coeff", "--point")
_NEGATIVE = r"-\.?\d"


def attach_negatives(argv: "list[str]", options: "tuple[str, ...]") -> "list[str]":
    """argv with each spaced negative value joined to its rational option.

    `options` are the option strings of the parser reading argv. argparse
    reads an argument as the option it names exactly, else as the only long
    option it abbreviates; it reads no argument after "--" as an option.
    """
    out: list[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        opt = out[-1] if out else ""
        if opt not in options and opt.startswith("--"):
            matches = [o for o in options if o.startswith(opt)]
            opt = matches[0] if len(matches) == 1 else ""
        if opt in RATIONAL_OPTIONS and re.match(_NEGATIVE, arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


class Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps the option strings it declares and
    attaches spaced negative values by them; argparse makes each
    subcommand's parser of the same class."""

    option_names: "tuple[str, ...]" = ()

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.option_names += tuple(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(attach_negatives(args, self.option_names), namespace)
