"""``tokengraphs replay``'s check of a recorded run: the manifest's config is
turned back into the recorded command's arguments only when it holds exactly
that command's options, each with a value its option's parser could make.
Only ``replay`` imports this module."""

from __future__ import annotations

import argparse
import sys

_BOOL_WORDS = dict.fromkeys(("1", "true", "yes"), True) | dict.fromkeys(("0", "false", "no"), False)

# what an option's parser makes, by nargs (store_true, --eval) or else by type
_KINDS = {
    0: ("a bool", lambda value: type(value) is bool),
    2: ("a list of [FEATURES, LABELS] pairs", lambda value: type(value) is list and value != []
        and all(type(pair) is list and list(map(type, pair)) == [str, str] for pair in value)),
    int: ("an int", lambda value: type(value) is int),
    float: ("a number", lambda value: type(value) is float
            or type(value) is int and abs(value) <= sys.float_info.max),
    None: ("a string", lambda value: type(value) is str),
}


def replayed(parser: argparse.ArgumentParser, manifest: dict,
             overrides: list[str]) -> argparse.Namespace:
    """The arguments of the run ``manifest`` records, with each ``KEY=VALUE``
    of ``overrides`` parsed as its option would parse it."""
    command = manifest.get("command")
    subcommands = next(a for a in parser._actions if a.dest == "command")
    # a list or an object is no command either; replay does not replay itself
    if type(command) is not str or command not in subcommands.choices or command == "replay":
        raise ValueError(f"manifest does not name a replayable command: {command!r}")
    config = dict(manifest["config"])
    options = {action.dest: action for action in subcommands.choices[command]._actions
               if action.dest != "help"}
    missing = [dest for dest in options if dest not in config]
    unknown = [key for key in config if key not in options]
    if missing or unknown:  # a run records every option of its command, no other
        raise ValueError(f"manifest config for {command} does not hold exactly its "
                         f"options: missing {missing}, unknown {unknown}")
    for override in overrides:
        key, _, text = override.partition("=")
        if key not in config:
            raise ValueError(f"unknown config key in --set: {key!r}")
        try:  # a word the option does not take stays a string, refused below
            config[key] = (_BOOL_WORDS.get(text.lower(), text) if options[key].nargs == 0
                           else (options[key].type or str)(text))
        except ValueError:
            config[key] = text
    for key, value in config.items():
        action = options[key]
        kind, fits = _KINDS[action.nargs if action.nargs in (0, 2) else action.type]
        # only an optional option without a default is ever left unset
        unset = value is None and not action.required and action.default is None
        if not (fits(value) or unset):
            raise ValueError(f"{key} {value!r} is not {kind}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{key} {value!r} is not one of {list(action.choices)}")
    return argparse.Namespace(command=command, **config)
