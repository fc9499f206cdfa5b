"""Golden parser table: every flag of every ``repro`` sub-command.

For the top-level parser and each sub-command, this table pins every
argparse action: its option strings, dest, default, type, nargs, const,
choices, required flag, action class and metavar, and for a positional its
place among the positionals.  Help texts are left out.  So a rewrite of
how :func:`repro.cli.build_parser` registers its flags must parse every
command line to the same namespace as before.  The recorded table is never
edited.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser


def _row(action: argparse.Action, position: int | None) -> tuple:
    choices = action.choices
    if isinstance(choices, dict):  # the sub-command action: its names
        choices = tuple(sorted(choices))
    elif choices is not None:
        choices = tuple(choices)
    kind = action.type
    return (
        position,
        tuple(action.option_strings),
        action.dest,
        action.default,
        None if kind is None else getattr(kind, "__name__", repr(kind)),
        action.nargs,
        action.const,
        choices,
        action.required,
        type(action).__name__,
        action.metavar,
    )


def _actions(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    """Option (or positional dest) -> the action's row."""
    rows: dict[str, tuple] = {}
    positional = 0
    for action in parser._actions:
        if action.option_strings:
            rows[action.option_strings[0]] = _row(action, None)
        else:
            rows[action.dest] = _row(action, positional)
            positional += 1
    return rows


def parser_table() -> dict[str, dict[str, tuple]]:
    """``{command: {option: row}}``; ``"repro"`` is the top-level parser."""
    parser = build_parser()
    [commands] = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    table = {"repro": _actions(parser)}
    for name, sub in commands.choices.items():
        table[name] = _actions(sub)
    return table


#: Recorded before the parser was rewritten around shared flag groups.
GOLDEN = {
    'cache': {
        '--cache-dir': (None, ('--cache-dir',), 'cache_dir', None, None, None, None, None, True, '_StoreAction', 'DIR'),
        '--drop-v1': (None, ('--drop-v1',), 'drop_v1', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--remote': (None, ('--remote',), 'remote', None, None, None, None, None, False, '_StoreAction', 'ADDR'),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'action': (0, (), 'action', None, None, None, None, ('migrate',), True, '_StoreAction', None),
    },
    'cache-server': {
        '--address-file': (None, ('--address-file',), 'address_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--auth-token-file': (None, ('--auth-token-file',), 'auth_token_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--cache-dir': (None, ('--cache-dir',), 'cache_dir', None, None, None, None, None, False, '_StoreAction', 'DIR'),
        '--cache-size': (None, ('--cache-size',), 'cache_size', 4096, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--host': (None, ('--host',), 'host', None, None, None, None, None, False, '_StoreAction', None),
        '--insecure': (None, ('--insecure',), 'insecure', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--port': (None, ('--port',), 'port', 0, 'int', None, None, None, False, '_StoreAction', None),
        '--socket': (None, ('--socket',), 'socket', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
    },
    'corpus': {
        '--classes': (None, ('--classes',), 'classes', 'tractable', None, None, None, None, False, '_StoreAction', None),
        '--families': (None, ('--families',), 'families', 'random,library,adversarial', None, None, None, None, False, '_StoreAction', None),
        '--num-lines': (None, ('--num-lines',), 'num_lines', 4, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--pairs-per-class': (None, ('--pairs-per-class',), 'pairs_per_class', 1, 'int', None, None, None, False, '_StoreAction', 'K'),
        '--seed': (None, ('--seed',), 'seed', None, 'int', None, None, None, False, '_StoreAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'out_dir': (0, (), 'out_dir', None, None, None, None, None, True, '_StoreAction', None),
    },
    'daemon': {
        '--address-file': (None, ('--address-file',), 'address_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--auth-token-file': (None, ('--auth-token-file',), 'auth_token_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--host': (None, ('--host',), 'host', None, None, None, None, None, False, '_StoreAction', None),
        '--port': (None, ('--port',), 'port', None, 'int', None, None, None, False, '_StoreAction', None),
        '--socket': (None, ('--socket',), 'socket', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--timeout': (None, ('--timeout',), 'timeout', None, 'float', None, None, None, False, '_StoreAction', 'SECONDS'),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'action': (0, (), 'action', None, None, None, None, ('ping', 'status', 'stats', 'metrics', 'cancel', 'shutdown'), True, '_StoreAction', None),
        'run_id': (1, (), 'run_id', None, None, '?', None, None, False, '_StoreAction', None),
    },
    'decide': {
        '--brute-force': (None, ('--brute-force',), 'brute_force', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--epsilon': (None, ('--epsilon',), 'epsilon', 0.001, 'float', None, None, None, False, '_StoreAction', None),
        '--equivalence': (None, ('--equivalence', '-e'), 'equivalence', 'NP-I', None, None, None, None, False, '_StoreAction', None),
        '--no-quantum': (None, ('--no-quantum',), 'no_quantum', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--seed': (None, ('--seed',), 'seed', None, 'int', None, None, None, False, '_StoreAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'circuit1': (0, (), 'circuit1', None, None, None, None, None, True, '_StoreAction', None),
        'circuit2': (1, (), 'circuit2', None, None, None, None, None, True, '_StoreAction', None),
    },
    'fingerprint': {
        '--budget': (None, ('--budget',), 'budget', None, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--epsilon': (None, ('--epsilon',), 'epsilon', 0.001, 'float', None, None, None, False, '_StoreAction', None),
        '--equivalence': (None, ('--equivalence', '-e'), 'equivalence', 'NP-I', None, None, None, None, False, '_StoreAction', None),
        '--fingerprint': (None, ('--fingerprint',), 'fingerprint', 'auto', None, None, None, ('auto', 'exact', 'probe'), False, '_StoreAction', None),
        '--no-quantum': (None, ('--no-quantum',), 'no_quantum', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--probe-count': (None, ('--probe-count',), 'probe_count', 64, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--with-inverse': (None, ('--with-inverse',), 'with_inverse', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'circuit1': (0, (), 'circuit1', None, None, None, None, None, True, '_StoreAction', None),
        'circuit2': (1, (), 'circuit2', None, None, '?', None, None, False, '_StoreAction', None),
    },
    'fleet': {
        '--auth-token-file': (None, ('--auth-token-file',), 'auth_token_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--events': (None, ('--events',), 'events', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--hang-timeout': (None, ('--hang-timeout',), 'hang_timeout', 30.0, 'float', None, None, None, False, '_StoreAction', 'SECONDS'),
        '--heartbeat': (None, ('--heartbeat',), 'heartbeat', 5.0, 'float', None, None, None, False, '_StoreAction', 'SECONDS'),
        '--max-attempts': (None, ('--max-attempts',), 'max_attempts', 3, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--metrics': (None, ('--metrics',), 'metrics', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--output': (None, ('--output',), 'output', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--peer': (None, ('--peer',), 'peer', [], None, None, None, None, False, '_AppendAction', 'ADDR'),
        '--progress': (None, ('--progress',), 'progress', None, 'int', '?', 1, None, False, '_StoreAction', 'N'),
        '--remote-cache': (None, ('--remote-cache',), 'remote_cache', None, None, None, None, None, False, '_StoreAction', 'ADDR'),
        '--seed': (None, ('--seed',), 'seed', None, 'int', None, None, None, False, '_StoreAction', None),
        '--timeout': (None, ('--timeout',), 'timeout', 10.0, 'float', None, None, None, False, '_StoreAction', 'SECONDS'),
        '--work-dir': (None, ('--work-dir',), 'work_dir', './fleet-runs', None, None, None, None, False, '_StoreAction', 'DIR'),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'action': (0, (), 'action', None, None, None, None, ('run', 'status', 'peers'), True, '_StoreAction', None),
        'manifest': (1, (), 'manifest', None, None, '?', None, None, False, '_StoreAction', None),
    },
    'info': {
        '--ascii': (None, ('--ascii',), 'ascii', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--draw': (None, ('--draw',), 'draw', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'circuit': (0, (), 'circuit', None, None, None, None, None, True, '_StoreAction', None),
    },
    'lint': {
        '--baseline': (None, ('--baseline',), 'baseline', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--format': (None, ('--format',), 'format', 'text', None, None, None, ('text', 'json'), False, '_StoreAction', None),
        '--no-baseline': (None, ('--no-baseline',), 'no_baseline', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--output': (None, ('--output',), 'output', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--root': (None, ('--root',), 'root', '.', None, None, None, None, False, '_StoreAction', 'DIR'),
        '--write-baseline': (None, ('--write-baseline',), 'write_baseline', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'paths': (0, (), 'paths', None, None, '*', None, None, True, '_StoreAction', None),
    },
    'match': {
        '--budget': (None, ('--budget',), 'budget', None, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--epsilon': (None, ('--epsilon',), 'epsilon', 0.001, 'float', None, None, None, False, '_StoreAction', None),
        '--equivalence': (None, ('--equivalence', '-e'), 'equivalence', 'NP-I', None, None, None, None, False, '_StoreAction', None),
        '--no-quantum': (None, ('--no-quantum',), 'no_quantum', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--seed': (None, ('--seed',), 'seed', None, 'int', None, None, None, False, '_StoreAction', None),
        '--verify': (None, ('--verify',), 'verify', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--with-inverse': (None, ('--with-inverse',), 'with_inverse', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'circuit1': (0, (), 'circuit1', None, None, None, None, None, True, '_StoreAction', None),
        'circuit2': (1, (), 'circuit2', None, None, None, None, None, True, '_StoreAction', None),
    },
    'match-many': {
        '--budget': (None, ('--budget',), 'budget', None, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--epsilon': (None, ('--epsilon',), 'epsilon', 0.001, 'float', None, None, None, False, '_StoreAction', None),
        '--equivalence': (None, ('--equivalence', '-e'), 'equivalence', 'NP-I', None, None, None, None, False, '_StoreAction', None),
        '--no-quantum': (None, ('--no-quantum',), 'no_quantum', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--seed': (None, ('--seed',), 'seed', None, 'int', None, None, None, False, '_StoreAction', None),
        '--with-inverse': (None, ('--with-inverse',), 'with_inverse', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'manifest': (0, (), 'manifest', None, None, None, None, None, True, '_StoreAction', None),
    },
    'merge': {
        '--output': (None, ('--output', '-o'), 'output', None, None, None, None, None, True, '_StoreAction', 'PATH'),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'stores': (0, (), 'stores', None, None, '+', None, None, True, '_StoreAction', None),
    },
    'report': {
        '--json': (None, ('--json',), 'json', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--no-cache-file': (None, ('--no-cache-file',), 'no_cache_file', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'results_root': (0, (), 'results_root', None, None, None, None, None, True, '_StoreAction', None),
    },
    'repro': {
        '--version': (None, ('--version',), 'version', '==SUPPRESS==', None, 0, None, None, False, '_VersionAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'command': (0, (), 'command', None, None, 'A...', None, ('cache', 'cache-server', 'corpus', 'daemon', 'decide', 'fingerprint', 'fleet', 'info', 'lint', 'match', 'match-many', 'merge', 'report', 'run', 'serve', 'submit', 'synth', 'watch'), True, '_SubParsersAction', None),
    },
    'run': {
        '--auth-token-file': (None, ('--auth-token-file',), 'auth_token_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--budget': (None, ('--budget',), 'budget', None, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--cache-dir': (None, ('--cache-dir',), 'cache_dir', None, None, None, None, None, False, '_StoreAction', 'DIR'),
        '--cache-size': (None, ('--cache-size',), 'cache_size', 4096, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--epsilon': (None, ('--epsilon',), 'epsilon', 0.001, 'float', None, None, None, False, '_StoreAction', None),
        '--events': (None, ('--events',), 'events', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--fingerprint': (None, ('--fingerprint',), 'fingerprint', 'auto', None, None, None, ('auto', 'exact', 'probe'), False, '_StoreAction', None),
        '--metrics': (None, ('--metrics',), 'metrics', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--no-cache': (None, ('--no-cache',), 'no_cache', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--no-quantum': (None, ('--no-quantum',), 'no_quantum', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--probe-count': (None, ('--probe-count',), 'probe_count', 64, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--progress': (None, ('--progress',), 'progress', None, 'int', '?', 1, None, False, '_StoreAction', 'N'),
        '--remote-cache': (None, ('--remote-cache',), 'remote_cache', None, None, None, None, None, False, '_StoreAction', 'ADDR'),
        '--resume': (None, ('--resume',), 'resume', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--seed': (None, ('--seed',), 'seed', None, 'int', None, None, None, False, '_StoreAction', None),
        '--shard': (None, ('--shard',), 'shard', None, None, None, None, None, False, '_StoreAction', 'I/N'),
        '--store': (None, ('--store',), 'store', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--trace': (None, ('--trace',), 'trace', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--verify': (None, ('--verify',), 'verify', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--with-inverse': (None, ('--with-inverse',), 'with_inverse', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--workers': (None, ('--workers',), 'workers', 1, 'int', None, None, None, False, '_StoreAction', 'N'),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'manifest': (0, (), 'manifest', None, None, None, None, None, True, '_StoreAction', None),
    },
    'serve': {
        '--address-file': (None, ('--address-file',), 'address_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--auth-token-file': (None, ('--auth-token-file',), 'auth_token_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--budget': (None, ('--budget',), 'budget', None, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--cache-dir': (None, ('--cache-dir',), 'cache_dir', None, None, None, None, None, False, '_StoreAction', 'DIR'),
        '--cache-size': (None, ('--cache-size',), 'cache_size', 4096, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--epsilon': (None, ('--epsilon',), 'epsilon', 0.001, 'float', None, None, None, False, '_StoreAction', None),
        '--fingerprint': (None, ('--fingerprint',), 'fingerprint', 'auto', None, None, None, ('auto', 'exact', 'probe'), False, '_StoreAction', None),
        '--host': (None, ('--host',), 'host', None, None, None, None, None, False, '_StoreAction', None),
        '--insecure': (None, ('--insecure',), 'insecure', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--max-queued': (None, ('--max-queued',), 'max_queued', 16, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--no-cache': (None, ('--no-cache',), 'no_cache', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--no-quantum': (None, ('--no-quantum',), 'no_quantum', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--port': (None, ('--port',), 'port', 0, 'int', None, None, None, False, '_StoreAction', None),
        '--probe-count': (None, ('--probe-count',), 'probe_count', 64, 'int', None, None, None, False, '_StoreAction', 'N'),
        '--remote-cache': (None, ('--remote-cache',), 'remote_cache', None, None, None, None, None, False, '_StoreAction', 'ADDR'),
        '--socket': (None, ('--socket',), 'socket', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--store-dir': (None, ('--store-dir',), 'store_dir', './daemon-runs', None, None, None, None, False, '_StoreAction', 'DIR'),
        '--verify': (None, ('--verify',), 'verify', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--with-inverse': (None, ('--with-inverse',), 'with_inverse', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--workers': (None, ('--workers',), 'workers', 1, 'int', None, None, None, False, '_StoreAction', 'N'),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
    },
    'submit': {
        '--address-file': (None, ('--address-file',), 'address_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--auth-token-file': (None, ('--auth-token-file',), 'auth_token_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--events': (None, ('--events',), 'events', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--host': (None, ('--host',), 'host', None, None, None, None, None, False, '_StoreAction', None),
        '--pair': (None, ('--pair',), 'pair', [], None, 3, None, None, False, '_AppendAction', ('C1', 'C2', 'CLASS')),
        '--port': (None, ('--port',), 'port', None, 'int', None, None, None, False, '_StoreAction', None),
        '--progress': (None, ('--progress',), 'progress', None, 'int', '?', 1, None, False, '_StoreAction', 'N'),
        '--resume': (None, ('--resume',), 'resume', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--seed': (None, ('--seed',), 'seed', None, 'int', None, None, None, False, '_StoreAction', None),
        '--socket': (None, ('--socket',), 'socket', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--store': (None, ('--store',), 'store', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--timeout': (None, ('--timeout',), 'timeout', None, 'float', None, None, None, False, '_StoreAction', 'SECONDS'),
        '--wait': (None, ('--wait',), 'wait', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'manifest': (0, (), 'manifest', None, None, '?', None, None, False, '_StoreAction', None),
    },
    'synth': {
        '--ascii': (None, ('--ascii',), 'ascii', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--basic': (None, ('--basic',), 'basic', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--output': (None, ('--output', '-o'), 'output', None, None, None, None, None, False, '_StoreAction', None),
        '--permutation': (None, ('--permutation',), 'permutation', None, None, None, None, None, True, '_StoreAction', None),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
    },
    'watch': {
        '--address-file': (None, ('--address-file',), 'address_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--auth-token-file': (None, ('--auth-token-file',), 'auth_token_file', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--events': (None, ('--events',), 'events', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--host': (None, ('--host',), 'host', None, None, None, None, None, False, '_StoreAction', None),
        '--no-replay': (None, ('--no-replay',), 'no_replay', False, None, 0, True, None, False, '_StoreTrueAction', None),
        '--port': (None, ('--port',), 'port', None, 'int', None, None, None, False, '_StoreAction', None),
        '--progress': (None, ('--progress',), 'progress', None, 'int', '?', 1, None, False, '_StoreAction', 'N'),
        '--socket': (None, ('--socket',), 'socket', None, None, None, None, None, False, '_StoreAction', 'PATH'),
        '--timeout': (None, ('--timeout',), 'timeout', None, 'float', None, None, None, False, '_StoreAction', 'SECONDS'),
        '-h': (None, ('-h', '--help'), 'help', '==SUPPRESS==', None, 0, None, None, False, '_HelpAction', None),
        'run_id': (0, (), 'run_id', None, None, None, None, None, True, '_StoreAction', None),
    },
}


def test_covers_every_command():
    assert sorted(parser_table()) == sorted(GOLDEN)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_parser_is_unchanged(command):
    assert parser_table()[command] == GOLDEN[command]
