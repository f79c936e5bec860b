"""An interactive browser for loosely structured databases.

The paper's user sits at a terminal, types templates, picks entities
out of the answers, and lets failed queries retract (§4–§5).  This
module is that terminal: a line-oriented shell over a
:class:`~repro.db.Database`, usable programmatically
(:meth:`BrowserShell.execute` returns the printed text, which the test
suite asserts on) or interactively::

    python -m repro.shell music        # any dataset in repro.datasets
    python -m repro.shell /path/to/db  # a durable database directory

Three extra modes expose the concurrent serving layer
(:mod:`repro.serve`)::

    python -m repro.shell serve music --port 7474   # host over TCP
    python -m repro.shell connect localhost:7474    # remote shell
    python -m repro.shell monitor localhost:7474    # live dashboard

Commands::

    (JOHN, *, *)              navigate a template (stars are wildcards)
    go ENTITY                 visit an entity's outgoing neighborhood
    incoming ENTITY           ... its incoming neighborhood
    between SOURCE TARGET     all associations between two entities
    paths SOURCE TARGET [N]   association paths up to length N (def. 3)
    back                      forget the latest navigation step
    try ENTITY                every fact mentioning the entity (§6.1)
    query FORMULA             evaluate a standard query (§2.7)
    ask FORMULA               truth value of a proposition
    explain FORMULA           show the evaluation plan and safety
    explain analyze FORMULA   run it and show plan vs actual rows/time
    why S R T                 derivation tree of a closure fact
                              (needs a trace-enabled database)
    probe QUERY               evaluate with automatic retraction (§5.2)
    select N                  value of entry N of the last probe menu
    relation CLASS R:T ...    the §6.1 relation() table
    function REL [ENTITY]     view a relationship as a function
    add S R T                 insert a fact       (quote multi-word)
    remove S R T              delete a fact
    limit N | limit off       composition chain limit (§6.1)
    include RULE              enable an inference rule
    exclude RULE              disable an inference rule
    rule NAME BODY => HEAD    define a rule from text
    rules                     list rules and their state
    diagnose                  trace contradictions to stored facts
    export FILE               write the stored facts as text
    import FILE               add facts from a text file
    stats                     database statistics (+ live trace counters)
    trace on|off              toggle obs tracing (spans and counters)
    profile COMMAND           run any command, print its trace summary
    help                      this text
    quit                      leave
"""

from __future__ import annotations

import shlex
import sys
from typing import Callable, Dict, List, Optional

from .browse.retraction import ProbeResult
from .core.errors import ReproError
from .db import Database
from .query.parser import parse_query

PROMPT = "browse> "


class BrowserShell:
    """A stateful command interpreter over one database."""

    def __init__(self, db: Database):
        self.db = db
        self.session = db.session()
        self.last_probe: Optional[ProbeResult] = None
        self.done = False
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "go": self._go,
            "visit": self._go,
            "incoming": self._incoming,
            "between": self._between,
            "paths": self._paths,
            "back": self._back,
            "try": self._try,
            "query": self._query,
            "ask": self._ask,
            "explain": self._explain,
            "why": self._why,
            "probe": self._probe,
            "select": self._select,
            "relation": self._relation,
            "function": self._function,
            "add": self._add,
            "remove": self._remove,
            "limit": self._limit,
            "include": self._include,
            "rule": self._rule,
            "exclude": self._exclude,
            "rules": self._rules,
            "diagnose": self._diagnose,
            "export": self._export,
            "import": self._import,
            "stats": self._stats,
            "trace": self._trace,
            "help": self._help,
            "quit": self._quit,
            "exit": self._quit,
        }

    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one command line; returns the text a terminal would show."""
        line = line.strip()
        if not line:
            return ""
        try:
            if line.startswith("("):
                return self._navigate(line)
            first, _, rest = line.partition(" ")
            if first.lower() == "profile":
                # The profiled command keeps its raw text (templates
                # contain commas and parentheses shlex would mangle).
                return self._profile(rest.strip())
            try:
                words = shlex.split(line)
            except ValueError as error:
                return f"error: {error}"
            command, arguments = words[0].lower(), words[1:]
            handler = self._commands.get(command)
            if handler is None:
                return (f"unknown command: {command!r}"
                        " — type 'help' for the command list")
            return handler(arguments)
        except ReproError as error:
            return f"error: {error}"

    # ------------------------------------------------------------------
    # Navigation (§4.1)
    # ------------------------------------------------------------------
    def _refresh_session(self) -> None:
        # Mutations and limit changes may swap the underlying view;
        # keep the session's history but point it at the fresh view.
        self.session.view = self.db.view()

    def _navigate(self, template_text: str) -> str:
        self._refresh_session()
        return self.session.query(template_text).render()

    def _go(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            return "usage: go ENTITY"
        self._refresh_session()
        return self.session.visit(arguments[0]).render()

    def _incoming(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            return "usage: incoming ENTITY"
        self._refresh_session()
        return self.session.incoming(arguments[0]).render()

    def _between(self, arguments: List[str]) -> str:
        if len(arguments) != 2:
            return "usage: between SOURCE TARGET"
        self._refresh_session()
        return self.session.between(arguments[0], arguments[1]).render()

    def _paths(self, arguments: List[str]) -> str:
        from .browse.paths import association_paths

        if len(arguments) not in (2, 3):
            return "usage: paths SOURCE TARGET [MAX_LENGTH]"
        max_length = 3
        if len(arguments) == 3:
            if not arguments[2].isdigit() or int(arguments[2]) < 1:
                return "usage: paths SOURCE TARGET [MAX_LENGTH]"
            max_length = int(arguments[2])
        found = association_paths(self.db.view(), arguments[0],
                                  arguments[1], max_length=max_length)
        if not found:
            return "(no association paths)"
        return "\n".join(path.render() for path in found)

    def _back(self, arguments: List[str]) -> str:
        previous = self.session.back()
        if previous is None:
            return "(no earlier step)"
        return previous.render()

    # ------------------------------------------------------------------
    # Queries and probing (§2.7, §5)
    # ------------------------------------------------------------------
    def _try(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            return "usage: try ENTITY"
        facts = self.db.try_(arguments[0])
        if not facts:
            return "(no facts mention it)"
        return "\n".join(str(fact) for fact in facts)

    def _query(self, arguments: List[str]) -> str:
        text = " ".join(arguments)
        if not text:
            return "usage: query FORMULA"
        query = parse_query(text)          # for the variables header
        value = self.db.query(text)
        if not value:
            return "(empty)"
        header = ", ".join(v.name for v in query.variables) or "(true)"
        rows = "\n".join("  " + ", ".join(row) for row in sorted(value))
        return f"{header}\n{rows}" if rows else header

    def _ask(self, arguments: List[str]) -> str:
        text = " ".join(arguments)
        if not text:
            return "usage: ask PROPOSITION"
        return "true" if self.db.ask(text) else "false"

    def _explain(self, arguments: List[str]) -> str:
        if arguments and arguments[0].lower() == "analyze":
            text = " ".join(arguments[1:])
            if not text:
                return "usage: explain analyze FORMULA"
            return self.db.explain_analyze(text).render()
        text = " ".join(arguments)
        if not text:
            return "usage: explain FORMULA"
        return self.db.explain(text).render()

    def _why(self, arguments: List[str]) -> str:
        from .core.facts import Fact

        if len(arguments) != 3:
            return "usage: why SOURCE RELATIONSHIP TARGET"
        return self.db.why(Fact(*arguments)).render()

    def _function(self, arguments: List[str]) -> str:
        if not 1 <= len(arguments) <= 2:
            return "usage: function RELATIONSHIP [ENTITY]"
        function = self.db.function(arguments[0])
        if len(arguments) == 2:
            images = function(arguments[1])
            return ", ".join(images) if images else "(no images)"
        lines = [
            f"  {entity} -> {', '.join(images)}"
            for entity, images in function.items()
        ]
        if not lines:
            return "(empty function)"
        kind = ("single-valued" if function.is_single_valued()
                else "multi-valued")
        return "\n".join([f"{arguments[0]} ({kind}):"] + lines)

    def _probe(self, arguments: List[str]) -> str:
        text = " ".join(arguments)
        if not text:
            return "usage: probe QUERY"
        self.last_probe = self.db.probe(text)
        if self.last_probe.succeeded:
            rows = "\n".join(
                "  " + ", ".join(row)
                for row in sorted(self.last_probe.value))
            return "Query succeeded.\n" + rows if rows.strip() \
                else "Query succeeded."
        return self.last_probe.menu()

    def _select(self, arguments: List[str]) -> str:
        if self.last_probe is None:
            return "no probe to select from"
        if len(arguments) != 1 or not arguments[0].isdigit():
            return "usage: select N"
        choice = int(arguments[0])
        if not 1 <= choice <= len(self.last_probe.successes):
            return (f"choose between 1 and"
                    f" {len(self.last_probe.successes)}")
        value = self.last_probe.select(choice)
        return "\n".join("  " + ", ".join(row) for row in sorted(value))

    def _relation(self, arguments: List[str]) -> str:
        if not arguments:
            return "usage: relation CLASS REL:TARGETCLASS ..."
        class_entity, columns = arguments[0], []
        for spec in arguments[1:]:
            relationship, separator, target = spec.partition(":")
            if not separator or not relationship or not target:
                return f"bad column spec {spec!r}; use REL:TARGETCLASS"
            columns.append((relationship, target))
        return self.db.relation(class_entity, *columns).render()

    # ------------------------------------------------------------------
    # Updates and rule control (§6.1)
    # ------------------------------------------------------------------
    def _add(self, arguments: List[str]) -> str:
        if len(arguments) != 3:
            return "usage: add SOURCE RELATIONSHIP TARGET"
        if self.db.add(*arguments):
            return f"added ({arguments[0]}, {arguments[1]}, {arguments[2]})"
        return "already present"

    def _remove(self, arguments: List[str]) -> str:
        from .core.facts import Fact

        if len(arguments) != 3:
            return "usage: remove SOURCE RELATIONSHIP TARGET"
        if self.db.remove_fact(Fact(*arguments)):
            return "removed"
        return "no such stored fact"

    def _limit(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            return "usage: limit N  (1 disables; 'off' = unlimited)"
        word = arguments[0].lower()
        if word in ("off", "none", "unlimited"):
            self.db.limit(None)
            return "composition unlimited"
        if not word.isdigit() or int(word) < 1:
            return "usage: limit N  (1 disables; 'off' = unlimited)"
        self.db.limit(int(word))
        return f"composition limit set to {word}"

    def _rule(self, arguments: List[str]) -> str:
        if len(arguments) < 2:
            return "usage: rule NAME BODY => HEAD [where GUARDS]"
        name, text = arguments[0], " ".join(arguments[1:])
        rule = self.db.define_rule(name, text)
        return f"defined and enabled: {rule}"

    def _include(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            return "usage: include RULE"
        self.db.include(arguments[0])
        return f"rule {arguments[0]} enabled"

    def _exclude(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            return "usage: exclude RULE"
        self.db.exclude(arguments[0])
        return f"rule {arguments[0]} disabled"

    def _rules(self, arguments: List[str]) -> str:
        lines = []
        for rule in self.db.rules.all_rules():
            state = "on " if self.db.rules.is_enabled(rule.name) else "off"
            lines.append(f"  [{state}] {rule.name}")
        return "\n".join(lines)

    def _diagnose(self, arguments: List[str]) -> str:
        violations = self.db.check_integrity()
        if not violations:
            return "consistent: the closure is free of contradictions"
        try:
            diagnoses = self.db.diagnose()
        except ReproError as error:
            lines = [str(v) for v in violations]
            lines.append(f"({error})")
            return "\n".join(lines)
        return "\n".join(d.render() for d in diagnoses)

    def _export(self, arguments: List[str]) -> str:
        from .storage.interchange import write_facts

        if len(arguments) != 1:
            return "usage: export FILE"
        count = write_facts(arguments[0], self.db.facts,
                            header="exported loose heap")
        return f"wrote {count} facts to {arguments[0]}"

    def _import(self, arguments: List[str]) -> str:
        from .storage.interchange import read_facts

        if len(arguments) != 1:
            return "usage: import FILE"
        added = self.db.add_facts(read_facts(arguments[0]))
        return f"added {added} new facts"

    def _stats(self, arguments: List[str]) -> str:
        from .obs import active_telemetry, telemetry_enabled

        stats = self.db.stats()
        hidden = ("enabled_rules", "rule_firings", "rule_times",
                  "result_cache")     # constant zeros, see Database.stats
        lines = [f"  {key}: {value}" for key, value in stats.items()
                 if key not in hidden]
        firings = stats.get("rule_firings") or {}
        if any(firings.values()):
            lines.append("  rule_firings:")
            lines.extend(f"    {name}: {count}"
                         for name, count in sorted(firings.items())
                         if count)
        times = stats.get("rule_times") or {}
        if times:
            lines.append("  rule_times:")
            lines.extend(f"    {name}: {seconds * 1000:.3f} ms"
                         for name, seconds in sorted(times.items()))
        counters = active_telemetry().counters
        if counters:
            state = "live" if telemetry_enabled() else "frozen"
            lines.append(f"  trace counters ({state}):")
            lines.extend(f"    {name}: {value}"
                         for name, value in sorted(counters.items()))
        return "\n".join(lines)

    def _trace(self, arguments: List[str]) -> str:
        from .obs import (active_telemetry, disable_telemetry,
                          enable_telemetry, telemetry_enabled)

        if not arguments:
            state = "on" if telemetry_enabled() else "off"
            return f"tracing is {state}"
        word = arguments[0].lower()
        if word == "on":
            enable_telemetry()
            return "tracing on — counters appear in 'stats'"
        if word == "off":
            disable_telemetry()
            telemetry = active_telemetry()
            collected = len(telemetry.counters) + len(telemetry.roots)
            return (f"tracing off ({collected} counters/spans collected;"
                    " still visible in 'stats' until re-enabled)")
        return "usage: trace [on|off]"

    def _profile(self, command: str) -> str:
        from .obs import Telemetry, use_telemetry
        from .obs.export import summary

        if not command:
            return "usage: profile COMMAND [ARGS...]"
        with use_telemetry(Telemetry()) as telemetry:
            output = self.execute(command)
        report = summary(telemetry, title=f"profile: {command}")
        return f"{output}\n\n{report}" if output else report

    def _help(self, arguments: List[str]) -> str:
        return __doc__.split("Commands::", 1)[1].strip("\n")

    def _quit(self, arguments: List[str]) -> str:
        self.done = True
        return "bye"

    # ------------------------------------------------------------------
    def run(self, stdin=None, stdout=None) -> None:
        """The interactive loop."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        stdout.write("Loosely structured database browser —"
                     " type 'help' for commands.\n")
        while not self.done:
            stdout.write(PROMPT)
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            output = self.execute(line)
            if output:
                stdout.write(output + "\n")


def _resolve(target: str):
    """Resolve a shell target to ``(database, session-or-None)``."""
    from . import datasets

    dataset = getattr(datasets, target, None)
    if dataset is not None and hasattr(dataset, "load"):
        return dataset.load(), None
    from .storage.session import open_database

    return open_database(target)


def _load(target: str) -> Database:
    """Resolve a shell target: a dataset name or a durable directory."""
    db, _session = _resolve(target)
    return db


def _serve_main(arguments: List[str]) -> int:
    """``serve`` mode: host a database behind the JSON-lines server."""
    import argparse

    from .serve import DatabaseService
    from .serve.net import ServiceServer

    parser = argparse.ArgumentParser(
        prog="python -m repro.shell serve",
        description="Serve a dataset or durable directory over TCP."
                    " The service holds heap and closure on interned"
                    " storage: a publish shares them, and the writer"
                    " folds the overlay of recent writes by itself"
                    " (the 'stats' verb shows the store block).")
    parser.add_argument("target", nargs="?", default=None,
                        help="dataset name or durable directory"
                             " (default: empty in-memory database)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474)
    parser.add_argument("--max-pending", type=int, default=1024,
                        help="admission queue bound")
    parser.add_argument("--deadline", type=float, default=None,
                        help="default per-request deadline in seconds")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="max queued writes applied per batch"
                             " (bounds how long one batch holds its"
                             " tickets; 0 = unbounded)")
    parser.add_argument("--workers", type=int, default=0,
                        help="replica worker processes for reads"
                             " (0 = serve reads from the primary)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect cross-process metrics (scrape with"
                             " the 'metrics' verb or tools/prom_exporter)")
    parser.add_argument("--slow-query", type=float, default=None,
                        metavar="SECONDS",
                        help="log reads slower than this many seconds")
    options = parser.parse_args(arguments)

    if options.metrics:
        from .obs import enable_telemetry

        enable_telemetry(fresh=True)
    if options.target is not None:
        db, session = _resolve(options.target)
    else:
        db, session = Database(), None
    service = DatabaseService(db, session=session,
                              max_pending=options.max_pending,
                              default_deadline=options.deadline,
                              max_batch=options.max_batch or None,
                              slow_query_seconds=options.slow_query)
    pool = None
    if options.workers > 0:
        from .serve.pool import ReplicaPool

        pool = ReplicaPool(service, workers=options.workers)
    server = ServiceServer(service, host=options.host, port=options.port,
                           pool=pool)
    host, port = server.address
    workers_note = (f" with {options.workers} replica worker(s)"
                    if pool is not None else "")
    print(f"serving {options.target or 'an empty database'}"
          f" on {host}:{port}{workers_note} (ctrl-c stops)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if pool is not None:
            pool.close()
        service.close()
    return 0


def _connect_main(arguments: List[str]) -> int:
    """``connect`` mode: a remote shell over an existing server."""
    from .serve.net import RemoteShell, ServiceClient

    if len(arguments) != 1:
        print("usage: python -m repro.shell connect HOST[:PORT]")
        return 2
    host, _, port_text = arguments[0].partition(":")
    port = int(port_text) if port_text else 7474
    with ServiceClient(host or "127.0.0.1", port) as client:
        RemoteShell(client).run()
    return 0


def _monitor_main(arguments: List[str]) -> int:
    """``monitor`` mode: live dashboard over a running server."""
    import argparse
    import time

    from .obs.monitor import render_dashboard
    from .serve.net import ServiceClient

    parser = argparse.ArgumentParser(
        prog="python -m repro.shell monitor",
        description="Render a live telemetry dashboard for a server"
                    " started with --metrics.")
    parser.add_argument("address", help="HOST[:PORT] of a running server")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between refreshes")
    parser.add_argument("--count", type=int, default=0,
                        help="stop after this many frames (0 = forever)")
    parser.add_argument("--no-clear", action="store_true",
                        help="append frames instead of clearing the screen")
    options = parser.parse_args(arguments)
    host, _, port_text = options.address.partition(":")
    port = int(port_text) if port_text else 7474

    previous = None
    frames = 0
    with ServiceClient(host or "127.0.0.1", port) as client:
        try:
            while True:
                sample = client.metrics()
                title = (f"repro monitor — {host or '127.0.0.1'}:{port}"
                         f" — frame {frames + 1}")
                frame = render_dashboard(
                    sample, previous,
                    options.interval if previous is not None else 1.0,
                    title=title)
                if not options.no_clear:
                    print("\033[2J\033[H", end="")
                print(frame, flush=True)
                previous = sample
                frames += 1
                if options.count and frames >= options.count:
                    break
                time.sleep(options.interval)
        except KeyboardInterrupt:
            pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if arguments and arguments[0] == "serve":
        return _serve_main(arguments[1:])
    if arguments and arguments[0] == "connect":
        return _connect_main(arguments[1:])
    if arguments and arguments[0] == "monitor":
        return _monitor_main(arguments[1:])
    if len(arguments) > 1:
        print("usage: python -m repro.shell"
              " [dataset-or-directory | serve ... | connect HOST[:PORT]"
              " | monitor HOST[:PORT]]")
        return 2
    db = _load(arguments[0]) if arguments else Database()
    BrowserShell(db).run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
