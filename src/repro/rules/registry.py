"""Rule registry with ``include``/``exclude`` (paper §6.1).

"As inference rules are representations of additional facts, they too
may be edited dynamically.  This allows us to turn inference rules off
and on, at will."

Example::

    from repro import Database

    db = Database()
    db.add("JOHN", "∈", "EMPLOYEE")
    db.add("EMPLOYEE", "EARNS", "SALARY")
    assert db.ask("(JOHN, EARNS, SALARY)")
    db.exclude("mem-source")            # turn inheritance off …
    assert not db.ask("(JOHN, EARNS, SALARY)")
    db.include("mem-source")            # … and back on
    assert db.ask("(JOHN, EARNS, SALARY)")
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..core.errors import UnknownRuleError
from .builtin import STANDARD_RULES
from .rule import Rule

RuleRef = Union[str, Rule]


class RuleRegistry:
    """Named rules, each independently enabled or disabled.

    Iterating the registry yields the *enabled* rules, in registration
    order — the set the closure engine applies.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 enabled: bool = True):
        self._rules: Dict[str, Rule] = {}
        self._enabled: Dict[str, bool] = {}
        self._compiled = None  # cached CompiledRuleSet for enabled rules
        for rule in (STANDARD_RULES if rules is None else rules):
            self.register(rule, enabled=enabled)

    # ------------------------------------------------------------------
    def register(self, rule: Rule, enabled: bool = True) -> None:
        """Add (or replace) a rule; newly registered rules default on."""
        self._rules[rule.name] = rule
        self._enabled[rule.name] = enabled
        self._compiled = None

    def _name_of(self, ref: RuleRef) -> str:
        name = ref.name if isinstance(ref, Rule) else ref
        if name not in self._rules:
            known = ", ".join(sorted(self._rules))
            raise UnknownRuleError(f"unknown rule {name!r} (known: {known})")
        return name

    def include(self, ref: RuleRef) -> None:
        """Enable a rule (the paper's ``include(rule)``).

        A :class:`Rule` object not yet registered is registered and
        enabled, so ``include`` doubles as dynamic rule addition (§6.1:
        rules "may be edited dynamically").
        """
        if isinstance(ref, Rule) and ref.name not in self._rules:
            self.register(ref, enabled=True)
            return
        self._enabled[self._name_of(ref)] = True
        self._compiled = None

    def exclude(self, ref: RuleRef) -> None:
        """Disable a rule (the paper's ``exclude(rule)``)."""
        self._enabled[self._name_of(ref)] = False
        self._compiled = None

    def remove(self, ref: RuleRef) -> None:
        """Forget a rule entirely."""
        name = self._name_of(ref)
        del self._rules[name]
        del self._enabled[name]
        self._compiled = None

    # ------------------------------------------------------------------
    def is_enabled(self, ref: RuleRef) -> bool:
        return self._enabled[self._name_of(ref)]

    def get(self, name: str) -> Rule:
        return self._rules[self._name_of(name)]

    def __contains__(self, ref: RuleRef) -> bool:
        name = ref.name if isinstance(ref, Rule) else ref
        return name in self._rules

    def __iter__(self) -> Iterator[Rule]:
        return (rule for name, rule in self._rules.items()
                if self._enabled[name])

    def __len__(self) -> int:
        """Number of *enabled* rules."""
        return sum(1 for _ in self)

    def all_rules(self) -> List[Rule]:
        """Every registered rule, enabled or not."""
        return list(self._rules.values())

    def enabled_names(self) -> List[str]:
        return [rule.name for rule in self]

    def snapshot_state(self) -> Dict[str, bool]:
        """Name → enabled map (used by persistence)."""
        return dict(self._enabled)

    def restore_state(self, state: Dict[str, bool]) -> None:
        """Re-apply a saved enable/disable map, ignoring unknown names."""
        for name, enabled in state.items():
            if name in self._rules:
                self._enabled[name] = enabled
        self._compiled = None

    def compiled(self):
        """The :class:`~repro.rules.dispatch.CompiledRuleSet` for the
        currently enabled rules.

        Compilation (pivoting, slot programs, dispatch index, head table)
        costs a few milliseconds, so the result is cached and
        invalidated whenever the registry changes — the dispatched
        engine then reuses it across every closure of the session.
        """
        if self._compiled is None or self._compiled.rules != list(self):
            from .dispatch import compile_ruleset
            self._compiled = compile_ruleset(list(self))
        return self._compiled
