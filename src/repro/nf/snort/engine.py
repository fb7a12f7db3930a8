"""The Snort detection engine.

Mirrors the structure the paper relies on (Observation 1): when a flow's
initial packet arrives, the engine *assigns a rule-matching function* for
the flow — the subset of rules whose header part covers the five-tuple,
compiled into a :class:`FlowMatcher` — and the same matcher is invoked
for every subsequent packet.

The payload stage of a candidate set is compiled once into a
:class:`RuleGroup` and shared by every flow with the same header verdict
(Snort's port groups).  Per packet, a content prescan tests each of the
group's distinct patterns with a C-level substring search, and only the
content-free rules and the rules whose every content was found are
evaluated further: positional modifiers and pcre are verified exactly,
in rule order.  ``pass`` rules suppress ``alert``/``log`` verdicts for
packets they match, covering the three conditional branches of §VII-C1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Pattern, Sequence, Set, Tuple

from repro.net.flow import FiveTuple
from repro.nf.snort.aho_corasick import _LOWER
from repro.nf.snort.rules import RuleAction, SnortRule


@dataclass
class InspectionResult:
    """Outcome of inspecting one payload for one flow."""

    alerts: List[SnortRule] = field(default_factory=list)
    logs: List[SnortRule] = field(default_factory=list)
    passed: bool = False  # a pass rule matched and suppressed the rest

    @property
    def verdict(self) -> str:
        if self.passed:
            return "pass"
        if self.alerts:
            return "alert"
        if self.logs:
            return "log"
        return "clean"


class _CompiledRule:
    """One candidate's payload stage, precomputed at group compile time."""

    __slots__ = ("rule", "keys", "positional", "pcre", "is_pass")

    def __init__(self, rule: SnortRule, keys: FrozenSet[int]):
        self.rule = rule
        #: the group's content keys this rule needs, all of them found
        self.keys = keys
        #: offset/depth/distance/within: contents are verified in order
        self.positional = any(
            content.offset or content.depth is not None or content.is_relative
            for content in rule.contents
        )
        self.pcre: Optional[Pattern[bytes]] = rule.pcre
        self.is_pass = rule.action is RuleAction.PASS

    def payload_matches(self, payload: bytes) -> bool:
        """Full evaluation once the prescan found every content."""
        if self.positional:
            return self.rule.payload_matches(payload)
        return self.pcre is None or self.pcre.search(payload) is not None


class RuleGroup:
    """The compiled payload stage of one candidate rule set.

    A content key is one distinct ``(pattern, nocase)`` pair of the
    candidates; ``nocase`` patterns are stored lowered through
    ``_LOWER`` and tested against the lowered payload, which is Snort's
    ``nocase`` semantics.
    """

    __slots__ = ("rules", "compiled", "sensitive", "nocase", "users", "content_free")

    def __init__(self, rules: Sequence[SnortRule]):
        self.rules: Tuple[SnortRule, ...] = tuple(rules)
        key_of: Dict[Tuple[bytes, bool], int] = {}
        sensitive: List[Tuple[bytes, int]] = []
        nocase: List[Tuple[bytes, int]] = []
        users: List[List[int]] = []
        compiled: List[_CompiledRule] = []
        for index, rule in enumerate(self.rules):
            keys: Set[int] = set()
            for content in rule.contents:
                pattern = content.pattern.translate(_LOWER) if content.nocase else content.pattern
                key = key_of.get((pattern, content.nocase))
                if key is None:
                    key = key_of[(pattern, content.nocase)] = len(users)
                    (nocase if content.nocase else sensitive).append((pattern, key))
                    users.append([])
                if key not in keys:
                    users[key].append(index)
                    keys.add(key)
            compiled.append(_CompiledRule(rule, frozenset(keys)))
        self.compiled: Tuple[_CompiledRule, ...] = tuple(compiled)
        #: (pattern, key) pairs tested against the payload as is
        self.sensitive: Tuple[Tuple[bytes, int], ...] = tuple(sensitive)
        #: (lowered pattern, key) pairs tested against the lowered payload
        self.nocase: Tuple[Tuple[bytes, int], ...] = tuple(nocase)
        #: key -> indices of the candidates using it, ascending
        self.users: Tuple[Tuple[int, ...], ...] = tuple(tuple(u) for u in users)
        self.content_free: Tuple[int, ...] = tuple(
            index for index, rule in enumerate(self.rules) if not rule.contents
        )

    def __len__(self) -> int:
        return len(self.rules)

    def matched_keys(self, payload: bytes) -> Set[int]:
        """The content keys occurring anywhere in the payload."""
        found = {key for pattern, key in self.sensitive if pattern in payload}
        if self.nocase:
            lowered = payload.translate(_LOWER)
            found.update(key for pattern, key in self.nocase if pattern in lowered)
        return found

    def eligible(self, payload: bytes) -> List[_CompiledRule]:
        """Candidates that can still match, in candidate order.

        A rule with contents is eligible only when every one of its
        contents was found; any other rule cannot match the payload.
        """
        matched = self.matched_keys(payload)
        if not matched:
            return [self.compiled[index] for index in self.content_free]
        indices = set(self.content_free)
        for key in matched:
            indices.update(self.users[key])
        compiled = self.compiled
        return [
            compiled[index] for index in sorted(indices) if compiled[index].keys <= matched
        ]


class FlowMatcher:
    """The per-flow rule-matching function Snort assigns on flow setup.

    Holds the flow's *flowbits* — per-flow cross-packet state mutated by
    matching rules — which is exactly the "packet processing updates
    states and states decide packet data path" coupling of the paper's
    Challenge 2: the matcher is stateful, and SpeedyBox carries it to the
    fast path as a recorded state function.
    """

    __slots__ = ("flow", "group", "flowbits")

    def __init__(self, flow: FiveTuple, group: RuleGroup):
        self.flow = flow
        self.group = group
        self.flowbits: set = set()

    @property
    def candidates(self) -> Tuple[SnortRule, ...]:
        return self.group.rules

    def __len__(self) -> int:
        return len(self.group)

    def inspect(self, payload: bytes) -> InspectionResult:
        """Evaluate the candidate rules against one payload, in rule order.

        A matching rule's flowbits mutations apply immediately, so later
        rules in the same packet observe them.  A matching ``pass`` rule
        short-circuits the packet entirely (Snort's pass precedence).
        """
        result = InspectionResult()
        eligible = self.group.eligible(payload)
        if not eligible:
            return result
        bits = self.flowbits

        # Pass precedence: a pass rule matching this packet exempts it.
        for compiled in eligible:
            if (
                compiled.is_pass
                and compiled.rule.flowbits_allow(bits)
                and compiled.payload_matches(payload)
            ):
                result.passed = True
                return result

        for compiled in eligible:
            if compiled.is_pass:
                continue
            rule = compiled.rule
            if not rule.flowbits_allow(bits) or not compiled.payload_matches(payload):
                continue
            rule.flowbits_apply(bits)
            if rule.suppresses_output:
                continue
            if rule.action is RuleAction.ALERT:
                result.alerts.append(rule)
            elif rule.action is RuleAction.LOG:
                result.logs.append(rule)
        return result

    def __repr__(self) -> str:
        return f"<FlowMatcher {self.flow} ({len(self.group)} rules)>"


class DetectionEngine:
    """Rule set + per-candidate-set rule groups + per-flow matcher factory."""

    def __init__(self, rules: Sequence[SnortRule]):
        self.rules: List[SnortRule] = list(rules)
        #: candidate rule indices -> the group compiled for them
        self._groups: Dict[Tuple[int, ...], RuleGroup] = {}

    def __len__(self) -> int:
        return len(self.rules)

    def assign_flow_matcher(self, flow: FiveTuple) -> FlowMatcher:
        """Header-match every rule once; bind the flow to its candidate
        set's group, compiling the group on first use."""
        indices = tuple(i for i, rule in enumerate(self.rules) if rule.header_matches(flow))
        group = self._groups.get(indices)
        if group is None:
            group = self._groups[indices] = RuleGroup([self.rules[i] for i in indices])
        return FlowMatcher(flow, group)
