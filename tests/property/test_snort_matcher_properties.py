"""Property test: the rule-group matcher equals brute-force rule evaluation.

Random rule sets mix ``nocase``, ``offset``/``depth``,
``distance``/``within``, pcre, every flowbits verb, ``pass`` rules,
content-free rules, patterns shared by several rules and prefix or
overlapping patterns.  Random multi-packet flows (empty payloads
included) run through :class:`DetectionEngine` matchers and through a
reference written here that evaluates every candidate in rule order with
``SnortRule.payload_matches``; per packet the verdict, alerts, logs and
flowbits must be equal.  The group's content prescan must find exactly
the patterns an :class:`AhoCorasick` automaton finds.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.net.flow import FiveTuple, PROTO_TCP
from repro.nf.snort import AhoCorasick, DetectionEngine, RuleAction, SnortRule, parse_rules
from repro.nf.snort.rules import AddressSpec, ContentOption, FlowbitOp, PortSpec

#: a tiny alphabet with both cases, so patterns overlap, prefix each
#: other and differ only in case
ALPHABET = b"abAB"
PCRES = [re.compile(rb"a.b"), re.compile(rb"^b", re.IGNORECASE), re.compile(rb"(ab|BA)$")]
FLOWS = [
    FiveTuple.make("10.0.0.1", "10.0.0.9", 1000, 80, PROTO_TCP),
    FiveTuple.make("10.0.0.2", "10.0.0.9", 1001, 80, PROTO_TCP),
    FiveTuple.make("10.0.0.3", "10.0.0.9", 1002, 81, PROTO_TCP),
]

words = st.binary(min_size=1, max_size=3).map(
    lambda raw: bytes(ALPHABET[byte % len(ALPHABET)] for byte in raw)
)
payloads = st.binary(max_size=14).map(
    lambda raw: bytes(ALPHABET[byte % len(ALPHABET)] for byte in raw)
)


@st.composite
def contents(draw, pool):
    pattern = draw(st.sampled_from(pool))
    nocase = draw(st.booleans())
    kind = draw(st.sampled_from(["plain", "absolute", "relative"]))
    if kind == "absolute":
        return ContentOption(
            pattern,
            nocase=nocase,
            offset=draw(st.integers(0, 4)),
            depth=draw(st.none() | st.integers(1, 8)),
        )
    if kind == "relative":
        return ContentOption(
            pattern,
            nocase=nocase,
            distance=draw(st.integers(-2, 3)),
            within=draw(st.none() | st.integers(0, 6)),
        )
    return ContentOption(pattern, nocase=nocase)


@st.composite
def flowbit_ops(draw):
    verb = draw(st.sampled_from(FlowbitOp.VERBS))
    return FlowbitOp(verb, "" if verb == "noalert" else draw(st.sampled_from(["x", "y"])))


@st.composite
def rule_sets(draw):
    # One pattern pool for the whole set, so several rules share patterns.
    pool = draw(st.lists(words, min_size=1, max_size=5, unique=True))
    rules = []
    for sid in range(1, draw(st.integers(1, 12)) + 1):
        rules.append(
            SnortRule(
                action=draw(st.sampled_from(list(RuleAction))),
                protocol=None,
                src=AddressSpec(),
                src_ports=PortSpec(),
                dst=AddressSpec(),
                dst_ports=draw(st.sampled_from([PortSpec(), PortSpec(lo=80, hi=80, is_any=False)])),
                contents=draw(st.lists(contents(pool), max_size=3)),
                pcre=draw(st.none() | st.sampled_from(PCRES)),
                flowbits=draw(st.lists(flowbit_ops(), max_size=2)),
                sid=sid,
            )
        )
    return rules


def reference_inspect(candidates, bits, payload):
    """Every candidate in rule order, pass precedence first."""
    for rule in candidates:
        if (
            rule.action is RuleAction.PASS
            and rule.flowbits_allow(frozenset(bits))
            and rule.payload_matches(payload)
        ):
            return "pass", [], []
    alerts, logs = [], []
    for rule in candidates:
        if rule.action is RuleAction.PASS or not rule.flowbits_allow(frozenset(bits)):
            continue
        if not rule.payload_matches(payload):
            continue
        rule.flowbits_apply(bits)
        if rule.suppresses_output:
            continue
        (alerts if rule.action is RuleAction.ALERT else logs).append(rule.sid)
    verdict = "alert" if alerts else "log" if logs else "clean"
    return verdict, alerts, logs


def automaton_keys(group, payload):
    """The group's matched keys, found by two Aho–Corasick automatons."""
    found = set()
    for patterns, case_sensitive in ((group.sensitive, True), (group.nocase, False)):
        automaton = AhoCorasick(case_sensitive=case_sensitive)
        keys = {automaton.add(pattern): key for pattern, key in patterns}
        found.update(keys[pattern_id] for pattern_id in automaton.matched_ids(payload))
    return found


class TestRuleGroupMatcher:
    @given(
        rules=rule_sets(),
        packets=st.lists(
            st.tuples(st.integers(0, len(FLOWS) - 1), payloads), min_size=1, max_size=24
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_reference(self, rules, packets):
        engine = DetectionEngine(rules)
        matchers = [engine.assign_flow_matcher(flow) for flow in FLOWS]
        reference_bits = [set() for __ in FLOWS]
        for index, payload in packets:
            matcher = matchers[index]
            candidates = [rule for rule in rules if rule.header_matches(FLOWS[index])]
            assert list(matcher.candidates) == candidates

            result = matcher.inspect(payload)
            verdict, alerts, logs = reference_inspect(candidates, reference_bits[index], payload)
            assert result.verdict == verdict
            assert [rule.sid for rule in result.alerts] == alerts
            assert [rule.sid for rule in result.logs] == logs
            assert matcher.flowbits == reference_bits[index]
            assert matcher.group.matched_keys(payload) == automaton_keys(matcher.group, payload)

    @given(rules=rule_sets())
    @settings(max_examples=100, deadline=None)
    def test_flows_with_one_candidate_set_share_one_group(self, rules):
        engine = DetectionEngine(rules)
        first, second, other = (engine.assign_flow_matcher(flow) for flow in FLOWS)
        assert first.group is second.group
        assert (other.group is first.group) == (other.candidates == first.candidates)
        # The flowbits stay per flow even though the group is shared.
        assert first.flowbits is not second.flowbits


def test_dispatch_keeps_rule_order():
    # Content-free rule 10 enters the dispatch set before content rule 2;
    # they must still be reported in rule order.
    lines = []
    for sid in range(1, 13):
        content = {2: ' content:"needle";', 10: ""}.get(sid, ' content:"never";')
        lines.append(f"alert tcp any any -> any any (msg:\"r{sid}\";{content} sid:{sid};)")
    engine = DetectionEngine(parse_rules("\n".join(lines)))
    result = engine.assign_flow_matcher(FLOWS[0]).inspect(b"a needle")
    assert [rule.sid for rule in result.alerts] == [2, 10]
