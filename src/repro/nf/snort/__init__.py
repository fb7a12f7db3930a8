"""Mini-Snort IDS (§VI-C).

A from-scratch reimplementation of the slice of Snort the paper
exercises: a rule-file parser for the classic rule syntax
(``alert tcp any any -> 10.0.0.0/24 80 (msg:...; content:...; sid:...)``),
rule groups compiled once per distinct candidate set (a C-level content
prescan, then content-keyed dispatch to the rules that can still match),
an Aho–Corasick automaton as the reference multi-pattern matcher,
``pcre`` regex support, and the three verdict branches (pass / alert /
log) that the paper's equivalence tests cover (§VII-C1).

Per Observation 1, Snort "assigns a rule matching function for each flow
as the initial packet arrives" and invokes the same function for
subsequent packets — :class:`SnortIDS` reproduces exactly that structure
and records the per-flow inspection function as its SpeedyBox state
function.
"""

from repro.nf.snort.aho_corasick import AhoCorasick
from repro.nf.snort.engine import DetectionEngine, FlowMatcher, InspectionResult, RuleGroup
from repro.nf.snort.nf import SnortIDS
from repro.nf.snort.rules import RuleAction, RuleParseError, SnortRule, parse_rule, parse_rules

__all__ = [
    "AhoCorasick",
    "DetectionEngine",
    "FlowMatcher",
    "InspectionResult",
    "RuleAction",
    "RuleGroup",
    "RuleParseError",
    "SnortIDS",
    "SnortRule",
    "parse_rule",
    "parse_rules",
]
