"""Snort rule parsing.

Supports the classic rule grammar the paper's evaluation needs::

    alert tcp any any -> 10.0.0.0/24 80 (msg:"web attack"; \\
        content:"evil"; nocase; pcre:"/ev[i1]l/"; sid:1001; rev:2;)

Header part: action (``alert``/``log``/``pass``), protocol (``tcp``/
``udp``/``ip``), source address/port, direction (``->`` or ``<>``),
destination address/port.  Addresses are ``any``, a dotted quad, or CIDR;
ports are ``any``, a number, or an inclusive range ``lo:hi`` (either end
may be omitted).  Negation with a leading ``!`` is supported for
addresses and ports.

Options: ``msg``, ``content`` (repeatable; each may be followed by
``nocase``), ``pcre`` (Python ``re`` syntax between slashes, flag ``i``),
``sid``, ``rev``, ``priority``.  Unknown options raise, so rule files
stay honest.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Pattern, Tuple

from repro.net.addresses import ip_to_int
from repro.net.flow import FiveTuple, PROTO_TCP, PROTO_UDP


class RuleParseError(ValueError):
    """A rule line could not be parsed."""


class RuleAction(enum.Enum):
    """Rule verdict class: the three branches §VII-C1's tests cover."""

    ALERT = "alert"
    LOG = "log"
    PASS = "pass"


_PROTOCOLS = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "ip": None}


@dataclass(frozen=True)
class AddressSpec:
    """``any``, an address, or a CIDR prefix — possibly negated."""

    base: Optional[int] = None  # None means any
    prefix_len: int = 32
    negated: bool = False

    @classmethod
    def parse(cls, text: str) -> "AddressSpec":
        negated = text.startswith("!")
        if negated:
            text = text[1:]
        if text == "any":
            if negated:
                raise RuleParseError("'!any' matches nothing")
            return cls()
        if "/" in text:
            address, __, length_text = text.partition("/")
            try:
                length = int(length_text)
            except ValueError as exc:
                raise RuleParseError(f"bad prefix length in {text!r}") from exc
            if not 0 <= length <= 32:
                raise RuleParseError(f"prefix length out of range in {text!r}")
            try:
                return cls(base=ip_to_int(address), prefix_len=length, negated=negated)
            except ValueError as exc:
                raise RuleParseError(str(exc)) from exc
        try:
            return cls(base=ip_to_int(text), negated=negated)
        except ValueError as exc:
            raise RuleParseError(str(exc)) from exc

    def matches(self, address: int) -> bool:
        if self.base is None:
            return True
        if self.prefix_len == 0:
            hit = True
        else:
            mask = (0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF
            hit = (address & mask) == (self.base & mask)
        return hit != self.negated


@dataclass(frozen=True)
class PortSpec:
    """``any``, a port, or an inclusive range — possibly negated."""

    lo: int = 0
    hi: int = 65535
    negated: bool = False
    is_any: bool = True

    @classmethod
    def parse(cls, text: str) -> "PortSpec":
        negated = text.startswith("!")
        if negated:
            text = text[1:]
        if text == "any":
            if negated:
                raise RuleParseError("'!any' matches nothing")
            return cls()
        try:
            if ":" in text:
                lo_text, __, hi_text = text.partition(":")
                lo = int(lo_text) if lo_text else 0
                hi = int(hi_text) if hi_text else 65535
            else:
                lo = hi = int(text)
        except ValueError as exc:
            raise RuleParseError(f"bad port spec {text!r}") from exc
        if not (0 <= lo <= 65535 and 0 <= hi <= 65535 and lo <= hi):
            raise RuleParseError(f"port range out of order or range in {text!r}")
        return cls(lo=lo, hi=hi, negated=negated, is_any=False)

    def matches(self, port: int) -> bool:
        if self.is_any:
            return True
        hit = self.lo <= port <= self.hi
        return hit != self.negated


@dataclass(frozen=True)
class ContentOption:
    """One ``content`` with its modifiers.

    Absolute modifiers: ``offset`` skips that many payload bytes before
    searching; ``depth`` bounds how many bytes (from the offset) are
    searched.  Relative modifiers (to the END of the previous content's
    match): ``distance`` requires the match to start at least that many
    bytes later; ``within`` requires it to start no more than
    ``distance + within`` bytes later.  Matching is greedy-first (no
    backtracking), like Snort's common case.
    """

    pattern: bytes
    nocase: bool = False
    offset: int = 0
    depth: Optional[int] = None
    distance: Optional[int] = None
    within: Optional[int] = None

    @property
    def is_relative(self) -> bool:
        return self.distance is not None or self.within is not None

    def _find(self, payload: bytes, start: int, end_limit: Optional[int]) -> int:
        """First match index in payload[start:], respecting case; -1 if none."""
        haystack = payload
        needle = self.pattern
        if self.nocase:
            haystack = haystack.lower()
            needle = needle.lower()
        index = haystack.find(needle, max(0, start))
        if index < 0:
            return -1
        if end_limit is not None and index > end_limit:
            return -1
        return index

    def match_end(self, payload: bytes, previous_end: int) -> int:
        """The end offset of this content's match, or -1.

        ``previous_end`` anchors relative modifiers (end of the previous
        content's match; 0 for the first content).
        """
        if self.is_relative:
            start = previous_end + (self.distance or 0)
            limit = None
            if self.within is not None:
                limit = previous_end + (self.distance or 0) + self.within
            index = self._find(payload, start, limit)
        else:
            start = self.offset
            limit = None
            if self.depth is not None:
                # The whole pattern must fit inside [offset, offset+depth).
                limit = self.offset + self.depth - len(self.pattern)
                if limit < start:
                    return -1
            index = self._find(payload, start, limit)
        if index < 0:
            return -1
        return index + len(self.pattern)


@dataclass(frozen=True)
class FlowbitOp:
    """One ``flowbits`` option: cross-packet per-flow state.

    ``set``/``unset`` mutate the flow's bit set when the rule matches;
    ``isset``/``isnotset`` gate the rule on the current bits; ``noalert``
    suppresses the rule's output (classic two-stage detection: a setter
    rule with ``noalert`` arms a later alerting rule).
    """

    verb: str  # set | unset | isset | isnotset | noalert
    name: str = ""

    VERBS = ("set", "unset", "isset", "isnotset", "noalert")

    def __post_init__(self):
        if self.verb not in self.VERBS:
            raise RuleParseError(f"unsupported flowbits verb {self.verb!r}")
        if self.verb != "noalert" and not self.name:
            raise RuleParseError(f"flowbits {self.verb} needs a bit name")


@dataclass
class SnortRule:
    """One parsed rule."""

    action: RuleAction
    protocol: Optional[int]  # None = any IP protocol
    src: AddressSpec
    src_ports: PortSpec
    dst: AddressSpec
    dst_ports: PortSpec
    bidirectional: bool = False
    msg: str = ""
    contents: List[ContentOption] = field(default_factory=list)
    pcre: Optional[Pattern[bytes]] = None
    flowbits: List[FlowbitOp] = field(default_factory=list)
    sid: int = 0
    rev: int = 1
    priority: int = 3

    @property
    def suppresses_output(self) -> bool:
        return any(op.verb == "noalert" for op in self.flowbits)

    def flowbits_allow(self, bits: frozenset) -> bool:
        """Do the flow's current bits satisfy the isset/isnotset gates?"""
        for op in self.flowbits:
            if op.verb == "isset" and op.name not in bits:
                return False
            if op.verb == "isnotset" and op.name in bits:
                return False
        return True

    def flowbits_apply(self, bits: set) -> None:
        """Mutate the flow's bit set for a matching packet."""
        for op in self.flowbits:
            if op.verb == "set":
                bits.add(op.name)
            elif op.verb == "unset":
                bits.discard(op.name)

    def header_matches(self, flow: FiveTuple) -> bool:
        """Does the rule header cover this flow (either direction for <>)?"""
        if self.protocol is not None and flow.protocol != self.protocol:
            return False
        forward = (
            self.src.matches(flow.src_ip)
            and self.src_ports.matches(flow.src_port)
            and self.dst.matches(flow.dst_ip)
            and self.dst_ports.matches(flow.dst_port)
        )
        if forward:
            return True
        if not self.bidirectional:
            return False
        return (
            self.src.matches(flow.dst_ip)
            and self.src_ports.matches(flow.dst_port)
            and self.dst.matches(flow.src_ip)
            and self.dst_ports.matches(flow.src_port)
        )

    def payload_matches(self, payload: bytes) -> bool:
        """All contents match in order (absolute and relative modifiers
        honoured, greedy-first) and the pcre matches."""
        previous_end = 0
        for content in self.contents:
            end = content.match_end(payload, previous_end)
            if end < 0:
                return False
            previous_end = end
        if self.pcre is not None and self.pcre.search(payload) is None:
            return False
        return True

    def __repr__(self) -> str:
        return f"<SnortRule sid={self.sid} {self.action.value} '{self.msg}'>"


_HEADER_RE = re.compile(
    r"^(?P<action>\w+)\s+(?P<proto>\w+)\s+(?P<src>\S+)\s+(?P<sports>\S+)\s+"
    r"(?P<dir>->|<>)\s+(?P<dst>\S+)\s+(?P<dports>\S+)\s*\((?P<options>.*)\)\s*$"
)


def _split_options(text: str) -> List[str]:
    """Split the option block on ';' outside of quoted strings."""
    options: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == ";" and not in_quotes:
            options.append("".join(current).strip())
            current = []
            continue
        current.append(char)
    tail = "".join(current).strip()
    if tail:
        options.append(tail)
    return [option for option in options if option]


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        value = value[1:-1]
    return value.replace('\\"', '"').replace("\\\\", "\\")


def _decode_content(value: str) -> bytes:
    """Decode a content string with Snort's |hex| escapes."""
    text = _unquote(value)
    parts: List[bytes] = []
    in_hex = False
    buffer: List[str] = []
    for char in text:
        if char == "|":
            if in_hex:
                hex_text = "".join(buffer).replace(" ", "")
                if len(hex_text) % 2:
                    raise RuleParseError(f"odd-length hex in content: {value!r}")
                try:
                    parts.append(bytes.fromhex(hex_text))
                except ValueError as exc:
                    raise RuleParseError(f"bad hex in content: {value!r}") from exc
            elif buffer:
                parts.append("".join(buffer).encode("latin-1"))
            buffer = []
            in_hex = not in_hex
            continue
        buffer.append(char)
    if in_hex:
        raise RuleParseError(f"unterminated |hex| section in content: {value!r}")
    if buffer:
        parts.append("".join(buffer).encode("latin-1"))
    result = b"".join(parts)
    if not result:
        raise RuleParseError(f"empty content pattern: {value!r}")
    return result


def _compile_pcre(value: str) -> Pattern[bytes]:
    text = _unquote(value)
    if not text.startswith("/"):
        raise RuleParseError(f"pcre must be /re/flags, got {value!r}")
    closing = text.rfind("/")
    if closing == 0:
        raise RuleParseError(f"unterminated pcre: {value!r}")
    body, flags_text = text[1:closing], text[closing + 1 :]
    flags = 0
    for flag in flags_text:
        if flag == "i":
            flags |= re.IGNORECASE
        elif flag == "s":
            flags |= re.DOTALL
        elif flag == "m":
            flags |= re.MULTILINE
        else:
            raise RuleParseError(f"unsupported pcre flag {flag!r} in {value!r}")
    try:
        return re.compile(body.encode("latin-1"), flags)
    except re.error as exc:
        raise RuleParseError(f"bad pcre {value!r}: {exc}") from exc


def parse_rule(line: str) -> SnortRule:
    """Parse one rule line (comments/blank lines are the caller's concern)."""
    match = _HEADER_RE.match(line.strip())
    if match is None:
        raise RuleParseError(f"unparseable rule header: {line!r}")

    action_text = match.group("action").lower()
    try:
        action = RuleAction(action_text)
    except ValueError as exc:
        raise RuleParseError(f"unsupported rule action {action_text!r}") from exc

    proto_text = match.group("proto").lower()
    if proto_text not in _PROTOCOLS:
        raise RuleParseError(f"unsupported protocol {proto_text!r}")

    rule = SnortRule(
        action=action,
        protocol=_PROTOCOLS[proto_text],
        src=AddressSpec.parse(match.group("src")),
        src_ports=PortSpec.parse(match.group("sports")),
        dst=AddressSpec.parse(match.group("dst")),
        dst_ports=PortSpec.parse(match.group("dports")),
        bidirectional=match.group("dir") == "<>",
    )

    def modify_last_content(**changes) -> None:
        if not rule.contents:
            raise RuleParseError("content modifier without a preceding content")
        import dataclasses

        rule.contents[-1] = dataclasses.replace(rule.contents[-1], **changes)

    for option in _split_options(match.group("options")):
        name, separator, value = option.partition(":")
        name = name.strip().lower()
        if name == "nocase" and not separator:
            modify_last_content(nocase=True)
            continue
        if name == "offset":
            modify_last_content(offset=int(value.strip()))
            continue
        if name == "depth":
            depth = int(value.strip())
            if depth <= 0:
                raise RuleParseError(f"depth must be positive, got {depth}")
            modify_last_content(depth=depth)
            continue
        if name == "distance":
            modify_last_content(distance=int(value.strip()))
            continue
        if name == "within":
            within = int(value.strip())
            if within < 0:
                raise RuleParseError(f"within must be non-negative, got {within}")
            modify_last_content(within=within)
            continue
        if name == "flowbits":
            parts = [part.strip() for part in _unquote(value).split(",")]
            verb = parts[0].lower()
            bit_name = parts[1] if len(parts) > 1 else ""
            rule.flowbits.append(FlowbitOp(verb, bit_name))
            continue
        if name == "msg":
            rule.msg = _unquote(value)
        elif name == "content":
            rule.contents.append(ContentOption(_decode_content(value)))
        elif name == "pcre":
            rule.pcre = _compile_pcre(value)
        elif name == "sid":
            rule.sid = int(value.strip())
        elif name == "rev":
            rule.rev = int(value.strip())
        elif name == "priority":
            rule.priority = int(value.strip())
        else:
            raise RuleParseError(f"unsupported rule option {name!r}")
    return rule


_VAR_RE = re.compile(r"^var\s+(\w+)\s+(\S+)\s*$", re.IGNORECASE)
_VAR_REF_RE = re.compile(r"\$(\w+)")


def _substitute_vars(line: str, variables: dict) -> str:
    """Replace ``$NAME`` references with their ``var`` definitions."""

    def replace(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name not in variables:
            raise RuleParseError(f"undefined variable ${name}")
        return variables[name]

    return _VAR_REF_RE.sub(replace, line)


def parse_rules(text: str) -> List[SnortRule]:
    """Parse a rule file body.

    One rule per line; ``#`` comments and blank lines are skipped.
    ``var NAME value`` lines define variables referenced as ``$NAME`` in
    later rule headers (the classic ``var HOME_NET 10.0.0.0/8`` pattern);
    definitions may themselves reference earlier variables.
    """
    rules: List[SnortRule] = []
    variables: dict = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            var_match = _VAR_RE.match(line)
            if var_match:
                name, value = var_match.groups()
                variables[name] = _substitute_vars(value, variables)
                continue
            rules.append(parse_rule(_substitute_vars(line, variables)))
        except RuleParseError as exc:
            raise RuleParseError(f"line {line_number}: {exc}") from exc
    return rules
