"""Stack-based access control over the capability kernel.

The J-Kernel's capabilities are *possession*-based: holding a stub is the
authority to call it.  This module layers the Java 2 security model on
top (the AccessControlContext/DomainCombiner design, cf. "Generating
Stack-based Access Control Policies"): each protection domain may carry a
:class:`PermissionSet`, and a *guarded* capability call succeeds only
when every domain on the effective call chain implies the guard — the
effective permissions are the **intersection** across the chain, so an
unprivileged domain cannot launder a call through a privileged one
(confused deputy).

The chain is the LRMI segment stack of the current thread (every domain
the request has passed through, ``repro.core.segments``), with two
modifiers:

* :func:`do_privileged` truncates the walk at the caller's own frame —
  the deputy vouches for everything *above* it, but its own domain is
  still checked, so an unrestricted tenant cannot grant itself anything
  by calling ``do_privileged``.
* Cross-process calls carry a *compressed context* in the call frame
  (``repro.ipc.lrmi``): the caller side exports its effective restricted
  sets via :func:`exported_wire_context`, and the host side extends its
  local walk with them via :func:`imported_context` — the intersection
  spans processes.

Domains whose ``permissions`` attribute is ``None`` (the default) are
**unrestricted**: they never deny, and a chain containing only
unrestricted domains short-circuits to "allowed".  The policy layer
therefore costs nothing until a policy is actually installed — the LRMI
hot path is untouched, and policy state lives in this module's own
thread-local, not on the pooled thread segments.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from . import segments
from .errors import AccessDeniedError

__all__ = [
    "AccessControlContext",
    "Permission",
    "PermissionSet",
    "check_permission",
    "current_context",
    "do_privileged",
    "exported_wire_context",
    "imported_context",
    "restricted",
]

# Per-thread policy frames, strictly LIFO (pushed/popped under
# try/finally).  Each frame is a tuple ``(kind, payload)``:
#   ("priv", depth)     -- do_privileged scope opened at segment-stack
#                          ``depth``; truncates the walk at depth-1
#   ("imported", sets)  -- tuple of PermissionSets carried in by a
#                          cross-process call frame
_tls = threading.local()


def _frames():
    try:
        return _tls.frames
    except AttributeError:
        frames = _tls.frames = []
        return frames


class Permission:
    """One permission: a ``kind`` plus a ``target`` pattern.

    ``target`` supports a single trailing-``*`` glob (``"kv:orders/*"``);
    ``"*"`` matches everything of that kind.  The string form is
    ``"kind:target"`` (:meth:`parse`), which is also the wire form.
    """

    __slots__ = ("kind", "target")

    def __init__(self, kind, target="*"):
        if not kind or ":" in kind:
            raise ValueError(f"invalid permission kind: {kind!r}")
        self.kind = kind
        self.target = target

    @classmethod
    def parse(cls, text):
        """``"kind:target"`` (or bare ``"kind"``, target ``*``)."""
        if isinstance(text, Permission):
            return text
        kind, sep, target = text.partition(":")
        return cls(kind, target if sep else "*")

    def implies(self, other):
        """Does holding *self* satisfy a check for *other*?"""
        if self.kind != other.kind:
            return False
        pattern = self.target
        if pattern == "*":
            return True
        if pattern.endswith("*"):
            return other.target.startswith(pattern[:-1])
        return pattern == other.target

    def __eq__(self, other):
        return (
            isinstance(other, Permission)
            and self.kind == other.kind
            and self.target == other.target
        )

    def __hash__(self):
        return hash((self.kind, self.target))

    def __str__(self):
        return f"{self.kind}:{self.target}"

    def __repr__(self):
        return f"Permission({self.kind!r}, {self.target!r})"


class PermissionSet:
    """An immutable set of :class:`Permission` — one domain's policy.

    ``implies(p)`` is true when any member implies ``p``.  Construct from
    Permission objects or ``"kind:target"`` strings.
    """

    __slots__ = ("_permissions",)

    def __init__(self, permissions=()):
        parsed = tuple(
            dict.fromkeys(Permission.parse(p) for p in permissions)
        )
        self._permissions = parsed

    def implies(self, permission):
        for held in self._permissions:
            if held.implies(permission):
                return True
        return False

    def union(self, other):
        return PermissionSet((*self._permissions, *other))

    def wire(self):
        """Compressed wire form: tuple of ``(kind, target)`` pairs."""
        return tuple((p.kind, p.target) for p in self._permissions)

    @classmethod
    def from_wire(cls, pairs):
        return cls(Permission(kind, target) for kind, target in pairs)

    def __iter__(self):
        return iter(self._permissions)

    def __len__(self):
        return len(self._permissions)

    def __contains__(self, permission):
        return Permission.parse(permission) in self._permissions

    def __eq__(self, other):
        return (
            isinstance(other, PermissionSet)
            and self._permissions == other._permissions
        )

    def __hash__(self):
        return hash(self._permissions)

    def __repr__(self):
        inner = ", ".join(str(p) for p in self._permissions)
        return f"PermissionSet([{inner}])"


def coerce_policy(policy):
    """Normalise a policy argument: ``None``, a :class:`PermissionSet`,
    or an iterable of permissions / ``"kind:target"`` strings."""
    if policy is None or isinstance(policy, PermissionSet):
        return policy
    if isinstance(policy, (str, Permission)):
        return PermissionSet((policy,))
    return PermissionSet(policy)


# -- the walk -----------------------------------------------------------------

def _walk_state():
    """The effective walk inputs: ``(stack, cut, imported)``.

    ``cut`` is the lowest segment-stack index still checked (the most
    recent ``do_privileged`` scope truncates the walk there — at the
    deputy's *own* frame, which stays in the chain).  ``imported`` is the
    tuple of imported-frame payloads above that scope, most recent first.
    """
    stack = segments._stack()
    frames = getattr(_tls, "frames", None)
    cut = 0
    imported = ()
    if frames:
        collected = None
        for frame in reversed(frames):
            if frame[0] == "priv":
                cut = frame[1] - 1
                if cut < 0:
                    cut = 0
                break
            if collected is None:
                collected = []
            collected.append(frame[1])
        if collected:
            imported = tuple(collected)
    return stack, cut, imported


def check_chain(domains, permission):
    """The chain intersection both stack walks share: raise
    :class:`AccessDeniedError` naming the first of ``domains`` that does
    not imply ``permission``.  ``None`` entries and domains without an
    installed policy never deny."""
    for domain in domains:
        permissions = getattr(domain, "permissions", None)
        if permissions is not None and not permissions.implies(permission):
            raise AccessDeniedError(
                f"domain {domain.name!r} lacks permission {permission}",
                permission=str(permission),
                domain=domain.name,
            )


def check_permission(permission):
    """Raise :class:`AccessDeniedError` unless every domain on the
    effective call chain implies ``permission``.

    ``permission`` may be a :class:`Permission` or a ``"kind:target"``
    string.  Domains without an installed policy never deny.
    """
    if not isinstance(permission, Permission):
        permission = Permission.parse(permission)
    stack, cut, imported = _walk_state()
    check_chain([stack[index].domain
                 for index in range(len(stack) - 1, cut - 1, -1)],
                permission)
    for group in imported:
        for permission_set in group:
            if not permission_set.implies(permission):
                raise AccessDeniedError(
                    f"remote caller context lacks permission {permission}",
                    permission=str(permission),
                )


def do_privileged(fn, *args, **kwargs):
    """Run ``fn`` with the access-control walk truncated at the caller.

    The Java ``AccessController.doPrivileged`` analogue: permission
    checks inside ``fn`` stop walking at the calling frame's domain
    instead of the whole chain — the caller vouches for its callers.
    The caller's **own** domain remains in the walk, so an unprivileged
    domain gains nothing by wrapping a call in ``do_privileged``.
    """
    frames = _frames()
    frames.append(("priv", len(segments._stack())))
    try:
        return fn(*args, **kwargs)
    finally:
        frames.pop()


@contextmanager
def imported_context(wire_context):
    """Extend the walk with a compressed cross-process caller context.

    Used by the host side of ``repro.ipc.lrmi``: the caller's restricted
    permission sets arrive in the call frame and participate in every
    check the dispatched call performs.
    """
    if not wire_context:
        yield
        return
    sets = tuple(PermissionSet.from_wire(pairs) for pairs in wire_context)
    frames = _frames()
    frames.append(("imported", sets))
    try:
        yield
    finally:
        frames.pop()


def _effective_sets():
    """The restricted permission sets on the effective chain (deduped)."""
    stack, cut, imported = _walk_state()
    sets = []
    for index in range(len(stack) - 1, cut - 1, -1):
        permissions = getattr(stack[index].domain, "permissions", None)
        if permissions is not None:
            sets.append(permissions)
    for group in imported:
        sets.extend(group)
    return list(dict.fromkeys(sets))


def restricted():
    """Cheap probe: could the current chain possibly deny anything?

    ``False`` means no restricted domain and no imported context — the
    cross-process proxy fast path uses this to skip exporting a context.
    Conservative: may return ``True`` when only a ``do_privileged``
    marker is active.
    """
    if getattr(_tls, "frames", None):
        return True
    for segment in segments._stack():
        if getattr(segment.domain, "permissions", None) is not None:
            return True
    return False


def exported_wire_context():
    """The compressed context a cross-process call frame should carry.

    ``None`` when nothing on the chain is restricted (the common case —
    the frame stays byte-identical to the pre-policy wire); otherwise a
    tuple of :meth:`PermissionSet.wire` tuples.
    """
    sets = _effective_sets()
    if not sets:
        return None
    return tuple(s.wire() for s in sets)


class AccessControlContext:
    """A captured effective context (the Java ``AccessControlContext``).

    Snapshot the current chain with :meth:`capture` (or
    :func:`current_context`), then :meth:`check` later — e.g. from a
    different thread servicing a queued request on the original caller's
    authority.
    """

    __slots__ = ("_sets",)

    def __init__(self, sets=()):
        self._sets = tuple(dict.fromkeys(sets))

    @classmethod
    def capture(cls):
        return cls(_effective_sets())

    @property
    def permission_sets(self):
        return self._sets

    def check(self, permission):
        if not isinstance(permission, Permission):
            permission = Permission.parse(permission)
        for permission_set in self._sets:
            if not permission_set.implies(permission):
                raise AccessDeniedError(
                    f"captured context lacks permission {permission}",
                    permission=str(permission),
                )

    def compressed(self):
        """Wire form (the same shape :func:`exported_wire_context` uses)."""
        return tuple(s.wire() for s in self._sets) or None

    @classmethod
    def from_compressed(cls, wire_context):
        if not wire_context:
            return cls()
        return cls(
            PermissionSet.from_wire(pairs) for pairs in wire_context
        )

    def __repr__(self):
        return f"AccessControlContext({list(self._sets)!r})"


def current_context():
    """Capture the effective :class:`AccessControlContext` of this thread."""
    return AccessControlContext.capture()
